"""Wiring of the registries into one engine exposing the three services.

The engine holds the prefix map and the terminology from the start. Every
other registry is built, and its module imported, by the first access to it,
after the registries it is built over, so a process imports and builds only
the services it runs.
"""

from __future__ import annotations

import importlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from .identifiers import PrefixMap
from .terminology import TerminologyRegistry

if TYPE_CHECKING:
    from .crosswalks import CrosswalkRegistry
    from .fdo import FdoRegistry
    from .operations import OperationsRegistry
    from .schemas import SchemaRegistry

#: each registry built on first access: its module, class, and the registries it is built over
_REGISTRIES = {
    "schemas": ("schemas", "SchemaRegistry", ("terminology",)),
    "crosswalks": ("crosswalks", "CrosswalkRegistry", ("schemas",)),
    "operations": ("operations", "OperationsRegistry", ("schemas", "crosswalks")),
    "fdos": ("fdo", "FdoRegistry", ("terminology", "schemas", "crosswalks")),
}


@dataclass
class Engine:
    """All registries over one prefix map: terminology, schema, and operations
    services plus the record store.

    ``schemas``, ``crosswalks``, ``operations`` and ``fdos`` are each built,
    under the engine's lock, by the first access, which then calls
    ``on_build`` with the name and the registry before it returns it; a build
    that raises leaves the registry unbuilt, for the next access to retry.
    """

    prefix_map: PrefixMap
    terminology: TerminologyRegistry
    on_build: Callable[[str, Any], None] | None = field(default=None, repr=False)
    _lock: Any = field(default_factory=threading.RLock, init=False, repr=False, compare=False)

    if TYPE_CHECKING:
        schemas: SchemaRegistry
        crosswalks: CrosswalkRegistry
        operations: OperationsRegistry
        fdos: FdoRegistry

    @classmethod
    def empty(cls, prefix_map: PrefixMap | None = None) -> "Engine":
        prefix_map = prefix_map or PrefixMap()
        return cls(prefix_map, TerminologyRegistry(prefix_map))

    def __getattr__(self, name: str):
        # called only for an attribute the engine does not hold: a registry not built yet
        if name not in _REGISTRIES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        module, cls, over = _REGISTRIES[name]
        with self._lock:
            if name not in vars(self):
                build = getattr(importlib.import_module(f".{module}", __package__), cls)
                registry = build(*(getattr(self, n) for n in over))
                if self.on_build is not None:
                    self.on_build(name, registry)
                vars(self)[name] = registry
        return vars(self)[name]
