"""One record table behind every registry.

A registered identifier keeps denoting one content (FAIR F1): a key is stored
once, registering it again with the same content changes nothing, and with
different content raises the registry's conflict error. Writes and listings
hold the table's one lock; single-key reads need none. Every write bumps
``version``, so what is derived from the records can carry the version it was
derived from.
"""

from __future__ import annotations

import operator
import threading
from typing import Callable, Generic, TypeVar

from .errors import SemintError

__all__ = ["RecordTable"]

R = TypeVar("R")


class RecordTable(Generic[R]):
    """Records keyed by canonical id."""

    def __init__(self, noun: str, unknown: type[SemintError] = SemintError, conflict: type[SemintError] = SemintError):
        self.noun = noun
        self.unknown = unknown
        self.conflict = conflict
        self.version = 0
        self._rows: dict[str, R] = {}
        self._lock = threading.Lock()

    def add(self, key: str, record: R, same: Callable[[R, R], bool] = operator.eq) -> bool:
        """Store ``record`` under ``key`` unless the key is taken, and say
        whether it was stored; a taken key whose record is not ``same`` as
        this one raises the conflict error."""
        with self._lock:
            existing = self._rows.get(key)
            if existing is None:
                self._rows[key] = record
                self.version += 1
                return True
        if not same(existing, record):
            raise self.conflict(f"{self.noun} {key} already registered with different content")
        return False

    def get(self, key: str) -> R:
        record = self._rows.get(key)
        if record is None:
            raise self.unknown(f"{self.noun} {key} not registered")
        return record

    def remove(self, key: str) -> bool:
        with self._lock:
            if self._rows.pop(key, None) is None:
                return False
            self.version += 1
            return True

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def sorted(self) -> list[R]:
        """The records in canonical id order."""
        with self._lock:
            return [record for _, record in sorted(self._rows.items())]

    def rows(self) -> tuple[tuple[R, ...], int]:
        """The records, unordered, with the version they reflect."""
        with self._lock:
            return tuple(self._rows.values()), self.version
