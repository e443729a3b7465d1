"""One record table behind every registry.

A registered identifier keeps denoting one content (FAIR F1): a key is stored
once, registering it again with the same content changes nothing, and with
different content raises the registry's conflict error. Writes and listings
hold the table's one lock; single-key reads need none. Every write starts a
new version of the table, and a value derived from the records of one version
is served only while that version is current.
"""

from __future__ import annotations

import operator
import threading
from typing import Any, Callable, Generic, TypeVar

from .errors import SemintError

__all__ = ["RecordTable"]

R = TypeVar("R")
T = TypeVar("T")


class RecordTable(Generic[R]):
    """Records keyed by canonical id."""

    def __init__(self, noun: str, unknown: type[SemintError] = SemintError, conflict: type[SemintError] = SemintError):
        self.noun = noun
        self.unknown = unknown
        self.conflict = conflict
        self._rows: dict[str, R] = {}
        # what was derived from the current version, keyed by the function
        # that derived it; a write replaces the dict, so the values derived
        # from the old version are freed by the write, not by the next read
        self._derived: dict[Callable, Any] = {}
        self._lock = threading.Lock()

    def add(self, key: str, record: R, same: Callable[[R, R], bool] = operator.eq) -> bool:
        """Store ``record`` under ``key`` unless the key is taken, and say
        whether it was stored; a taken key whose record is not ``same`` as
        this one raises the conflict error."""
        with self._lock:
            existing = self._rows.get(key)
            if existing is None:
                self._rows[key] = record
                self._derived = {}
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
            self._derived = {}
            return True

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def sorted(self) -> list[R]:
        """The records in canonical id order."""
        with self._lock:
            return [record for _, record in sorted(self._rows.items())]

    def rows(self) -> tuple[R, ...]:
        """The records, unordered."""
        with self._lock:
            return tuple(self._rows.values())

    def derived(self, derive: Callable[[tuple[R, ...]], T]) -> T:
        """``derive`` applied to the records, computed once per version.

        The records and the dict their value goes into are taken together, so
        a value derived from the records before a write lands in the dict the
        write dropped: it is returned to its own caller, a read that began
        before the write, and never served after it. Two readers that miss at
        once may both derive; both return the value stored first.
        """
        values = self._derived
        try:
            return values[derive]
        except KeyError:
            pass
        with self._lock:
            rows, values = tuple(self._rows.values()), self._derived
        return values.setdefault(derive, derive(rows))
