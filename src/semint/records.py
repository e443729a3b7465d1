"""One record table behind every registry.

A registered identifier keeps denoting one content (FAIR F1): a key is stored
once, registering it again with the same content changes nothing, and with
different content raises the registry's conflict error. Writes and listings
hold the table's one lock; single-key reads need none. Every write starts a
new version of the table, and a value derived from the records of one version
is served only while that version is current. A table's first records can be
left to a fill that the first access runs.
"""

from __future__ import annotations

import functools
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
        # the deferred fill, until it has added every record; a failed fill is
        # replaced by one that raises its error again
        self._pending: Callable[[], None] | None = None
        self._fill_lock = threading.RLock()
        self._filling = False

    def defer(self, fill: Callable[[], None]) -> None:
        """Leave the table's first records to ``fill``, which adds them; the
        first access to the table runs it, before it reads or writes anything.

        It runs once, under a lock that every other first access waits on, so
        no access sees the table before the fill has added every record; the
        fill's own adds go through. A fill that raises leaves the table empty,
        and every later access raises the same error.
        """
        self._pending = fill

    def _settle(self) -> None:
        if self._pending is not None:
            self._run_pending()

    def _run_pending(self) -> None:
        with self._fill_lock:
            fill = self._pending
            if fill is None or self._filling:
                return
            self._filling = True
            try:
                fill()
            except Exception as exc:
                self._rows, self._derived = {}, {}
                self._pending = functools.partial(_reraise, exc)
                raise
            finally:
                self._filling = False
            self._pending = None

    def add(self, key: str, record: R, same: Callable[[R, R], bool] = operator.eq) -> bool:
        """Store ``record`` under ``key`` unless the key is taken, and say
        whether it was stored; a taken key whose record is not ``same`` as
        this one raises the conflict error."""
        self._settle()
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
        self._settle()
        record = self._rows.get(key)
        if record is None:
            raise self.unknown(f"{self.noun} {key} not registered")
        return record

    def remove(self, key: str) -> bool:
        self._settle()
        with self._lock:
            if self._rows.pop(key, None) is None:
                return False
            self._derived = {}
            return True

    def __contains__(self, key: str) -> bool:
        self._settle()
        return key in self._rows

    def sorted(self) -> list[R]:
        """The records in canonical id order."""
        self._settle()
        with self._lock:
            return [record for _, record in sorted(self._rows.items())]

    def rows(self) -> tuple[R, ...]:
        """The records, unordered."""
        self._settle()
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
        self._settle()
        values = self._derived
        try:
            return values[derive]
        except KeyError:
            pass
        with self._lock:
            rows, values = tuple(self._rows.values()), self._derived
        return values.setdefault(derive, derive(rows))


def _reraise(error: Exception) -> None:
    raise error
