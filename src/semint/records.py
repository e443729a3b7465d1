"""One record table behind every registry.

A registered identifier keeps denoting one content (FAIR F1): a key is stored
once, registering it again with the same content changes nothing, and with
different content raises the registry's conflict error. Writes, listings and
derivations hold the table's one lock; single-key reads need none. A value
derived from the records is served until the next write; one that can be
updated is kept past the writes after it, with those writes, so the next value
is derived from it and the changes since rather than from every record. A
table's first records can be left to a fill that the first access runs.
"""

from __future__ import annotations

import functools
import threading
from typing import Any, Callable, Generic, Iterable, TypeVar

from .errors import SemintError

__all__ = ["RecordTable"]

R = TypeVar("R")
T = TypeVar("T")

#: a value is derived from the records again, not updated, once the writes
#: since its base reach this fraction of the records (as a divisor). On the
#: closure snapshots of generated stores (Python 3.11, 2 shared cores), an
#: update costs as much as a build with its node index and levels once the
#: writes are about a quarter of the rows after them: 4,800 rows added to
#: 16,000 took 83 against 81 ms, and 800 removed from 4,000 took 12 against
#: 11 ms. A fifth keeps an update below a build (3,200 added to 16,000: 57
#: against 95 ms)
_REBUILD_SHARE = 5


class RecordTable(Generic[R]):
    """Records keyed by canonical id."""

    def __init__(self, noun: str, unknown: type[SemintError] = SemintError, conflict: type[SemintError] = SemintError):
        self.noun = noun
        self.unknown = unknown
        self.conflict = conflict
        self._rows: dict[str, R] = {}
        # what was derived from the records since the last write, keyed by the
        # function that derived it; a write replaces the dict
        self._derived: dict[Callable, Any] = {}
        # the last value derived with an update, as (derive, value), and the
        # writes since it as (key, record, added), oldest first; nothing is
        # logged while there is no such value
        self._base: tuple[Callable, Any] | None = None
        self._log: list[tuple[str, R, bool]] = []
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
                with self._lock:
                    self._rows = {}
                    self._wrote()
                self._pending = functools.partial(_reraise, exc)
                raise
            finally:
                self._filling = False
            self._pending = None

    def add(self, key: str, record: R) -> bool:
        """Store ``record`` under ``key`` by the register-once rule
        (:meth:`_put`), and say whether it was stored."""
        self._settle()
        with self._lock:
            return self._put(key, record)

    def add_all(self, items: Iterable[tuple[str, R]]) -> None:
        """Store each ``(key, record)`` of ``items`` by the register-once
        rule (:meth:`_put`), in their order.

        The batch takes the lock once, so a reader sees none of it or all of
        it. A key taken, by the table or earlier in the batch, by an unequal
        record raises the conflict error, with the records before it stored.
        Each stored record is logged as its own write, as a single add is, so
        the log and the share past which it is dropped count the same writes.
        """
        self._settle()
        with self._lock:
            for key, record in items:
                self._put(key, record)

    def _put(self, key: str, record: R) -> bool:
        """The register-once rule, under the lock: store ``record`` unless
        ``key`` is taken, and say whether it was stored; a taken key whose
        record is unequal to this one raises the conflict error."""
        existing = self._rows.get(key)
        if existing is None:
            self._rows[key] = record
            self._wrote((key, record, True))
            return True
        if existing != record:
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
            record = self._rows.pop(key, None)
            if record is None:
                return False
            self._wrote((key, record, False))
            return True

    def _wrote(self, change: tuple[str, R, bool] | None = None) -> None:
        """Drop the derived values after a write, under the lock. The write
        goes into the log while there is a base, unless the log holds a fifth
        as many writes as the table holds records already; then the base and
        its log are dropped, and the next value is derived from the records
        again. ``None`` stands for a write that replaced every record."""
        self._derived = {}
        if self._base is None:
            return
        if change is None or len(self._log) >= len(self._rows) // _REBUILD_SHARE:
            self._base, self._log = None, []
        else:
            self._log.append(change)

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

    def derived(
        self,
        derive: Callable[[tuple[R, ...]], T],
        update: Callable[[T, tuple[R, ...], tuple[R, ...], tuple[R, ...]], T] | None = None,
    ) -> T:
        """``derive`` applied to the records, computed once between writes.

        With ``update``, the value is ``update(previous, rows, removed,
        added)`` when the table holds a previous value of ``derive`` and the
        writes since it: ``rows`` are the records that it was derived from
        less ``removed``, in their order, followed by ``added``, so a record
        removed and added again is in both. It must equal ``derive(rows)``
        and leave ``previous`` unchanged. Without a previous value it is
        ``derive(rows)``; either way it becomes the base of the next update.

        Writes and derivations hold the table's lock: a read that misses while
        another derives waits and reads that value, and a write waits for the
        derivation in progress. Neither function may write to this table.
        """
        self._settle()
        try:
            return self._derived[derive]
        except KeyError:
            pass
        with self._lock:
            if derive not in self._derived:
                rows = tuple(self._rows.values())
                if update is not None and self._base is not None and self._base[0] == derive:
                    value = update(self._base[1], rows, *_net(self._log))
                else:
                    value = derive(rows)
                self._derived[derive] = value
                if update is not None:
                    self._base, self._log = (derive, value), []
            return self._derived[derive]


def _net(log: list[tuple[str, R, bool]]) -> tuple[tuple[R, ...], tuple[R, ...]]:
    """The records that ``log``'s writes removed and added, net of each other:
    a record added and then removed is in neither. One removed and added
    again is in both, as the table moved it to its end, so the records after
    the writes are those before less the removed ones, in their order, then
    the added ones, in the order they were last added."""
    removed: dict[str, R] = {}
    added: dict[str, R] = {}
    for key, record, is_added in log:
        if is_added:
            added[key] = record
        elif added.pop(key, None) is None:
            removed[key] = record
    return tuple(removed.values()), tuple(added.values())


def _reraise(error: Exception) -> None:
    raise error
