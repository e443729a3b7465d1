from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from semint.errors import SemintError
from semint.records import RecordTable


class Summed:
    """A derived sum of a table's records that counts how it was computed."""

    def __init__(self):
        self.builds: list[tuple[int, ...]] = []
        self.updates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def derive(self, rows: tuple[int, ...]) -> int:
        self.builds.append(rows)
        return sum(rows)

    def update(self, previous: int, rows: tuple[int, ...], removed: tuple[int, ...], added: tuple[int, ...]) -> int:
        self.updates.append((removed, added))
        return previous - sum(removed) + sum(added)

    def read(self, table: RecordTable[int]) -> int:
        return table.derived(self.derive, self.update)


@pytest.mark.usefixtures("every_write_updates")
def test_derived_value_is_updated_from_the_last_one():
    table: RecordTable[int] = RecordTable("number")
    summed = Summed()
    for k in range(4):
        table.add(f"k{k}", k + 1)
    assert summed.read(table) == 10 and len(summed.builds) == 1
    assert summed.read(table) == 10 and len(summed.builds) == 1  # same version

    table.add("k9", 100)
    assert table.remove("k0")
    assert summed.read(table) == 109
    assert summed.updates == [((1,), (100,))] and len(summed.builds) == 1

    # a record added and removed again nets out; one removed and added again
    # is a removal and an addition, as the table moved it to its end
    table.add("k8", 50)
    assert table.remove("k8")
    assert table.remove("k1")
    table.add("k1", 2)
    assert summed.read(table) == 109
    assert summed.updates[-1] == ((2,), (2,))
    assert table.rows() == (3, 4, 100, 2)

    # a key removed and added with other content is a removal and an addition
    assert table.remove("k1")
    table.add("k1", 7)
    assert summed.read(table) == 114
    assert summed.updates[-1] == ((2,), (7,))
    assert len(summed.builds) == 1


@pytest.mark.usefixtures("every_write_updates")
def test_log_is_bounded_by_the_table():
    # more writes than records since the base: the base and its log are
    # dropped, and the next value is derived from the records
    table: RecordTable[int] = RecordTable("number")
    summed = Summed()
    table.add("a", 1)
    table.add("b", 2)
    assert summed.read(table) == 3
    for k in range(2):
        assert table.remove("a")
        table.add("a", 1)
    assert table._base is None and table._log == []
    assert summed.read(table) == 3
    assert len(summed.builds) == 2 and summed.updates == []
    # a value derived without an update keeps no base, so nothing is logged
    plain: RecordTable[int] = RecordTable("number")
    plain.add("a", 1)
    assert plain.derived(sum) == 1
    plain.add("b", 2)
    assert plain._base is None and plain._log == []
    assert plain.derived(sum) == 3


def test_a_batch_past_the_share_of_the_records_derives_again():
    # 200 records and 50 more: the log holds 50 writes, a fifth of the 250
    # records after them, and one more write drops it
    for size, updated in ((50, True), (51, False)):
        table: RecordTable[int] = RecordTable("number")
        summed = Summed()
        for k in range(200):
            table.add(f"k{k}", k)
        assert summed.read(table) == sum(range(200))
        for k in range(size):
            table.add(f"new{k}", 1)
        assert (table._base is not None) == updated, size
        assert summed.read(table) == sum(range(200)) + size
        assert (len(summed.updates), len(summed.builds)) == ((1, 1) if updated else (0, 2)), size


class Conflict(SemintError):
    pass


def test_add_all_skips_a_taken_key_with_an_equal_record():
    table: RecordTable[int] = RecordTable("number")
    table.add("a", 1)
    summed = Summed()
    assert summed.read(table) == 1
    table.add_all([("a", 1), ("b", 2), ("b", 2)])
    assert table.rows() == (1, 2)
    # a batch that stores nothing is no write: the derived value stays
    assert summed.read(table) == 3 and len(summed.builds) == 2
    table.add_all([("a", 1), ("b", 2)])
    assert summed.read(table) == 3 and len(summed.builds) == 2


def test_add_all_with_a_conflict_raises_after_the_records_before_it():
    table: RecordTable[int] = RecordTable("number", conflict=Conflict)
    table.add("a", 1)
    with pytest.raises(Conflict, match="number a already registered with different content"):
        table.add_all([("b", 2), ("a", 3), ("c", 3)])
    with pytest.raises(Conflict, match="number d already registered"):
        table.add_all([("d", 4), ("d", 5)])  # taken earlier in the batch
    assert table.rows() == (1, 2, 4)


def test_a_derived_value_is_dropped_after_a_batch():
    table: RecordTable[int] = RecordTable("number")
    table.add("a", 1)
    assert table.derived(sum) == 1
    table.add_all([("b", 2), ("c", 3)])
    assert table.derived(sum) == 6


def _after_writes(stored: int, batch: int, add_all: bool) -> tuple:
    """The base and log of a table of ``stored`` records with a derived value,
    after ``batch`` more records stored one by one or as one batch, and how
    the next value is derived."""
    table: RecordTable[int] = RecordTable("number")
    summed = Summed()
    for k in range(stored):
        table.add(f"k{k}", k)
    summed.read(table)
    new = [(f"new{k}", k) for k in range(batch)]
    if add_all:
        table.add_all(new)
    else:
        for key, record in new:
            table.add(key, record)
    state = (table._base is not None, list(table._log), table.rows())
    summed.read(table)
    return state, len(summed.builds), summed.updates


@pytest.mark.usefixtures("every_write_updates")
def test_a_batch_logs_the_writes_single_adds_would():
    # with the share at one write per record, adds alone never reach it: the
    # log grows by one write as the table grows by one record
    for stored in range(1, 6):
        for batch in range(0, 3 * stored):
            one_by_one = _after_writes(stored, batch, add_all=False)
            assert _after_writes(stored, batch, add_all=True) == one_by_one, (stored, batch)
            assert one_by_one[0][0] and len(one_by_one[0][1]) == batch


def test_a_batch_past_the_share_drops_the_base_where_single_adds_would():
    kept = set()
    for stored, batches in [(s, range(12)) for s in range(1, 30)] + [(200, range(48, 53))]:
        for batch in batches:
            one_by_one = _after_writes(stored, batch, add_all=False)
            assert _after_writes(stored, batch, add_all=True) == one_by_one, (stored, batch)
            kept.add(one_by_one[0][0])
    assert kept == {True, False}
    # 200 records and 50 more keep the base, as test_a_batch_past_the_share_of_the_records_derives_again finds
    assert _after_writes(200, 50, add_all=True)[0][0] and not _after_writes(200, 51, add_all=True)[0][0]


@pytest.mark.usefixtures("every_write_updates")
def test_a_write_waits_for_a_derivation_in_progress():
    table: RecordTable[int] = RecordTable("number")
    table.add("a", 1)
    deriving, release, writing, wrote = (threading.Event() for _ in range(4))
    summed = Summed()

    def slow(rows: tuple[int, ...]) -> int:
        deriving.set()
        assert release.wait(10)
        return summed.derive(rows)

    def write() -> None:
        writing.set()
        table.add("b", 2)
        wrote.set()

    got: list[int] = []
    reader = threading.Thread(target=lambda: got.append(table.derived(slow, summed.update)))
    reader.start()
    assert deriving.wait(10)
    writer = threading.Thread(target=write)
    writer.start()
    assert writing.wait(10)
    assert not wrote.wait(0.2) and "b" not in table  # blocked behind the derivation
    release.set()
    reader.join(10)
    writer.join(10)
    assert not reader.is_alive() and not writer.is_alive() and wrote.is_set()
    assert got == [1]  # the value from before the write
    # which is the base the write was logged against: one update, no second build
    assert table.derived(slow, summed.update) == 3
    assert summed.updates == [((), (2,))] and summed.builds == [(1,)]


def test_readers_that_miss_at_once_derive_once():
    table: RecordTable[int] = RecordTable("number")
    for k in range(4):
        table.add(f"k{k}", k)
    summed = Summed()
    barrier = threading.Barrier(4)

    def slow(rows: tuple[int, ...]) -> int:
        time.sleep(0.1)  # long enough for every reader to miss
        return summed.derive(rows)

    def read() -> int:
        barrier.wait(10)
        return table.derived(slow, summed.update)

    with ThreadPoolExecutor(4) as pool:
        futures = [pool.submit(read) for _ in range(4)]
        assert [future.result(10) for future in futures] == [6] * 4
    assert len(summed.builds) == 1
