from __future__ import annotations

import threading

import pytest

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


@pytest.mark.usefixtures("every_write_updates")
def test_value_derived_before_a_write_is_not_the_base_after_it():
    table: RecordTable[int] = RecordTable("number")
    table.add("a", 1)
    started, written = threading.Event(), threading.Event()
    summed = Summed()

    def slow(rows: tuple[int, ...]) -> int:
        started.set()
        written.wait(10)
        return summed.derive(rows)

    got: list[int] = []
    reader = threading.Thread(target=lambda: got.append(table.derived(slow, summed.update)))
    reader.start()
    started.wait(10)
    table.add("b", 2)  # no base yet, so this write is not logged
    written.set()
    reader.join(10)
    assert got == [1]  # the value of the version the read began at
    assert table.derived(slow, summed.update) == 3

    # with a base: the slower of two reads derives from an older version, and
    # the base stays the newer one
    started.clear()
    written.clear()
    slow_update_rows: list[tuple[int, ...]] = []

    def slow_update(previous, rows, removed, added):
        slow_update_rows.append(rows)
        started.set()
        written.wait(10)
        return summed.update(previous, rows, removed, added)

    table.add("c", 3)
    reader = threading.Thread(target=lambda: got.append(table.derived(slow, slow_update)))
    reader.start()
    started.wait(10)
    table.add("d", 4)
    assert table.derived(slow, summed.update) == 10
    written.set()
    reader.join(10)
    assert got == [1, 6]
    table.add("e", 5)
    assert table.derived(slow, summed.update) == 15
