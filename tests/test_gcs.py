"""Tests for the GCS store, naming scheme and typed tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import GCSTransactionError
from repro.gcs import (
    GCSStore,
    GlobalControlStore,
    Lineage,
    ObjectLocation,
    TaskName,
)
from repro.gcs.tables import TaskDescriptor


class TestTaskNameAndLineage:
    def test_ordering_and_next(self):
        a = TaskName(1, 2, 0)
        assert a.next() == TaskName(1, 2, 1)
        assert a < TaskName(1, 2, 1) < TaskName(2, 0, 0)
        assert a.channel_key() == (1, 2)
        assert str(a) == "(1,2,0)"

    def test_lineage_consumed_objects(self):
        lineage = Lineage(
            task=TaskName(2, 1, 3),
            upstream_stage=1,
            upstream_channel=0,
            start_seq=4,
            count=3,
        )
        assert lineage.consumed() == (
            TaskName(1, 0, 4),
            TaskName(1, 0, 5),
            TaskName(1, 0, 6),
        )
        assert not lineage.is_input

    def test_input_lineage(self):
        lineage = Lineage(task=TaskName(0, 1, 2), input_split=7)
        assert lineage.is_input
        assert lineage.consumed() == ()

    def test_lineage_is_tiny(self):
        lineage = Lineage(TaskName(1, 1, 1), 0, 0, 0, 1000)
        assert lineage.nbytes() < 1024  # KB-sized, per the paper's motivation


class TestGCSStore:
    def test_put_get_delete(self):
        store = GCSStore()
        store.put("t", "k", 1)
        assert store.get("t", "k") == 1
        assert store.contains("t", "k")
        store.delete("t", "k")
        assert store.get("t", "k") is None
        assert store.get("t", "k", default=42) == 42

    def test_transaction_atomicity(self):
        store = GCSStore()
        txn = store.transaction()
        txn.put("a", 1, "x").put("b", 2, "y").delete("a", "missing")
        assert store.get("a", 1) is None  # nothing visible before commit
        txn.commit()
        assert store.get("a", 1) == "x"
        assert store.get("b", 2) == "y"
        assert store.stats.transactions == 1

    def test_transaction_context_manager_commits(self):
        store = GCSStore()
        with store.transaction() as txn:
            txn.put("t", "k", "v")
        assert store.get("t", "k") == "v"

    def test_double_commit_rejected(self):
        store = GCSStore()
        txn = store.transaction().put("t", "k", 1)
        txn.commit()
        with pytest.raises(GCSTransactionError):
            txn.commit()

    def test_log_replay_reconstructs_state(self):
        store = GCSStore()
        store.put("t", "a", 1)
        with store.transaction() as txn:
            txn.put("t", "b", 2)
            txn.delete("t", "a")
        store.put("u", "c", 3)
        rebuilt = store.replay_log()
        assert rebuilt.get("t", "a") is None
        assert rebuilt.get("t", "b") == 2
        assert rebuilt.get("u", "c") == 3
        assert store.log_length == 3

    def test_log_replay_prefix(self):
        store = GCSStore()
        store.put("t", "k", "first")
        store.put("t", "k", "second")
        assert store.replay_log(upto=1).get("t", "k") == "first"

    def test_snapshot_restore(self):
        store = GCSStore()
        store.put("t", "k", 1)
        snap = store.snapshot()
        store.put("t", "k", 2)
        store.restore(snap)
        assert store.get("t", "k") == 1

    def test_version_advances_per_committed_transaction_and_restore_only(self):
        store = GCSStore()
        assert store.version == 0
        store.put("t", "k", 1)
        assert store.version == 1
        with store.transaction() as txn:  # several operations, one transaction
            txn.put("t", "a", 2).put("u", "b", 3).delete("t", "k")
        assert store.version == 2
        store.delete("t", "missing")
        assert store.version == 3
        store.transaction().commit()  # nothing staged: nothing committed
        snap = store.snapshot()
        store.get("t", "a")
        store.contains("u", "b")
        store.items("t")
        store.keys("u")
        store.table_size("t")
        list(store.iter_log())
        store.replay_log()
        assert store.version == 3
        store.restore(snap)
        assert store.version == 4
        assert store.version == store.log_length + 1

    def test_stats_counters(self):
        store = GCSStore()
        store.put("t", "k", 1)
        store.get("t", "k")
        store.delete("t", "k")
        assert store.stats.writes == 1
        assert store.stats.reads == 1
        assert store.stats.deletes == 1
        assert store.stats.logged_bytes > 0


class TestTypedTables:
    def test_lineage_table_roundtrip(self):
        gcs = GlobalControlStore()
        lineage = Lineage(TaskName(1, 0, 0), 0, 2, 0, 5)
        gcs.lineage.commit(lineage)
        assert gcs.lineage.contains(TaskName(1, 0, 0))
        assert gcs.lineage.get(TaskName(1, 0, 0)) == lineage
        assert len(gcs.lineage) == 1

    def test_lineage_for_channel_ordered(self):
        gcs = GlobalControlStore()
        for seq in [2, 0, 1]:
            gcs.lineage.commit(Lineage(TaskName(1, 0, seq), 0, 0, seq, 1))
        gcs.lineage.commit(Lineage(TaskName(1, 1, 0), 0, 0, 0, 1))
        records = gcs.lineage.for_channel(1, 0)
        assert [lin.task.seq for lin in records] == [0, 1, 2]
        assert gcs.lineage.committed_count(1, 0) == 3
        assert gcs.lineage.total_nbytes() < 10_000

    def test_task_table_assignment_and_ordering(self):
        gcs = GlobalControlStore()
        gcs.tasks.add(TaskDescriptor(TaskName(1, 0, 5), worker_id=0))
        gcs.tasks.add(TaskDescriptor(TaskName(0, 0, 2), worker_id=0, kind="replay"))
        gcs.tasks.add(TaskDescriptor(TaskName(2, 1, 0), worker_id=1))
        mine = gcs.tasks.for_worker(0)
        assert [t.kind for t in mine] == ["replay", "execute"]
        assert len(gcs.tasks.for_worker(1)) == 1
        gcs.tasks.remove(TaskName(1, 0, 5))
        assert len(gcs.tasks) == 2

    def test_task_commit_transaction_pattern(self):
        """The Algorithm-1 commit: lineage write + task swap in one transaction."""
        gcs = GlobalControlStore()
        task = TaskName(1, 0, 0)
        gcs.tasks.add(TaskDescriptor(task, worker_id=3))
        with gcs.transaction() as txn:
            gcs.lineage.commit(Lineage(task, 0, 0, 0, 2), txn=txn)
            gcs.tasks.remove(task, txn=txn)
            gcs.tasks.add(TaskDescriptor(task.next(), worker_id=3), txn=txn)
        assert gcs.lineage.contains(task)
        assert gcs.tasks.get(task) is None
        assert gcs.tasks.get(task.next()).worker_id == 3
        assert gcs.store.stats.transactions == 2  # initial add + the commit bundle

    def test_object_directory_drop_worker(self):
        gcs = GlobalControlStore()
        gcs.objects.record(ObjectLocation(TaskName(0, 0, 0), worker_id=1, nbytes=100))
        gcs.objects.record(ObjectLocation(TaskName(0, 1, 0), worker_id=2, nbytes=100))
        gcs.objects.record(
            ObjectLocation(TaskName(0, 2, 0), worker_id=1, nbytes=100, durable=True)
        )
        lost = gcs.objects.drop_worker(1)
        assert lost == [TaskName(0, 0, 0)]
        assert gcs.objects.get(TaskName(0, 0, 0)) is None
        # durable (spooled) objects survive worker failure
        assert gcs.objects.get(TaskName(0, 2, 0)) is not None
        assert gcs.objects.get(TaskName(0, 1, 0)).worker_id == 2

    def test_placement(self):
        gcs = GlobalControlStore()
        gcs.placement.assign(1, 0, 4)
        gcs.placement.assign(1, 1, 5)
        gcs.placement.assign(2, 0, 4)
        assert gcs.placement.worker_for(1, 1) == 5
        assert gcs.placement.channels_on_worker(4) == [(1, 0), (2, 0)]
        with pytest.raises(KeyError):
            gcs.placement.worker_for(9, 9)

    def test_control_flags(self):
        gcs = GlobalControlStore()
        assert not gcs.control.recovery_in_progress()
        gcs.control.set_recovery_in_progress(True)
        assert gcs.control.recovery_in_progress()
        gcs.control.set_recovery_in_progress(False)
        assert not gcs.control.recovery_in_progress()
        assert not gcs.control.query_done()
        gcs.control.mark_query_done()
        assert gcs.control.query_done()
        gcs.control.record_failed_worker(2)
        gcs.control.record_failed_worker(2)
        gcs.control.record_failed_worker(5)
        assert gcs.control.failed_workers() == [2, 5]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 20)),
        min_size=1,
        max_size=50,
        unique=True,
    )
)
def test_property_lineage_table_roundtrips_every_record(entries):
    gcs = GlobalControlStore()
    for stage, channel, seq in entries:
        gcs.lineage.commit(Lineage(TaskName(stage, channel, seq), 0, 0, 0, 1))
    assert len(gcs.lineage) == len(entries)
    for stage, channel, seq in entries:
        assert gcs.lineage.contains(TaskName(stage, channel, seq))
