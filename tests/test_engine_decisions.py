"""Skipping idle channels never changes a scheduling decision.

A TaskManager skips a channel task while the GCS version and the worker's
flight version are those of the channel's last fruitless input selection
(``ExecutionContext.idle``); the selection itself (``_choose_action``)
reads flight pieces per upstream channel and stops verifying a run at the
static batch size.  The ``decisions`` fixture runs the straightforward
procedure below — a full selection over a flat copy of the consumer's
buffer, keyed by task name — next to every selection and every skip, and
asserts the same action (none, for a skip) and the same pieces left
buffered.  The scenarios cover dynamic and static scheduling, recovery
and a shared session.
"""

import dataclasses

import pytest

from repro.api import QuokkaContext
from repro.cluster.faults import FailurePlan
from repro.common.config import ClusterConfig, EngineConfig
from repro.core import Session
from repro.core.engine import ExecutionContext
from repro.core.options import QueryOptions
from repro.data.batch import Batch
from repro.gcs.naming import Lineage, TaskName
from repro.tpch import build_query, generate_catalog
from repro.tpch.reference import reference_answer

# -- the reference decision (no memo, no index, no cap) --------------------------------


def _flat_buffer(execution, worker, runtime, stage):
    """``{producer task: piece}`` buffered for the channel from its upstreams."""
    consumer = (stage.stage_id, runtime.channel)
    buffer = {}
    for link in stage.upstreams:
        upstream = execution.graph.stage(link.upstream_id)
        for upstream_channel in range(upstream.num_channels):
            pieces = worker.flight.pieces_from(consumer, link.upstream_id, upstream_channel)
            for seq, piece in pieces.items():
                buffer[TaskName(link.upstream_id, upstream_channel, seq)] = piece
    return buffer


def _reference_discard_below(buffer, upstream_stage, upstream_channel, watermark_seq):
    stale = [
        name
        for name in buffer
        if name.stage == upstream_stage
        and name.channel == upstream_channel
        and name.seq < watermark_seq
    ]
    for name in stale:
        del buffer[name]
    return len(stale)


def _reference_available_run(execution, buffer, upstream_stage, upstream_channel, watermark):
    count = 0
    while True:
        name = TaskName(upstream_stage, upstream_channel, watermark + count)
        piece = buffer.get(name)
        if piece is None or not execution.gcs.lineage.contains(name):
            break
        count += 1
    return count


def _reference_choose_action(execution, runtime, stage, buffer):
    if execution.engine_config.execution_mode == "stagewise":
        for link in stage.upstreams:
            if not execution._stage_fully_done(link.upstream_id):
                return None
    acks = execution._pending_acks(runtime, stage)
    best = None
    for link in stage.upstreams:
        upstream = execution.graph.stage(link.upstream_id)
        for upstream_channel in range(upstream.num_channels):
            watermark = runtime.watermark(link.upstream_id, upstream_channel)
            _reference_discard_below(buffer, link.upstream_id, upstream_channel, watermark)
            count = _reference_available_run(
                execution, buffer, link.upstream_id, upstream_channel, watermark
            )
            count = execution._apply_scheduling_policy(
                link.upstream_id, upstream_channel, watermark, count
            )
            if count > 0 and (best is None or count > best["consume"][3]):
                best = {
                    "kind": "consume",
                    "consume": (link.upstream_id, upstream_channel, watermark, count),
                }
    if best is not None:
        best["acks"] = acks
        return best
    if execution._all_upstreams_exhausted(runtime, stage):
        return {"kind": "finalize", "acks": acks}
    if acks:
        return {"kind": "ack", "acks": acks}
    return None


@pytest.fixture
def decisions(monkeypatch):
    """Check every input selection, and every task skipped as idle, against
    the reference; count them."""
    real_choose = ExecutionContext._choose_action
    real_idle = ExecutionContext.idle
    counts = {"selections": 0, "actions": 0, "idle": 0}

    def checked_choose(self, worker, runtime, stage):
        buffer = _flat_buffer(self, worker, runtime, stage)
        expected = _reference_choose_action(self, runtime, stage, buffer)
        actual = real_choose(self, worker, runtime, stage)
        assert actual == expected, (stage.stage_id, runtime.channel)
        assert _flat_buffer(self, worker, runtime, stage) == buffer
        counts["selections"] += 1
        counts["actions"] += actual is not None
        return actual

    def checked_idle(self, worker, descriptor):
        idle = real_idle(self, worker, descriptor)
        if idle:
            # Skipping must be what running would have done: select nothing
            # and discard nothing.
            name = descriptor.name
            stage = self.graph.stage(name.stage)
            runtime = self.runtimes[worker.worker_id][name.channel_key()]
            buffer = _flat_buffer(self, worker, runtime, stage)
            before = dict(buffer)
            assert _reference_choose_action(self, runtime, stage, buffer) is None, name
            assert buffer == before, name
            counts["idle"] += 1
        return idle

    monkeypatch.setattr(ExecutionContext, "_choose_action", checked_choose)
    monkeypatch.setattr(ExecutionContext, "idle", checked_idle)
    return counts


def _assert_exercised(counts):
    """Work was found, and tasks were skipped on a remembered verdict."""
    assert counts["actions"] > 0
    assert counts["idle"] > 0


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(scale_factor=0.002, seed=3)


def _killed_run(catalog, query, system, worker_id):
    ctx = QuokkaContext(num_workers=4, catalog=catalog)
    frame = build_query(catalog, query).bind(ctx)
    base = frame.submit(options=QueryOptions(system=system)).wait()
    killed = frame.submit(
        options=QueryOptions(
            system=system,
            failure_plans=[FailurePlan.at_fraction(worker_id, 0.5, base.runtime)],
        )
    ).wait()
    assert killed.metrics.failures_injected == 1
    assert killed.metrics.rewound_channels >= 1
    assert killed.batch.equals(reference_answer(catalog, query))
    return killed


class TestDecisionsMatchReference:
    def test_quokka_q9_with_worker_killed_midway(self, catalog, decisions):
        _killed_run(catalog, 9, "quokka", worker_id=2)
        _assert_exercised(decisions)

    def test_static_scheduling_q3_with_a_kill(self, catalog, decisions):
        _killed_run(catalog, 3, "trino", worker_id=1)
        _assert_exercised(decisions)

    def test_two_query_session_with_a_failure(self, catalog, decisions):
        def session():
            return Session(
                cluster_config=ClusterConfig(
                    num_workers=4, cpus_per_worker=2, task_managers_per_worker=2
                ),
                engine_config=EngineConfig(),
                catalog=catalog,
            )

        with session() as baseline:
            baseline.run_many([build_query(catalog, 9), build_query(catalog, 6)])
            makespan = baseline.env.now
        with session() as shared:
            first = build_query(catalog, 9).submit(
                shared, failure_plans=[FailurePlan(1, 0.5 * makespan)]
            )
            second = build_query(catalog, 6).submit(shared)
            results = shared.wait_all([first, second])
        assert results[0].metrics.failures_injected == 1
        for query, result in zip((9, 6), results):
            assert result.batch.equals(reference_answer(catalog, query))
        _assert_exercised(decisions)


# -- the memo's invalidation, one source at a time ---------------------------------------


def _aggregation_channel(catalog, **engine):
    """A submitted-but-not-run Q6: its aggregation channel reads the scan's
    two channels; nothing is buffered or committed yet."""
    session = Session(
        cluster_config=ClusterConfig(num_workers=2, cpus_per_worker=1),
        engine_config=EngineConfig(**engine),
        catalog=catalog,
    )
    execution = build_query(catalog, 6).submit(session).execution
    stage = execution.graph.stage(execution.graph.stage_base + 1)
    (link,) = stage.upstreams
    assert execution.graph.stage(link.upstream_id).is_input
    worker = execution.cluster.worker(execution.gcs.placement.worker_for(stage.stage_id, 0))
    runtime = execution.runtime_for(worker.worker_id, stage, 0)
    return execution, worker, runtime, stage, link.upstream_id


def _commit(execution, upstream, seqs, total=None):
    with execution.gcs.transaction() as txn:
        for seq in seqs:
            name = TaskName(upstream, 0, seq)
            execution.gcs.lineage.commit(Lineage(name, input_split=seq, kind="input"), txn=txn)
        if total is not None:
            execution.gcs.channel_done.mark_done(upstream, 0, total, txn=txn)


def _push(worker, stage, upstream, seqs):
    for seq in seqs:
        worker.flight.put(
            (stage.stage_id, 0), TaskName(upstream, 0, seq), Batch.from_pydict({"x": [seq]})
        )


def _select(execution, worker, descriptor, stage):
    """Run a channel task that is expected to find no input; True if it did."""
    task = execution._run_channel_task(worker, descriptor, stage)
    with pytest.raises(StopIteration) as stop:
        next(task)  # a task that finds work would wait for a CPU slot here
    return stop.value.value


class TestIdle:
    def test_a_piece_arriving_without_a_commit_ends_idleness(self, catalog, decisions):
        execution, worker, runtime, stage, upstream = _aggregation_channel(catalog)
        descriptor = execution.gcs.tasks.get(TaskName(stage.stage_id, 0, 0))
        _commit(execution, upstream, [0], total=1)
        assert _select(execution, worker, descriptor, stage) is False
        assert execution.idle(worker, descriptor)
        _push(worker, stage, upstream, [0])
        assert not execution.idle(worker, descriptor)
        action = execution._choose_action(worker, runtime, stage)
        assert action["consume"] == (upstream, 0, 0, 1)

    def test_a_commit_without_a_new_piece_ends_idleness(self, catalog, decisions):
        execution, worker, runtime, stage, upstream = _aggregation_channel(catalog)
        descriptor = execution.gcs.tasks.get(TaskName(stage.stage_id, 0, 0))
        _push(worker, stage, upstream, [0])
        assert _select(execution, worker, descriptor, stage) is False
        assert execution.idle(worker, descriptor)
        _commit(execution, upstream, [0], total=1)
        assert not execution.idle(worker, descriptor)
        action = execution._choose_action(worker, runtime, stage)
        assert action["consume"] == (upstream, 0, 0, 1)

    def test_retracing_and_recovery_tasks_are_never_idle(self, catalog, decisions):
        execution, worker, runtime, stage, upstream = _aggregation_channel(catalog)
        name = TaskName(stage.stage_id, 0, 0)
        descriptor = execution.gcs.tasks.get(name)
        execution.gcs.lineage.commit(Lineage(name, kind="ack"))
        assert _select(execution, worker, descriptor, stage) is False
        assert execution.idle(worker, descriptor)
        assert not execution.idle(worker, dataclasses.replace(descriptor, prescribed=True))
        assert not execution.idle(worker, dataclasses.replace(descriptor, kind="replay"))

    @pytest.mark.parametrize(
        "engine, taken",
        [(dict(scheduling="static", static_batch_size=3), 3), (dict(scheduling="dynamic"), 5)],
    )
    def test_static_runs_are_verified_up_to_one_batch(self, catalog, decisions, engine, taken):
        execution, worker, runtime, stage, upstream = _aggregation_channel(catalog, **engine)
        _push(worker, stage, upstream, range(5))
        _commit(execution, upstream, range(5))
        action = execution._choose_action(worker, runtime, stage)
        assert action["consume"] == (upstream, 0, 0, taken)
