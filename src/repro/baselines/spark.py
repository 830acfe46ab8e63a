"""A SparkSQL-like stage-wise engine with data-parallel recovery.

The engine executes the same compiled stage graphs as the pipelined engine,
but with Spark's execution model:

* stages run one at a time behind a barrier;
* an input stage runs one task per table split, a stateful stage one task per
  channel, and every task consumes *all* of its input at once;
* each task's shuffle output is written to its worker's local disk and
  registered with the driver;
* when a worker fails, the shuffle outputs it held are lost; the driver
  recomputes exactly those outputs by re-running the producing tasks spread
  across all surviving workers (data-parallel recovery, Figure 3 top), then
  retries the tasks of the current stage that failed.

Plans compile without an estimator, so every link hash-partitions: the
broadcast and aligned ``link.mode`` handling this engine inherits from
:func:`~repro.physical.task.route_output` is unreachable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FailureInjector, FailurePlan
from repro.cluster.worker import Worker
from repro.common.config import ClusterConfig, CostModelConfig
from repro.common.errors import ExecutionError, FaultToleranceError
from repro.core.metrics import QueryMetrics, QueryResult
from repro.data.batch import Batch, concat_batches
from repro.physical.compiler import compile_plan
from repro.physical.stages import Stage, StageGraph
from repro.physical.task import drain_operator, finish_output, route_output
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame
from repro.plan.nodes import LogicalPlan
from repro.sim.core import Interrupt

#: Factor by which Spark's kernels run slower than Quokka's.  The paper
#: attributes part of Quokka's 2x over SparkSQL to kernel efficiency
#: (vectorised DuckDB/Polars vs Spark's JVM operators); this factor models
#: that difference explicitly.  1.0 isolates the execution-model effect.
KERNEL_SLOWDOWN = 2.0


@dataclass(frozen=True)
class _TaskSpec:
    """One Spark task: an input split or a whole reduce partition."""

    stage_id: int
    index: int  # split index for input stages, channel for stateful stages
    is_input: bool


@dataclass
class _ShuffleOutput:
    """A map/reduce output registered with the driver."""

    spec: _TaskSpec
    worker_id: int
    pieces: Dict[int, Batch]
    nbytes: float


class _LostInput(ExecutionError):
    """Raised inside a task when a needed shuffle output's worker is dead."""


class SparkLikeEngine:
    """Blocking stage-wise execution with data-parallel fault recovery."""

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        cost_config: Optional[CostModelConfig] = None,
    ):
        self.cluster_config = cluster_config or ClusterConfig()
        self.cost_config = cost_config or CostModelConfig()
        self.cluster_config.validate()
        self.cost_config.validate()

    def run(
        self,
        query: DataFrame | LogicalPlan,
        catalog: Catalog,
        failure_plans: Optional[Sequence[FailurePlan]] = None,
        query_name: str = "",
    ) -> QueryResult:
        """Execute one query stage by stage and return its result and metrics."""
        plan = query.plan if isinstance(query, DataFrame) else query
        cluster = Cluster(self.cluster_config, self.cost_config)
        cluster.load_catalog(catalog)
        graph = compile_plan(plan, num_channels=cluster.num_workers)
        driver = _SparkDriver(cluster, graph)
        FailureInjector(cluster.env, cluster.workers, list(failure_plans or []))
        result = driver.run()
        result.query_name = query_name
        return result


class _SparkDriver:
    """The driver process: schedules stages, detects lost outputs, recomputes."""

    def __init__(self, cluster: Cluster, graph: StageGraph):
        self.cluster = cluster
        self.env = cluster.env
        self.cost = cluster.cost_model
        self.graph = graph
        self.metrics = QueryMetrics()
        self.shuffle: Dict[Tuple[int, int], _ShuffleOutput] = {}
        self._round_robin = 0

    def _cpu_seconds(self, rows: int, nbytes: float) -> float:
        return self.cost.cpu_seconds(rows, nbytes) * KERNEL_SLOWDOWN

    # -- public entry ---------------------------------------------------------------

    def run(self) -> QueryResult:
        done = self.env.event()
        self.env.process(self._drive(done), name="spark-driver")
        final = self.env.run(done)
        self.metrics.runtime_seconds = self.env.now
        self.metrics.network_bytes = self.cluster.network.stats.bytes_sent
        self.metrics.local_disk_write_bytes = sum(
            w.disk.stats.bytes_written for w in self.cluster.workers
        )
        self.metrics.s3_read_bytes = self.cluster.s3.stats.bytes_read
        return QueryResult(final, self.metrics)

    def _drive(self, done):
        try:
            for stage_id in self.graph.topological_order():
                stage = self.graph.stage(stage_id)
                yield from self._run_stage(stage)
            result_stage = self.graph.stage(self.graph.result_stage_id)
            output = self.shuffle[(result_stage.stage_id, 0)]
            done.succeed(output.pieces[0])
        except Exception as error:  # noqa: BLE001 - surfaced through the done event
            if not done.triggered:
                done.fail(error)

    # -- stage scheduling --------------------------------------------------------------

    def _specs_for_stage(self, stage: Stage) -> List[_TaskSpec]:
        if stage.is_input:
            return [
                _TaskSpec(stage.stage_id, split, True)
                for split in range(stage.table.num_splits)
            ]
        return [
            _TaskSpec(stage.stage_id, channel, False)
            for channel in range(stage.num_channels)
        ]

    def _run_stage(self, stage: Stage):
        remaining = {spec.index: spec for spec in self._specs_for_stage(stage)}
        attempts = 0
        while remaining:
            attempts += 1
            if attempts > 50:
                raise FaultToleranceError(
                    f"stage {stage.name!r} could not complete after repeated recovery attempts"
                )
            lost = self._lost_dependencies(stage)
            if lost:
                # Data-parallel recovery: recompute every lost output, spread
                # over all live workers, before retrying the current stage.
                self.metrics.recovery_events += 1
                yield self.env.timeout(self.cost.config.failure_detection_delay)
                statuses = yield from self._run_tasks(lost, recovery=True)
                if not all(statuses.values()):
                    continue
            statuses = yield from self._run_tasks(list(remaining.values()))
            for index, succeeded in statuses.items():
                if succeeded:
                    remaining.pop(index, None)
            if remaining:
                yield self.env.timeout(self.cost.config.failure_detection_delay)

    def _lost_dependencies(self, stage: Stage) -> List[_TaskSpec]:
        """Shuffle outputs needed by ``stage`` (transitively) that are lost."""
        needed: List[_TaskSpec] = []
        seen = set()

        def visit(target: Stage) -> None:
            for link in target.upstreams:
                upstream = self.graph.stage(link.upstream_id)
                for spec in self._specs_for_stage(upstream):
                    key = (spec.stage_id, spec.index)
                    output = self.shuffle.get(key)
                    if output is None:
                        continue  # stage barrier guarantees it ran; missing means never produced yet
                    if self.cluster.worker(output.worker_id).alive:
                        continue
                    if key in seen:
                        continue
                    seen.add(key)
                    visit(upstream)  # its own inputs may be lost too
                    needed.append(spec)

        visit(stage)
        return needed

    def _run_tasks(self, specs: List[_TaskSpec], recovery: bool = False):
        live = self.cluster.live_workers()
        if not live:
            raise FaultToleranceError("no live workers remain")
        processes = []
        for spec in specs:
            worker = live[self._round_robin % len(live)]
            self._round_robin += 1
            process = self.env.process(
                self._task(spec, worker), name=f"spark-task-{spec.stage_id}-{spec.index}"
            )
            worker.register_process(process)
            processes.append((spec, process))
        if processes:
            yield self.env.all_of([proc for _spec, proc in processes])
        statuses = {}
        for spec, process in processes:
            ok = bool(process.ok and process.value)
            statuses[spec.index] = ok
            if ok:
                self.metrics.tasks_executed += 1
                if recovery:
                    self.metrics.replay_tasks += 1
                if spec.is_input:
                    self.metrics.input_tasks += 1
        return statuses

    # -- individual tasks ------------------------------------------------------------------

    def _task(self, spec: _TaskSpec, worker: Worker):
        stage = self.graph.stage(spec.stage_id)
        request = worker.cpu.request()
        try:
            yield request
            yield self.env.timeout(self.cost.dispatch_seconds())
            if spec.is_input:
                out_batch = yield from self._run_input_task(spec, stage, worker)
            else:
                out_batch = yield from self._run_reduce_task(spec, stage, worker)
            yield from self._write_shuffle(spec, stage, worker, out_batch)
            return True
        except (Interrupt, _LostInput):
            return False
        except ExecutionError:
            return False
        finally:
            worker.cpu.release(request)

    def _run_input_task(self, spec: _TaskSpec, stage: Stage, worker: Worker):
        split_batch = yield from self.cluster.s3.read(("table", stage.table.name, spec.index))
        rows, nbytes = split_batch.num_rows, split_batch.nbytes
        yield self.env.timeout(self._cpu_seconds(rows, nbytes))
        return self._finish(stage, [split_batch])

    def _run_reduce_task(self, spec: _TaskSpec, stage: Stage, worker: Worker):
        # Fetch (and pay for) every input piece first; the operator itself
        # takes no virtual time, so draining it afterwards costs the same.
        inputs: List[List[Batch]] = []
        for link in stage.upstreams:
            upstream = self.graph.stage(link.upstream_id)
            fetched: List[Batch] = []
            for producer in self._specs_for_stage(upstream):
                key = (producer.stage_id, producer.index)
                output = self.shuffle.get(key)
                if output is None:
                    raise _LostInput(f"missing shuffle output {key}")
                owner = self.cluster.worker(output.worker_id)
                if not owner.alive:
                    raise _LostInput(f"shuffle output {key} lost with worker {owner.worker_id}")
                piece = output.pieces.get(spec.index)
                if piece is None or piece.num_rows == 0:
                    continue
                piece_bytes = self.cost.scaled(piece.nbytes)
                yield from owner.disk.read(key)
                yield from self.cluster.network.transfer(
                    owner.worker_id, worker.worker_id, piece_bytes
                )
                yield self.env.timeout(self._cpu_seconds(piece.num_rows, piece.nbytes))
                fetched.append(piece)
            inputs.append(fetched)
        return self._finish(stage, drain_operator(stage, stage.make_operator(), inputs))

    def _finish(self, stage: Stage, raw: List[Batch]) -> Batch:
        """A Spark task materialises its whole output as one batch."""
        return concat_batches(finish_output(stage, raw), schema=stage.output_schema)

    def _write_shuffle(self, spec: _TaskSpec, stage: Stage, worker: Worker, out_batch: Batch):
        # ``spec.index`` is a split for input stages; splits are dealt to
        # channels round-robin, which is what "aligned" links route by.
        producer_channel = spec.index % stage.num_channels
        pieces = route_output(self.graph, stage, producer_channel, out_batch)
        nbytes = self.cost.scaled(out_batch.nbytes)
        yield from worker.disk.write((spec.stage_id, spec.index), pieces, nbytes)
        if not worker.alive:
            raise _LostInput("worker failed while writing shuffle output")
        self.shuffle[(spec.stage_id, spec.index)] = _ShuffleOutput(
            spec=spec, worker_id=worker.worker_id, pieces=pieces, nbytes=nbytes
        )
