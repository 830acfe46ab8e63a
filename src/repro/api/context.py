"""QuokkaContext: the one-stop entry point tying the whole system together.

Frames built through a context are *bound* to it, so execution is a method on
the frame — one verb set, whatever the backend::

    from repro.api import QuokkaContext

    ctx = QuokkaContext(num_workers=4)
    ctx.register_table("orders", orders_batch)
    frame = (
        ctx.read_table("orders")
        .filter("o_total > 100")
        .groupby("o_custkey")
        .agg(total=("o_total", "sum"))
    )
    batch = frame.collect()                    # fresh cluster, one query
    assert batch.equals(frame.collect_reference())

SQL and DataFrame queries compose through views::

    ctx.create_view("big_orders", frame)
    ctx.sql("SELECT * FROM big_orders JOIN customers ON ...").show()

For sustained multi-query traffic, open a persistent session and submit
frames onto it — same verbs, same :class:`~repro.core.session.QueryHandle`
future shape::

    with ctx.session() as session:
        handles = [frame.submit(session) for frame in frames]
        results = session.wait_all(handles)

Per-query knobs (system preset, failure injection, optimizer, tracer) travel
in one :class:`~repro.core.options.QueryOptions` — e.g.
``frame.collect(system="trino")`` or
``frame.submit(failure_plans=[plan], query_name="q3")``.  The presets stand
in for the paper's comparison systems (``"trino"`` for the spooling
pipelined baseline) and its ablations (``"quokka-stagewise"``,
``"quokka-noft"``, ...), which is what the benchmark harness uses to
regenerate the figures.
"""

from __future__ import annotations

from typing import Optional

from repro.api.systems import SYSTEM_PRESETS, SystemUnderTest, preset
from repro.common.config import ClusterConfig, CostModelConfig, EngineConfig
from repro.core.session import Session
from repro.data.batch import Batch
from repro.plan.catalog import Catalog
from repro.plan.dataframe import DataFrame
from repro.plan.nodes import TableScan

__all__ = [
    "QuokkaContext",
    "SystemUnderTest",
    "SYSTEM_PRESETS",
]


class QuokkaContext:
    """User-facing facade holding a catalog and cluster/engine configuration.

    The context itself is cheap: it owns configuration and the table catalog.
    Simulated clusters are created per one-shot execution (the paper's
    per-experiment methodology) or once per :meth:`session` (the multi-query
    serving path).
    """

    def __init__(
        self,
        num_workers: int = 4,
        cpus_per_worker: int = 4,
        cost_config: Optional[CostModelConfig] = None,
        engine_config: Optional[EngineConfig] = None,
        catalog: Optional[Catalog] = None,
        task_managers_per_worker: int = 1,
    ):
        """Configure the simulated cluster every query of this context runs on.

        ``num_workers`` / ``cpus_per_worker`` shape the cluster;
        ``task_managers_per_worker`` sets how many tasks one worker may have
        in flight at once (1 matches the paper's runs; set it to
        ``cpus_per_worker`` for multi-query serving).  ``cost_config``
        overrides the simulated hardware constants, ``engine_config`` the
        engine behaviour knobs, and ``catalog`` seeds the table catalog
        (a fresh empty one by default).
        """
        self.cluster_config = ClusterConfig(
            num_workers=num_workers,
            cpus_per_worker=cpus_per_worker,
            task_managers_per_worker=task_managers_per_worker,
        )
        self.cost_config = cost_config or CostModelConfig()
        self.engine_config = engine_config or EngineConfig()
        self.catalog = catalog or Catalog()

    # -- catalog -----------------------------------------------------------------

    def register_table(self, name: str, data: Batch, num_splits: int = 8) -> None:
        """Register an in-memory batch as a table readable by queries.

        ``num_splits`` controls how many storage splits the table is cut into
        — the unit of parallel scanning and of input-task regeneration.
        """
        self.catalog.register(name, data, num_splits=num_splits)

    def create_view(self, name: str, frame: DataFrame) -> None:
        """Register ``frame``'s logical plan as a named view in the catalog.

        Views make SQL and DataFrame queries compose: ``ctx.sql`` (and
        :meth:`read_table`) resolve the name by splicing the plan into the
        query, so a view can be filtered, joined against base tables, and so
        on.  Tables and views share one namespace.
        """
        self.catalog.register_view(name, frame.plan)

    def read_table(self, name: str) -> DataFrame:
        """Start a bound DataFrame query from a registered table or view."""
        if self.catalog.has_view(name):
            return DataFrame(self.catalog.view(name), context=self)
        return DataFrame(TableScan(self.catalog.table(name)), context=self)

    def sql(self, text: str) -> DataFrame:
        """Parse and plan a SQL SELECT statement against tables and views.

        The returned frame is bound to this context and runs through exactly
        the same engine as DataFrame queries::

            n = ctx.sql("SELECT count(*) AS n FROM orders").collect()
        """
        from repro.sql import parse, plan_query

        return plan_query(parse(text), self.catalog).bind(self)

    # -- persistent sessions -------------------------------------------------------

    def session(
        self,
        system: Optional[str] = None,
        engine_config: Optional[EngineConfig] = None,
    ) -> Session:
        """Open a persistent multi-query :class:`~repro.core.session.Session`.

        The session builds one long-lived cluster loaded with this context's
        catalog and serves many queries concurrently over it: submissions are
        admitted up to ``EngineConfig.max_concurrent_queries`` at a time,
        scheduled fair-share over shared TaskManagers, and can reuse each
        other's committed outputs (result cache, coalesced duplicates, shared
        scans).  By default the session runs with this context's own
        ``engine_config`` (so knobs set at construction, e.g.
        ``result_cache_bytes=0``, take effect); ``system`` instead picks a
        preset engine configuration, and ``engine_config`` overrides both.

        Lifecycle: ``frame.submit(session)`` returns a handle immediately;
        ``handle.wait()`` / ``session.wait_all`` advance the simulation until
        completion; ``close`` (or leaving the ``with`` block) stops the
        session's shared processes::

            with ctx.session() as session:
                first = frame_a.submit(session, query_name="a")
                second = frame_b.submit(session, query_name="b")
                results = session.wait_all([first, second])
        """
        if engine_config is None:
            if system is not None:
                engine_config = preset(system).engine_config
            else:
                engine_config = self.engine_config
        return Session(
            cluster_config=self.cluster_config,
            cost_config=self.cost_config,
            engine_config=engine_config,
            catalog=self.catalog,
        )

    def analyze(self, *names: str):
        """``ANALYZE``: compute and cache table statistics for planning.

        With no arguments every registered table is analyzed; otherwise only
        the named tables.  The statistics (row counts, per-column NDVs,
        min/max bounds, widths) are cached on the catalog's table metadata
        and drive the cost-based planner: selectivity estimation, join-order
        enumeration and the broadcast-vs-shuffle decision.  Planning also
        analyzes lazily on first use, so calling this explicitly is only
        needed to front-load the cost or to inspect the stats::

            stats = ctx.analyze("lineitem")
            print(stats["lineitem"].columns["l_shipdate"])

        Returns the computed :class:`~repro.optimizer.TableStats` by name.
        """
        return self.catalog.analyze(list(names) or None)

    def optimize(self, frame: DataFrame) -> DataFrame:
        """Run the logical-plan optimizer over ``frame`` and return a new frame."""
        from repro.optimizer import optimize_plan

        return DataFrame(optimize_plan(frame.plan), context=self)
