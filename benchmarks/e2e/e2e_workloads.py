"""The four workloads: which statements run, on which backend, at what scale.

A *statement* is one timed unit of a pass: SQL text in, checked result batch
out.  On the two backends that means

* ``parallel`` — ``ParallelRunner(workers=2)`` with default ``morsel_rows``;
* ``simulator`` — ``OneShotRunner`` on a 4-worker x 4-CPU simulated cluster
  whose cost model emulates SF 100 (``io_scale_multiplier = 100 / SF``, as
  ``repro.bench.settings`` does), each query three ways: ``quokka-noft``,
  ``quokka`` (write-ahead lineage) and ``quokka`` with worker 2 killed at
  half the failure-free runtime.

Each workload's ``why`` is the one-line reason ``BENCHMARK.json`` carries;
``README.md`` has the long form (which layers it stresses and bypasses).
"""

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import e2e_paths  # noqa: F401  (puts src/ on sys.path)
from repro.tpch import SQL_QUERIES

#: ``--smoke`` runs every workload at this scale factor, and only its first
#: ``SMOKE_STATEMENTS`` statements: it checks the benchmark, not the engine.
SMOKE_SCALE_FACTOR = 0.002
SMOKE_STATEMENTS = 3

PARALLEL_WORKERS = 2
SIM_WORKERS = 4
SIM_CPUS_PER_WORKER = 4
SIM_TARGET_SCALE_FACTOR = 100.0
#: The paper's recovery experiment: this worker dies at this share of the
#: failure-free runtime.
KILL_WORKER = 2
KILL_FRACTION = 0.5


@dataclass(frozen=True)
class Statement:
    """One timed unit: SQL text plus, on the simulator, how to run it."""

    id: str
    sql: str
    #: Statements sharing a ``query`` share SQL text and reference answer.
    query: str
    #: Simulator engine preset (``None`` on the parallel backend).
    system: Optional[str] = None
    kill: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "parallel" | "simulator"
    scale_factor: float
    statements: Tuple[Statement, ...]
    #: Complete set-ups per run; ``setup_s`` is their median.  One where a
    #: set-up costs ~8 s (SF 0.1), or the run would not fit the driver's cap.
    setup_repeats: int

    def smoke(self) -> "Workload":
        """The ``--smoke`` variant: tiny data, few statements, one set-up."""
        return replace(
            self,
            scale_factor=SMOKE_SCALE_FACTOR,
            statements=self.statements[:SMOKE_STATEMENTS],
            setup_repeats=1,
        )


def _tpch(numbers) -> Tuple[Statement, ...]:
    return tuple(Statement(f"q{n}", SQL_QUERIES[n], f"q{n}") for n in numbers)


def _three_ways(numbers) -> Tuple[Statement, ...]:
    statements = []
    for n in numbers:
        query, sql = f"q{n}", SQL_QUERIES[n]
        statements.append(Statement(f"{query}/noft", sql, query, system="quokka-noft"))
        statements.append(Statement(f"{query}/wal", sql, query, system="quokka"))
        statements.append(Statement(f"{query}/wal+kill", sql, query, system="quokka", kill=True))
    return tuple(statements)


_SCAN_AGG_EXTRA = (
    # Q18's inner block (a group per order, nearly all dropped by HAVING), with
    # a lower threshold so the checked result is not empty at SF 0.1.
    Statement(
        "highcard_groupby",
        """
        SELECT l_orderkey, sum(l_quantity) AS total_qty
        FROM lineitem
        GROUP BY l_orderkey
        HAVING sum(l_quantity) > 250
        """,
        "highcard_groupby",
    ),
    # LIKE over a 4-value and a per-order dictionary, then a 7 x 4 group-by.
    Statement(
        "dict_like_groupby",
        """
        SELECT l_shipmode, l_shipinstruct,
               count(*) AS line_count,
               sum(l_extendedprice) AS total_price
        FROM lineitem
        WHERE l_shipinstruct LIKE '%BACK%' OR l_comment LIKE '%comment 1%'
        GROUP BY l_shipmode, l_shipinstruct
        ORDER BY l_shipmode, l_shipinstruct
        """,
        "dict_like_groupby",
    ),
    # Filtered top-k; the key (l_orderkey, l_linenumber) makes the order total.
    Statement(
        "filtered_topk",
        """
        SELECT l_orderkey, l_linenumber, l_extendedprice, l_shipdate
        FROM lineitem
        WHERE l_discount >= 0.05 AND l_quantity < 10
        ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber
        LIMIT 100
        """,
        "filtered_topk",
    ),
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "scan_agg",
        "join-free scans at SF 0.1: expression, post-op and factorize/aggregate "
        "cost dominates; join, shuffle and runtime-filter changes must show nothing",
        "parallel",
        0.1,
        _tpch((1, 6)) + _SCAN_AGG_EXTRA,
        setup_repeats=1,
    ),
    Workload(
        "join_shuffle",
        "TPC-H Q3/Q5/Q9/Q10/Q18 at SF 0.1: hash-join build/probe, partitioning, "
        "shared-memory transport and runtime semi-join filters dominate",
        "parallel",
        0.1,
        _tpch((3, 5, 9, 10, 18)),
        setup_repeats=1,
    ),
    Workload(
        "short_queries",
        "all 22 TPC-H texts at SF 0.01: fixed per-query cost (parse, plan, "
        "optimize, compile, pool fork, shm block churn) is everything, kernels little",
        "parallel",
        # Not smaller: with 20 or 50 suppliers (SF 0.002, 0.005) whether Q21's
        # nation filter leaves anything to join is a coin flip per seed, and
        # that alone moves the pass by 15 %.
        0.01,
        _tpch(range(1, 23)),
        setup_repeats=3,
    ),
    Workload(
        "sim_recovery",
        "the paper's experiment on the simulator: Q3/Q5/Q9/Q18 without FT, with "
        "write-ahead lineage, and with a worker killed at 50%; the only workload "
        "that runs gcs, ft and recovery",
        "simulator",
        0.02,
        _three_ways((3, 5, 9, 18)),
        setup_repeats=3,
    ),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; available: {[w.name for w in WORKLOADS]}")
