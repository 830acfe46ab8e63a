"""Boundary: a value with one value in use is a constant, not a setting.

Each name fenced below was a field, parameter, flag or method that no caller
outside the tests ever set to anything but its default.  The spill destination
follows the fault-tolerance strategy; the checkpoint interval, the Spark
kernel slowdown, the runtime-filter limits and the fair-share budget are
constants; the shard threshold went with the parallel backend's aggregation
shards; the rest configured nothing and went away.
This test fails anything that grows one back: none of the identifiers may
reappear under ``src/``, and the constructors and functions that lost a
parameter keep exactly their current parameter lists.
"""

import ast
import inspect
import pathlib
import re
import shlex

import pytest

from repro.baselines.spark import SparkLikeEngine, _SparkDriver
from repro.chaos.harness import DifferentialHarness
from repro.cli import build_parser
from repro.core.engine import ExecutionContext
from repro.core.runtime import FairShareScheduler
from repro.core.session import Session
from repro.ft.strategies import CheckpointStrategy
from repro.kernels.runtimefilter import RuntimeFilterBuilder
from repro.optimizer.cost import explain_with_estimates
from repro.optimizer.optimizer import PlanOptimizer
from repro.physical.operators import CollectOperator

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
REMOVED = re.compile(
    r"spill_target|SPILL_TARGETS|gcs_op_latency|gcs_op_seconds"
    r"|checkpoint_interval_tasks|final_ops|min_pieces_per_shard"
)
#: Names fenced only where they would be a settable parameter.
REMOVED_PARAMETERS = {"kernel_slowdown", "tasks_per_sweep", "exact_limit"}

EXPECTED_PARAMETERS = {
    "ExecutionContext.__init__": (
        ExecutionContext.__init__,
        ["self", "cluster", "graph", "engine_config", "strategy", "tracer", "gcs",
         "query_id", "query_name", "scan_pool", "memory_budget_bytes", "adaptive"],
    ),
    "Session.__init__": (
        Session.__init__,
        ["self", "cluster_config", "cost_config", "engine_config", "strategy",
         "catalog", "enable_output_cache"],
    ),
    "SparkLikeEngine.__init__": (
        SparkLikeEngine.__init__, ["self", "cluster_config", "cost_config"]
    ),
    "_SparkDriver.__init__": (_SparkDriver.__init__, ["self", "cluster", "graph"]),
    "RuntimeFilterBuilder.__init__": (RuntimeFilterBuilder.__init__, ["self", "dtype"]),
    "PlanOptimizer.__init__": (PlanOptimizer.__init__, ["self", "config", "estimator"]),
    "CollectOperator.__init__": (
        CollectOperator.__init__,
        ["self", "schema", "sort_keys", "descending", "limit", "quota"],
    ),
    "DifferentialHarness.__init__": (
        DifferentialHarness.__init__,
        ["self", "catalog", "scale_factor", "data_seed", "num_workers",
         "cpus_per_worker", "strategy_factory", "base_options", "query_builder"],
    ),
    "explain_with_estimates": (
        explain_with_estimates,
        ["plan", "estimator", "probe_channels", "memory_budget_bytes"],
    ),
    "FairShareScheduler.__init__": (
        FairShareScheduler.__init__, ["self", "max_concurrent"]
    ),
}


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name


def _parameters(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_removed_settings_left_no_identifier_behind():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path, tree in _trees()
        for lineno, name in _identifiers(tree)
        if REMOVED.search(name)
    ]
    offenders += [
        f"{path.relative_to(SRC)}:{lineno} {name}="
        for path, tree in _trees()
        for lineno, name in _parameters(tree)
        if name in REMOVED_PARAMETERS
    ]
    assert not offenders, (
        "these values had one value in use; keep them constants:\n  "
        + "\n  ".join(offenders)
    )


@pytest.mark.parametrize("name", sorted(EXPECTED_PARAMETERS))
def test_parameter_lists_are_exact(name):
    function, expected = EXPECTED_PARAMETERS[name]
    assert list(inspect.signature(function).parameters) == expected


def test_checkpoint_strategy_takes_no_interval():
    assert "__init__" not in vars(CheckpointStrategy)


def test_session_has_no_wrapper_methods():
    for name in ("submit", "run"):
        assert not hasattr(Session, name)


@pytest.mark.parametrize("command", ["tpch --query 9", "sql 'SELECT 1'"])
def test_spill_target_flag_is_gone(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args(shlex.split(command) + ["--spill-target", "s3"])
