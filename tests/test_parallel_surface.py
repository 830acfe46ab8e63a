"""Boundary: one warm worker pool per ``ParallelRunner``; graphs travel by value.

Workers are forked once per runner, so a statement's stage graph can no
longer reach them by fork inheritance — the driver pickles it into shared
memory.  That holds only while (a) operator factories stay picklable (no
closures), (b) a registered table pickles as a token, not its data, and
(c) nothing forks a pool per statement behind the runner's back.  The
runner also owns the pool's lifetime: closing it, or dropping it, must leave
no worker process behind.
"""

import ast
import gc
import multiprocessing
import pathlib
import pickle

import pytest

from repro.api import ParallelRunner
from repro.common.errors import ConfigError
from repro.core.options import QueryOptions, resolve_planning
from repro.physical import compile_plan
from repro.physical.compiler import OperatorFactory
from repro.tpch import build_query, generate_catalog

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
COMPILER = SRC / "physical" / "compiler.py"

#: Largest pickled TPC-H stage graph allowed; lineitem's data alone is larger.
MAX_GRAPH_BYTES = 64 * 1024


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(scale_factor=0.001, seed=7)


def _calls_with_owner(tree: ast.AST):
    """``(class, function, call)`` for every call, by its innermost owners."""
    found = []

    def visit(node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                if isinstance(child, ast.Call):
                    found.append((cls, func, child))
                visit(child, cls, func)

    visit(tree, None, None)
    return found


def test_operator_factories_are_never_lambdas():
    tree = ast.parse(COMPILER.read_text())
    assigned = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Attribute) and target.attr == "operator_factory"
            for target in node.targets
        )
    ]
    assigned += [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "operator_factory"
    ]
    assert len(assigned) == 3, "join, aggregate and collect stages each set one factory"
    lambdas = [value.lineno for value in assigned if isinstance(value, ast.Lambda)]
    assert lambdas == [], f"lambda operator factories at compiler.py lines {lambdas}"
    assert all(
        isinstance(value, ast.Call) and getattr(value.func, "id", None) == "OperatorFactory"
        for value in assigned
    )


def test_worker_pools_are_forked_only_by_the_warm_pool():
    owners = []
    for path in sorted(SRC.rglob("*.py")):
        for cls, func, call in _calls_with_owner(ast.parse(path.read_text())):
            if getattr(call.func, "id", None) == "WorkerPool":
                owners.append((path.relative_to(SRC).as_posix(), cls, func))
    assert owners == [("parallel/runner.py", "WarmPool", "acquire")]


def test_compiled_graphs_pickle_small_and_tables_by_reference(catalog):
    lineitem = catalog.table("lineitem")
    assert lineitem.data.nbytes > MAX_GRAPH_BYTES  # copying it would show
    for number in range(1, 23):
        plan, estimator, _adaptive, runtime_filters = resolve_planning(
            build_query(catalog, number).plan, QueryOptions(), default_optimize=True
        )
        graph = compile_plan(
            plan, num_channels=2, estimator=estimator, runtime_filters=runtime_filters
        )
        blob = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < MAX_GRAPH_BYTES, f"q{number} graph pickles to {len(blob)} B"
        shipped = pickle.loads(blob)
        for stage in shipped.input_stages():
            assert stage.table is catalog.table(stage.table.name)
        for stage in shipped:
            if stage.operator_factory is not None:
                assert isinstance(stage.operator_factory, OperatorFactory)
                stage.make_operator()


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


def test_close_stops_the_workers(catalog):
    before = multiprocessing.active_children()
    runner = ParallelRunner(workers=2)
    runner.submit(build_query(catalog, 6)).wait()
    assert len(_new_children(before)) == 2
    runner.close()
    assert _new_children(before) == []
    runner.close()  # idempotent
    with pytest.raises(ConfigError, match="closed"):
        runner.submit(build_query(catalog, 6))


def test_context_manager_stops_the_workers(catalog):
    before = multiprocessing.active_children()
    with ParallelRunner(workers=2) as runner:
        runner.submit(build_query(catalog, 6)).wait()
    assert _new_children(before) == []


def test_garbage_collected_runner_stops_the_workers(catalog):
    before = multiprocessing.active_children()
    runner = ParallelRunner(workers=2)
    runner.submit(build_query(catalog, 6)).wait()
    assert len(_new_children(before)) == 2
    del runner
    gc.collect()
    assert _new_children(before) == []
