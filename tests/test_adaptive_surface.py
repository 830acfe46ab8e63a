"""Boundary: the adaptive controller revises a shuffle join once, and only so.

Skew splitting (a second, mid-stream decision per join) and the grouped
aggregation coalesce were deleted with everything only they needed: two
``UpstreamLink`` fields, the scatter/replicate compositions of
``partition_for_link``, the per-consumer-channel byte bookkeeping in
``StageFeedback`` and the payload argument of the commit hook.  A link is
"hash into ``base_parts``, then coalesce or concatenate" and nothing else;
this test fails anything that grows the second phase back.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

from repro.core.adaptive import AdaptiveController
from repro.physical.stages import UpstreamLink
from repro.trace.feedback import StageFeedback

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
FENCED = [
    SRC / "core" / "adaptive.py",
    SRC / "physical" / "stages.py",
    SRC / "trace" / "feedback.py",
]
REMOVED = re.compile(r"skew|scatter|replicate_pieces|coalesce_agg|agg_watch")


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


def test_upstream_link_has_exactly_the_canonical_fields():
    assert [f.name for f in dataclasses.fields(UpstreamLink)] == [
        "upstream_id",
        "partition_keys",
        "role",
        "mode",
        "base_parts",
    ]


def test_removed_reactions_left_no_identifier_behind():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in FENCED
        for lineno, name in _identifiers(ast.parse(path.read_text(), filename=str(path)))
        if REMOVED.search(name)
    ]
    assert not offenders, (
        "the controller decides once per join; do not re-grow the second phase:\n  "
        + "\n  ".join(offenders)
    )


def test_commit_hook_takes_no_payload():
    assert list(inspect.signature(AdaptiveController.after_commit).parameters) == [
        "self",
        "worker",
        "stage",
        "descriptor",
        "out_batch",
        "is_final",
    ]
    assert list(inspect.signature(StageFeedback.record_commit).parameters) == [
        "self",
        "name",
        "rows",
        "nbytes",
        "worker_id",
    ]
