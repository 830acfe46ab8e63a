"""Every ``python -m repro`` command line in the docs parses.

README.md and ``docs/*.md`` show CLI invocations in fenced code blocks.  Each
one goes through :func:`repro.cli.build_parser` — parse only, nothing runs —
so a renamed or deleted flag fails here instead of in a reader's terminal.
Everything before ``python -m repro`` (``PYTHONPATH=src``) and a trailing
``# ...`` comment are dropped.
"""

import pathlib
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
PREFIX = "python -m repro "


def _command_lines():
    for path in DOCS:
        fenced = False
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
            elif fenced and PREFIX in line:
                yield pytest.param(line, id=f"{path.name}:{lineno}")


COMMANDS = list(_command_lines())


def test_the_docs_show_commands():
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize("line", COMMANDS)
def test_documented_command_parses(line):
    argv = shlex.split(line[line.index(PREFIX) + len(PREFIX):], comments=True)
    try:
        build_parser().parse_args(argv)
    except SystemExit as exit_:
        pytest.fail(f"{line.strip()!r} does not parse (exit {exit_.code})")
