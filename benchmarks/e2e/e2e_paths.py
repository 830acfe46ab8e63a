"""Locate the checkout this benchmark sits in and make ``src/`` importable.

Every other file of the benchmark imports this one first, so the
``import repro`` lines below it resolve against the checkout's own sources.
In a directory that holds the benchmark but no ``src/`` those imports raise
``ModuleNotFoundError`` and the process exits non-zero without a result.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Git-ignored output directory: trace-event JSON and run-set files.
RESULTS_DIR = os.path.join(ROOT, "benchmark_results")

if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)
