"""``--compare A.json B.json``: two run sets, metric by metric.

One row per workload x end-to-end metric: each side's median and quartiles,
the change from A to B signed so that positive is *worse*, the metric's bound,
and a verdict.  A side's samples are its runs' values; a side with a single
run falls back on that run's per-pass samples where the metric has them.

Verdicts: ``REGRESSION`` when B's median is worse than A's by more than the
bound; ``unresolved`` — not ``unchanged`` — when either side's own spread
(quartile distance over median) exceeds the bound, because the runs cannot
tell; ``better`` / ``unchanged`` otherwise.  Metrics the program computes
rather than measures (virtual time, counts) are compared for exact equality
run by run where both sides ran the same seed, and reported as ``CHANGED``
with both values when they differ.  Exit code 1 if any row is a
``REGRESSION``, ``unresolved`` or ``CHANGED``.
"""

import json
import statistics
from typing import Dict, List, Tuple

from e2e_metrics import END_TO_END, PER_LAYER

def _load(path: str) -> Dict[Tuple[str, int], List[dict]]:
    """``{(workload, trace): [run records]}`` in file order."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    grouped: Dict[Tuple[str, int], List[dict]] = {}
    for run in runs:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def _samples(runs: List[dict], metric: str) -> List[float]:
    if len(runs) == 1 and metric in runs[0].get("pass_samples", {}):
        return runs[0]["pass_samples"][metric]
    return [run["metrics"][metric]["value"] for run in runs]


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _exact_differences(a_runs: List[dict], b_runs: List[dict], names) -> List[str]:
    by_seed = {run["seed"]: run for run in b_runs}
    lines = []
    for run in a_runs:
        other = by_seed.get(run["seed"])
        if other is None:
            continue
        for name in names:
            a, b = run["metrics"][name]["value"], other["metrics"][name]["value"]
            if a != b:
                lines.append(
                    f"CHANGED  {run['workload']:<14} seed={run['seed']} {name}: {a!r} -> {b!r}"
                )
    return lines


def compare(path_a: str, path_b: str) -> int:
    a_sets, b_sets = _load(path_a), _load(path_b)
    exact_layer = [m.name for m in PER_LAYER if m.exact]
    exact_end_to_end = [m.name for m in END_TO_END if m.exact]
    header = (
        f"{'workload':<14} {'metric':<24} {'A q1':>10} {'A median':>10} {'A q3':>10} "
        f"{'B q1':>10} {'B median':>10} {'B q3':>10} {'worse by':>9} {'bound':>6}  verdict"
    )
    print(header)
    bad = 0
    changed: List[str] = []
    for workload, trace in a_sets:
        if (workload, trace) not in b_sets:
            continue
        a_runs, b_runs = a_sets[(workload, trace)], b_sets[(workload, trace)]
        if trace:
            changed += _exact_differences(a_runs, b_runs, exact_layer)
            continue
        if a_runs[0]["backend"] == "simulator":
            # Only there are the exact end-to-end metrics virtual-time outcomes.
            changed += _exact_differences(a_runs, b_runs, exact_end_to_end)
        for metric in END_TO_END:
            a_q1, a_med, a_q3 = _quartiles(_samples(a_runs, metric.name))
            b_q1, b_med, b_q3 = _quartiles(_samples(b_runs, metric.name))
            worse_by = (b_med - a_med) / a_med
            if metric.better == "higher":
                worse_by = -worse_by
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            if spread > metric.bound:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "REGRESSION"
            elif worse_by < -metric.bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            bad += verdict in ("unresolved", "REGRESSION")
            print(
                f"{workload:<14} {metric.name:<24} {a_q1:>10.4g} {a_med:>10.4g} {a_q3:>10.4g} "
                f"{b_q1:>10.4g} {b_med:>10.4g} {b_q3:>10.4g} {worse_by:>+9.1%} "
                f"{metric.bound:>6.1%}  {verdict}"
            )
    print(
        f"# exact metrics (virtual time, counts), same seed on both sides: "
        f"{len(changed)} difference(s)"
    )
    for line in changed:
        print(line)
    return 1 if bad or changed else 0

