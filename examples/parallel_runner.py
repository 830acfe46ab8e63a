#!/usr/bin/env python
"""Multi-core execution: the morsel-driven ParallelRunner.

This example runs TPC-H Q1 and Q3 twice — once on the simulated cluster
(:class:`~repro.api.OneShotRunner`, the paper's methodology) and once for
real on multiple CPU cores via :class:`~repro.api.ParallelRunner`, which
forks a pool of worker processes that pull morsel-sized tasks from a shared
queue and exchange batches zero-copy through POSIX shared memory.  Both
runners execute the *same* compiled stage graph, so the results must match
batch-exactly; the wall-clock comparison shows what the parallel backend is
for.

Run with::

    python examples/parallel_runner.py
"""

import time

from _common import bootstrap, finish

bootstrap()

from repro.api import ParallelRunner, QuokkaContext
from repro.chaos import batches_match
from repro.plan import format_batch
from repro.tpch import build_query, generate_catalog


def main() -> None:
    catalog = generate_catalog(scale_factor=0.01, seed=7)
    ctx = QuokkaContext(num_workers=4, catalog=catalog)

    # One runner forks its workers once and reuses them for every query;
    # leaving the block stops them.
    with ParallelRunner(workers=4) as parallel:
        print(f"parallel backend: {parallel.workers} worker processes, "
              f"morsels of {parallel.morsel_rows:,} rows\n")

        all_ok = True
        for number in (1, 3):
            frame = build_query(catalog, number).bind(ctx)

            started = time.perf_counter()
            simulated = frame.collect()  # one-shot simulated cluster
            simulated_wall = time.perf_counter() - started

            started = time.perf_counter()
            handle = parallel.submit(frame)
            result = handle.wait()
            parallel_wall = time.perf_counter() - started

            ok = batches_match(result.batch, simulated)
            all_ok = all_ok and ok
            print(f"TPC-H Q{number}: {result.batch.num_rows} rows | "
                  f"simulated {simulated_wall:.2f}s wall, "
                  f"parallel {parallel_wall:.2f}s wall over "
                  f"{result.metrics.tasks_executed} tasks | "
                  f"match={'yes' if ok else 'NO'}")
            if number == 1:
                print()
                print(format_batch(result.batch, 4))
                print()

    finish(all_ok, "ParallelRunner matches the simulated cluster on Q1 and Q3"
           if all_ok else "parallel results diverged from the simulated cluster")


if __name__ == "__main__":
    main()
