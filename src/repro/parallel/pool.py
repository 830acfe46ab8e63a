"""Fork-based worker pool with a shared morsel queue.

The pool is deliberately minimal: one task queue, one result queue, N forked
worker processes running a pull loop.  Workers are forked *after* the driver
has compiled the stage graph and bound it into the task handler, so the
graph, the catalog's resident tables and the operator factories (closures —
not picklable) all reach the workers by fork inheritance / copy-on-write
instead of serialisation; only task descriptors and shared-memory handles
ever cross the queues.

``workers=0`` runs every task inline in the driver process (no fork, no
queues) — the degenerate mode used on platforms without ``fork`` and by
tests that want parallel-path semantics under a debugger.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import ExecutionError

#: Seconds between liveness checks while the driver waits on results.
_POLL_SECONDS = 0.05

#: The executing worker's id (set inside the child; ``-1`` in the driver
#: until an inline pool binds it).
_WORKER_ID: int = -1


def current_worker_id() -> int:
    """Id of the worker executing the current task (``-1`` in the driver)."""
    return _WORKER_ID


def _bind_worker(worker_id: int) -> None:
    global _WORKER_ID
    _WORKER_ID = worker_id


def _worker_main(worker_id: int, handler, tasks, results) -> None:
    """Pull loop of one worker process."""
    _bind_worker(worker_id)
    while True:
        task = tasks.get()
        if task is None:
            break
        try:
            payload = handler.run(task)
            results.put((task.task_id, True, payload))
        except BaseException:
            results.put((task.task_id, False, traceback.format_exc()))


class WorkerPool:
    """A fixed set of forked workers pulling tasks from one shared queue.

    ``handler`` is any object with a ``run(task) -> payload`` method; it is
    captured at fork time, so bind everything heavy (stage graph, resident
    tables) into it *before* constructing the pool.
    """

    def __init__(self, workers: int, handler):
        if workers < 0:
            raise ExecutionError("worker count must be >= 0")
        self.workers = workers
        self.handler = handler
        self._procs: List[multiprocessing.Process] = []
        self._closed = False
        if workers == 0:
            self._tasks = self._results = None
            _bind_worker(0)
            return
        ctx = multiprocessing.get_context("fork")
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        for worker_id in range(workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(worker_id, handler, self._tasks, self._results),
                daemon=True,
                name=f"repro-parallel-{worker_id}",
            )
            proc.start()
            self._procs.append(proc)

    # -- dispatch ---------------------------------------------------------------

    def run(self, tasks: Sequence, on_error: Optional[Callable[[], None]] = None) -> Dict[int, object]:
        """Execute ``tasks`` to completion; return payloads keyed by task id.

        This is a barrier: it returns once every task has reported.  A task
        failure raises :class:`ExecutionError` carrying the worker traceback;
        a worker process dying raises as well (``on_error`` runs first so the
        caller can release shared-memory blocks).
        """
        if self._closed:
            raise ExecutionError("worker pool is closed")
        if not tasks:
            return {}
        try:
            return self._run_inline(tasks) if self.workers == 0 else self._run_forked(tasks)
        except Exception:
            if on_error is not None:
                on_error()
            raise

    def _run_inline(self, tasks: Sequence) -> Dict[int, object]:
        payloads: Dict[int, object] = {}
        for task in tasks:
            try:
                payloads[task.task_id] = self.handler.run(task)
            except Exception as exc:
                raise ExecutionError(
                    f"parallel task {task.task_id} failed inline: {exc}"
                ) from exc
        return payloads

    def _run_forked(self, tasks: Sequence) -> Dict[int, object]:
        for task in tasks:
            self._tasks.put(task)
        payloads: Dict[int, object] = {}
        while len(payloads) < len(tasks):
            try:
                task_id, ok, payload = self._results.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                dead = [p.name for p in self._procs if not p.is_alive()]
                if dead:
                    raise ExecutionError(
                        f"parallel worker(s) {dead} died while "
                        f"{len(tasks) - len(payloads)} task(s) were outstanding"
                    ) from None
                continue
            if not ok:
                raise ExecutionError(f"parallel task {task_id} failed in worker:\n{payload}")
            payloads[task_id] = payload
        return payloads

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._procs:
            return
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - queue torn down
                break
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for q in (self._tasks, self._results):
            q.cancel_join_thread()
            q.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
