"""Zero-copy batch transport over ``multiprocessing.shared_memory``.

The parallel backend moves shuffle pieces between worker processes as
*handles*, not bytes: a producer packs a :class:`~repro.data.batch.Batch`
into one POSIX shared-memory block and ships a small picklable
:class:`ShmBatchRef` descriptor through the task queues; consumers map the
block and reconstruct the batch as NumPy views **directly over the shared
buffer** — no copy, no deserialisation of the fixed-width columns.

Layout per block (one block per batch)::

    [col0 buffer][col1 buffer]...[pickled vocabularies / object columns]

* fixed-width columns (int64 / float64 / bool / date) — raw C-contiguous
  buffers, reconstructed with ``np.ndarray(buffer=shm.buf, offset=...)``;
* dictionary-encoded string columns — the codes go in as a raw buffer
  narrowed to the smallest unsigned type that indexes the (used-vocabulary-
  compacted) string values, which are pickled, since Python string objects
  cannot live in shared memory; readers widen the codes back to ``int64``;
* plain object string columns — pickled whole.

Lifecycle: blocks are opened *untracked* (see :func:`_open_untracked` — the
stdlib resource tracker would otherwise double-book names across the fork
pool and destroy blocks at the first process exit while siblings still map
them), the driver records every block a stage produced and unlinks them once
the consuming stage's barrier completes, and a final sweep in the executor
unlinks anything left on error paths.  Mapped views inside a worker stay open until the worker
exits; unlinking only removes the name, the kernel frees the pages when the
last mapping goes away.
"""

from __future__ import annotations

import contextlib
import glob
import itertools
import os
import pickle
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.batch import Batch, ColumnData
from repro.data.dictionary import DictionaryArray
from repro.data.schema import Schema

#: Column kinds inside a block: raw ndarray buffer, dictionary codes+vocab,
#: or a pickled object column.
_ND, _DICT, _PICKLE = "nd", "dict", "pickle"


@dataclass(frozen=True)
class ShmBatchRef:
    """Picklable handle to one batch stored in a shared-memory block.

    ``columns`` holds per-column layout tuples:

    * ``(_ND, name, dtype_str, offset, count)``
    * ``(_DICT, name, codes_dtype_str, codes_offset, count, vocab_offset,
      vocab_nbytes)``
    * ``(_PICKLE, name, offset, nbytes)``
    """

    block: str
    size: int
    num_rows: int
    nbytes: Optional[int]
    schema: Schema
    columns: Tuple[tuple, ...]


@contextlib.contextmanager
def _tracker_silenced():
    """Suppress resource-tracker traffic for shared-memory calls in scope.

    The driver owns every block's lifecycle explicitly (per-stage unlinks plus
    a prefix sweep), so tracker bookkeeping is pure noise here — worse, on
    Python < 3.13 *attaching* registers too, and a fork pool funnels every
    process's register/unregister for the same name into one tracker daemon,
    whose set-based cache then logs KeyError tracebacks and may unlink blocks
    at the first process exit while siblings still map them.  There is no
    ``track=False`` before 3.13, so both directions are patched out around
    the stdlib calls (``SharedMemory()`` registers, ``.unlink()``
    unregisters).
    """
    register, unregister = resource_tracker.register, resource_tracker.unregister
    resource_tracker.register = lambda *args, **kwargs: None
    resource_tracker.unregister = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = register
        resource_tracker.unregister = unregister


def _open_untracked(name: Optional[str] = None, create: bool = False, size: int = 0):
    """Open a shared-memory block with no resource-tracker registration."""
    with _tracker_silenced():
        return shared_memory.SharedMemory(name=name, create=create, size=size)


#: Per-process counter making generated block names unique within one pid.
_block_counter = itertools.count()


def make_block_name(prefix: str) -> str:
    """A block name unique across the pool: ``prefix`` + pid + local counter.

    Sharing one query-scoped prefix across the driver and its workers lets
    :func:`sweep_blocks` garbage-collect everything a failed query left
    behind, even blocks whose handles never reached the driver.
    """
    return f"{prefix}{os.getpid()}_{next(_block_counter)}"


def write_batch(batch: Batch, name_prefix: Optional[str] = None) -> ShmBatchRef:
    """Pack ``batch`` into a fresh shared-memory block and return its handle.

    The block is created (and closed) here; the caller's driver unlinks it by
    name once every consumer is done.  ``name_prefix`` (when given) makes the
    block discoverable by :func:`sweep_blocks`.
    """
    plan: List[tuple] = []   # (kind, name, payload...) mirrors ref columns
    buffers: List[Tuple[int, object]] = []  # (offset, ndarray | bytes)
    offset = 0

    def _reserve(nbytes: int, align: int = 8) -> int:
        nonlocal offset
        offset = (offset + align - 1) & ~(align - 1)
        start = offset
        offset += nbytes
        return start

    for name in batch.schema.names:
        data: ColumnData = batch.column_data(name)
        if isinstance(data, DictionaryArray):
            values, codes = data.used_vocabulary()
            # The narrowest width that holds every code: one byte per row for
            # a vocabulary of up to 256 values instead of eight.
            codes = np.ascontiguousarray(codes, dtype=np.min_scalar_type(len(values) - 1))
            vocab = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
            codes_off = _reserve(codes.nbytes)
            buffers.append((codes_off, codes))
            vocab_off = _reserve(len(vocab), align=1)
            buffers.append((vocab_off, vocab))
            plan.append((_DICT, name, codes.dtype.str, codes_off, len(codes),
                         vocab_off, len(vocab)))
        elif data.dtype == object:
            blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
            off = _reserve(len(blob), align=1)
            buffers.append((off, blob))
            plan.append((_PICKLE, name, off, len(blob)))
        else:
            array = np.ascontiguousarray(data)
            off = _reserve(array.nbytes)
            buffers.append((off, array))
            plan.append((_ND, name, array.dtype.str, off, len(array)))

    size = max(1, offset)
    name = make_block_name(name_prefix) if name_prefix else None
    shm = _open_untracked(name, create=True, size=size)
    try:
        _fill_block(shm, buffers)
        return ShmBatchRef(
            block=shm.name,
            size=size,
            num_rows=batch.num_rows,
            nbytes=batch._nbytes,
            schema=batch.schema,
            columns=tuple(plan),
        )
    finally:
        shm.close()


def _fill_block(shm, buffers: List[Tuple[int, object]]) -> None:
    """Copy payloads into the block.

    Separate function so every NumPy view over ``shm.buf`` is dropped with
    this frame before the caller closes the mapping (closing with exported
    buffer views still alive raises ``BufferError``).
    """
    for off, payload in buffers:
        if isinstance(payload, bytes):
            shm.buf[off:off + len(payload)] = payload
        elif payload.nbytes:
            target = np.ndarray(payload.shape, dtype=payload.dtype,
                                buffer=shm.buf, offset=off)
            target[:] = payload


def read_batch(
    ref: ShmBatchRef, registry: Optional["BlockRegistry"] = None, copy: bool = False
) -> Batch:
    """Reconstruct the batch behind ``ref``.

    With ``copy=False`` fixed-width columns are NumPy views over the shared
    buffer — zero-copy, but the mapping must outlive the arrays, so the
    caller passes a :class:`BlockRegistry` that keeps the
    :class:`~multiprocessing.shared_memory.SharedMemory` object open (workers
    hold one registry for their whole lifetime).  With ``copy=True`` the
    columns are materialised into private memory and the block is closed
    immediately (the driver uses this to lift the final result out before
    unlinking).
    """
    if registry is not None:
        shm = registry.attach(ref.block)
        return _decode_block(ref, shm, copy)
    if not copy:
        raise ValueError("zero-copy read_batch requires a BlockRegistry")
    shm = _open_untracked(ref.block)
    try:
        return _decode_block(ref, shm, copy=True)
    finally:
        shm.close()


def _decode_block(ref: ShmBatchRef, shm, copy: bool) -> Batch:
    """Rebuild the columns from a mapped block.

    Separate frame for the same reason as :func:`_fill_block`: in copy mode
    no view over ``shm.buf`` may survive this function, so the caller can
    close the mapping immediately.
    """
    columns: Dict[str, ColumnData] = {}
    for entry in ref.columns:
        kind, name = entry[0], entry[1]
        if kind == _ND:
            _, _, dtype_str, off, count = entry
            array = np.ndarray((count,), dtype=np.dtype(dtype_str),
                               buffer=shm.buf, offset=off)
            columns[name] = array.copy() if copy else array
        elif kind == _DICT:
            _, _, codes_dtype, codes_off, count, vocab_off, vocab_nbytes = entry
            codes = np.ndarray((count,), dtype=np.dtype(codes_dtype),
                               buffer=shm.buf, offset=codes_off)
            values = pickle.loads(shm.buf[vocab_off:vocab_off + vocab_nbytes])
            # Widening the narrowed codes back to int64 is a private copy in
            # both read modes.
            array = DictionaryArray(codes.astype(np.int64), values)
            # The writer compacted to the used vocabulary, so the compact
            # view is the array itself (mirrors DictionaryArray pickling).
            array._compact = (array.values, array.codes)
            columns[name] = array
        else:
            _, _, off, nbytes = entry
            columns[name] = pickle.loads(shm.buf[off:off + nbytes])
    return Batch._from_parts(ref.schema, columns, ref.num_rows, ref.nbytes)


@dataclass(frozen=True)
class ShmBlobRef:
    """Picklable handle to one pickled object stored in a shared-memory block.

    The transport for small driver-to-worker broadcasts that are not batches
    — runtime semi-join filters, today.  The payload is written once; every
    task that needs it carries the same tiny ref, and workers cache the
    deserialised object per block name (:meth:`StageGraphTaskHandler`), so a
    filter crosses each worker process exactly once no matter how many tasks
    apply it.
    """

    block: str
    size: int


def write_blob(obj, name_prefix: str) -> ShmBlobRef:
    """Pickle ``obj`` into a fresh shared-memory block and return its handle.

    Like :func:`write_batch`, the block is created here and the caller owns
    unlinking (the executor's prefix sweep covers error paths).
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    size = max(1, len(payload))
    shm = _open_untracked(make_block_name(name_prefix), create=True, size=size)
    try:
        shm.buf[: len(payload)] = payload
        return ShmBlobRef(block=shm.name, size=size)
    finally:
        shm.close()


def read_blob(ref: ShmBlobRef):
    """Unpickle the object behind ``ref`` (always a private copy)."""
    shm = _open_untracked(ref.block)
    try:
        return pickle.loads(shm.buf[: ref.size])
    finally:
        shm.close()


def unlink_block(name: str) -> None:
    """Destroy one block by name (idempotent — missing blocks are ignored)."""
    try:
        shm = _open_untracked(name)
    except FileNotFoundError:
        return
    shm.close()
    with _tracker_silenced():
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - lost a race with cleanup
            pass


def sweep_blocks(prefix: str) -> int:
    """Unlink every block whose name starts with ``prefix``; returns the count.

    Best-effort error-path cleanup: a worker that died mid-task may have
    created blocks whose handles never reached the driver, so the driver
    sweeps the query's whole name prefix.  POSIX shared memory surfaces as
    files under ``/dev/shm`` on Linux; elsewhere this is a no-op (ordinary
    per-block unlinks still run on the success path).
    """
    removed = 0
    for path in glob.glob(f"/dev/shm/{glob.escape(prefix)}*"):
        unlink_block(os.path.basename(path))
        removed += 1
    return removed


class BlockRegistry:
    """Per-process cache of mapped shared-memory blocks.

    Keeps every attached :class:`SharedMemory` open so zero-copy column views
    stay valid for the process's lifetime (closing a mapping with live NumPy
    views exported from it is an error).  Workers hold one registry; the
    driver uses copy-mode reads instead and never needs one.
    """

    def __init__(self):
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """Map ``name`` (cached after the first call)."""
        shm = self._blocks.get(name)
        if shm is None:
            shm = _open_untracked(name)
            self._blocks[name] = shm
        return shm

    def __len__(self) -> int:
        return len(self._blocks)
