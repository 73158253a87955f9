"""The toolkit's one thread pool, and the scratch planes its tasks reuse.

It serves per-frame numpy work (view building, feature extraction), whose
kernels release the GIL. Pure-Python loops such as forest fitting hold the
GIL, gain nothing from threads, and stay serial.

The process keeps one pool per thread count, made on first use and kept
until it exits; importing this module starts no thread. A forked child drops
the pools it inherits, whose threads did not survive the fork, and makes its
own when it first needs one.

Each thread that runs ``parallel_map`` tasks has its own scratch buffers, so
a kernel run many times writes its temporaries into the same memory instead
of mapping and faulting in fresh planes on every run. The buffers are found
through a thread-local because the kernels keep their public signatures.
A pool worker keeps them from its first task to its exit, so a clip reuses
the planes the previous clip faulted in. That holds, per worker, one buffer
per slot at the largest size asked of it: for feature extraction two planes
of the largest frame seen (SI's, sharpness' or colour's outputs, or a
pair's difference, and the first also a resize view's divided luma; the
second also takes SSIM's row sums), a sixteenth of one for the SSIM block sums, and a band buffer of
about 2 MiB, into which each plane's rows are read and in which bands of
stencil sums, RGB, SSIM products and the leaves of each variance are formed.
A serial call (one thread or one item) runs on the caller's own thread,
which this module does not own, so its buffers are dropped when the call
returns.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import check_count

# Scratch slots: two full-size planes (the first also takes a resize view's
# divided luma, the second SSIM's row sums), the SSIM block sums, the band buffer.
_PLANE_A, _PLANE_B, _BLOCKS, _BAND = range(4)

_local = threading.local()  # .buffers: {slot: buffer}, on a pool worker or in a serial call
_pools: dict[int, ThreadPoolExecutor] = {}  # thread count -> the pool of that many workers


def _open_scope():
    _local.buffers = {}


def _pool(threads: int) -> ThreadPoolExecutor:
    pool = _pools.get(threads)
    if pool is None:
        # setdefault is atomic, so racing callers share one pool; a loser's
        # executor has started no thread and is dropped
        pool = _pools.setdefault(threads, ThreadPoolExecutor(threads, initializer=_open_scope))
    return pool


def _drop_pools():
    """Shut every pool down, which frees its workers' scratch."""
    while _pools:
        _pools.popitem()[1].shutdown()


os.register_at_fork(after_in_child=_pools.clear)


def parallel_map(fn: Callable, items: Sequence, threads: int | None) -> list:
    """``list(map(fn, items))``, on ``threads`` workers when there is more than one item.

    Results keep the order of ``items``, so reductions over them, and the
    output bits, do not depend on the thread count. While ``fn`` runs,
    ``scratch`` hands out the running thread's buffers. Every task has ended
    when the call returns or raises; an error is the first in ``items``
    order. A call from inside a task would wait on the pool that runs it, so
    it raises ``RuntimeError``. ``threads`` is None (serial) or an integer >= 1.
    """
    if hasattr(_local, "buffers"):
        raise RuntimeError("parallel_map called from inside a parallel_map task")
    if threads is not None and check_count("threads", threads) > 1 and len(items) > 1:
        pool = _pool(threads)
        futures = [pool.submit(fn, item) for item in items]
        wait(futures)
        return [f.result() for f in futures]
    _open_scope()
    try:
        return list(map(fn, items))
    finally:
        del _local.buffers


def scratch(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised row-major float64 array of ``shape``.

    Inside a ``parallel_map`` task it is a view of the running thread's
    buffer number ``slot``, grown when too small and reused by the thread's
    later tasks: arrays a caller needs at the same time take different
    slots, and none may outlive the task. Elsewhere it is a fresh array.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        return np.empty(shape)
    n = math.prod(shape)
    buf = buffers.get(slot)
    if buf is None or buf.size < n:
        buf = buffers[slot] = np.empty(n)
    return buf[:n].reshape(shape)
