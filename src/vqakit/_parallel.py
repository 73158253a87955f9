"""The toolkit's one thread pool, and the scratch planes its tasks reuse.

It serves per-frame numpy work (view building, feature extraction), whose
kernels release the GIL. Pure-Python loops such as forest fitting hold the
GIL, gain nothing from threads, and stay serial.

The process keeps one pool per thread count, made on first use and kept
until it exits; importing this module starts no thread. A forked child drops
the pools it inherits, whose threads did not survive the fork, and makes its
own when it first needs one.

Each ``parallel_map`` task holds a scratch set while it runs, so a kernel
run many times writes its temporaries into the same memory instead of
mapping and faulting in fresh planes on every run. The set is found through
a thread-local because the kernels keep their public signatures. A task
takes a set from the process's idle list when it starts and gives it back
when it ends; serial and pooled calls draw from the one list. A thread
takes back the set its last task held when that set is idle, so that its
band buffer is still in the core's cache, then any idle set, and a new set
is made only when none is idle. So a process holds at most as many sets as
tasks ever ran at once (two at ``threads=2``, whose serial calls reuse
them), and it keeps them until ``_drop_pools`` or its exit, so a clip
reuses the planes the previous clip faulted in.

A set holds one buffer per slot at the largest size asked of it: for
feature extraction two planes of the largest frame seen (SI's, sharpness' or
colour's outputs, or a pair's difference; the first also takes a resize
view's divided luma, SSIM's block pair sums and the three window-sized
arrays in which a task combines a pair's SSIM, the second SSIM's block
sums), and a band buffer of about 2 MiB, into which each plane's rows are
read and in which bands of stencil sums, RGB, SSIM products and row sums
and the leaves of each variance are formed.
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
# divided luma, SSIM's block pair sums and a pair's SSIM combine arrays, the
# second SSIM's block sums), the band buffer.
_PLANE_A, _PLANE_B, _BAND = range(3)

# .buffers: the running task's set; .last: the id of the set the thread's last
# task held, which keeps no set alive once it is dropped
_local = threading.local()
_idle: list[dict] = []  # scratch sets ({slot: buffer}) that no running task holds
_idle_lock = threading.Lock()
_pools: dict[int, ThreadPoolExecutor] = {}  # thread count -> the pool of that many workers


def _take() -> dict:
    """An idle scratch set: the one this thread held last, else any, else a new one."""
    last = getattr(_local, "last", None)
    with _idle_lock:
        # by identity: == would compare two sets' buffers
        at = next((i for i, s in enumerate(_idle) if id(s) == last), -1)
        buffers = _idle.pop(at) if _idle else {}
    _local.last = id(buffers)
    return buffers


def _run(fn: Callable, item):
    """``fn(item)`` as a task, holding a scratch set while it runs."""
    _local.buffers = _take()
    try:
        return fn(item)
    finally:
        with _idle_lock:
            _idle.append(_local.buffers)
        del _local.buffers


def _pool(threads: int) -> ThreadPoolExecutor:
    pool = _pools.get(threads)
    if pool is None:
        # setdefault is atomic, so racing callers share one pool; a loser's
        # executor has started no thread and is dropped
        pool = _pools.setdefault(threads, ThreadPoolExecutor(threads))
    return pool


def _drop_pools():
    """Shut every pool down and free every idle scratch set."""
    while _pools:
        _pools.popitem()[1].shutdown()
    with _idle_lock:
        _idle.clear()


def _after_fork():
    # a lock that a parent thread held at the fork stays held in the child
    global _idle_lock
    _idle_lock = threading.Lock()
    _pools.clear()


os.register_at_fork(after_in_child=_after_fork)


def parallel_map(fn: Callable, items: Sequence, threads: int | None) -> list:
    """``list(map(fn, items))``, on ``threads`` workers when there is more than one item.

    Results keep the order of ``items``, so reductions over them, and the
    output bits, do not depend on the thread count. Items start in their
    order: each worker takes the next one when it is free, so a caller can
    bound what is in flight by how it orders its items. One pool task per
    worker runs them, so the call's bookkeeping does not grow with the
    number of items. While ``fn`` runs, ``scratch`` hands out the buffers of
    the set its task holds. Every task has ended when the call returns or
    raises. A worker, like a serial call, stops at an error, and the error
    raised is the first in ``items`` order. A call from inside a task would
    wait on the pool that runs it, so it raises ``RuntimeError``.
    ``threads`` is None (serial) or an integer >= 1.
    """
    if hasattr(_local, "buffers"):
        raise RuntimeError("parallel_map called from inside a parallel_map task")
    if threads is not None and check_count("threads", threads) > 1 and len(items) > 1:
        return _pooled(fn, items, threads)
    return [_run(fn, item) for item in items]


def _pooled(fn: Callable, items: Sequence, threads: int) -> list:
    """``parallel_map`` on a pool: ``threads`` workers, each taking the next
    item in order until none is left, or until its item raises."""
    results, failed = [None] * len(items), {}  # failed: worker -> the item it stopped on
    order, lock = iter(range(len(items))), threading.Lock()

    def worker(w: int):
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = _run(fn, items[i])
            except Exception:
                failed[w] = i
                raise

    pool = _pool(threads)
    workers = [pool.submit(worker, w) for w in range(min(threads, len(items)))]
    wait(workers)
    # items start in order, so the first failed item is the earliest a worker stopped on
    for w in sorted(range(len(workers)), key=lambda w: failed.get(w, len(items))):
        workers[w].result()
    return results


def scratch(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised row-major float64 array of ``shape``.

    Inside a ``parallel_map`` task it is a view of buffer number ``slot`` of
    the task's scratch set, grown when too small and reused by later tasks:
    arrays a caller needs at the same time take different slots, and none
    may outlive the task. Elsewhere it is a fresh array.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        return np.empty(shape)
    n = math.prod(shape)
    buf = buffers.get(slot)
    if buf is None or buf.size < n:
        buf = buffers[slot] = np.empty(n)
    return buf[:n].reshape(shape)
