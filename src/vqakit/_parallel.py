"""The toolkit's one thread pool, and the scratch planes its tasks reuse.

It serves per-frame numpy work (view building, feature extraction), whose
kernels release the GIL. Pure-Python loops such as forest fitting hold the
GIL, gain nothing from threads, and stay serial.

Each thread that runs tasks of a ``parallel_map`` call keeps its own scratch
buffers, so a kernel run many times in one call writes its temporaries into
the same memory instead of mapping and faulting in fresh planes on every
run. The buffers are found through a thread-local because the kernels keep
their public signatures. They live as long as the thread serves the call: a
pool worker's from its start to its exit at the pool's shutdown, and the
calling thread's, in a serial call, until the call returns.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_local = threading.local()  # .buffers: this thread's {slot: buffer} while it serves a call


def _open_scope():
    _local.buffers = {}


def parallel_map(fn: Callable, items: Sequence, threads: int | None) -> list:
    """``list(map(fn, items))``, on ``threads`` workers when there is more than one item.

    Results keep the order of ``items``, so reductions over them, and the
    output bits, do not depend on the thread count. While ``fn`` runs,
    ``scratch`` hands out the running thread's buffers for this call.
    """
    if threads and threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=threads, initializer=_open_scope) as ex:
            return list(ex.map(fn, items))
    _open_scope()
    try:
        return list(map(fn, items))
    finally:
        del _local.buffers


def scratch(slot: int, shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised row-major float64 array of ``shape``.

    Inside a ``parallel_map`` task it is a view of the running thread's
    buffer number ``slot``, grown when too small and reused by the thread's
    later tasks in the same call: arrays a caller needs at the same time
    take different slots, and none may outlive the task. Elsewhere it is a
    fresh array.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None:
        return np.empty(shape)
    n = math.prod(shape)
    buf = buffers.get(slot)
    if buf is None or buf.size < n:
        buf = buffers[slot] = np.empty(n)
    return buf[:n].reshape(shape)
