"""The toolkit's one thread pool, and the scratch planes its tasks reuse.

It serves per-frame numpy work (view building, feature extraction), whose
kernels release the GIL. Pure-Python loops such as forest fitting hold the
GIL, gain nothing from threads, and stay serial.

Each thread that runs tasks of one ``parallel_map`` call keeps its own
scratch buffers for as long as that call lasts, so a kernel run many times
in one call writes its temporaries into the same memory instead of mapping
and faulting in fresh planes on every run. The buffers are found through a
thread-local because the kernels keep their public signatures; they are
dropped when the call returns.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_local = threading.local()  # .buffers: this thread's {slot: buffer} for the running call


def parallel_map(fn: Callable, items: Sequence, threads: int | None) -> list:
    """``list(map(fn, items))``, on ``threads`` workers when there is more than one item.

    Results keep the order of ``items``, so reductions over them, and the
    output bits, do not depend on the thread count. While ``fn`` runs,
    ``scratch`` hands out the running thread's buffers for this call.
    """
    buffers: dict[int, dict] = {}  # thread id -> that thread's buffers, for this call only

    def task(item):
        outer = getattr(_local, "buffers", None)
        _local.buffers = buffers.setdefault(threading.get_ident(), {})
        try:
            return fn(item)
        finally:
            _local.buffers = outer

    try:
        if not threads or threads <= 1 or len(items) <= 1:
            return list(map(task, items))
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(task, items))
    finally:
        buffers.clear()


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
