"""The toolkit's one thread pool.

It serves per-frame numpy work (view building, feature extraction), whose
kernels release the GIL. Pure-Python loops such as forest fitting hold the
GIL, gain nothing from threads, and stay serial.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn: Callable, items: Sequence, threads: int | None) -> list:
    """``list(map(fn, items))``, on ``threads`` workers when there is more than one item.

    Results keep the order of ``items``, so reductions over them, and the
    output bits, do not depend on the thread count.
    """
    if not threads or threads <= 1 or len(items) <= 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
