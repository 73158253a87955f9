"""Span recording around the program's public functions, from outside it.

A Tracer replaces functions at the module attributes where the program looks
them up (so `vqakit.sampling.frame_rgb`, called inside `build_view`, is seen
as well as the benchmark's own top-level calls) and puts the originals back on
`uninstall`. Spans stay in memory and are written once, at the end.

Spans opened on a worker thread with nothing open on that thread get the
innermost span open on the main thread as parent. That is exact here because
the benchmark drives one operation at a time: the main thread is blocked inside
the call that owns the pool while the workers run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# span name -> (module the program looks the function up in, attribute)
TARGETS = {
    "clip_io.parse_y4m": ("vqakit.clip_io", "parse_y4m"),
    "clip_io.frame_rgb": ("vqakit.sampling", "frame_rgb"),
    "sampling.temporal_sample": ("vqakit.sampling", "temporal_sample"),
    "sampling.build_view": ("vqakit.sampling", "build_view"),
    "signal_features.extract_view_features": ("vqakit.signal_features", "extract_view_features"),
    **{f"signal_features.{f}": ("vqakit.signal_features", f)
       for f in ("si", "ti", "ssim", "colorfulness", "sharpness", "contrast", "avg_luminance")},
    **{f"regressors.{f}": ("vqakit.regressors", f)
       for f in ("load_model", "predict_forest", "fit_forest", "train_siamese",
                 "finetune_mos", "predict_scores")},
    "scoring.fuse_scores": ("vqakit.scoring", "fuse_scores"),
    **{f"eval_metrics.{f}": ("vqakit.eval_metrics", f) for f in ("srocc", "krocc", "plcc", "rmse")},
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, op, thread)
        self.errors: dict[str, int] = defaultdict(int)
        self.op = None
        self._ids = itertools.count(1)  # next() on a C iterator is atomic under the GIL
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _exit(self, stack, sid, parent, name, t0):
        t1 = time.perf_counter_ns()
        stack.pop()
        self.spans.append((sid, name, t0, t1, parent, self.op, threading.get_ident()))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack, sid, parent = self._enter()
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            self._exit(stack, sid, parent, name, t0)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, (modname, attr) in TARGETS.items():
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write_jsonl(self, path):
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "thread")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def op_breakdown(spans, op) -> dict:
    """Per-name busy time, calls and self time for one operation's spans.

    busy is the summed duration of a name's spans. self is wall-clock time:
    every instant inside the operation goes to the innermost spans open at
    that instant, split evenly when several run in parallel. A span's self
    time is therefore its duration minus the time its children cover, and the
    self times of all spans add up to the operation's wall time.
    """
    mine = [s for s in spans if s[5] == op]
    busy, calls, self_ms = defaultdict(float), defaultdict(int), defaultdict(float)
    for s in mine:
        busy[s[1]] += (s[3] - s[2]) / 1e6
        calls[s[1]] += 1
    points = sorted({t for s in mine for t in (s[2], s[3])})
    for a, b in zip(points, points[1:]):
        active = [s for s in mine if s[2] <= a and s[3] >= b]
        open_parents = {s[4] for s in active}
        inner = [s for s in active if s[0] not in open_parents]
        for s in inner:
            self_ms[s[1]] += (b - a) / 1e6 / len(inner)
    return {"busy_ms": dict(busy), "calls": dict(calls), "self_ms": dict(self_ms)}
