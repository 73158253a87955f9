"""Efficiency protocol: timed runs, analytic MACs, and the runtime gate.

Runtime is measured on a pre-loaded in-memory clip with a monotonic clock:
a few untimed warmup executions, then the configured number of timed runs
whose arithmetic mean is reported. MACs follow a multiply-accumulate-only
convention (comparisons, copies and index math count zero), with per-frame
stages multiplied by the number of frames left after temporal sampling.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .clip_io import VideoClip
from .errors import BenchRunError, SpecMismatch

__all__ = [
    "Conv2d",
    "Linear",
    "Elementwise",
    "Feature",
    "PipelineDescriptor",
    "BenchReport",
    "ConstraintGate",
    "ConstraintVerdict",
    "count_macs",
    "time_pipeline",
    "check_constraint",
]

# MACs per pixel of each feature, pass by pass, as signal_features computes
# them: a 3x3 stencil costs 9, any other pass over the plane (elementwise op,
# product plane, block sum, mean/std/var reduction) costs 1.
_FEATURE_MACS = {
    "si": (3 + 1) * 2 + 1 + 1,  # per gradient: [1,2,1] smoothing (3), difference; hypot, std
    "ti": 1 + 1,  # frame difference, std
    "sharpness": 9 + 1,  # Laplacian, var
    "colorfulness": 1 + 1 + 2 + 2,  # rg, yb, std of each, mean of each
    "avg_luminance": 1,  # mean
    "contrast": 1,  # std
}
_SAME_PASSES = {"ti_first": "ti"}
# SSIM costs (per pixel, per 8x8 window at stride 4, one window per 16
# pixels). A frame's statistics: the a*a plane and the 4x4 block sums of a and
# a*a; per window, two sums of 2x2 blocks (2 passes each), the mean (1) and
# the variance (3).
_SSIM_FRAME = (1 + 2, 4 + 1 + 3)
# A pair's cross term: the a*b plane and its block sums; per window, its sum
# of 2x2 blocks (2), mu_a*mu_b (1), the covariance (2), numerator 5,
# denominator 7, the ratio and the mean.
_SSIM_PAIR = (1 + 1, 2 + 1 + 2 + 5 + 7 + 1 + 1)
# (frame statistics, pairs) per call: ssim() makes both frames' statistics;
# extraction makes each frame's once, counted with ssim_pair, so ssim_first
# adds a pair only.
_SSIM_CALLS = {"ssim": (2, 1), "ssim_pair": (1, 1), "ssim_first": (0, 1)}


@dataclass(frozen=True)
class Conv2d:
    c_in: int
    c_out: int
    k_h: int
    k_w: int
    h_out: int
    w_out: int
    per_frame: bool = True

    def macs(self) -> int:
        return self.c_in * self.c_out * self.k_h * self.k_w * self.h_out * self.w_out


@dataclass(frozen=True)
class Linear:
    d_in: int
    d_out: int
    tokens: int = 1
    per_frame: bool = True

    def macs(self) -> int:
        return self.d_in * self.d_out * self.tokens


@dataclass(frozen=True)
class Elementwise:
    n: int
    per_frame: bool = True

    def macs(self) -> int:
        return self.n


@dataclass(frozen=True)
class Feature:
    name: str
    plane_size: int
    per_frame: bool = True

    def macs(self) -> int:
        if self.name in _SSIM_CALLS:
            frames, pairs = _SSIM_CALLS[self.name]
            pixel, window = (frames * f + pairs * p for f, p in zip(_SSIM_FRAME, _SSIM_PAIR))
            return pixel * self.plane_size + window * self.plane_size // 16
        return _FEATURE_MACS.get(_SAME_PASSES.get(self.name, self.name), 1) * self.plane_size


Stage = Conv2d | Linear | Elementwise | Feature


@dataclass(frozen=True)
class PipelineDescriptor:
    stages: tuple[Stage, ...] = ()
    frames_per_clip: int = 1

    def __add__(self, other: "PipelineDescriptor") -> "PipelineDescriptor":
        if other.frames_per_clip != self.frames_per_clip:
            raise ValueError("cannot concatenate descriptors with different frame counts")
        return PipelineDescriptor(self.stages + other.stages, self.frames_per_clip)


def count_macs(descriptor: PipelineDescriptor) -> float:
    """Giga-MACs per clip for a declared pipeline."""
    total = 0
    for s in descriptor.stages:
        m = s.macs()
        total += m * descriptor.frames_per_clip if s.per_frame else m
    return total / 1e9


@dataclass(frozen=True)
class BenchReport:
    clip_spec: str
    runtime_ms: float
    runtime_runs: tuple[float, ...]
    warmup_runs: int
    macs_g: float
    params_m: float
    constraint_pass: bool

    def to_json(self) -> str:
        return json.dumps({
            "spec": self.clip_spec,
            "runtime_ms": self.runtime_ms,
            "runs": list(self.runtime_runs),
            "warmup_runs": self.warmup_runs,
            "macs_g": self.macs_g,
            "params_m": self.params_m,
            "pass": self.constraint_pass,
        })


@dataclass(frozen=True)
class ConstraintGate:
    clip_spec: str
    budget_ms: float = 1000.0

    def __post_init__(self):
        if self.budget_ms <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class ConstraintVerdict:
    passed: bool
    margin_ms: float


def time_pipeline(
    pipeline,
    clip: VideoClip,
    warmup: int = 3,
    runs: int = 10,
    spec_label: str = "",
    budget_ms: float = 1000.0,
) -> BenchReport:
    """Run warmups then timed executions of a clip->score callable.

    pipeline is either a callable or an object with .score (callable),
    .descriptor and .params_m — MACs are counted from the descriptor, and a
    bare callable reports 0 MACs and 0 parameters. Clip ingestion is outside
    the timed region (the clip is already in memory).
    """
    if runs < 1:
        raise ValueError("need at least one timed run")
    score = getattr(pipeline, "score", pipeline)
    descriptor = getattr(pipeline, "descriptor", None)
    macs_g = count_macs(descriptor) if descriptor is not None else 0.0
    params_m = getattr(pipeline, "params_m", 0.0)

    for i in range(warmup):
        try:
            score(clip)
        except Exception as e:  # noqa: BLE001 - annotate with the run index
            raise BenchRunError(-(i + 1), e) from e
    measured = []
    for i in range(runs):
        t0 = time.perf_counter()
        try:
            score(clip)
        except Exception as e:  # noqa: BLE001
            raise BenchRunError(i, e) from e
        measured.append((time.perf_counter() - t0) * 1e3)

    mean = float(np.mean(measured))
    return BenchReport(
        clip_spec=spec_label,
        runtime_ms=mean,
        runtime_runs=tuple(measured),
        warmup_runs=warmup,
        macs_g=macs_g,
        params_m=float(params_m),
        constraint_pass=mean <= budget_ms,
    )


def check_constraint(report: BenchReport, gate: ConstraintGate) -> ConstraintVerdict:
    if report.clip_spec != gate.clip_spec:
        raise SpecMismatch(f"report is {report.clip_spec!r}, gate is {gate.clip_spec!r}")
    margin = gate.budget_ms - report.runtime_ms
    return ConstraintVerdict(report.runtime_ms <= gate.budget_ms, margin)
