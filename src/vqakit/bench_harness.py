"""Efficiency protocol: timed runs, analytic MACs, and the runtime gate.

Runtime is measured on a pre-loaded in-memory clip with a monotonic clock:
a few untimed warmup executions, then the configured number of timed runs
whose arithmetic mean is reported. MACs follow a multiply-accumulate-only
convention (comparisons, copies and index math count zero), with per-frame
stages multiplied by the number of frames left after temporal sampling. A
feature's cost per call is read from ``signal_features.KERNEL_MACS``, beside
the kernels it describes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .clip_io import VideoClip
from .errors import BenchRunError, InvalidParameter, SpecMismatch, check_count
from .signal_features import KERNEL_MACS

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
    "check_run_counts",
    "time_pipeline",
    "check_constraint",
]


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
        pixel, window = KERNEL_MACS[self.name]
        return pixel * self.plane_size + window * self.plane_size // 16


Stage = Conv2d | Linear | Elementwise | Feature


@dataclass(frozen=True)
class PipelineDescriptor:
    stages: tuple[Stage, ...] = ()
    frames_per_clip: int = 1


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


@dataclass(frozen=True)
class ConstraintGate:
    """The paper's runtime gate: a clip of the spec scored within budget_ms."""

    clip_spec: str
    budget_ms: float = 1000.0

    def __post_init__(self):
        if not self.budget_ms > 0:  # NaN fails too
            raise InvalidParameter("budget_ms", self.budget_ms, "a positive number of ms")


@dataclass(frozen=True)
class ConstraintVerdict:
    passed: bool
    margin_ms: float


def check_run_counts(warmup: int, runs: int):
    """Refuse counts time_pipeline cannot honour, before anything is built."""
    check_count("warmup", warmup, 0)
    check_count("runs", runs)


def time_pipeline(
    pipeline,
    clip: VideoClip,
    warmup: int = 3,
    runs: int = 10,
    spec_label: str = "",
) -> BenchReport:
    """Run warmups then timed executions of a clip->score callable.

    pipeline is either a callable or an object with .score (callable),
    .descriptor and .params_m — MACs are counted from the descriptor, and a
    bare callable reports 0 MACs and 0 parameters. Clip ingestion is outside
    the timed region (the clip is already in memory).
    """
    check_run_counts(warmup, runs)
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

    return BenchReport(
        clip_spec=spec_label,
        runtime_ms=float(np.mean(measured)),
        runtime_runs=tuple(measured),
        warmup_runs=warmup,
        macs_g=macs_g,
        params_m=float(params_m),
    )


def check_constraint(report: BenchReport, gate: ConstraintGate) -> ConstraintVerdict:
    if report.clip_spec != gate.clip_spec:
        raise SpecMismatch(f"report is {report.clip_spec!r}, gate is {gate.clip_spec!r}")
    margin = gate.budget_ms - report.runtime_ms
    return ConstraintVerdict(report.runtime_ms <= gate.budget_ms, margin)
