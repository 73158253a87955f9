"""Temporal and spatial sampling strategies.

Temporal plans pick frame indices (sparse 1-or-2 per 30 frames, fixed fps
rates, or the end-weighted reduction used by the feature+forest pipeline);
spatial transforms resize, pad-to-square, or mosaic random patches from a
7x7 grid into a 224x224 frame while preserving relative spatial order.

All randomness flows through explicit 64-bit seeds; per-frame generators are
derived as seed XOR frame_index so parallel and serial runs agree bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._parallel import parallel_map
from .clip_io import VideoClip, frame_rgb
from .errors import InsufficientFrames, SourceTooSmall

__all__ = [
    "TEMPORAL_MODES",
    "TemporalPlan",
    "SpatialTransform",
    "SampledView",
    "plan_indices",
    "temporal_sample",
    "frankenstone_subset",
    "resize_bilinear",
    "pad_to_square",
    "fragment_sample",
    "build_view",
]

TEMPORAL_MODES = (
    "one_per_30",
    "two_per_30",
    "one_fps",
    "five_fps",
    "all",
    "frankenstone_reduce",
)


@dataclass(frozen=True)
class TemporalPlan:
    mode: str
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("plan indices must be strictly increasing")


@dataclass(frozen=True)
class SpatialTransform:
    """kind: "none" | "resize" (w,h) | "pad_square_then_resize" (size) |
    "fragment" (grid, patch)."""

    kind: str = "none"
    width: int = 0
    height: int = 0
    size: int = 0
    grid: int = 7
    patch: int = 32

    @classmethod
    def resize(cls, w: int, h: int) -> "SpatialTransform":
        if w <= 0 or h <= 0:
            raise ValueError("resize targets must be positive")
        return cls("resize", width=w, height=h)

    @classmethod
    def pad_square_then_resize(cls, size: int) -> "SpatialTransform":
        if size <= 0:
            raise ValueError("resize target must be positive")
        return cls("pad_square_then_resize", size=size)

    @classmethod
    def fragment(cls, grid: int = 7, patch: int = 32) -> "SpatialTransform":
        return cls("fragment", grid=grid, patch=patch)


@dataclass(frozen=True)
class SampledView:
    """Transformed planes for the sampled frames of one clip; rgb holds one
    (r, g, b) plane triple per frame, or None for chroma-less clips."""

    frames: tuple[np.ndarray, ...]
    origin_indices: tuple[int, ...]
    transform: SpatialTransform
    rgb: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] | None = None

    def __post_init__(self):
        if len(self.frames) != len(self.origin_indices):
            raise ValueError("frames and origin_indices must align")


# --- temporal ----------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _second_starts(n: int, fps: Fraction):
    """Frame index of the first frame of each second: ceil(k * fps)."""
    starts = []
    k = 0
    while True:
        s = _ceil_div(k * fps.numerator, fps.denominator)
        if s >= n:
            break
        starts.append(s)
        k += 1
    return starts


def plan_indices(n_frames: int, fps, mode: str, target: int = 5) -> tuple[int, ...]:
    """Pure index computation behind temporal_sample; see that op for modes."""
    if n_frames < 1:
        raise ValueError("clip is empty")
    fps = Fraction(fps)
    n = n_frames

    if mode == "all":
        return tuple(range(n))
    if mode == "one_per_30":
        return tuple(range(0, n, 30))
    if mode == "two_per_30":
        # offsets {0, 15} per block; trailing-block offsets clamp to the last
        # frame, duplicates dropped
        out: list[int] = []
        for start in range(0, n, 30):
            for off in (0, 15):
                i = min(start + off, n - 1)
                if not out or i > out[-1]:
                    out.append(i)
        return tuple(out)
    if mode == "one_fps":
        return tuple(_second_starts(n, fps))
    if mode == "five_fps":
        starts = _second_starts(n, fps)
        bounds = starts[1:] + [n]
        out = []
        for s, e in zip(starts, bounds):
            span = e - s
            for j in range(5):
                i = s + (j * span) // 5
                if i < e and (not out or i > out[-1]):
                    out.append(i)
        return tuple(out)
    if mode == "frankenstone_reduce":
        firsts = _second_starts(n, fps)
        t = min(target, len(firsts))
        keep = frankenstone_subset(len(firsts), t)
        return tuple(firsts[j] for j in keep)
    raise ValueError(f"unknown temporal mode {mode!r}")


def temporal_sample(clip: VideoClip, mode: str, target: int = 5) -> TemporalPlan:
    return TemporalPlan(mode, plan_indices(len(clip), clip.fps, mode, target))


def frankenstone_subset(m: int, t: int = 5) -> tuple[int, ...]:
    """Pick t of m frames with density biased toward the end.

    Index j is round(m * (1 - ((t-j)/t)^1.5)) with round-half-up, clamped to
    m-1; collisions shift forward, then a backward pass re-clamps into range
    (so m == t degenerates to the identity). For m=20, t=5 this yields
    [0, 6, 11, 15, 18].
    """
    if t < 1 or m < t:
        raise InsufficientFrames(f"need at least t={t} of m={m} frames")
    idx = []
    for j in range(t):
        x = m * (1.0 - ((t - j) / t) ** 1.5)
        idx.append(min(math.floor(x + 0.5), m - 1))
    for j in range(1, t):
        if idx[j] <= idx[j - 1]:
            idx[j] = idx[j - 1] + 1
    idx[t - 1] = min(idx[t - 1], m - 1)
    for j in range(t - 2, -1, -1):
        idx[j] = min(idx[j], idx[j + 1] - 1)
    return tuple(idx)


# --- spatial -----------------------------------------------------------------

def _axis_weights(n_in: int, n_out: int):
    """Half-pixel-center source coordinates for 1-D bilinear resampling."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    lo = np.minimum(lo, n_in - 2) if n_in > 1 else np.zeros_like(lo)
    frac = src - lo
    return lo, frac


def resize_bilinear(plane: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Separable bilinear resize with half-pixel centers."""
    h, w = plane.shape
    if h < 1 or w < 1 or out_w < 1 or out_h < 1:
        raise ValueError("resize dimensions must be >= 1")
    if (h, w) == (out_h, out_w):
        return plane.copy()
    ylo, yfrac = _axis_weights(h, out_h)
    xlo, xfrac = _axis_weights(w, out_w)
    if h > 1:
        rows = plane[ylo] * (1.0 - yfrac)[:, None] + plane[ylo + 1] * yfrac[:, None]
    else:
        rows = plane[ylo]
    if w > 1:
        out = rows[:, xlo] * (1.0 - xfrac)[None, :] + rows[:, xlo + 1] * xfrac[None, :]
    else:
        out = rows[:, xlo]
    return out


def pad_to_square(plane: np.ndarray, fill: float = 0.0) -> np.ndarray:
    h, w = plane.shape
    side = max(h, w)
    if h == w:
        return plane.copy()
    out = np.full((side, side), float(fill))
    top = (side - h) // 2
    left = (side - w) // 2
    out[top : top + h, left : left + w] = plane
    return out


def _region_bounds(total: int, grid: int):
    """Equal integer regions; the last one absorbs the remainder."""
    base = total // grid
    starts = [i * base for i in range(grid)]
    ends = [s + base for s in starts]
    ends[-1] = total
    return starts, ends


def _fragment_offsets(h: int, w: int, grid: int, patch: int, rng: np.random.Generator):
    if h < grid * patch or w < grid * patch:
        raise SourceTooSmall(f"{w}x{h} cannot host a {grid}x{grid} grid of {patch}px patches")
    ys, ye = _region_bounds(h, grid)
    xs, xe = _region_bounds(w, grid)
    tops = np.empty((grid, grid), dtype=np.intp)
    lefts = np.empty((grid, grid), dtype=np.intp)
    for i in range(grid):
        for j in range(grid):
            tops[i, j] = ys[i] + rng.integers(0, ye[i] - ys[i] - patch + 1)
            lefts[i, j] = xs[j] + rng.integers(0, xe[j] - xs[j] - patch + 1)
    return tops, lefts


def _apply_offsets(plane: np.ndarray, tops, lefts, grid: int, patch: int) -> np.ndarray:
    out = np.empty((grid * patch, grid * patch) + plane.shape[2:], dtype=plane.dtype)
    for i in range(grid):
        for j in range(grid):
            t, l = tops[i, j], lefts[i, j]
            out[i * patch : (i + 1) * patch, j * patch : (j + 1) * patch] = plane[
                t : t + patch, l : l + patch
            ]
    return out


def fragment_sample(
    plane: np.ndarray, grid: int = 7, patch: int = 32, rng: np.random.Generator | int = 0
) -> np.ndarray:
    """Mosaic one random patch per grid region into a (grid*patch)^2 frame.

    The output cell (i,j) always comes from source region (i,j), so relative
    spatial order is preserved.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    tops, lefts = _fragment_offsets(*plane.shape[:2], grid, patch, rng)
    return _apply_offsets(plane, tops, lefts, grid, patch)


def _apply_transform(plane: np.ndarray, transform: SpatialTransform,
                     rng: np.random.Generator, companions: tuple[np.ndarray, ...]):
    """Apply a spatial transform to a luma plane and aligned companions.

    Companion planes (the RGB planes) receive the identical geometry — for
    fragments the same random windows. Returns (plane, companions).
    """
    t = transform
    if t.kind == "none":
        return plane, companions
    if t.kind == "resize":
        f = lambda p: resize_bilinear(p, t.width, t.height)
    elif t.kind == "pad_square_then_resize":
        f = lambda p: resize_bilinear(pad_to_square(p), t.size, t.size)
    elif t.kind == "fragment":
        tops, lefts = _fragment_offsets(*plane.shape, t.grid, t.patch, rng)
        f = lambda p: _apply_offsets(p, tops, lefts, t.grid, t.patch)
    else:
        raise ValueError(f"unknown transform {t.kind!r}")
    return f(plane), tuple(f(p) for p in companions)


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng((int(seed) ^ int(frame_index)) & 0xFFFFFFFFFFFFFFFF)


def build_view(
    clip: VideoClip,
    plan: TemporalPlan,
    transform: SpatialTransform = SpatialTransform(),
    seed: int = 0,
    threads: int | None = None,
) -> SampledView:
    """Materialize the transformed planes for a temporal plan.

    Chroma-bearing clips also yield transformed (r, g, b) planes. Deterministic
    in (clip, plan, transform, seed) regardless of thread count.
    """
    for i in plan.indices:
        if i < 0 or i >= len(clip):
            raise IndexError(f"plan index {i} outside clip of {len(clip)} frames")
    has_rgb = clip.frames[plan.indices[0]].has_chroma if plan.indices else False

    def one(i: int):
        frame = clip.frames[i]
        rgb = frame_rgb(frame) if has_rgb else ()
        return _apply_transform(frame.luma, transform, _frame_rng(seed, i), rgb)

    results = parallel_map(one, plan.indices, threads)
    lumas = tuple(r[0] for r in results)
    rgbs = tuple(r[1] for r in results) if has_rgb else None
    return SampledView(lumas, tuple(plan.indices), transform, rgbs)
