"""Temporal and spatial sampling strategies.

Temporal plans pick frame indices (sparse 1-or-2 per 30 frames, fixed fps
rates, or the end-weighted reduction used by the feature+forest pipeline);
spatial transforms resize, pad-to-square, or mosaic random patches from a
7x7 grid into a 224x224 frame while preserving relative spatial order.

Views whose transform only selects samples (none, fragment) keep the
frames' samples, at their scale, and colour as YCbCr, which the colour
feature converts to RGB; resizes keep float planes and RGB (``SampledView``
says why). Plans, transforms and views check their fields when made;
``build_view`` checks only what a plan cannot know: that its indices fit
the clip.

All randomness flows through explicit 64-bit seeds. A fragment view draws its
patch offsets once per clip, from the seed alone, so every frame of a clip
takes the same patches (a still clip reads as still) and parallel and serial
runs agree bit-exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._parallel import _PLANE_A, parallel_map, scratch
from .clip_io import Frame, VideoClip, chroma_factors, frame_rgb
from .errors import EmptyInput, InsufficientFrames, InvalidParameter, SourceTooSmall, check_count

__all__ = [
    "TEMPORAL_MODES",
    "TemporalPlan",
    "SpatialTransform",
    "SampledView",
    "plan_indices",
    "temporal_sample",
    "frankenstone_subset",
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
        if self.mode not in TEMPORAL_MODES:
            raise InvalidParameter("mode", self.mode, f"one of {TEMPORAL_MODES}")
        if not idx or idx[0] < 0 or any(b <= a for a, b in zip(idx, idx[1:])):
            raise InvalidParameter("indices", idx, "at least one, from 0 up, strictly increasing")


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

    def __post_init__(self):
        sizes = {"none": (), "resize": ("width", "height"), "pad_square_then_resize": ("size",),
                 "fragment": ("grid", "patch")}.get(self.kind)  # each an integer >= 1
        if sizes is None:
            raise InvalidParameter("kind", self.kind, "none, resize, pad_square_then_resize "
                                   "or fragment")
        for name in sizes:
            check_count(name, getattr(self, name))

    @classmethod
    def resize(cls, w: int, h: int) -> "SpatialTransform":
        return cls("resize", width=w, height=h)

    @classmethod
    def pad_square_then_resize(cls, size: int) -> "SpatialTransform":
        return cls("pad_square_then_resize", size=size)

    @classmethod
    def fragment(cls, grid: int = 7, patch: int = 32) -> "SpatialTransform":
        return cls("fragment", grid=grid, patch=patch)

    @classmethod
    def parse(cls, text: str) -> "SpatialTransform":
        """A transform from text: none, resize:W:H, pad_square:S or fragment[:GRID:PATCH]."""
        makers = {("none", 0): cls, ("resize", 2): cls.resize,
                  ("pad_square", 1): cls.pad_square_then_resize,
                  ("fragment", 0): cls.fragment, ("fragment", 2): cls.fragment}
        kind, *sizes = text.split(":")
        try:
            maker, sizes = makers[kind, len(sizes)], [int(v) for v in sizes]
        except (KeyError, ValueError):
            raise InvalidParameter("spatial", text, "none, resize:W:H, pad_square:S or "
                                   "fragment[:GRID:PATCH], with integer sizes") from None
        return maker(*sizes)

    @property
    def selects_samples(self) -> bool:
        """Whether every output sample is a source sample (no interpolation)."""
        return self.kind in ("none", "fragment")


@dataclass(frozen=True)
class SampledView:
    """Transformed planes for the sampled frames of one clip.

    Every plane's values are its entries divided by ``scale``, as a
    ``Frame``'s are. ``color`` holds one colour tuple per frame, or is None
    for chroma-less clips. A transform that only selects samples (``none``,
    ``fragment``) keeps the frames' samples and scale, and each frame's
    colour as YCbCr: its luma plane in ``frames`` is Y and ``color`` holds
    (cb, cr), the chroma at source resolution for ``none`` and the
    nearest-neighbour chroma under each kept luma sample for ``fragment``.
    Selecting samples commutes with the per-pixel conversion to RGB, so
    colour can be converted where it is measured. Resizes interpolate, and
    interpolation does not commute with the conversion's clamp, so they keep
    float planes (scale 1.0) and (r, g, b), converted at source resolution
    and then transformed.
    """

    frames: tuple[np.ndarray, ...]
    transform: SpatialTransform
    color: tuple[tuple[np.ndarray, ...], ...] | None = None
    scale: float = 1.0

    def __post_init__(self):
        if not self.frames:
            raise EmptyInput("a view needs at least one frame")
        if self.color is not None:
            want = 2 if self.transform.selects_samples else 3
            if len(self.color) != len(self.frames) or any(len(c) != want for c in self.color):
                raise InvalidParameter("color", [len(c) for c in self.color],
                                       f"{want} planes for each of {len(self.frames)} frames")


# --- temporal ----------------------------------------------------------------

def _second_starts(n: int, fps: Fraction) -> list[int]:
    """Frame index of the first frame of each second, ceil(k * fps), for each
    second k that starts inside the n frames: k * fps <= n - 1."""
    num, den = fps.numerator, fps.denominator
    return [-(-k * num // den) for k in range((n - 1) * den // num + 1)]


def plan_indices(n_frames: int, fps, mode: str) -> tuple[int, ...]:
    """Pure index computation behind temporal_sample; see that op for modes."""
    n = check_count("n_frames", n_frames)
    fps = Fraction(fps)
    if fps <= 0:
        raise InvalidParameter("fps", fps, "a positive rate")

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
        if len(firsts) <= 5:  # too few seconds to reduce: keep each one's first frame
            return tuple(firsts)
        return tuple(firsts[j] for j in frankenstone_subset(len(firsts)))
    raise InvalidParameter("mode", mode, f"one of {TEMPORAL_MODES}")


def temporal_sample(clip: VideoClip, mode: str) -> TemporalPlan:
    return TemporalPlan(mode, plan_indices(len(clip), clip.fps, mode))


def frankenstone_subset(m: int, t: int = 5) -> tuple[int, ...]:
    """Pick t of m frames with density biased toward the end.

    Index j is round(m * (1 - ((t-j)/t)^1.5)) with round-half-up, clamped to
    m-1; collisions shift forward, then a backward pass re-clamps into range
    (so m == t degenerates to the identity). For m=20, t=5 this yields
    [0, 6, 11, 15, 18].
    """
    check_count("t", t)
    if check_count("m", m, 0) < t:
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

def _axis_taps(n_in: int, n_out: int):
    """Half-pixel-center bilinear taps along one axis: the lower source index,
    the upper one clamped to the last sample, and the upper tap's weight."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.intp)
    return lo, np.minimum(lo + 1, n_in - 1), src - lo


def _resize_bilinear(plane: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Separable bilinear resize with half-pixel centers, to a row-major
    float64 plane: rows are blended first, then columns."""
    h, w = plane.shape
    ylo, yhi, yfrac = _axis_taps(h, out_h)
    xlo, xhi, xfrac = _axis_taps(w, out_w)
    rows = plane[ylo] * (1.0 - yfrac)[:, None] + plane[yhi] * yfrac[:, None]
    return rows.take(xlo, axis=1) * (1.0 - xfrac) + rows.take(xhi, axis=1) * xfrac


def _pad_to_square(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    side = max(h, w)
    if h == w:
        return plane
    out = np.zeros((side, side))
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


def _patch_index(tops, lefts, patch: int):
    """Source (row, column) index planes of a mosaic: output cell (i, j) takes
    the patch x patch window at (tops[i, j], lefts[i, j])."""
    step = np.tile(np.arange(patch), tops.shape[0])
    rows = tops.repeat(patch, 0).repeat(patch, 1) + step[:, None]
    cols = lefts.repeat(patch, 0).repeat(patch, 1) + step
    return rows, cols


def fragment_sample(
    plane: np.ndarray, grid: int = 7, patch: int = 32, rng: np.random.Generator | int = 0
) -> np.ndarray:
    """Mosaic one random patch per grid region into a (grid*patch)^2 frame.

    The output cell (i,j) always comes from source region (i,j), so relative
    spatial order is preserved.
    """
    SpatialTransform.fragment(grid, patch)  # checks grid and patch
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return _fragment_gather(plane.shape[:2], grid, patch, rng)(plane)


def _fragment_gather(shape: tuple[int, int], grid: int, patch: int, rng: np.random.Generator):
    """A fragment mosaic of a (height, width) ``shape``, as a function from a
    plane to its mosaic.

    The patch offsets are drawn once, from ``rng``, so every plane it is
    applied to takes the same patches: a clip's frames do, and a still clip
    stays still. A chroma plane takes the samples under the luma ones; each
    plane shape's gather index is built once."""
    rows, cols = _patch_index(*_fragment_offsets(*shape, grid, patch, rng), patch)

    @functools.cache
    def index(plane_shape):
        fy, fx = chroma_factors(shape, plane_shape)
        return rows // fy, cols // fx

    return lambda plane: plane[index(plane.shape)]


def _apply_transform(frame: Frame, transform: SpatialTransform, gather):
    """Apply a spatial transform to a frame's luma and colour; ``gather`` is
    the clip's _fragment_gather for a fragment transform.

    Returns (luma plane, colour planes, their scale): the colour is () for a
    chroma-less frame, (cb, cr) samples for a transform that selects
    samples, else the transformed (r, g, b). A selecting transform keeps
    samples: a fragment gathers them into its mosaic. A resize divides the
    whole luma plane, into the running thread's scratch plane, and its RGB
    (``frame_rgb``) into planes of their own, and interpolates those.
    """
    t = transform
    chroma = (frame.chroma_b, frame.chroma_r) if frame.has_chroma else ()
    if t.kind == "none":
        return frame.luma, chroma, frame.scale
    if t.kind == "fragment":
        return gather(frame.luma), tuple(gather(c) for c in chroma), frame.scale
    if t.kind == "resize":
        f = lambda p: _resize_bilinear(p, t.width, t.height)
    else:  # pad_square_then_resize
        f = lambda p: _resize_bilinear(_pad_to_square(p), t.size, t.size)
    rgb = frame_rgb(frame) if chroma else ()
    # feature extraction runs in tasks of its own, so a worker holds one
    # plane for both this and extraction's first full-size plane
    luma = np.divide(frame.luma, frame.scale, out=scratch(_PLANE_A, frame.luma.shape))
    return f(luma), tuple(f(p) for p in rgb), 1.0


def build_view(
    clip: VideoClip,
    plan: TemporalPlan,
    transform: SpatialTransform = SpatialTransform(),
    seed: int = 0,
    threads: int | None = None,
) -> SampledView:
    """Materialize the transformed planes for a temporal plan.

    Chroma-bearing clips also yield each frame's colour planes, as
    ``SampledView`` describes: (cb, cr) when the transform only selects
    samples, else transformed (r, g, b). Deterministic in (clip, plan,
    transform, seed) regardless of thread count; a fragment view draws its
    patches once per clip, so every frame takes the same ones.
    """
    if plan.indices[-1] >= len(clip):  # a plan's indices increase from 0 or more
        raise InsufficientFrames(f"plan index {plan.indices[-1]} outside a {len(clip)}-frame clip")

    gather = None
    if transform.kind == "fragment":
        gather = _fragment_gather((clip.height, clip.width), transform.grid, transform.patch,
                                  np.random.default_rng(int(seed) & 0xFFFF_FFFF_FFFF_FFFF))

    def one(i: int):
        # a loaded file's frame is built (a PPM's decoded) on every read: read it once
        return _apply_transform(clip.frames[i], transform, gather)

    # a clip's frames agree on chroma and scale, so the first sampled frame speaks for all
    results = parallel_map(one, plan.indices, threads)
    lumas = tuple(r[0] for r in results)
    colors = tuple(r[1] for r in results) if results[0][1] else None
    return SampledView(lumas, transform, colors, results[0][2])
