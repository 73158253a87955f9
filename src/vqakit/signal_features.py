"""Per-frame signal features and their clip-level mean aggregation.

SI/TI follow the ITU-T P.910 convention (stddev of Sobel magnitude, stddev of
the frame difference) computed on the normalized [0,1] luma domain; the
Sobel kernels are applied separably (smoothing, then a difference), which
rounds exactly as the full 3x3 stencils. Colorfulness is the Hasler-Suesstrunk
metric; sharpness is the variance of a 3x3 Laplacian response. All
statistics use population (ddof=0) moments.

SSIM (8x8 windows at stride 4) is built from 4x4 block sums: a window is 2x2
adjacent blocks. Each sampled frame's window means and variances are
computed once per view, and each pair of frames adds only the block sums of
its product plane.

A view's features are one pass: every per-frame and per-pair kernel call is
one task of a single thread-pool call, and only the small SSIM window arrays
are combined after it. The kernels write their plane-sized temporaries
(gradient magnitudes, Laplacians, differences, products, deviations) into
scratch planes of the running thread (``_parallel.scratch``): a pool worker
keeps them from one clip to the next, at most two full-size planes, a
sixteenth of one and a 1 MiB band buffer. Called outside a pool, a kernel
allocates fresh planes and keeps none.

SI, sharpness and colour walk the frame in bands of rows of about 32k pixels
(``clip_io.row_bands``). Each band's elementwise stages (the stencil sums,
or the conversion to RGB) run in strips of the band buffer, which stays in
cache, and write the band's rows of one full-size plane per output: the
gradient magnitude, the Laplacian, or colour's opponent planes rg and yb.
Elementwise steps give the same bits in any band; only reductions depend on
the shape they reduce, so each ``_moments`` call still reduces a whole
plane, with numpy's bits. Colour of a view that keeps YCbCr thus has the
bits of ``colorfulness(*frame_rgb(frame))``, and no full-size RGB plane is
made.

Feature values are grouped into three branch families (technical,
aesthetic-proxy, semantic-proxy) which feed the fusion regressor.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map, scratch
from .clip_io import _BAND_PIXELS, VideoClip, chroma_factors, row_bands, ycbcr_to_rgb
from .errors import DimensionMismatch, PlaneTooSmall
from .sampling import SampledView, SpatialTransform, TemporalPlan, build_view
from .tables import read_id_rows

__all__ = [
    "FEATURE_ORDER",
    "BRANCH_GROUPS",
    "FeatureVector",
    "si",
    "ti",
    "colorfulness",
    "avg_luminance",
    "sharpness",
    "contrast",
    "ssim",
    "KERNEL_MACS",
    "extract_clip_features",
    "extract_view_features",
    "write_features_csv",
    "read_features_csv",
]

FEATURE_ORDER = (
    "si",
    "ti",
    "colorfulness",
    "avg_luminance",
    "sharpness",
    "contrast",
    "ti_first",
    "ssim_pair",
    "ssim_first",
)

# Branch families: the deep backbones of the original three-branch design are
# replaced by signal-feature groups, keeping the fusion topology intact.
BRANCH_GROUPS: dict[str, tuple[str, ...]] = {
    "technical": ("si", "ti", "sharpness", "ssim_pair"),
    "aesthetic": ("colorfulness", "contrast", "sharpness", "ssim_first"),
    "semantic": ("avg_luminance", "contrast", "colorfulness"),
}

FLAG_SINGLE_FRAME = "single_frame"
FLAG_DEGRADED_COLOR = "degraded_color"


@dataclass(frozen=True)
class FeatureVector:
    values: dict[str, float]
    flags: frozenset[str] = frozenset()

    def __post_init__(self):
        missing = [k for k in FEATURE_ORDER if k not in self.values]
        if missing:
            raise ValueError(f"missing features: {missing}")
        for k, v in self.values.items():
            if not np.isfinite(v):
                raise ValueError(f"feature {k} is not finite: {v}")

    def as_row(self) -> list[float]:
        return [self.values[k] for k in FEATURE_ORDER]

    def to_json_dict(self, clip_id: str | None = None) -> dict:
        d: dict = {"features": {k: self.values[k] for k in FEATURE_ORDER}}
        if self.flags:
            d["flags"] = sorted(self.flags)
        if clip_id is not None:
            d = {"clip_id": clip_id, **d}
        return d


def _require(plane: np.ndarray, min_side: int, what: str):
    if plane.ndim != 2:
        raise PlaneTooSmall(f"{what} expects a 2-D plane, got shape {plane.shape}")
    h, w = plane.shape
    if h < min_side or w < min_side:
        raise PlaneTooSmall(f"{what} needs at least {min_side}x{min_side}, got {w}x{h}")


def _moments(x: np.ndarray, dev: np.ndarray) -> tuple[float, float]:
    """``(x.mean(), x.var())``, with the deviations written into ``dev``:
    x itself when x is a scratch plane, else a scratch plane of its shape.

    These are numpy's own steps for ``var``: the sum with keepdims over n,
    the deviations from it, squared in place, their sum over n. On a
    row-major x each step rounds as numpy's does, so both values keep
    numpy's bits.
    """
    n = x.size
    mean = np.add.reduce(x, axis=None, keepdims=True) / n
    np.subtract(x, mean, out=dev)
    np.square(dev, out=dev)
    return mean.item(), float(np.add.reduce(dev, axis=None) / n)


# Scratch slots: two full-size planes, the SSIM block sums, the band buffer.
_PLANE_A, _PLANE_B, _BLOCKS, _BAND = range(4)


def _band_strips(*shapes: tuple[int, int]) -> list[np.ndarray]:
    """Row-major strips of ``shapes``, one after another in the band buffer,
    which is never smaller than 1 MiB, so that every kernel's bands share it."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = scratch(_BAND, (max(sum(sizes), 4 * _BAND_PIXELS),))
    strips, start = [], 0
    for shape, n in zip(shapes, sizes):
        strips.append(buf[start:start + n].reshape(shape))
        start += n
    return strips


def si(luma_plane: np.ndarray) -> float:
    """Spatial information: stddev of the Sobel gradient magnitude (interior).

    The Sobel kernels are applied separably: a [1, 2, 1] smoothing across the
    gradient, then a central difference along it. Each band of output rows
    smooths its rows and the two beyond them in strips, and writes its
    magnitudes into one full-size plane.
    """
    _require(luma_plane, 3, "si")
    p = luma_plane
    h, w = p.shape
    mag = scratch(_PLANE_A, (h - 2, w - 2))
    for rows in row_bands((h - 2, w)):
        top, end = rows.start, rows.stop
        across, gy, along = _band_strips((end - top + 2, w - 2), (end - top, w - 2),
                                         (end - top, w))
        q = p[top:end + 2]
        np.multiply(q[:, 1:-1], 2.0, out=across)
        np.add(q[:, :-2], across, out=across)
        across += q[:, 2:]
        np.subtract(across[2:], across[:-2], out=gy)
        np.multiply(q[1:-1], 2.0, out=along)
        np.add(q[:-2], along, out=along)
        along += q[2:]
        gx = np.subtract(along[:, 2:], along[:, :-2], out=mag[rows])
        np.hypot(gx, gy, out=gx)
    return math.sqrt(_moments(mag, mag)[1])


def ti(luma_t: np.ndarray, luma_prev: np.ndarray) -> float:
    """Temporal information: stddev of the pixelwise difference plane."""
    if luma_t.shape != luma_prev.shape:
        raise DimensionMismatch(f"{luma_t.shape} vs {luma_prev.shape}")
    diff = np.subtract(luma_t, luma_prev, out=scratch(_PLANE_A, luma_t.shape))
    return math.sqrt(_moments(diff, diff)[1])


def _opponents(r, g, b, rg: np.ndarray, yb: np.ndarray):
    """Write the opponent planes r - g into rg and 0.5 * (r + g) - b into yb."""
    np.subtract(r, g, out=rg)
    np.add(r, g, out=yb)  # 0.5 * (r + g) - b, in place
    yb *= 0.5
    yb -= b


def _hasler(rg: np.ndarray, yb: np.ndarray) -> float:
    """The colourfulness of scratch opponent planes, which it overwrites."""
    rg_mean, rg_var = _moments(rg, rg)
    yb_mean, yb_var = _moments(yb, yb)
    return float(
        np.hypot(math.sqrt(rg_var), math.sqrt(yb_var)) + 0.3 * np.hypot(rg_mean, yb_mean)
    )


def colorfulness(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> float:
    """Hasler-Suesstrunk colorfulness on [0,1] RGB planes."""
    if not r.shape == g.shape == b.shape:
        raise DimensionMismatch(f"{r.shape} vs {g.shape} vs {b.shape}")
    rg, yb = scratch(_PLANE_A, r.shape), scratch(_PLANE_B, r.shape)
    _opponents(r, g, b, rg, yb)
    return _hasler(rg, yb)


def _ycbcr_colorfulness(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> float:
    """``colorfulness(*frame_rgb(Frame(y, cb, cr)))``, converted in bands,
    with the same bits (see the module docstring)."""
    fy, fx = chroma_factors(y.shape, cb.shape)
    rg, yb = scratch(_PLANE_A, y.shape), scratch(_PLANE_B, y.shape)
    for rows in row_bands(y.shape, fy):
        strips = _band_strips(*[(rows.stop - rows.start, y.shape[1])] * 4)
        ycbcr_to_rgb(y, cb, cr, rows, fy, fx, strips)
        _opponents(*strips[:3], rg[rows], yb[rows])
    return _hasler(rg, yb)


def avg_luminance(luma_plane: np.ndarray) -> float:
    if luma_plane.size == 0:
        raise PlaneTooSmall("empty plane")
    return float(luma_plane.mean())


def sharpness(luma_plane: np.ndarray) -> float:
    """Variance of the 3x3 Laplacian response over interior pixels, written
    band by band into one full-size plane."""
    _require(luma_plane, 3, "sharpness")
    p = luma_plane
    h, w = p.shape
    lap = scratch(_PLANE_A, (h - 2, w - 2))
    for rows in row_bands((h - 2, w)):
        # up + down + left + right - 4 * centre, added in that order
        top, end = rows.start, rows.stop
        centre = p[top + 1:end + 1]
        band = np.add(p[top:end, 1:-1], p[top + 2:end + 2, 1:-1], out=lap[rows])
        band += centre[:, :-2]
        band += centre[:, 2:]
        (four,) = _band_strips(band.shape)
        band -= np.multiply(centre[:, 1:-1], 4.0, out=four)
    return _moments(lap, lap)[1]


def contrast(luma_plane: np.ndarray) -> float:
    if luma_plane.size == 0:
        raise PlaneTooSmall("empty plane")
    return math.sqrt(_moments(luma_plane, scratch(_PLANE_A, luma_plane.shape))[1])


_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
_SSIM_WIN = 8
_SSIM_STRIDE = 4  # a window is 2x2 blocks of stride x stride pixels
_SSIM_N = float(_SSIM_WIN * _SSIM_WIN)


def _ssim_windows(q: np.ndarray) -> np.ndarray:
    """Sums of q over the 8x8 windows at stride 4, from its 4x4 block sums.

    Block sums add the four row phases, then the four column phases, of the
    rows and columns that whole blocks cover. Each window covers 2x2 adjacent
    blocks, so the window grid is one block shorter than the block grid on
    each side. Only the returned window sums are a new array.
    """
    _require(q, _SSIM_WIN, "ssim")
    b = _SSIM_STRIDE
    h, w = q.shape[0] // b * b, q.shape[1] // b * b
    rows = np.add(q[0:h:b], q[1:h:b], out=scratch(_PLANE_B, (h // b, q.shape[1])))
    rows += q[2:h:b]
    rows += q[3:h:b]
    blocks = np.add(rows[:, 0:w:b], rows[:, 1:w:b], out=scratch(_BLOCKS, (h // b, w // b)))
    blocks += rows[:, 2:w:b]
    blocks += rows[:, 3:w:b]
    pairs = np.add(blocks[:-1], blocks[1:], out=scratch(_PLANE_B, (h // b - 1, w // b)))
    return pairs[:, :-1] + pairs[:, 1:]


def _ssim_stats(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One plane's SSIM window means and variances, shared by all its pairs."""
    mu = _ssim_windows(plane)
    mu /= _SSIM_N
    var = _ssim_windows(np.multiply(plane, plane, out=scratch(_PLANE_A, plane.shape)))
    var /= _SSIM_N
    var -= mu * mu
    return mu, var


def _ssim_cross_sums(plane_a: np.ndarray, plane_b: np.ndarray) -> np.ndarray:
    """The window sums of a·b: all that a pair adds to its planes' _ssim_stats."""
    return _ssim_windows(np.multiply(plane_a, plane_b, out=scratch(_PLANE_A, plane_a.shape)))


def _ssim_combine(stats_a, stats_b, cross_sums: np.ndarray) -> float:
    """Mean SSIM of two planes from their _ssim_stats and their _ssim_cross_sums."""
    mu_a, var_a = stats_a
    mu_b, var_b = stats_b
    mu_ab = mu_a * mu_b
    cov = cross_sums / _SSIM_N - mu_ab
    num = (2.0 * mu_ab + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(num / den))


def ssim(plane_a: np.ndarray, plane_b: np.ndarray) -> float:
    """Mean SSIM over 8x8 windows with stride 4, standard C1/C2 constants."""
    if plane_a.shape != plane_b.shape:
        raise DimensionMismatch(f"{plane_a.shape} vs {plane_b.shape}")
    return _ssim_combine(_ssim_stats(plane_a), _ssim_stats(plane_b),
                         _ssim_cross_sums(plane_a, plane_b))


# MACs per kernel call as (per pixel, per SSIM window; one 8x8 window per 16
# pixels), pass by pass: a 3x3 stencil costs 9, any other pass over the plane
# (elementwise op, product plane, block sum, mean/std/var reduction) costs 1,
# and a clamp, a comparison, costs 0. Colorfulness includes the conversion
# to RGB that the extraction runs, with 4:2:0 chroma: the shift and scale of
# both chroma planes (4 passes over a quarter of the pixels), the r and b
# adds (2), and g (5: two products, two differences, a quotient).
# SSIM is a frame's statistics, 3 per pixel (the a*a plane, block sums of a and
# a*a) and 8 per window (two sums of 2x2 blocks at 2 each, the mean, the
# variance 3), plus a pair's cross term, 2 per pixel (the a*b plane, its block
# sums) and 19 per window (its 2x2 sum 2, mu_a*mu_b, the covariance 2,
# numerator 5, denominator 7, the ratio and the mean).
KERNEL_MACS: dict[str, tuple[int, int]] = {
    "si": ((3 + 1) * 2 + 1 + 1, 0),  # per gradient: [1,2,1] smoothing (3), difference; hypot, std
    "ti": (1 + 1, 0),  # frame difference, std
    "ti_first": (1 + 1, 0),  # the same passes as ti
    "sharpness": (9 + 1, 0),  # Laplacian, var
    "colorfulness": (1 + 2 + 5 + 1 + 1 + 2 + 2, 0),  # to RGB; rg, yb, std of each, mean of each
    "avg_luminance": (0, 0),  # extraction takes the mean contrast computes
    "contrast": (1, 0),  # std
    "ssim": (2 * 3 + 2, 2 * 8 + 19),  # ssim(): both frames' statistics, one pair
    "ssim_pair": (3 + 2, 8 + 19),  # extraction makes each frame's statistics once, counted here
    "ssim_first": (2, 19),  # one pair only
}


# --- clip-level aggregation ---------------------------------------------------

def extract_view_features(view: SampledView, threads: int | None = None) -> FeatureVector:
    """Mean-aggregated features for an already-sampled view.

    Per-frame features are averaged over all frames; pairwise features (ti,
    ssim) use consecutive sampled frames or the first sampled frame and are
    0 (with a flag) for single-frame views. Frame 1's consecutive pair is its
    first-frame pair, so k frames make 2k-3 distinct pairs.

    All the work is one task list run by one ``parallel_map``, long tasks
    first: per frame, si; per frame, colorfulness (from YCbCr in bands, or
    from the view's RGB planes) and sharpness; per frame, contrast, with
    average luminance as the mean it computes, and, when there are pairs,
    the frame's SSIM window statistics; per pair, ti and the window sums of
    the pair's product plane. No task waits for another: each pair's SSIM is
    formed from the small window arrays after the pool returns. The kernels'
    temporaries are scratch planes of the thread that runs them. Every mean
    adds its terms in a fixed order, so threaded extraction is bit-identical
    to serial.
    """
    lumas = view.frames
    colors = view.color
    k = len(lumas)
    if k == 0:
        raise PlaneTooSmall("view has no frames")
    flags = set()
    if colors is None:
        flags.add(FLAG_DEGRADED_COLOR)
    pairs = [(i, i - 1) for i in range(1, k)] + [(i, 0) for i in range(2, k)]

    def color(i: int) -> float:
        if colors is None:
            return 0.0
        if view.transform.selects_samples:
            return _ycbcr_colorfulness(lumas[i], *colors[i])
        return colorfulness(*colors[i])

    def looks(i: int) -> tuple[float, float]:
        c = color(i)  # first, so that sharpness reuses its full-size scratch planes
        return sharpness(lumas[i]), c

    def pair(i: int, j: int):
        return ti(lumas[i], lumas[j]), _ssim_cross_sums(lumas[i], lumas[j])

    def stats(i: int):
        mean, var = _moments(lumas[i], scratch(_PLANE_A, lumas[i].shape))  # contrast, luminance
        return math.sqrt(var), mean, _ssim_stats(lumas[i]) if pairs else None

    tasks = ([(si, lumas[i]) for i in range(k)] + [(looks, i) for i in range(k)]
             + [(stats, i) for i in range(k)] + [(pair, i, j) for i, j in pairs])
    done = parallel_map(lambda task: task[0](*task[1:]), tasks, threads)
    frame_looks, frame_stats = done[k:2 * k], done[2 * k:3 * k]
    per_frame = {
        "si": done[:k],
        "sharpness": [v[0] for v in frame_looks],
        "colorfulness": [v[1] for v in frame_looks],
        "contrast": [v[0] for v in frame_stats],
        "avg_luminance": [v[1] for v in frame_stats],
    }
    values = {name: float(np.mean(vals)) for name, vals in per_frame.items()}
    if not pairs:
        flags.add(FLAG_SINGLE_FRAME)
        values.update(ti=0.0, ti_first=0.0, ssim_pair=0.0, ssim_first=0.0)
        return FeatureVector(values, frozenset(flags))

    tis, ssims = [], []
    for (i, j), (t, sums) in zip(pairs, done[3 * k:]):
        tis.append(t)
        ssims.append(_ssim_combine(frame_stats[i][2], frame_stats[j][2], sums))
    for consecutive, first, vals in (("ti", "ti_first", tis), ("ssim_pair", "ssim_first", ssims)):
        values[consecutive] = float(np.mean(vals[: k - 1]))
        values[first] = float(np.mean(vals[:1] + vals[k - 1:]))
    return FeatureVector(values, frozenset(flags))


def extract_clip_features(
    clip: VideoClip,
    temporal_plan: TemporalPlan,
    spatial: SpatialTransform = SpatialTransform(),
    seed: int = 0,
    threads: int | None = None,
) -> FeatureVector:
    view = build_view(clip, temporal_plan, spatial, seed=seed, threads=threads)
    return extract_view_features(view, threads=threads)


# --- serialization ------------------------------------------------------------

def write_features_csv(path, rows: list[tuple[str, FeatureVector]]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("clip_id",) + FEATURE_ORDER)
        for clip_id, fv in rows:
            w.writerow([clip_id] + [repr(v) for v in fv.as_row()])


def read_features_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a features CSV; returns (clip_ids, matrix in FEATURE_ORDER)."""
    ids, rows = read_id_rows(path, FEATURE_ORDER)
    return ids, np.array(rows, dtype=np.float64).reshape(len(ids), len(FEATURE_ORDER))


def features_to_json(rows: list[tuple[str, FeatureVector]]) -> str:
    return json.dumps([fv.to_json_dict(cid) for cid, fv in rows], indent=2)
