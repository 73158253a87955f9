"""Per-frame signal features and their clip-level mean aggregation.

SI/TI follow the ITU-T P.910 convention (stddev of Sobel magnitude, stddev of
the frame difference) computed on the normalized [0,1] luma domain; the
Sobel kernels are applied separably (smoothing, then a difference), which
rounds exactly as the full 3x3 stencils. Colorfulness is the Hasler-Suesstrunk
metric; sharpness is the variance of a 3x3 Laplacian response. All
statistics use population (ddof=0) moments.

SSIM (8x8 windows at stride 4) is built from 4x4 block sums: a window is 2x2
adjacent blocks. Each sampled frame's window means and variances are
computed once per view, from one read of its plane, and each pair of frames
adds only the block sums of the product of its two planes, which it forms
in the same read of both planes as its TI (``_pair``).

A view's features are one pass: every per-frame and per-pair kernel call is
one task of a single thread-pool call, in frame order, and the task that
supplies a pair's last SSIM input combines the pair from the window arrays.
A frame's window means and variances are kept only until its last pair is
combined, so what a view holds beyond its planes does not grow with its
length. The kernels write their temporaries into the scratch set of the running
task (``_parallel.scratch``): the gradient magnitudes, the Laplacian,
colour's rg, a pair's difference or SSIM's sums of vertical block pairs in
one full-size plane; colour's yb, or SSIM's block sums (at most two
sixteenths of a plane), in a second; and the strips of each band in a band
buffer of about 2 MiB. The process keeps the sets from one clip to the
next. Called outside ``parallel_map``, a kernel allocates fresh buffers and
keeps none.

A view's planes are a frame's samples (``uint8`` or ``uint16``) or float
planes, with a scale (``clip_io.Frame``). Every kernel reads a plane one
way: the rows it needs, divided into a strip of the band buffer,
``np.divide(plane[rows], scale, out=strip)``. The divide is per sample, so a
strip has the bits of the same rows of the whole plane divided; a float
plane's scale is 1.0, which leaves it as it is.

SI, sharpness and colour walk the frame in bands of rows of about 64k pixels
(``clip_io.row_bands``). Each band is read, and its elementwise stages (the
stencil sums, or the conversion to RGB) run, in strips of the band buffer,
which stays in cache; they write the band's rows of one full-size plane per
output: the gradient magnitude, the Laplacian, or colour's opponent planes
rg and yb. SSIM reads its planes and forms their squares and products, and
their row and block sums, a band at a time in the band buffer, so no float,
product or row-sum plane is made.
Elementwise steps give the same bits in any band. A sum does not: numpy's
sum of a row-major plane is a fixed pairwise tree over the flat index.
``_leaf_moments`` replays that tree (``_pairwise``) down to leaves of at most
64k values, each summed by numpy, and adds the leaves in the tree's order.
Its variance is a second pass, leaf by leaf, that forms, squares and sums
the deviations in the band buffer, with the bits of numpy's ``var`` and no
plane of deviations. A reader hands it each leaf: ``_moments`` reads a
plane's leaf into the band buffer; ``ti`` forms its frame difference there,
a leaf at a time, from both planes; ``_written`` reads a plane that a kernel
writes itself (the gradient magnitude, the Laplacian, rg and yb, a pair's
difference) where it lies, after writing the bands that reach the leaf, so
that the mean's pass sums each band while it is still in cache. Colour of a view that keeps YCbCr thus has the bits of
``colorfulness(*frame_rgb(frame))``, and no full-size RGB plane is made.

Feature values are grouped into three branch families (technical,
aesthetic-proxy, semantic-proxy) which feed the fusion regressor.
"""

from __future__ import annotations

import csv
import json
import math
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._parallel import _BAND, _PLANE_A, _PLANE_B, parallel_map, scratch
from .clip_io import _BAND_PIXELS, VideoClip, chroma_factors, row_bands, ycbcr_to_rgb
from .errors import DimensionMismatch, InvalidParameter, NumericalError, PlaneTooSmall
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
            raise InvalidParameter("values", sorted(self.values), f"every feature, {missing} too")
        for k, v in self.values.items():
            if not np.isfinite(v):
                raise NumericalError(f"feature {k} is not finite: {v}")

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


def _band_strips(*shapes: tuple[int, int]) -> list[np.ndarray]:
    """Row-major strips of ``shapes``, one after another in the band buffer,
    which is never smaller than 2 MiB, so that every kernel's bands share it."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = scratch(_BAND, (max(sum(sizes), 4 * _BAND_PIXELS),))
    strips, start = [], 0
    for shape, n in zip(shapes, sizes):
        strips.append(buf[start:start + n].reshape(shape))
        start += n
    return strips


def _pairwise(leaf_sum, n: int, start: int = 0) -> float:
    """numpy's pairwise sum of the ``n`` values from flat index ``start``.

    ``np.add.reduce`` over n contiguous float64 values is a fixed tree: a
    node of more than 128 values is the sum of its halves, split at n // 2
    rounded down to a multiple of 8. This walks the tree down to nodes of at
    most ``_BAND_PIXELS`` values, each of which ``leaf_sum(start, stop)``
    gives as numpy's own sum, and adds them in the tree's order, so the total
    has the bits of one ``np.add.reduce`` over all n values.
    """
    if n <= _BAND_PIXELS:
        return leaf_sum(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(leaf_sum, half, start) + _pairwise(leaf_sum, n - half, start + half)


def _leaf_moments(n: int, values) -> tuple[float, float]:
    """The mean and variance of n values, with the bits of numpy's
    ``x.mean()`` and ``x.var()``, where ``values(start, stop, out)`` returns
    flat indices start to stop of x: a view of x, or those values written
    into ``out``, the first ``stop - start`` values of the band buffer.

    Both passes walk x in the leaves of ``_pairwise``. The second forms each
    leaf's deviations from the mean in the band buffer and squares and sums
    them there: numpy's steps for ``var``, a leaf at a time.
    """
    (buf,) = _band_strips((_BAND_PIXELS,))

    def total(start: int, stop: int) -> float:
        return float(np.add.reduce(values(start, stop, buf[:stop - start])))

    def squares(start: int, stop: int) -> float:
        dev = buf[:stop - start]
        np.subtract(values(start, stop, dev), mean, out=dev)
        return float(np.add.reduce(np.square(dev, out=dev)))

    mean = _pairwise(total, n) / n
    return mean, _pairwise(squares, n) / n


def _moments(x: np.ndarray, scale: float = 1.0) -> tuple[float, float]:
    """The mean and variance of the plane x / scale, with the bits numpy's
    ``mean`` and ``var`` give on the float64 plane x / scale.

    Samples, and a row-major float64 x, are read leaf by leaf into the band
    buffer (``_leaf_moments``), so no float plane and no plane of deviations
    is written. Any other x, a float plane of scale 1.0, takes numpy's own
    steps for ``var``: the sum with keepdims over n (in x's dtype), the
    deviations from it, written row-major into a scratch plane and squared in
    place, their sum over n.
    """
    if scale != 1.0 or (x.flags.c_contiguous and x.dtype == np.float64):
        flat = x.reshape(-1)
        return _leaf_moments(
            flat.size, lambda start, stop, out: np.divide(flat[start:stop], scale, out=out))
    n = x.size
    mean = np.add.reduce(x, axis=None, keepdims=True) / n
    dev = np.subtract(x, mean, out=scratch(_PLANE_A, x.shape))
    np.square(dev, out=dev)
    return mean.item(), float(np.add.reduce(dev, axis=None) / n)


def _written(plane: np.ndarray, bands=(), write=None):
    """A reader for ``_leaf_moments`` of the row-major float64 ``plane``, a
    plane that a kernel writes itself, read where it lies.

    Given ``bands``, slices of the plane's rows, ``write(rows)`` fills it a
    band at a time, in order: reading flat indices up to ``stop`` first
    writes the bands that reach it, so the mean's pass sums each leaf while
    its band is still in cache, and the variance's pass finds it written.
    """
    flat = plane.reshape(-1)
    pending = iter(bands)
    written = 0 if bands else flat.size

    def values(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        nonlocal written
        while written < stop:
            rows = next(pending)
            write(rows)
            written = rows.stop * plane.shape[1]
        return flat[start:stop]

    return values


def si(luma_plane: np.ndarray, scale: float = 1.0) -> float:
    """Spatial information: stddev of the Sobel gradient magnitude (interior)
    of the plane luma_plane / scale.

    The Sobel kernels are applied separably: a [1, 2, 1] smoothing across the
    gradient, then a central difference along it. Each band of output rows
    reads its rows and the two beyond them, smooths them in strips, and
    writes its magnitudes into one full-size plane.
    """
    _require(luma_plane, 3, "si")
    p = luma_plane
    h, w = p.shape
    mag = scratch(_PLANE_A, (h - 2, w - 2))

    def band(rows: slice):
        top, end = rows.start, rows.stop
        q, across, gy, along = _band_strips((end - top + 2, w), (end - top + 2, w - 2),
                                            (end - top, w - 2), (end - top, w))
        np.divide(p[top:end + 2], scale, out=q)
        np.multiply(q[:, 1:-1], 2.0, out=across)
        np.add(q[:, :-2], across, out=across)
        across += q[:, 2:]
        np.subtract(across[2:], across[:-2], out=gy)
        np.multiply(q[1:-1], 2.0, out=along)
        np.add(q[:-2], along, out=along)
        along += q[2:]
        gx = np.subtract(along[:, 2:], along[:, :-2], out=mag[rows])
        np.hypot(gx, gy, out=gx)

    return math.sqrt(_leaf_moments(mag.size, _written(mag, row_bands((h - 2, w)), band))[1])


def ti(luma_t: np.ndarray, luma_prev: np.ndarray, scale: float = 1.0) -> float:
    """Temporal information: stddev of the pixelwise difference plane of
    luma_t / scale and luma_prev / scale.

    The difference is formed a leaf at a time, from both planes read into
    the band buffer, once for its mean and once for its deviations, so no
    plane of it is written.
    """
    if luma_t.shape != luma_prev.shape:
        raise DimensionMismatch(f"{luma_t.shape} vs {luma_prev.shape}")
    a, b = (np.ascontiguousarray(p).reshape(-1) for p in (luma_t, luma_prev))

    def diff(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        _, prev = _band_strips(out.shape, out.shape)
        np.divide(a[start:stop], scale, out=out)
        return np.subtract(out, np.divide(b[start:stop], scale, out=prev), out=out)

    return math.sqrt(_leaf_moments(a.size, diff)[1])


def _opponents(r, g, b, rg: np.ndarray, yb: np.ndarray):
    """Write the opponent planes r - g into rg and 0.5 * (r + g) - b into yb."""
    np.subtract(r, g, out=rg)
    np.add(r, g, out=yb)  # 0.5 * (r + g) - b, in place
    yb *= 0.5
    yb -= b


def _hasler(rg_moments, yb_moments) -> float:
    """The colourfulness of opponent planes rg and yb, from their moments."""
    (rg_mean, rg_var), (yb_mean, yb_var) = rg_moments, yb_moments
    return float(
        np.hypot(math.sqrt(rg_var), math.sqrt(yb_var)) + 0.3 * np.hypot(rg_mean, yb_mean)
    )


def colorfulness(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> float:
    """Hasler-Suesstrunk colorfulness on [0,1] RGB planes."""
    if not r.shape == g.shape == b.shape:
        raise DimensionMismatch(f"{r.shape} vs {g.shape} vs {b.shape}")
    rg, yb = scratch(_PLANE_A, r.shape), scratch(_PLANE_B, r.shape)
    _opponents(r, g, b, rg, yb)
    return _hasler(*(_leaf_moments(p.size, _written(p)) for p in (rg, yb)))


def _ycbcr_colorfulness(y: np.ndarray, cb: np.ndarray, cr: np.ndarray, scale: float) -> float:
    """``colorfulness(*frame_rgb(Frame(y, cb, cr, scale)))``, converted in
    bands, with the same bits (see the module docstring)."""
    fy, fx = chroma_factors(y.shape, cb.shape)
    rg, yb = scratch(_PLANE_A, y.shape), scratch(_PLANE_B, y.shape)

    def band(rows: slice):
        strips = _band_strips(*[(rows.stop - rows.start, y.shape[1])] * 4)
        ycbcr_to_rgb(y, cb, cr, scale, rows, fy, fx, strips)
        _opponents(*strips[:3], rg[rows], yb[rows])

    # rg's mean pass writes the bands, yb's rows with them
    rg_moments = _leaf_moments(rg.size, _written(rg, row_bands(y.shape, fy), band))
    return _hasler(rg_moments, _leaf_moments(yb.size, _written(yb)))


def avg_luminance(luma_plane: np.ndarray) -> float:
    if luma_plane.size == 0:
        raise PlaneTooSmall("empty plane")
    return float(luma_plane.mean())


def sharpness(luma_plane: np.ndarray, scale: float = 1.0) -> float:
    """Variance of the 3x3 Laplacian response over interior pixels of the
    plane luma_plane / scale, written band by band into one full-size plane."""
    _require(luma_plane, 3, "sharpness")
    p = luma_plane
    h, w = p.shape
    lap = scratch(_PLANE_A, (h - 2, w - 2))

    def band(rows: slice):
        # up + down + left + right - 4 * centre, added in that order
        top, end = rows.start, rows.stop
        q, four = _band_strips((end - top + 2, w), (end - top, w - 2))
        np.divide(p[top:end + 2], scale, out=q)
        centre = q[1:-1]
        out = np.add(q[:-2, 1:-1], q[2:, 1:-1], out=lap[rows])
        out += centre[:, :-2]
        out += centre[:, 2:]
        out -= np.multiply(centre[:, 1:-1], 4.0, out=four)

    return _leaf_moments(lap.size, _written(lap, row_bands((h - 2, w)), band))[1]


def contrast(luma_plane: np.ndarray) -> float:
    if luma_plane.size == 0:
        raise PlaneTooSmall("empty plane")
    return math.sqrt(_moments(luma_plane)[1])


_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
_SSIM_WIN = 8
_SSIM_STRIDE = 4  # a window is 2x2 blocks of stride x stride pixels
_SSIM_N = float(_SSIM_WIN * _SSIM_WIN)


def _block_sums(t: np.ndarray, rows: np.ndarray, blocks: np.ndarray):
    """Write the 4x4 block sums of ``t``, rows and columns of whole blocks,
    into ``blocks``: its four row phases are added into ``rows``, a strip of
    the band buffer, and their four column phases into ``blocks``."""
    b = _SSIM_STRIDE
    np.add(t[0::b], t[1::b], out=rows)
    rows += t[2::b]
    rows += t[3::b]
    np.add(rows[:, 0::b], rows[:, 1::b], out=blocks)
    blocks += rows[:, 2::b]
    blocks += rows[:, 3::b]


def _window_sums(blocks: np.ndarray) -> np.ndarray:
    """The 8x8 window sums at stride 4 from a plane's 4x4 block sums.

    Each window covers 2x2 adjacent blocks, so the window grid is one block
    shorter than the block grid on each side. The sums of vertical block
    pairs take the first scratch plane, and only the returned window sums
    are a new array.
    """
    h, w = blocks.shape
    pairs = np.add(blocks[:-1], blocks[1:], out=scratch(_PLANE_A, (h - 1, w)))
    return pairs[:, :-1] + pairs[:, 1:]


def _ssim_blocks(plane: np.ndarray, scale: float, other: np.ndarray | None = None
                 ) -> np.ndarray:
    """The 4x4 block sums, over the rows and columns of whole blocks, of
    plane / scale and of its square (two planes of sums), or, given
    ``other``, of (plane / scale) * (other / scale) (one).

    Each band of rows is divided into the band buffer once per plane, and
    its square or product, row sums and block sums are formed there while
    it is in cache, so no float, product or row-sum plane is made.
    """
    _require(plane, _SSIM_WIN, "ssim")
    b = _SSIM_STRIDE
    h, w = plane.shape[0] // b * b, plane.shape[1] // b * b
    blocks = scratch(_PLANE_B, (1 if other is not None else 2, h // b, w // b))
    for band in row_bands((h, w), b):
        n = band.stop - band.start
        q, t, rows = _band_strips((n, w), (n, w), (n // b, w))
        np.divide(plane[band, :w], scale, out=q)
        k = slice(band.start // b, band.stop // b)
        if other is None:
            _block_sums(q, rows, blocks[0, k])
            np.multiply(q, q, out=t)
        else:
            np.multiply(q, np.divide(other[band, :w], scale, out=t), out=t)
        _block_sums(t, rows, blocks[-1, k])
    return blocks


def _ssim_stats(plane: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """One plane's SSIM window means and variances, shared by all its pairs,
    from one read of the plane."""
    sums, squares = _ssim_blocks(plane, scale)
    mu = _window_sums(sums)
    mu /= _SSIM_N
    var = _window_sums(squares)
    var /= _SSIM_N
    var -= np.multiply(mu, mu, out=scratch(_PLANE_A, mu.shape))
    return mu, var


def _ssim_cross_sums(plane_a: np.ndarray, plane_b: np.ndarray, scale: float) -> np.ndarray:
    """The window sums of a·b: all that a pair adds to its planes' _ssim_stats."""
    return _window_sums(_ssim_blocks(plane_a, scale, plane_b)[0])


def _pair(plane_a: np.ndarray, plane_b: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    """``ti(plane_a, plane_b, scale)`` and ``_ssim_cross_sums(plane_a,
    plane_b, scale)``, with their bits, from one read of each plane.

    Each band of rows, which starts on a block's first row, is divided into
    the band buffer once per plane, when the mean's pass of TI's moments
    reaches it (``_written``). The band's difference is written into a
    full-size plane, which the variance's pass reads again, and the block
    sums of its product over whole blocks are formed as ``_ssim_blocks``
    forms them. The window sums are formed after that pass, in the plane
    that held the difference.
    """
    if plane_a.shape != plane_b.shape:
        raise DimensionMismatch(f"{plane_a.shape} vs {plane_b.shape}")
    _require(plane_a, _SSIM_WIN, "ssim")
    b = _SSIM_STRIDE
    height, width = plane_a.shape
    h, w = height // b * b, width // b * b
    diff = scratch(_PLANE_A, (height, width))
    blocks = scratch(_PLANE_B, (h // b, w // b))

    def band(r: slice):
        m = min(r.stop, h) - r.start
        q, o, rows = _band_strips((r.stop - r.start, width), (r.stop - r.start, width),
                                  (m // b, w))
        np.divide(plane_a[r], scale, out=q)
        np.subtract(q, np.divide(plane_b[r], scale, out=o), out=diff[r])
        _block_sums(np.multiply(q[:m, :w], o[:m, :w], out=o[:m, :w]), rows,
                    blocks[r.start // b:(r.start + m) // b])

    var = _leaf_moments(diff.size, _written(diff, row_bands((height, width), b), band))[1]
    return math.sqrt(var), _window_sums(blocks)


def _ssim_combine(stats_a, stats_b, cross_sums: np.ndarray, work=None) -> float:
    """Mean SSIM of two planes from their _ssim_stats and their _ssim_cross_sums.

    ``work`` is three arrays of the windows' shape, which it overwrites (by
    default fresh ones). The steps and their order are those of
    ``(2 mu_ab + C1)(2 cov + C2) / ((mu_a² + mu_b² + C1)(var_a + var_b + C2))``
    with ``cov = cross_sums / N - mu_ab``.
    """
    mu_a, var_a = stats_a
    mu_b, var_b = stats_b
    num, den, t = work if work is not None else (np.empty(mu_a.shape) for _ in range(3))
    mu_ab = np.multiply(mu_a, mu_b, out=num)
    cov = np.divide(cross_sums, _SSIM_N, out=den)
    cov -= mu_ab
    cov *= 2.0
    cov += _SSIM_C2
    mu_ab *= 2.0
    mu_ab += _SSIM_C1
    num *= cov
    np.multiply(mu_a, mu_a, out=den)
    den += np.multiply(mu_b, mu_b, out=t)
    den += _SSIM_C1
    np.add(var_a, var_b, out=t)
    t += _SSIM_C2
    den *= t
    num /= den
    return float(np.mean(num))


def ssim(plane_a: np.ndarray, plane_b: np.ndarray) -> float:
    """Mean SSIM over 8x8 windows with stride 4, standard C1/C2 constants."""
    if plane_a.shape != plane_b.shape:
        raise DimensionMismatch(f"{plane_a.shape} vs {plane_b.shape}")
    return _ssim_combine(_ssim_stats(plane_a, 1.0), _ssim_stats(plane_b, 1.0),
                         _ssim_cross_sums(plane_a, plane_b, 1.0))


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

class _PairSsim:
    """The SSIM of a view's pairs, each combined by whichever task supplies
    its last input: the pair's cross sums (``_pair``) or either frame's
    statistics (``_ssim_stats``).

    A frame's statistics are kept until its last pair has been combined, and
    a pair's cross sums only until both its frames' statistics are there.
    The combine runs in the supplying task, in its scratch set, outside the
    lock, so tasks on other threads do not wait for it.
    """

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs
        self.ssim: list[float | None] = [None] * len(pairs)
        self._stats: dict[int, tuple] = {}  # frame -> its _ssim_stats
        self._parked: dict[int, np.ndarray] = {}  # pair -> its cross sums
        self._left = Counter(f for pair in pairs for f in pair)  # frame -> pairs not combined
        self._lock = threading.Lock()

    def _complete(self, p: int) -> bool:
        return all(f in self._stats for f in self.pairs[p])

    def _inputs(self, p: int, sums: np.ndarray) -> tuple:
        return (p, sums, *(self._stats[f] for f in self.pairs[p]))

    def frame(self, i: int, stats: tuple):
        """Frame i's statistics: combine each parked pair they complete."""
        with self._lock:
            self._stats[i] = stats
            ready = [p for p in self._parked if self._complete(p)]
            ready = [self._inputs(p, self._parked.pop(p)) for p in ready]
        self._combine(ready)

    def cross(self, p: int, sums: np.ndarray):
        """Pair p's cross sums: combine the pair now if both its frames'
        statistics are there, else park the sums until they are."""
        with self._lock:
            if not self._complete(p):
                self._parked[p] = sums
                return
            ready = [self._inputs(p, sums)]
        self._combine(ready)

    def _combine(self, ready: list[tuple]):
        for p, sums, stats_a, stats_b in ready:
            work = scratch(_PLANE_A, (3, *sums.shape))
            self.ssim[p] = _ssim_combine(stats_a, stats_b, sums, work)
            with self._lock:
                for f in self.pairs[p]:
                    self._left[f] -= 1
                    if not self._left[f]:
                        del self._stats[f]

    def drop(self):
        """Free whatever a failed view left: statistics and parked sums."""
        with self._lock:
            self._stats.clear()
            self._parked.clear()


def extract_view_features(view: SampledView, threads: int | None = None) -> FeatureVector:
    """Mean-aggregated features for an already-sampled view.

    Per-frame features are averaged over all frames; pairwise features (ti,
    ssim) use consecutive sampled frames or the first sampled frame and are
    0 (with a flag) for single-frame views. Frame 1's consecutive pair is its
    first-frame pair, so k frames make 2k-3 distinct pairs.

    All the work is one task list run by one ``parallel_map``, in frame
    order: frame i's colorfulness (from YCbCr in bands, or from the view's
    RGB planes) with its sharpness, its si, and its contrast, with average
    luminance as the mean it computes, and, when there are pairs, its SSIM
    window statistics; then its pairs (i, i-1) and (i, 0), each ti and the
    window sums of the pair's product from one read of each plane
    (``_pair``). No task waits for another. Whichever task supplies a pair's
    last input combines its SSIM (``_PairSsim``), and a frame's statistics
    are dropped once its last pair is combined. The pool runs tasks in list
    order, so the window arrays held at once are a few frames' and frame
    0's, however long the view. Each kernel reads the view's planes at the
    view's scale, a band at a time, and its temporaries are scratch planes
    of the task that runs it. Every mean adds its terms in a fixed order (per
    frame, or per pair in the order consecutive pairs then first-frame
    pairs), so threaded extraction is bit-identical to serial.
    """
    lumas = view.frames
    colors = view.color
    scale = view.scale
    k = len(lumas)
    flags = set()
    if colors is None:
        flags.add(FLAG_DEGRADED_COLOR)
    pairs = [(i, i - 1) for i in range(1, k)] + [(i, 0) for i in range(2, k)]
    ssims = _PairSsim(pairs)

    def color(i: int) -> float:
        if colors is None:
            return 0.0
        if view.transform.selects_samples:
            return _ycbcr_colorfulness(lumas[i], *colors[i], scale)
        return colorfulness(*colors[i])

    def looks(i: int) -> tuple[float, float]:
        c = color(i)  # first, so that sharpness reuses its full-size scratch planes
        return sharpness(lumas[i], scale), c

    def stats(i: int) -> tuple[float, float]:
        mean, var = _moments(lumas[i], scale)  # contrast, luminance
        if pairs:
            ssims.frame(i, _ssim_stats(lumas[i], scale))
        return math.sqrt(var), mean

    def pair(p: int) -> float:
        i, j = pairs[p]
        t, sums = _pair(lumas[i], lumas[j], scale)
        ssims.cross(p, sums)
        return t

    frame_pairs = [[] for _ in range(k)]  # frame i's pairs (i, i-1) and (i, 0)
    for p, (i, _) in enumerate(pairs):
        frame_pairs[i].append(p)
    tasks = {}
    for i in range(k):
        tasks["looks", i] = (looks, i)
        tasks["si", i] = (si, lumas[i], scale)
        tasks["stats", i] = (stats, i)
        for p in frame_pairs[i]:
            tasks["pair", p] = (pair, p)
    try:
        done = dict(zip(tasks, parallel_map(lambda task: task[0](*task[1:]),
                                            list(tasks.values()), threads)))
    finally:
        ssims.drop()
    per_frame = {
        "si": [done["si", i] for i in range(k)],
        "sharpness": [done["looks", i][0] for i in range(k)],
        "colorfulness": [done["looks", i][1] for i in range(k)],
        "contrast": [done["stats", i][0] for i in range(k)],
        "avg_luminance": [done["stats", i][1] for i in range(k)],
    }
    values = {name: float(np.mean(vals)) for name, vals in per_frame.items()}
    if not pairs:
        flags.add(FLAG_SINGLE_FRAME)
        values.update(ti=0.0, ti_first=0.0, ssim_pair=0.0, ssim_first=0.0)
        return FeatureVector(values, frozenset(flags))

    tis = [done["pair", p] for p in range(len(pairs))]
    for consecutive, first, vals in (("ti", "ti_first", tis),
                                     ("ssim_pair", "ssim_first", ssims.ssim)):
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
