"""Per-frame signal features and their clip-level mean aggregation.

SI/TI follow the ITU-T P.910 convention (stddev of Sobel magnitude, stddev of
the frame difference) computed on the normalized [0,1] luma domain;
colorfulness is the Hasler-Suesstrunk metric; sharpness is the variance of a
3x3 Laplacian response. All statistics use population (ddof=0) moments.

Feature values are grouped into three branch families (technical,
aesthetic-proxy, semantic-proxy) which feed the fusion regressor.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .clip_io import VideoClip
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

    def branch_inputs(self) -> dict[str, np.ndarray]:
        return {
            b: np.array([self.values[f] for f in fs], dtype=np.float64)
            for b, fs in BRANCH_GROUPS.items()
        }

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


def si(luma_plane: np.ndarray) -> float:
    """Spatial information: stddev of the Sobel gradient magnitude (interior)."""
    _require(luma_plane, 3, "si")
    p = luma_plane
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    )
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    )
    return float(np.hypot(gx, gy).std())


def ti(luma_t: np.ndarray, luma_prev: np.ndarray) -> float:
    """Temporal information: stddev of the pixelwise difference plane."""
    if luma_t.shape != luma_prev.shape:
        raise DimensionMismatch(f"{luma_t.shape} vs {luma_prev.shape}")
    return float((luma_t - luma_prev).std())


def colorfulness(rgb_frame: np.ndarray) -> float:
    """Hasler-Suesstrunk colorfulness on [0,1] RGB."""
    r, g, b = rgb_frame[..., 0], rgb_frame[..., 1], rgb_frame[..., 2]
    rg = r - g
    yb = 0.5 * (r + g) - b
    return float(
        np.hypot(rg.std(), yb.std()) + 0.3 * np.hypot(rg.mean(), yb.mean())
    )


def avg_luminance(luma_plane: np.ndarray) -> float:
    if luma_plane.size == 0:
        raise PlaneTooSmall("empty plane")
    return float(luma_plane.mean())


def sharpness(luma_plane: np.ndarray) -> float:
    """Variance of the 3x3 Laplacian response over interior pixels."""
    _require(luma_plane, 3, "sharpness")
    p = luma_plane
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * p[1:-1, 1:-1]
    return float(lap.var())


def contrast(luma_plane: np.ndarray) -> float:
    if luma_plane.size == 0:
        raise PlaneTooSmall("empty plane")
    return float(luma_plane.std())


_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
_SSIM_WIN = 8
_SSIM_STRIDE = 4


def _window_sums(plane: np.ndarray, win: int, stride: int) -> np.ndarray:
    """Sums over win x win windows at stride offsets, via integral images."""
    h, w = plane.shape
    ii = np.zeros((h + 1, w + 1))
    np.cumsum(np.cumsum(plane, axis=0), axis=1, out=ii[1:, 1:])
    ys = np.arange(0, h - win + 1, stride)
    xs = np.arange(0, w - win + 1, stride)
    return (
        ii[np.ix_(ys + win, xs + win)]
        - ii[np.ix_(ys, xs + win)]
        - ii[np.ix_(ys + win, xs)]
        + ii[np.ix_(ys, xs)]
    )


def ssim(plane_a: np.ndarray, plane_b: np.ndarray) -> float:
    """Mean SSIM over 8x8 windows with stride 4, standard C1/C2 constants."""
    if plane_a.shape != plane_b.shape:
        raise DimensionMismatch(f"{plane_a.shape} vs {plane_b.shape}")
    _require(plane_a, _SSIM_WIN, "ssim")
    n = float(_SSIM_WIN * _SSIM_WIN)
    sa = _window_sums(plane_a, _SSIM_WIN, _SSIM_STRIDE)
    sb = _window_sums(plane_b, _SSIM_WIN, _SSIM_STRIDE)
    saa = _window_sums(plane_a * plane_a, _SSIM_WIN, _SSIM_STRIDE)
    sbb = _window_sums(plane_b * plane_b, _SSIM_WIN, _SSIM_STRIDE)
    sab = _window_sums(plane_a * plane_b, _SSIM_WIN, _SSIM_STRIDE)
    mu_a = sa / n
    mu_b = sb / n
    var_a = saa / n - mu_a * mu_a
    var_b = sbb / n - mu_b * mu_b
    cov = sab / n - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(np.mean(num / den))


# --- clip-level aggregation ---------------------------------------------------

def extract_view_features(view: SampledView, threads: int | None = None) -> FeatureVector:
    """Mean-aggregated features for an already-sampled view.

    Per-frame features are averaged over all frames; pairwise features (ti,
    ssim) use consecutive sampled frames or the first sampled frame and are
    0 (with a flag) for single-frame views. The reduction order is fixed, so
    threaded extraction is bit-identical to serial.
    """
    lumas = view.frames
    rgbs = view.rgb
    k = len(lumas)
    if k == 0:
        raise PlaneTooSmall("view has no frames")
    flags = set()
    if rgbs is None:
        flags.add(FLAG_DEGRADED_COLOR)

    def per_frame(i: int) -> dict[str, float]:
        out = {
            "si": si(lumas[i]),
            "avg_luminance": avg_luminance(lumas[i]),
            "sharpness": sharpness(lumas[i]),
            "contrast": contrast(lumas[i]),
            "colorfulness": colorfulness(rgbs[i]) if rgbs is not None else 0.0,
        }
        if i > 0:
            out["ti"] = ti(lumas[i], lumas[i - 1])
            out["ti_first"] = ti(lumas[i], lumas[0])
            out["ssim_pair"] = ssim(lumas[i], lumas[i - 1])
            out["ssim_first"] = ssim(lumas[i], lumas[0])
        return out

    rows = parallel_map(per_frame, range(k), threads)

    values = {name: float(np.mean([r[name] for r in rows])) for name in
              ("si", "avg_luminance", "sharpness", "contrast", "colorfulness")}
    if k > 1:
        for name in ("ti", "ti_first", "ssim_pair", "ssim_first"):
            values[name] = float(np.mean([r[name] for r in rows[1:]]))
    else:
        flags.add(FLAG_SINGLE_FRAME)
        values.update(ti=0.0, ti_first=0.0, ssim_pair=0.0, ssim_first=0.0)
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
