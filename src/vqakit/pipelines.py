"""Benchmarkable clip->score pipelines.

The reference "feature-forest" pipeline mirrors the feature+regression
design: end-weighted temporal sampling, the full signal-feature set, and a
300-tree forest (fit on seeded synthetic data at build time, outside the
timed region). "feature-branchnet" swaps the forest for the gated-fusion
network; "identity" scores without touching pixels and calibrates harness
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bench_harness import Elementwise, Feature, Linear, PipelineDescriptor
from .clip_io import CANONICAL_SPECS, ClipSpec, VideoClip
from .errors import InvalidParameter
from .regressors import fit_forest, init_branchnet, predict_forest, predict_scores
from .regressors.net import GATED_BRANCHES
from .sampling import plan_indices, temporal_sample
from .signal_features import FEATURE_ORDER, extract_clip_features

__all__ = ["Pipeline", "PIPELINE_NAMES", "build_pipeline"]

PIPELINE_NAMES = ("identity", "feature-forest", "feature-branchnet")

_REFERENCE_PLAN = "frankenstone_reduce"


@dataclass(frozen=True)
class Pipeline:
    name: str
    score: Callable[[VideoClip], float]
    descriptor: PipelineDescriptor
    params_m: float


def _net_stages(net) -> tuple[Linear | Elementwise, ...]:
    """The net's MACs per clip, read from its parameters.

    A weight matrix or head vector is a Linear layer (biases add, they do not
    multiply); each gated branch also multiplies its projection by its gate.
    """
    shapes = (np.atleast_2d(p).shape for p in net.weights().values())
    return tuple(Linear(d_in, d_out, per_frame=False) for d_out, d_in in shapes) + tuple(
        Elementwise(net.embed_dim, per_frame=False) for _ in GATED_BRANCHES)


def _feature_stages(plane: int, frames: int) -> tuple[Feature, ...]:
    """The feature kernels ``extract_view_features`` runs on a luma-only view
    (the specs' clips carry no chroma, so colourfulness does not run) of
    ``frames`` planes of ``plane`` samples.

    Per frame: si, sharpness and contrast, whose mean is average luminance.
    More than one frame makes 2k-3 distinct pairs: k-1 consecutive ones (ti)
    and k-2 more against the first frame (ti_first). SSIM is one full ssim()
    for the pair of frames 0 and 1, then, per later frame, its statistics
    with its consecutive cross term (ssim_pair) and its first-frame cross term
    (ssim_first).
    """
    stages = [Feature(f, plane) for f in ("si", "sharpness", "contrast", "avg_luminance")]
    if frames > 1:
        calls = {"ti": frames - 1, "ti_first": frames - 2, "ssim": 1,
                 "ssim_pair": frames - 2, "ssim_first": frames - 2}
        stages += [Feature(f, plane, per_frame=False) for f, n in calls.items() for _ in range(n)]
    return tuple(stages)


def build_pipeline(
    name: str, spec: ClipSpec | str, *, seed: int = 0, threads: int | None = None
) -> Pipeline:
    spec = CANONICAL_SPECS[spec] if isinstance(spec, str) else spec

    if name == "identity":
        return Pipeline("identity", lambda clip: 0.0, PipelineDescriptor((), 1), 0.0)

    if name == "feature-forest":
        rng = np.random.default_rng(seed)  # seeded synthetic rows: quality follows si
        X = rng.random((64, len(FEATURE_ORDER)))
        y = 1.0 + 4.0 * X[:, 0] + 0.1 * rng.standard_normal(64)
        model = fit_forest(X, y, n_trees=300, seed=seed, feature_names=FEATURE_ORDER)
        predict, stages = (lambda row: predict_forest(model, row)), ()
        params_m = 0.0  # trees learn no weights
    elif name == "feature-branchnet":
        net = init_branchnet(seed=seed)
        net.norm_fitted = True  # identity normalization: raw features go in as-is
        predict, stages = (lambda row: predict_scores(net, row)[0]), _net_stages(net)
        params_m = net.n_params() / 1e6
    else:
        raise InvalidParameter("name", name, f"one of {PIPELINE_NAMES}")

    def score(clip: VideoClip) -> float:
        plan = temporal_sample(clip, _REFERENCE_PLAN)
        fv = extract_clip_features(clip, plan, seed=seed, threads=threads)
        return float(predict(np.array(fv.as_row())))

    frames = len(plan_indices(spec.frame_count, 30, _REFERENCE_PLAN))
    features = _feature_stages(spec.width * spec.height, frames)
    desc = PipelineDescriptor(features + stages, frames)
    return Pipeline(name, score, desc, params_m)
