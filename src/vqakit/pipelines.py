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

from .bench_harness import Elementwise, Feature, Linear, PipelineDescriptor, count_params
from .clip_io import CANONICAL_SPECS, ClipSpec, VideoClip
from .regressors import fit_forest, init_branchnet, predict_forest, predict_scores
from .sampling import plan_indices, temporal_sample
from .signal_features import BRANCH_GROUPS, FEATURE_ORDER, extract_clip_features

__all__ = ["Pipeline", "PIPELINE_NAMES", "build_pipeline"]

PIPELINE_NAMES = ("identity", "feature-forest", "feature-branchnet")

_REFERENCE_PLAN = "frankenstone_reduce"


@dataclass(frozen=True)
class Pipeline:
    name: str
    score: Callable[[VideoClip], float]
    descriptor: PipelineDescriptor
    params_m: float


def _feature_stages(spec: ClipSpec) -> tuple[Feature, ...]:
    plane = spec.width * spec.height
    return tuple(Feature(name, plane) for name in FEATURE_ORDER)


def _frames_after_sampling(spec: ClipSpec) -> int:
    return len(plan_indices(spec.frame_count, 30, _REFERENCE_PLAN))


def _synthetic_training_set(seed: int, rows: int = 64):
    rng = np.random.default_rng(seed)
    X = rng.random((rows, len(FEATURE_ORDER)))
    y = 1.0 + 4.0 * X[:, 0] + 0.1 * rng.standard_normal(rows)
    return X, y


def build_pipeline(
    name: str, spec: ClipSpec | str, *, seed: int = 0, threads: int | None = None,
    n_trees: int = 300,
) -> Pipeline:
    spec = CANONICAL_SPECS[spec] if isinstance(spec, str) else spec

    if name == "identity":
        return Pipeline("identity", lambda clip: 0.0, PipelineDescriptor((), 1), 0.0)

    if name == "feature-forest":
        X, y = _synthetic_training_set(seed)
        model = fit_forest(X, y, n_trees=n_trees, seed=seed, feature_names=FEATURE_ORDER)

        def score(clip: VideoClip) -> float:
            plan = temporal_sample(clip, _REFERENCE_PLAN)
            fv = extract_clip_features(clip, plan, seed=seed, threads=threads)
            return float(predict_forest(model, np.array(fv.as_row())))

        desc = PipelineDescriptor(_feature_stages(spec), _frames_after_sampling(spec))
        return Pipeline("feature-forest", score, desc, count_params(model))

    if name == "feature-branchnet":
        net = init_branchnet(seed=seed)
        net.norm_fitted = True  # identity normalization: raw features go in as-is

        def score(clip: VideoClip) -> float:
            plan = temporal_sample(clip, _REFERENCE_PLAN)
            fv = extract_clip_features(clip, plan, seed=seed, threads=threads)
            return float(predict_scores(net, np.array(fv.as_row()))[0])

        d, k = net.embed_dim, net.head_hidden
        clip_stages = [Linear(len(feats), d, per_frame=False) for feats in BRANCH_GROUPS.values()]
        for _ in range(2):  # two cross-gating blocks: px, py, po and the gate product
            clip_stages += [Linear(d, d, per_frame=False)] * 3 + [Elementwise(d, per_frame=False)]
        for _ in range(3):  # heads
            clip_stages += [Linear(d, k, per_frame=False), Linear(k, 1, per_frame=False)]
        desc = PipelineDescriptor(
            _feature_stages(spec) + tuple(clip_stages), _frames_after_sampling(spec)
        )
        return Pipeline("feature-branchnet", score, desc, count_params(net))

    raise ValueError(f"unknown pipeline {name!r}; choose from {PIPELINE_NAMES}")
