"""Seeded degradation ladders: each feature moves the way its name says.

One structured base clip (a luma ramp, a 4x4-block texture that moves a few
pixels a frame, two drifting chroma patterns: perfbench's clip design) is
degraded in six steps, level 0 (the clip itself) to 5. The steps give a
known order with no rating data, so a feature that tracks a degradation
ranks the levels in order: its SROCC against the level is at least 0.9 in
magnitude, in the direction its name says.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from vqakit.clip_io import Frame, VideoClip
from vqakit.eval_metrics import srocc
from vqakit.sampling import SpatialTransform, temporal_sample
from vqakit.signal_features import extract_clip_features

WIDTH, HEIGHT, FRAMES = 256, 144, 8
LEVELS = range(6)
BOUND = 0.9  # |SROCC| of a feature against the level


def base_planes(seed: int):
    """Each frame's (luma, cb, cr), 4:2:0 and normalised to [0, 1]."""
    rng = np.random.default_rng(seed)
    pad = 64
    cw, ch = WIDTH // 2, HEIGHT // 2
    blocks = rng.integers(0, 56, size=((HEIGHT + pad) // 4 + 1, (WIDTH + pad) // 4 + 1))
    texture = np.repeat(np.repeat(blocks, 4, axis=0), 4, axis=1)
    ramp = np.arange(WIDTH)[None, :] * 150 // WIDTH + np.arange(HEIGHT)[:, None] * 40 // HEIGHT
    yy, xx = np.mgrid[0:ch + pad, 0:cw + pad]
    phase = rng.random(2) * 2 * math.pi
    cb = 128 + 48 * np.sin(xx / 37.0 + phase[0]) * np.cos(yy / 53.0)
    cr = 128 + 40 * np.cos(yy / 29.0 + phase[1]) + 8 * np.sin(xx / 11.0)
    frames = []
    for k in range(FRAMES):
        dy, dx = 3 * k, 5 * k
        luma = ramp + texture[dy:dy + HEIGHT, dx:dx + WIDTH]
        planes = luma, cb[k:k + ch, 2 * k:2 * k + cw], cr[k:k + ch, 2 * k:2 * k + cw]
        frames.append([np.floor(p) / 255.0 for p in planes])  # 8-bit samples
    return frames


def box_blur(plane, radius: int):
    """Mean over a (2r + 1)-square window, edges repeated."""
    if radius == 0:
        return plane
    size = 2 * radius + 1
    for axis in (0, 1):
        padded = np.pad(plane, [(radius, radius) if a == axis else (0, 0) for a in (0, 1)],
                        mode="edge")
        sums = np.cumsum(np.insert(padded, 0, 0.0, axis=axis), axis=axis)
        n = plane.shape[axis]
        plane = (sums.take(np.arange(size, size + n), axis=axis)
                 - sums.take(np.arange(n), axis=axis)) / size
    return plane


def degrade(frames, kind: str, level: int, seed: int):
    """The base frames at one level of one degradation, as a clip."""
    rng = np.random.default_rng([seed, level])
    out = []
    for i, (y, cb, cr) in enumerate(frames):
        if kind == "blur":
            y, cb, cr = (box_blur(p, level) for p in (y, cb, cr))
        elif kind == "noise":
            y = np.clip(y + rng.normal(0.0, 0.04 * level, y.shape), 0.0, 1.0)
        elif kind == "desaturate":
            cb, cr = (c + (0.5 - c) * (level / 5) for c in (cb, cr))
        elif kind == "darken":
            y = y * (1 - 0.15 * level)
        elif kind == "freeze":  # the last ``level`` frames repeat the one before them
            y, cb, cr = frames[min(i, FRAMES - 1 - level)]
        out.append(Frame(y, cb, cr))
    return VideoClip(WIDTH, HEIGHT, Fraction(30), out)


# (degradation, feature, +1 if it rises with the level, -1 if it falls)
EXPECTED = [
    ("blur", "si", -1), ("blur", "sharpness", -1),
    ("noise", "sharpness", +1),
    ("desaturate", "colorfulness", -1),
    ("darken", "avg_luminance", -1),
    ("freeze", "ti", -1), ("freeze", "ssim_pair", +1),
]


@pytest.fixture(scope="module")
def base():
    return base_planes(seed=1)


@pytest.mark.parametrize("spatial", ["none", "fragment:4:32", "resize:97:61"])
@pytest.mark.parametrize("kind", sorted({kind for kind, _, _ in EXPECTED}))
def test_feature_follows_its_ladder(base, spatial, kind):
    transform = SpatialTransform.parse(spatial)
    rows = []
    for level in LEVELS:
        clip = degrade(base, kind, level, seed=1)
        rows.append(extract_clip_features(clip, temporal_sample(clip, "all"), transform,
                                          seed=0, threads=1).values)
    for _, feature, sign in (e for e in EXPECTED if e[0] == kind):
        rho = srocc(list(LEVELS), [row[feature] for row in rows])
        assert sign * rho >= BOUND, (feature, [row[feature] for row in rows])

