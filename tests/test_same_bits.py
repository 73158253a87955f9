"""Same bits across changes: sha256 digests over every feature's float.hex,
and over one fixed forest's score of those features, for 640x360 clips in
both 8- and 10-bit 4:2:0, under two temporal plans and four spatial views, at
one and two threads. A change that moves a bit of extraction or of forest
scoring fails here rather than passing unnoticed; a change that means to
move some names the digests it moves.

The `fragment` digests hold the patch offsets drawn once per clip, from the
seed alone."""

import hashlib

import numpy as np
import pytest

from conftest import y4m_bytes
from vqakit.clip_io import parse_y4m
from vqakit.regressors import fit_forest, predict_forest
from vqakit.sampling import SpatialTransform, temporal_sample
from vqakit.signal_features import FEATURE_ORDER, extract_clip_features

W, H, FRAMES = 640, 360, 7  # at F1:1, frankenstone_reduce samples 5 of the 7
SEED = 11

# (chroma layout, plan, view) -> digest. The fragment digests hold one patch
# draw per clip; the others are as first recorded.
DIGESTS = {
    ("420", "frankenstone_reduce", "none"):
        "61073d611bbee32acd9478ed82c50e1874c5f9f0f6811756fc9aefedcf883b87",
    ("420", "frankenstone_reduce", "fragment:3:32"):
        "de1c2d409f9956b06bddbb6e19491994eae8fc2b9b237e00e176e68668b86e7a",
    ("420", "frankenstone_reduce", "resize:97:61"):
        "b891a6be54106304f2680f75fe10433457dd1885c534cdc27c59a78342efe118",
    ("420", "frankenstone_reduce", "pad_square:64"):
        "81bbbba57510af60f656b0123b5cfa13092440bba60fd799dcb86dccb1f8df34",
    ("420", "all", "none"):
        "7f5b46937904e0b1556701ed65e92c3e9e74796a47c4d0098e3f34bc9a63c399",
    ("420", "all", "fragment:3:32"):
        "d0f8a33e1715cc466ffeba4ecebb9382c70e9fa4ee93f70b4d83fe9d4eddbea2",
    ("420", "all", "resize:97:61"):
        "c5c5481cd0b913a48dd45555a0d303308fdf1e91d3d5969358336b0b376da0b9",
    ("420", "all", "pad_square:64"):
        "46074cc6b0a63e1357f2dd5982959695653e46a84b5ba5fc168308ab65125bf0",
    ("420p10", "frankenstone_reduce", "none"):
        "f412cd02860207a7eb5974d1a4ca31b41b887c759ffc1becdd3a5ec23218e126",
    ("420p10", "frankenstone_reduce", "fragment:3:32"):
        "d59dcf2c9689ce49b62cdda861d209490ff2f6f4326c178859f1105375710df1",
    ("420p10", "frankenstone_reduce", "resize:97:61"):
        "b26fdd5cc0c2c97fe0a697028c83bcdd67bf409364998691dff6ffaa2d97f522",
    ("420p10", "frankenstone_reduce", "pad_square:64"):
        "880023e5c056cd82a3193d6e39665aab8e246ac5f5a05683e2cc4973a6d330dd",
    ("420p10", "all", "none"):
        "7865ff9b8169a8449295e6ba2f05147e3ab7645e133062206364ab278f489bdf",
    ("420p10", "all", "fragment:3:32"):
        "99a8bf164e48d0e1cfe09a28308347571705f8ea9c92130f71fbb41bb3b0d459",
    ("420p10", "all", "resize:97:61"):
        "25042241d9f1eba461f6ff842cc527ef7cfe652215ec47668927e595167238db",
    ("420p10", "all", "pad_square:64"):
        "3d140f62f45c0df18bc7dbfa5dc309d0cca7b338b9a7e65a1da7c2ac33bea0a6",
}


def _clip(ctag):
    """A moving ramp and texture with drifting chroma, plus a little noise."""
    maxv, dtype = (1023, "<u2") if ctag.endswith("p10") else (255, np.uint8)
    rng = np.random.default_rng(len(ctag))
    y, x = np.mgrid[0:H, 0:W]
    cy, cx = np.mgrid[0:H // 2, 0:W // 2]
    frames = []
    for t in range(FRAMES):
        luma = (x + 2 * y) / (W + 2 * H) + 0.25 * np.sin((x - 9 * t) / 11.0) * np.cos(y / 7.0)
        cb = 0.5 + 0.3 * np.sin((cx + 5 * t) / 23.0)
        cr = 0.5 + 0.3 * np.cos((cy - 3 * t) / 17.0)
        planes = []
        for p in (luma, cb, cr):
            p = p + 0.02 * rng.standard_normal(p.shape)
            planes.append(np.clip(np.round(p * maxv), 0, maxv).astype(dtype))
        frames.append(tuple(planes))
    return parse_y4m(y4m_bytes(W, H, frames, ctag=f"C{ctag}", fps="1:1"))


@pytest.fixture(scope="module")
def clips():
    return {ctag: _clip(ctag) for ctag in ("420", "420p10")}


@pytest.fixture(scope="module")
def forest():
    rng = np.random.default_rng(SEED)
    X = rng.random((120, len(FEATURE_ORDER)))
    return fit_forest(X, 1.0 + 4.0 * rng.random(120), n_trees=20, seed=SEED,
                      feature_names=FEATURE_ORDER)


def _digest(clip, plan_mode, view, forest, threads):
    plan = temporal_sample(clip, plan_mode)
    fv = extract_clip_features(clip, plan, SpatialTransform.parse(view), seed=SEED,
                               threads=threads)
    row = fv.as_row()
    score = float(predict_forest(forest, np.array(row)))
    text = "\n".join(v.hex() for v in row + [score])
    return hashlib.sha256(text.encode()).hexdigest(), len(plan.indices)


@pytest.mark.parametrize("cell", list(DIGESTS), ids="-".join)
def test_feature_and_score_digests(cell, clips, forest):
    ctag, plan_mode, view = cell
    got = {threads: _digest(clips[ctag], plan_mode, view, forest, threads)
           for threads in (1, 2)}
    assert got[1] == got[2]  # the thread count changes no bit
    digest, sampled = got[1]
    assert sampled == (5 if plan_mode == "frankenstone_reduce" else FRAMES)
    assert digest == DIGESTS[cell]
