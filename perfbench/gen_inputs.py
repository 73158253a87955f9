"""Seeded input generation for the benchmark workloads.

Everything the program sees is written here as files: `.y4m` clips, a forest
checkpoint and feature/MOS CSV tables. The same seed gives the same bytes.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# Feature columns are drawn in ranges that cover what the generated clips
# produce, so that clip features walk the checkpoint's trees to real depth.
_FEATURE_RANGES = (
    ("si", 0.0, 0.3),
    ("ti", 0.0, 0.15),
    ("colorfulness", 0.0, 0.4),
    ("avg_luminance", 0.1, 0.9),
    ("sharpness", 0.0, 0.05),
    ("contrast", 0.0, 0.35),
    ("ti_first", 0.0, 0.2),
    ("ssim_pair", 0.0, 1.0),
    ("ssim_first", 0.0, 1.0),
)


def write_y4m_clip(path, seed: int, width: int, height: int, frames: int, ctag: str):
    """Write a structured 4:2:0 clip at 30 fps: a luma ramp, a blocky texture
    that moves by a few pixels per frame, and two drifting chroma patterns.

    ctag is "420" (8-bit) or "420p10" (10-bit, little-endian samples).
    """
    if ctag not in ("420", "420p10"):
        raise ValueError(f"unsupported colorspace tag {ctag!r}")
    depth = 10 if ctag == "420p10" else 8
    scale = (1 << (depth - 8))  # 8-bit design values scaled to the sample range
    rng = np.random.default_rng(seed)
    pad = 64
    cw, ch = -(-width // 2), -(-height // 2)

    # 4x4-pixel blocks of random texture: spatial structure, not white noise
    blocks = rng.integers(0, 56, size=((height + pad) // 4 + 1, (width + pad) // 4 + 1))
    texture = np.repeat(np.repeat(blocks, 4, axis=0), 4, axis=1)[: height + pad, : width + pad]
    ramp = (np.arange(width)[None, :] * 150 // max(width, 1)
            + np.arange(height)[:, None] * 40 // max(height, 1))
    yy, xx = np.mgrid[0 : ch + pad, 0 : cw + pad]
    phase = rng.random(2) * 2 * math.pi
    cb_tile = 128 + 48 * np.sin(xx / 37.0 + phase[0]) * np.cos(yy / 53.0)
    cr_tile = 128 + 40 * np.cos(yy / 29.0 + phase[1]) + 8 * np.sin(xx / 11.0)
    dtype = np.uint8 if depth == 8 else np.dtype("<u2")

    def raw(plane):
        return (np.asarray(plane) * scale).astype(dtype).tobytes()

    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{width} H{height} F30:1 Ip A1:1 C{ctag}\n".encode())
        for k in range(frames):
            dy, dx = (3 * k) % pad, (5 * k) % pad
            luma = ramp + texture[dy : dy + height, dx : dx + width]
            cy, cx = k % pad, (2 * k) % pad
            fh.write(b"FRAME\n")
            fh.write(raw(luma))
            fh.write(raw(cb_tile[cy : cy + ch, cx : cx + cw]))
            fh.write(raw(cr_tile[cy : cy + ch, cx : cx + cw]))
        # write back now, so that flushing the pages does not share the CPU
        # with the timed loop
        fh.flush()
        os.fsync(fh.fileno())


def feature_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    lo = np.array([r[1] for r in _FEATURE_RANGES])
    hi = np.array([r[2] for r in _FEATURE_RANGES])
    return lo + (hi - lo) * rng.random((n, len(_FEATURE_RANGES)))


def mos_for(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    """A smooth, monotone-ish quality function of the features plus rater noise,
    mapped onto the [1, 5] MOS scale."""
    lo = np.array([r[1] for r in _FEATURE_RANGES])
    hi = np.array([r[2] for r in _FEATURE_RANGES])
    z = (X - lo) / (hi - lo)
    w = np.array([1.2, -0.8, 0.9, 0.4, 1.0, 0.7, -0.5, 0.6, 0.3])
    q = z @ w + 0.8 * np.sin(3.0 * z[:, 0]) * z[:, 4]
    q = (q - q.min()) / (q.max() - q.min())
    return np.clip(1.0 + 4.0 * q + 0.12 * rng.standard_normal(q.size), 1.0, 5.0)


def write_checkpoint(path, seed: int, rows: int = 64):
    """Fit the scoring workloads' 300-tree forest on seeded rows and save it."""
    from vqakit import regressors

    rng = np.random.default_rng([seed, 1])
    X = feature_rows(rng, rows)
    model = regressors.fit_forest(X, mos_for(rng, X), n_trees=300, seed=seed,
                                  threads=os.cpu_count(), feature_names=_feature_order())
    regressors.save_model(path, model)


def _feature_order() -> tuple[str, ...]:
    from vqakit.signal_features import FEATURE_ORDER

    if tuple(r[0] for r in _FEATURE_RANGES) != tuple(FEATURE_ORDER):
        raise ValueError("generator feature columns no longer match the program's order")
    return FEATURE_ORDER


def write_tables(features_path, mos_path, seed: int, split: str, rows: int):
    """Write one split of the train-eval tables: features CSV and MOS CSV."""
    feature_order = _feature_order()
    rng = np.random.default_rng([seed, 2, 0 if split == "train" else 1])
    X = feature_rows(rng, rows)
    y = mos_for(rng, X)
    ids = [f"{split}{i:05d}" for i in range(rows)]
    with open(features_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("clip_id",) + tuple(feature_order))
        for cid, row in zip(ids, X):
            w.writerow([cid] + [repr(float(v)) for v in row])
    with open(mos_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("clip_id", "mos"))
        for cid, v in zip(ids, y):
            w.writerow([cid, repr(float(v))])
