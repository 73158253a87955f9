import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import corpus as corpus_mod
import vqakit._parallel as _parallel
import vqakit.clip_io as clip_io
import vqakit.signal_features as sf
from conftest import y4m_bytes
from vqakit.clip_io import ClipSpec, Frame, VideoClip, frame_rgb, parse_y4m, synth_clip
from vqakit.errors import (DimensionMismatch, DuplicateId, InvalidParameter, NumericalError,
                           PlaneTooSmall)
from vqakit.regressors import init_branchnet
from vqakit.sampling import (
    SampledView,
    SpatialTransform,
    TemporalPlan,
    _pad_to_square,
    _resize_bilinear,
    build_view,
    fragment_sample,
    temporal_sample,
)
from vqakit.signal_features import (
    BRANCH_GROUPS,
    FEATURE_ORDER,
    FLAG_DEGRADED_COLOR,
    FLAG_SINGLE_FRAME,
    FeatureVector,
    avg_luminance,
    colorfulness,
    contrast,
    extract_clip_features,
    extract_view_features,
    read_features_csv,
    sharpness,
    si,
    ssim,
    ti,
    write_features_csv,
)


_LEAF = clip_io._BAND_PIXELS  # the largest leaf of _moments' summation tree


# --- brute-force oracles (pure python loops) -----------------------------------

def sobel_si_oracle(p):
    h, w = p.shape
    mags = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            gx = (p[y-1][x+1] + 2*p[y][x+1] + p[y+1][x+1]) - (p[y-1][x-1] + 2*p[y][x-1] + p[y+1][x-1])
            gy = (p[y+1][x-1] + 2*p[y+1][x] + p[y+1][x+1]) - (p[y-1][x-1] + 2*p[y-1][x] + p[y-1][x+1])
            mags.append(math.sqrt(gx * gx + gy * gy))
    mean = sum(mags) / len(mags)
    return math.sqrt(sum((m - mean) ** 2 for m in mags) / len(mags))


def laplacian_var_oracle(p):
    h, w = p.shape
    resp = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            resp.append(p[y-1][x] + p[y+1][x] + p[y][x-1] + p[y][x+1] - 4 * p[y][x])
    mean = sum(resp) / len(resp)
    return sum((r - mean) ** 2 for r in resp) / len(resp)


def ssim_oracle(a, b, win=8, stride=4):
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = a.shape
    vals = []
    for y in range(0, h - win + 1, stride):
        for x in range(0, w - win + 1, stride):
            wa = a[y : y + win, x : x + win].ravel()
            wb = b[y : y + win, x : x + win].ravel()
            ma, mb = wa.mean(), wb.mean()
            va = ((wa - ma) ** 2).mean()
            vb = ((wb - mb) ** 2).mean()
            cov = ((wa - ma) * (wb - mb)).mean()
            vals.append(((2*ma*mb + c1) * (2*cov + c2)) / ((ma*ma + mb*mb + c1) * (va + vb + c2)))
    return sum(vals) / len(vals)


def si_two_stencil(p):
    """SI from the two full 3x3 Sobel stencils: the reference for bit identity."""
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    )
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (
        p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    )
    return float(np.hypot(gx, gy).std())


def laplacian_expression(p):
    """The 3x3 Laplacian response as one five-term numpy expression."""
    return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * p[1:-1, 1:-1]


def colorfulness_oracle(rgb):
    r, g, b = rgb[..., 0].ravel(), rgb[..., 1].ravel(), rgb[..., 2].ravel()
    rg = r - g
    yb = (r + g) / 2 - b
    s_rg = math.sqrt(((rg - rg.mean()) ** 2).mean())
    s_yb = math.sqrt(((yb - yb.mean()) ** 2).mean())
    return math.sqrt(s_rg**2 + s_yb**2) + 0.3 * math.sqrt(rg.mean()**2 + yb.mean()**2)


class TestSi:
    def test_constant_zero(self):
        assert si(np.full((8, 8), 0.3)) == 0.0

    def test_step_edge_matches_oracle(self):
        p = np.zeros((8, 8))
        p[:, 4:] = 1.0
        assert si(p) == pytest.approx(sobel_si_oracle(p), abs=1e-12)

    def test_transpose_invariant(self):
        rng = np.random.default_rng(2)
        p = rng.random((9, 9))
        assert si(p) == pytest.approx(si(p.T), abs=1e-12)

    def test_too_small(self):
        with pytest.raises(PlaneTooSmall):
            si(np.zeros((2, 5)))

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(3)
        p = rng.random((6, 7))
        assert si(p) == pytest.approx(sobel_si_oracle(p), abs=1e-12)

    def test_two_stencil_formula_bits(self):
        # the separable passes round exactly as the two 3x3 stencils did
        rng = np.random.default_rng(11)
        planes = [f.luma for _ in range(400)
                  for f in corpus_mod.make_clip(rng.random(), rng).frames]
        planes += [rng.random(shape) for shape in ((3, 3), (5, 9), (37, 53), (64, 48))]
        planes.append(np.round(rng.random((1080, 1920)) * 255) / 255)
        for p in planes:
            assert si(p).hex() == si_two_stencil(p).hex()


class TestTi:
    def test_identical_zero(self):
        p = np.random.default_rng(0).random((4, 4))
        assert ti(p, p) == 0.0

    def test_constant_offset_zero(self):
        p = np.random.default_rng(1).random((4, 4))
        assert ti(p + 0.25, p) == pytest.approx(0.0, abs=1e-15)

    def test_random_pair_oracle(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((4, 4)), rng.random((4, 4))
        d = (a - b).ravel()
        mean = sum(d) / 16
        oracle = math.sqrt(sum((x - mean) ** 2 for x in d) / 16)
        assert ti(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ti(np.zeros((4, 4)), np.zeros((4, 5)))

    @pytest.mark.parametrize("shape", [(4, 4), (1, _LEAF + 1), (358, 638), (1078, 1918)],
                             ids=str)
    def test_std_of_difference_bits(self, shape):
        # the difference, formed a leaf at a time twice, keeps numpy's bits;
        # inputs that are not row-major get those of the row-major difference
        rng = np.random.default_rng(shape[0])
        a, b = rng.random(shape), rng.random(shape)
        assert ti(a, b).hex() == float(np.std(a - b)).hex()
        assert ti(a.T, b.T).hex() == float(np.std(np.ascontiguousarray(a.T - b.T))).hex()


def _planes(rgb):
    return rgb[..., 0], rgb[..., 1], rgb[..., 2]


CTAGS = ("C420", "C422", "C444", "C420p10", "C422p10", "C444p10")


def _random_y4m_clip(rng, w, h, ctag, n_frames):
    """A parsed stream of uniform random samples in the ctag's layout and depth."""
    sx, sy = {"420": (2, 2), "422": (2, 1), "444": (1, 1)}[ctag[1:4]]
    chroma = (-(-h // sy), -(-w // sx))
    maxv, dtype = (1023, "<u2") if ctag.endswith("p10") else (255, np.uint8)
    frames = [tuple(rng.integers(0, maxv + 1, shape).astype(dtype)
                    for shape in ((h, w), chroma, chroma)) for _ in range(n_frames)]
    return parse_y4m(y4m_bytes(w, h, frames, ctag=ctag))


def reference_rgb(clip, i, transform, seed):
    """Frame i's view RGB the direct way: frame_rgb on the decoded frame, then
    the transform's full-plane function (fragments with build_view's one draw
    per clip, from the seed alone)."""
    rgb = frame_rgb(clip.frames[i])
    t = transform
    if t.kind == "none":
        return rgb
    if t.kind == "resize":
        return tuple(_resize_bilinear(p, t.width, t.height) for p in rgb)
    if t.kind == "pad_square_then_resize":
        return tuple(_resize_bilinear(_pad_to_square(p), t.size, t.size) for p in rgb)
    return tuple(fragment_sample(p, t.grid, t.patch, np.random.default_rng(seed))
                 for p in rgb)


def colorfulness_stacked(rgb):
    """The Hasler-Suesstrunk formula on an HxWx3 stack, in numpy."""
    r, g, b = _planes(rgb)
    rg = r - g
    yb = 0.5 * (r + g) - b
    return float(np.hypot(rg.std(), yb.std()) + 0.3 * np.hypot(rg.mean(), yb.mean()))


class TestColorfulness:
    def test_gray_zero(self):
        gray = np.full((6, 6, 3), 0.42)
        assert colorfulness(*_planes(gray)) == 0.0

    def test_half_red_half_green_oracle(self):
        rgb = np.zeros((4, 4, 3))
        rgb[:, :2, 0] = 1.0
        rgb[:, 2:, 1] = 1.0
        assert colorfulness(*_planes(rgb)) == pytest.approx(colorfulness_oracle(rgb), abs=1e-12)

    def test_constant_saturated(self):
        rgb = np.zeros((5, 5, 3))
        rgb[..., 0] = 1.0  # pure red: rg=1, yb=0.5, zero variance
        assert colorfulness(*_planes(rgb)) == pytest.approx(0.3 * math.sqrt(1.0 + 0.25),
                                                              abs=1e-12)

    def test_dimension_mismatch(self):
        # planes that would broadcast against each other are still rejected
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatch):
            colorfulness(rng.random((4, 4)), rng.random((1, 4)), rng.random((4, 1)))
        with pytest.raises(DimensionMismatch):
            colorfulness(*(rng.random((4, 4)),) * 2, rng.random((4, 1)))

    @pytest.mark.parametrize("ctag", CTAGS)
    @pytest.mark.parametrize("transform", [
        SpatialTransform(), SpatialTransform.resize(15, 11),
        SpatialTransform.pad_square_then_resize(13), SpatialTransform.fragment(2, 8),
    ], ids=lambda t: t.kind)
    def test_planes_match_stacked_formula_bits(self, ctag, transform):
        # each frame's colorfulness, from the view's (cb, cr) or (r, g, b),
        # has the bits of the formula on a stack of its reference RGB planes,
        # on one thread or four; odd sizes leave a short last colour band
        w = 25
        h = 2 * (clip_io._BAND_PIXELS // w) + 5
        clip = _random_y4m_clip(np.random.default_rng(len(ctag)), w, h, ctag, 3)
        view = build_view(clip, temporal_sample(clip, "all"), transform, seed=4)
        assert len(view.color) == 3
        for i, planes in enumerate(view.color):
            stacked = colorfulness_stacked(np.stack(reference_rgb(clip, i, transform, 4), axis=-1))
            one = SampledView(view.frames[i:i + 1], transform, (planes,), view.scale)
            for threads in (1, 4):
                got = extract_view_features(one, threads=threads).values["colorfulness"]
                assert got.hex() == stacked.hex()
            if not transform.selects_samples:
                assert colorfulness(*planes).hex() == stacked.hex()

    def test_expression_formula_bits(self):
        # the in-place yb rounds exactly as the expression 0.5 * (r + g) - b
        rng = np.random.default_rng(12)
        triples = [frame_rgb(f) for _ in range(400)
                   for f in corpus_mod.make_clip(rng.random(), rng).frames]
        triples += [tuple(rng.random(shape) for _ in range(3)) for shape in ((1, 1), (5, 9))]
        triples.append(tuple(np.round(rng.random((1080, 1920)) * 255) / 255 for _ in range(3)))
        for r, g, b in triples:
            expr = colorfulness_stacked(np.stack((r, g, b), axis=-1))
            assert colorfulness(r, g, b).hex() == expr.hex()


class TestLumaStats:
    def test_constants(self):
        p = np.full((8, 8), 0.5)
        assert avg_luminance(p) == 0.5
        assert sharpness(p) == 0.0
        assert contrast(p) == 0.0

    def test_checkerboard(self):
        yy, xx = np.indices((8, 8))
        p = ((yy + xx) % 2).astype(float)
        assert contrast(p) == pytest.approx(0.5, abs=1e-12)
        assert sharpness(p) == pytest.approx(laplacian_var_oracle(p), abs=1e-12)

    def test_linear_ramp_sharpness_zero(self):
        yy, xx = np.indices((10, 10))
        p = (2.0 * xx + 3.0 * yy) / 50.0
        assert sharpness(p) == pytest.approx(0.0, abs=1e-20)

    def test_sharpness_expression_formula_bits(self):
        # the in-place Laplacian rounds exactly as the five-term expression
        rng = np.random.default_rng(13)
        planes = [f.luma for _ in range(400)
                  for f in corpus_mod.make_clip(rng.random(), rng).frames]
        planes += [rng.random(shape) for shape in ((3, 3), (5, 9), (37, 53))]
        planes.append(np.round(rng.random((1080, 1920)) * 255) / 255)
        for p in planes:
            assert sharpness(p).hex() == float(laplacian_expression(p).var()).hex()

    @pytest.mark.parametrize("h,w", [
        (3, 40),  # one interior row: one band of one row
        (2 * (clip_io._BAND_PIXELS // 64) + 3, 64),  # a last band of one row
        (6, clip_io._BAND_PIXELS + 5),  # wider than a band: one row per band
    ], ids=["one-row", "last-band-one-row", "wide"])
    def test_band_edges_formula_bits(self, h, w):
        # si and sharpness walk their interior rows in bands; at the edges of
        # that walk they keep the bits of the whole-plane expressions, with
        # fresh planes and with a pool's scratch
        last = clip_io.row_bands((h - 2, w))[-1]
        assert (last.start, last.stop) == (h - 3, h - 2)
        p = np.round(np.random.default_rng(h).random((h, w)) * 255) / 255
        want = [si_two_stencil(p).hex(), float(laplacian_expression(p).var()).hex()]
        assert [si(p).hex(), sharpness(p).hex()] == want
        for threads in (1, 2):
            got = _parallel.parallel_map(lambda kernel: kernel(p).hex(), [si, sharpness], threads)
            assert got == want


class TestMoments:
    # _moments replays numpy's pairwise summation tree in leaves of at most
    # _LEAF values: at a leaf's size and at 8 past two leaves the tree splits
    # differently, and below 8 and at 128 numpy sums a node differently
    @pytest.mark.parametrize("shape", [
        (1, 1), (1, 7), (1, 8), (1, 9), (1, 127), (1, 128), (1, 129),
        (1, _LEAF - 1), (1, _LEAF), (1, _LEAF + 1), (1, 2 * _LEAF + 8),
        (358, 638), (1078, 1918),
    ], ids=str)
    def test_numpy_bits(self, shape):
        rng = np.random.default_rng(shape[1])
        values = {
            "random": rng.random(shape),
            "constant": np.full(shape, 0.37),
            "signed zeros": np.where(rng.random(shape) < 0.5, -0.0, 0.0),
            "1e300": rng.standard_normal(shape) * 1e300,
            "1e-300": rng.standard_normal(shape) * 1e-300,
        }
        with np.errstate(over="ignore"):  # squares of 1e300 overflow, in numpy too
            for kind, x in values.items():
                want = (float(x.mean()).hex(), float(x.var()).hex())
                assert tuple(v.hex() for v in sf._moments(x)) == want, kind

    @pytest.mark.parametrize("layout", ["transposed", "float32"])
    def test_other_input_keeps_numpy_steps(self, monkeypatch, layout):
        # an input that is not row-major float64 takes numpy's steps for var
        # over the whole plane, with the deviations written row-major
        x = np.random.default_rng(3).random((640, 357))
        x = x.T if layout == "transposed" else x.astype(np.float32)
        n = x.size
        mean = np.add.reduce(x, axis=None, keepdims=True) / n
        dev = np.square(np.subtract(x, mean, out=np.empty(x.shape)))
        want = (mean.item().hex(), float(np.add.reduce(dev, axis=None) / n).hex())
        monkeypatch.setattr(sf, "_leaf_moments", None)
        assert tuple(v.hex() for v in sf._moments(x)) == want
        assert contrast(x) == math.sqrt(float.fromhex(want[1]))


class TestSsim:
    def test_identical_is_one(self):
        p = np.random.default_rng(0).random((16, 16))
        assert ssim(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_vs_constant_mean_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.random((12, 16))
        b = np.full_like(a, a.mean())
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-9)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        a, b = rng.random((12, 12)), rng.random((12, 12))
        assert ssim(a, b) == ssim(b, a)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(8)
        a, b = rng.random((20, 24)), rng.random((20, 24))
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-9)

    @pytest.mark.parametrize("shape", [(8, 8), (13, 16), (15, 20), (16, 18), (12, 23), (37, 53)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_block_sums_match_oracle(self, shape):
        # window grids that leave rows, columns or both of the plane unused
        rng = np.random.default_rng(shape[0] * shape[1])
        a, b = rng.random(shape), rng.random(shape)
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-9)
        assert ssim(a, 0.5 * a + 0.25) == pytest.approx(ssim_oracle(a, 0.5 * a + 0.25), abs=1e-9)

    @pytest.mark.parametrize("va, vb", [(0.3, 0.3), (0.0, 1.0), (0.8, 0.2)])
    def test_constant_planes_match_oracle(self, va, vb):
        a, b = np.full((13, 18), va), np.full((13, 18), vb)
        assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-9)
        noise = np.random.default_rng(1).random((13, 18))
        assert ssim(a, noise) == pytest.approx(ssim_oracle(a, noise), abs=1e-9)

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            ssim(np.zeros((8, 8)), np.zeros((8, 9)))
        with pytest.raises(PlaneTooSmall):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(8, 8), (15, 21), (137, 1930), (301, 640)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("scale", [1.0, 255.0, 1023.0])
    def test_pair_is_ti_and_cross_sums(self, shape, scale):
        # one read of each plane gives the bits of both kernels: at sizes
        # whose bands, leaves and whole blocks end on different rows
        rng = np.random.default_rng(shape[0] + int(scale))
        if scale == 1.0:
            a, b = rng.random(shape), rng.random(shape)
        else:
            dtype = np.uint8 if scale == 255 else np.dtype("<u2")
            a, b = (rng.integers(0, scale + 1, shape).astype(dtype) for _ in range(2))
        t, sums = sf._pair(a, b, scale)
        assert t.hex() == ti(a, b, scale).hex()
        assert sums.tobytes() == sf._ssim_cross_sums(a, b, scale).tobytes()
        with pytest.raises(DimensionMismatch):
            sf._pair(a, b[:-1], scale)
        with pytest.raises(PlaneTooSmall):
            sf._pair(a[:7], b[:7], scale)


def _clip_from_planes(planes, chroma=None):
    frames = []
    for i, p in enumerate(planes):
        if chroma is not None:
            frames.append(Frame(p, chroma[i][0], chroma[i][1]))
        else:
            frames.append(Frame(p))
    h, w = planes[0].shape
    return VideoClip(w, h, Fraction(30), tuple(frames))


class TestExtraction:
    def test_identical_frames(self):
        p = np.random.default_rng(1).random((16, 16))
        clip = _clip_from_planes([p] * 5)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        assert fv.values["ti"] == 0.0
        assert fv.values["ssim_pair"] == pytest.approx(1.0, abs=1e-12)
        assert fv.values["si"] == pytest.approx(si(p), abs=0)
        assert fv.values["contrast"] == pytest.approx(contrast(p), abs=0)

    def test_alternating_checkerboards_ti(self):
        yy, xx = np.indices((16, 16))
        a = ((yy + xx) % 2).astype(float)
        b = 1.0 - a
        clip = _clip_from_planes([a, b])
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        # difference plane is an equal-count +/-1 checkerboard -> stddev 1
        d = (b - a).ravel()
        oracle = math.sqrt(((d - d.mean()) ** 2).mean())
        assert fv.values["ti"] == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(1.0, abs=1e-12)

    def test_singleton_plan_flag(self):
        p = np.random.default_rng(2).random((16, 16))
        clip = _clip_from_planes([p, p, p])
        fv = extract_clip_features(clip, TemporalPlan("one_per_30", (0,)))
        assert FLAG_SINGLE_FRAME in fv.flags
        for k in ("ti", "ti_first", "ssim_pair", "ssim_first"):
            assert fv.values[k] == 0.0

    def test_grayscale_degraded_colorfulness(self):
        clip = synth_clip(ClipSpec("t", 3, 16, 16), "noise", seed=1)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        assert fv.values["colorfulness"] == 0.0
        assert FLAG_DEGRADED_COLOR in fv.flags

    def test_mirror_invariance(self):
        # window grids stay symmetric when (side - 8) % 4 == 0
        rng = np.random.default_rng(5)
        planes = [rng.random((24, 32)) for _ in range(3)]
        chroma = [(rng.random((24, 32)), rng.random((24, 32))) for _ in range(3)]
        clip = _clip_from_planes(planes, chroma)
        mirrored = _clip_from_planes(
            [p[:, ::-1] for p in planes], [(c[0][:, ::-1], c[1][:, ::-1]) for c in chroma]
        )
        plan = temporal_sample(clip, "all")
        a = extract_clip_features(clip, plan)
        b = extract_clip_features(mirrored, plan)
        for k in FEATURE_ORDER:
            assert a.values[k] == pytest.approx(b.values[k], abs=1e-12), k

    def test_k_identical_frames_equal_single_value(self):
        p = np.random.default_rng(9).random((16, 16))
        clip1 = _clip_from_planes([p])
        clip5 = _clip_from_planes([p] * 5)
        f1 = extract_clip_features(clip1, temporal_sample(clip1, "all"))
        f5 = extract_clip_features(clip5, temporal_sample(clip5, "all"))
        for k in ("si", "avg_luminance", "sharpness", "contrast"):
            assert f5.values[k] == f1.values[k]

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_each_pair_computed_once(self, monkeypatch, k):
        # each frame's SSIM statistics are made once; frame 1's consecutive
        # pair is also its first-frame pair, so k frames make 2k-3 pairs, each
        # adding ti and the window sums of its product plane in one _pair call
        rng = np.random.default_rng(k)
        planes = [rng.random((16, 16)) for _ in range(k)]
        calls = {"_pair": 0, "ti": 0, "ssim": 0, "_ssim_stats": 0, "_ssim_cross_sums": 0}

        def counted(name):
            fn = getattr(sf, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sf, name, counted(name))
        clip = _clip_from_planes(planes)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        pairs = max(2 * k - 3, 0)
        stats = k if k > 1 else 0
        assert calls == {"_pair": pairs, "ti": 0, "ssim": 0, "_ssim_stats": stats,
                         "_ssim_cross_sums": 0}
        if k > 1:
            firsts = [ti(p, planes[0]) for p in planes[1:]]
            assert fv.values["ti_first"] == float(np.mean(firsts))
            firsts = [ssim(p, planes[0]) for p in planes[1:]]
            assert fv.values["ssim_first"] == float(np.mean(firsts))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_window_arrays_do_not_grow_with_the_view(self, threads):
        # a frame's SSIM statistics live until its last pair is combined, and
        # a pair's cross sums until both its frames' statistics are there, so
        # the traced peak beyond the warm scratch sets of a 90-frame view is
        # that of a 30-frame view plus at most one frame's window arrays (its
        # means and variances and its two pairs' cross sums), and nothing is
        # held once the call returns. Measured 0.2-1.4 window arrays more,
        # against 240 when every frame's were kept until the pool returned.
        h, w = 360, 640
        window = (h // 4 - 1) * (w // 4 - 1) * 8
        rng = np.random.default_rng(13)
        planes = [rng.integers(0, 256, (h, w), np.uint8) for _ in range(3)]
        views = {k: SampledView(tuple(planes[i % 3] for i in range(k)), SpatialTransform(),
                                scale=255)
                 for k in (30, 90)}
        _parallel._drop_pools()
        extract_view_features(views[30], threads=2)  # every scratch set at its size
        peaks = {}
        for k, view in views.items():
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                extract_view_features(view, threads=threads)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks[k] = peak - base
            assert held - base < window, (k, held - base)
        assert peaks[90] <= peaks[30] + 4 * window, (peaks, window)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_view_keeps_no_window_arrays(self, monkeypatch, threads):
        # a 4x4 clip fails in every frame's SSIM statistics and every pair
        rng = np.random.default_rng(14)
        clip = _clip_from_planes([rng.random((4, 4)) for _ in range(3)])
        with pytest.raises(PlaneTooSmall, match="ssim needs at least 8x8, got 4x4"):
            extract_clip_features(clip, temporal_sample(clip, "all"), threads=threads)
        # when frame 2's statistics fail, frames 0 and 1 keep theirs for
        # pairs that are never combined, and a pool, which runs every task,
        # parks the cross sums of pairs (2, 1) and (2, 0): the failed call
        # frees them all, even while its traceback is kept
        planes = [rng.random((16, 16)) for _ in range(3)]
        arrays, stats_kernel, pair_kernel = [], sf._ssim_stats, sf._pair

        def stats(plane, scale):
            if plane is planes[2]:
                raise NumericalError("frame 2")
            out = stats_kernel(plane, scale)
            arrays.extend(map(weakref.ref, out))
            return out

        def pair(plane_a, plane_b, scale):
            t, sums = pair_kernel(plane_a, plane_b, scale)
            arrays.append(weakref.ref(sums))
            return t, sums

        monkeypatch.setattr(sf, "_ssim_stats", stats)
        monkeypatch.setattr(sf, "_pair", pair)
        with pytest.raises(NumericalError, match="frame 2") as failed:
            extract_view_features(SampledView(tuple(planes), SpatialTransform()), threads)
        # two frames' statistics and one pair's cross sums, or all three pairs'
        assert len(arrays) == {1: 5, 2: 7}[threads]
        assert all(ref() is None for ref in arrays), failed

    def test_each_pair_combined_once_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: each of the
        # 29 pairs of a 16-frame view is combined once, by whichever task
        # supplies its last input, with serial's bits
        rng = np.random.default_rng(15)
        view = SampledView(tuple(rng.random((16, 24)) for _ in range(16)), SpatialTransform())
        serial = extract_view_features(view, threads=1)
        combine, combined = sf._ssim_combine, []

        def counted(*args):
            combined.append(threading.get_ident())
            return combine(*args)

        monkeypatch.setattr(sf, "_ssim_combine", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                combined.clear()
                assert extract_view_features(view, threads=8).values == serial.values
                assert len(combined) == 29
        finally:
            sys.setswitchinterval(interval)

    def test_parallel_bit_identical(self):
        clip = synth_clip(ClipSpec("t", 8, 48, 64), "noise", seed=3)
        plan = temporal_sample(clip, "all")
        serial = extract_clip_features(clip, plan, threads=1)
        pooled = extract_clip_features(clip, plan, threads=4)
        assert serial.values == pooled.values

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("transform", [
        SpatialTransform(), SpatialTransform.resize(26, 22),
        SpatialTransform.pad_square_then_resize(28), SpatialTransform.fragment(2, 16),
    ], ids=lambda t: t.kind)
    def test_parallel_bit_identical_chroma(self, transform, k):
        # every view plane is row-major, samples or float64, so the bands
        # read from it and the scratch planes reduce in the order numpy's own
        # temporaries do on the float64 plane, on one thread or on more
        # threads than cores; in every chroma layout and depth, at an odd
        # size whose last colour band is short
        w = 41
        h = 2 * (clip_io._BAND_PIXELS // w) + 3
        rng = np.random.default_rng(12)
        for ctag in CTAGS:
            clip = _random_y4m_clip(rng, w, h, ctag, k)
            plan = temporal_sample(clip, "all")
            serial = extract_clip_features(clip, plan, transform, seed=5, threads=1)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                pooled = extract_clip_features(clip, plan, transform, seed=5, threads=4)
            finally:
                sys.setswitchinterval(interval)
            assert plan.indices == tuple(range(k))
            assert serial.flags == ({FLAG_SINGLE_FRAME} if k == 1 else set())
            hexes = {name: v.hex() for name, v in serial.values.items()}
            assert hexes == {name: v.hex() for name, v in pooled.values.items()}, ctag

            # the same bits as numpy's own expressions on the view's luma planes
            # and on the reference RGB planes
            view = build_view(clip, plan, transform, seed=5)
            samples = np.uint8 if view.scale == 255 else np.dtype("<u2")
            assert view.scale == (clip.frames[0].scale if transform.selects_samples else 1.0)
            for p in view.frames + tuple(c for planes in view.color for c in planes):
                assert p.dtype == (samples if transform.selects_samples else np.float64)
                assert p.flags.c_contiguous
            lumas = tuple(p / view.scale for p in view.frames)
            rgbs = [reference_rgb(clip, i, transform, 5) for i in range(k)]
            ref = {
                "si": [si_two_stencil(p) for p in lumas],
                "colorfulness": [colorfulness_stacked(np.stack(c, axis=-1)) for c in rgbs],
                "avg_luminance": [float(p.mean()) for p in lumas],
                "sharpness": [float(laplacian_expression(p).var()) for p in lumas],
                "contrast": [float(p.std()) for p in lumas],
            }
            if k > 1:
                ref["ti"] = [float((a - b).std()) for a, b in zip(lumas[1:], lumas)]
                ref["ti_first"] = [float((a - lumas[0]).std()) for a in lumas[1:]]
                ref["ssim_pair"] = [ssim(a, b) for a, b in zip(lumas[1:], lumas)]
            for name, vals in ref.items():
                assert hexes[name] == float(np.mean(vals)).hex(), (ctag, name)

    def test_pool_scratch_held_and_bounded(self):
        # scratch sets outlive the calls whose tasks held them: after views of
        # two sizes at threads=2, each of the two sets holds at most two planes
        # of the largest luma size and the band buffer, which a band of SI's
        # strips at width 768 grows past 2 MiB by 14 kB; a serial call then
        # keeps reusing one of those two sets, and _drop_pools frees them all
        _parallel._drop_pools()
        rng = np.random.default_rng(6)
        for h, w in ((512, 768), (768, 400)):
            lumas = tuple(rng.random((h, w)) for _ in range(3))
            chroma = tuple(tuple(rng.random((h // 2, w // 2)) for _ in range(2)) for _ in lumas)
            extract_view_features(SampledView(lumas, SpatialTransform(), chroma), threads=2)
        largest = 512 * 768 * 8
        held = _held_sets(2)
        assert held[0] is not held[1]
        for buffers in held:
            assert sum(b.nbytes for b in buffers.values()) <= 2 * largest + 2 ** 21 + 2 ** 14
        serial = _parallel.parallel_map(lambda _: _parallel._local.buffers, range(3), 1)
        assert serial[0] is serial[1] is serial[2]
        assert any(serial[0] is buffers for buffers in held)
        assert len(_parallel._idle) == 2
        refs = [weakref.ref(b) for buffers in held for b in buffers.values()]
        assert len(refs) >= 3
        del held, serial, buffers
        _parallel._drop_pools()  # frees every idle set
        assert all(ref() is None for ref in refs)
        assert _parallel._idle == []

    @pytest.mark.parametrize("threads", [2, 4])
    def test_running_tasks_never_share_a_set(self, threads):
        # tasks held at a barrier run at once, and each holds its own set,
        # told apart by identity: sets that no kernel used are equal empty
        # dicts. A process holds no more sets than tasks ever ran at once,
        # whatever mix of pools and serial calls drew on them.
        _parallel._drop_pools()
        seen = {}
        for t in (threads, 1, 3, threads, 1, 2, 3, threads):
            sets = _held_sets(t)
            assert len({id(s) for s in sets}) == t
            seen.update((id(s), s) for s in sets)
        assert len(seen) == max(threads, 3)
        assert len(_parallel._idle) == len(seen)

    def test_no_set_held_twice_under_contention(self):
        # more workers than cores, a short switch interval, and serial calls
        # from a second caller thread beside the pooled ones: no set is ever
        # held by two running tasks, and no more sets are made than tasks
        # could run at once (8 pooled and 1 serial)
        _parallel._drop_pools()
        held, lock, clashes = set(), threading.Lock(), []

        def task(_):
            key = id(_parallel._local.buffers)
            with lock:
                clashes.extend([key] if key in held else [])
                held.add(key)
            _parallel.scratch(0, (64,))[:] = 1.0
            with lock:
                held.discard(key)

        def serial_calls():
            for _ in range(20):
                _parallel.parallel_map(task, range(50), 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=serial_calls)
            caller.start()
            for threads in (8, 3, 8):
                for _ in range(10):
                    _parallel.parallel_map(task, range(64), threads)
            caller.join(timeout=60)
            assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert clashes == []
        assert len(_parallel._idle) <= 9
        _parallel._drop_pools()

    def test_scratch_set_kept_from_call_to_call(self):
        # a thread's tasks take back the set it held last, so a serial
        # call's buffer is the previous serial call's, and each pool worker
        # reuses its own; outside a task every scratch array is fresh
        def base(_):
            return _parallel.scratch(0, (8,)).base

        bases = [b for _ in range(2) for b in _parallel.parallel_map(base, range(3), 1)]
        assert all(b is bases[0] for b in bases)
        assert _parallel.scratch(0, (8,)).base is None
        barrier = threading.Barrier(2, timeout=30)

        def held(_):
            barrier.wait()  # one task on each worker
            return base(_)

        first = _parallel.parallel_map(held, range(2), 2)
        second = _parallel.parallel_map(held, range(2), 2)
        assert len({id(b) for b in first}) == 2
        assert {id(b) for b in second} == {id(b) for b in first}
        assert _parallel.scratch(0, (8,)).base is None

    @pytest.mark.parametrize("side", [256, 768])
    def test_allocations_bounded_by_scratch_slots(self, side):
        # Under MALLOC_MMAP_THRESHOLD_ every plane-sized temporary is a fresh
        # mapping that faults its pages in. Scratch sets are kept from one
        # call to the next, serial or pooled, so a repeat extraction of a
        # 5-frame 4:2:0 YCbCr view (25 kernel calls) faults in only the SSIM
        # window arrays: measured 0 planes at side 256 and 1.25 at 768, where
        # they are over the mmap threshold, at threads 1, and 0.7-0.9 and 1.25
        # at threads 2. A set made for each call faults in about 6-7.4 planes
        # at 256 and 3 at 768, and temporaries mapped by every kernel call
        # about 100.
        code = textwrap.dedent(f"""
            import resource
            import numpy as np
            from vqakit.sampling import SampledView, SpatialTransform
            from vqakit.signal_features import extract_view_features

            rng = np.random.default_rng(0)
            side = {side}
            lumas = tuple(rng.random((side, side)) for _ in range(5))
            chroma = tuple(tuple(rng.random((side // 2, side // 2)) for _ in range(2))
                           for _ in lumas)
            view = SampledView(lumas, SpatialTransform(), chroma)
            for threads in (1, 2):
                extract_view_features(view, threads=threads)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for _ in range(4):
                    extract_view_features(view, threads=threads)
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                print(faults / 4 / (side * side * 8 / resource.getpagesize()))
        """)
        env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072",
               "PYTHONPATH": str(Path(sf.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        serial, pooled = map(float, done.stdout.split())
        assert serial < 2, serial
        assert pooled < 2, pooled


def _held_sets(threads):
    """The scratch set of each of ``threads`` tasks that run at once."""
    barrier = threading.Barrier(threads, timeout=30)

    def held(_):
        barrier.wait()  # one task on each worker
        return _parallel._local.buffers

    return _parallel.parallel_map(held, range(threads), threads)


def _small_view():
    rng = np.random.default_rng(8)
    lumas = tuple(rng.random((48, 64)) for _ in range(3))
    chroma = tuple(tuple(rng.random((24, 32)) for _ in range(2)) for _ in lumas)
    return SampledView(lumas, SpatialTransform(), chroma)


class TestPool:
    def test_second_threaded_extraction_starts_no_thread(self, monkeypatch):
        view = _small_view()
        want = extract_view_features(view, threads=2)
        _held_sets(2)  # every worker of the pool has started
        started = []
        orig = threading.Thread.start

        def spy(self):
            started.append(self.name)
            return orig(self)

        monkeypatch.setattr(threading.Thread, "start", spy)
        assert extract_view_features(view, threads=2).values == want.values
        assert started == []

    def test_error_is_the_first_in_item_order(self):
        # item 5 fails first in time, while item 3 waits for it; the call
        # still raises item 3's error, and item 4, which a worker had
        # taken, has ended when it does
        failed, ended = threading.Event(), []

        def task(i):
            if i == 3:
                assert failed.wait(timeout=30)
                raise NumericalError("item 3")
            if i == 5:
                failed.set()
                raise NumericalError("item 5")
            ended.append(i)
            return i

        with pytest.raises(NumericalError, match="item 3"):
            _parallel.parallel_map(task, range(8), 2)
        assert {0, 1, 2, 4} <= set(ended)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nested_call_raises(self, threads):
        # a task that waited on the pool running it could deadlock it
        def outer(_):
            return _parallel.parallel_map(abs, [1, -2], 2)

        with pytest.raises(RuntimeError, match="inside a parallel_map task"):
            _parallel.parallel_map(outer, range(2), threads)
        assert _parallel.parallel_map(abs, [1, -2], threads) == [1, 2]

    @pytest.mark.parametrize("threads", [0, -3, 2.0, True])
    def test_threads_is_a_count_or_none(self, threads):
        # the library refuses what the CLI refuses; None is serial
        calls = []
        with pytest.raises(InvalidParameter, match="^threads="):
            _parallel.parallel_map(calls.append, [1, 2], threads)
        assert calls == []
        assert _parallel.parallel_map(abs, [1, -2], None) == [1, 2]

    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_extracts_with_threads(self):
        # the child inherits the parent's pool but not its threads
        view = _small_view()
        want = extract_view_features(view, threads=2)

        def child():
            if extract_view_features(view, threads=2).values != want.values:
                raise SystemExit(3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
        assert proc.exitcode == 0


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        clip = synth_clip(ClipSpec("t", 3, 16, 16), "noise", seed=4)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        path = tmp_path / "f.csv"
        write_features_csv(path, [("a", fv), ("b", fv)])
        ids, X = read_features_csv(path)
        assert ids == ["a", "b"]
        assert np.array_equal(X[0], np.array(fv.as_row()))

    def test_repeated_clip_id_rejected(self, tmp_path):
        clip = synth_clip(ClipSpec("t", 3, 16, 16), "noise", seed=4)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        path = tmp_path / "f.csv"
        write_features_csv(path, [("a", fv), ("b", fv), ("a", fv)])
        with pytest.raises(DuplicateId) as info:
            read_features_csv(path)
        assert str(info.value) == f"{path}: row 4 repeats clip id 'a' of row 2"

    def test_branch_groups_cover_known_features(self):
        for feats in BRANCH_GROUPS.values():
            assert set(feats) <= set(FEATURE_ORDER)

    def test_branch_inputs_shapes(self):
        # the net routes a feature row into one input per branch group
        fv = FeatureVector({k: 0.1 for k in FEATURE_ORDER})
        inputs = init_branchnet().route(np.array([fv.as_row()]))
        assert inputs["technical"].shape == (1, 4)
        assert inputs["semantic"].shape == (1, 3)

    def test_nonfinite_rejected(self):
        vals = {k: 0.0 for k in FEATURE_ORDER}
        vals["si"] = float("nan")
        with pytest.raises(NumericalError):
            FeatureVector(vals)
