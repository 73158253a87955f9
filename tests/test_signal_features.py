import math
from fractions import Fraction

import numpy as np
import pytest

import corpus as corpus_mod
import vqakit.signal_features as sf
from conftest import y4m_bytes
from vqakit.clip_io import ClipSpec, Frame, VideoClip, parse_y4m, synth_clip
from vqakit.errors import DimensionMismatch, PlaneTooSmall
from vqakit.regressors import init_branchnet
from vqakit.sampling import SpatialTransform, TemporalPlan, build_view, temporal_sample
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
    read_features_csv,
    sharpness,
    si,
    ssim,
    ti,
    write_features_csv,
)


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


def _planes(rgb):
    return rgb[..., 0], rgb[..., 1], rgb[..., 2]


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

    @pytest.mark.parametrize("ctag", ["C420", "C422", "C444", "C420p10", "C422p10", "C444p10"])
    @pytest.mark.parametrize("transform", [
        SpatialTransform(), SpatialTransform.resize(15, 11),
        SpatialTransform.pad_square_then_resize(13), SpatialTransform.fragment(2, 8),
    ], ids=lambda t: t.kind)
    def test_planes_match_stacked_formula_bits(self, ctag, transform):
        # the view's plane triples give the same bits as the formula on a stack
        w, h = 24, 20
        sx, sy = {"420": (2, 2), "422": (2, 1), "444": (1, 1)}[ctag[1:4]]
        cw, ch = w // sx, h // sy
        maxv, dtype = (1023, "<u2") if ctag.endswith("p10") else (255, np.uint8)
        rng = np.random.default_rng(len(ctag) + sx + sy)
        frames = [tuple(rng.integers(0, maxv + 1, shape).astype(dtype)
                        for shape in ((h, w), (ch, cw), (ch, cw))) for _ in range(3)]
        clip = parse_y4m(y4m_bytes(w, h, frames, ctag=ctag))
        view = build_view(clip, temporal_sample(clip, "all"), transform, seed=4)
        assert len(view.rgb) == 3
        for planes in view.rgb:
            stacked = colorfulness_stacked(np.stack(planes, axis=-1))
            assert colorfulness(*planes).hex() == stacked.hex()


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
        # pair is also its first-frame pair, so k frames make 2k-3 pairs
        rng = np.random.default_rng(k)
        planes = [rng.random((16, 16)) for _ in range(k)]
        calls = {"ti": 0, "ssim": 0, "_ssim_stats": 0, "_ssim_cross": 0}

        def counted(name):
            fn = getattr(sf, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(sf, name, counted(name))
        clip = _clip_from_planes(planes)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        pairs = max(2 * k - 3, 0)
        stats = k if k > 1 else 0
        assert calls == {"ti": pairs, "ssim": 0, "_ssim_stats": stats, "_ssim_cross": pairs}
        if k > 1:
            firsts = [ti(p, planes[0]) for p in planes[1:]]
            assert fv.values["ti_first"] == float(np.mean(firsts))
            firsts = [ssim(p, planes[0]) for p in planes[1:]]
            assert fv.values["ssim_first"] == float(np.mean(firsts))

    def test_parallel_bit_identical(self):
        clip = synth_clip(ClipSpec("t", 8, 48, 64), "noise", seed=3)
        plan = temporal_sample(clip, "all")
        serial = extract_clip_features(clip, plan, threads=1)
        pooled = extract_clip_features(clip, plan, threads=4)
        assert serial.values == pooled.values

    def test_parallel_bit_identical_chroma(self):
        w, h = 40, 36
        rng = np.random.default_rng(12)
        frames = [tuple(rng.integers(0, 256, shape).astype(np.uint8)
                        for shape in ((h, w), (h // 2, w // 2), (h // 2, w // 2)))
                  for _ in range(5)]
        clip = parse_y4m(y4m_bytes(w, h, frames))
        plan = temporal_sample(clip, "all")
        serial = extract_clip_features(clip, plan, threads=1)
        pooled = extract_clip_features(clip, plan, threads=4)
        assert plan.indices == (0, 1, 2, 3, 4) and not serial.flags
        assert {k: v.hex() for k, v in serial.values.items()} == \
            {k: v.hex() for k, v in pooled.values.items()}


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        clip = synth_clip(ClipSpec("t", 3, 16, 16), "noise", seed=4)
        fv = extract_clip_features(clip, temporal_sample(clip, "all"))
        path = tmp_path / "f.csv"
        write_features_csv(path, [("a", fv), ("b", fv)])
        ids, X = read_features_csv(path)
        assert ids == ["a", "b"]
        assert np.array_equal(X[0], np.array(fv.as_row()))

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
        with pytest.raises(ValueError):
            FeatureVector(vals)
