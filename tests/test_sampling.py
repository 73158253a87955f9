import math
import tracemalloc

import numpy as np
import pytest

from conftest import y4m_bytes
from vqakit import clip_io
from vqakit.clip_io import ClipSpec, Frame, VideoClip, parse_y4m, synth_clip
from vqakit.errors import DimensionMismatch, InsufficientFrames, SourceTooSmall
from vqakit.sampling import (
    SpatialTransform,
    build_view,
    fragment_sample,
    frankenstone_subset,
    pad_to_square,
    plan_indices,
    resize_bilinear,
    temporal_sample,
)


def subset_oracle(m, t):
    """Direct evaluation of the end-weighted subset formula."""
    raw = [min(math.floor(m * (1 - ((t - j) / t) ** 1.5) + 0.5), m - 1) for j in range(t)]
    for j in range(1, t):
        if raw[j] <= raw[j - 1]:
            raw[j] = raw[j - 1] + 1
    raw[t - 1] = min(raw[t - 1], m - 1)
    for j in range(t - 2, -1, -1):
        raw[j] = min(raw[j], raw[j + 1] - 1)
    return tuple(raw)


class TestTemporalPlans:
    def test_one_per_30(self):
        clip = synth_clip(ClipSpec("t", 60, 8, 8), "constant")
        assert temporal_sample(clip, "one_per_30").indices == (0, 30)

    def test_two_per_30(self):
        assert plan_indices(60, 30, "two_per_30") == (0, 15, 30, 45)

    def test_one_fps_single_second(self):
        clip = synth_clip(ClipSpec("t", 30, 8, 8), "constant")  # 30 frames @30fps
        assert temporal_sample(clip, "one_fps").indices == (0,)

    def test_one_fps_rational(self):
        # 30000/1001 fps: second k starts at ceil(k*30000/1001)
        assert plan_indices(90, "30000/1001", "one_fps") == (0, 30, 60)

    def test_five_fps(self):
        assert plan_indices(30, 30, "five_fps") == (0, 6, 12, 18, 24)
        assert plan_indices(60, 30, "five_fps") == (0, 6, 12, 18, 24, 30, 36, 42, 48, 54)

    def test_all(self):
        assert plan_indices(4, 30, "all") == (0, 1, 2, 3)

    def test_frankenstone_reduce_mode(self):
        # a 20 s 30 fps video: 20 one-per-second frames reduced to 5
        idx = plan_indices(600, 30, "frankenstone_reduce")
        assert idx == (0, 180, 330, 450, 540)  # seconds [0, 6, 11, 15, 18]
        # short clip: fewer seconds than the target keeps them all
        assert plan_indices(30, 30, "frankenstone_reduce") == (0,)

    def test_counts_and_purity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            fps = int(rng.integers(1, 61))
            for mode in ("one_per_30", "two_per_30", "one_fps", "five_fps", "all",
                         "frankenstone_reduce"):
                a = plan_indices(n, fps, mode)
                b = plan_indices(n, fps, mode)
                assert a == b
                assert all(0 <= i < n for i in a)
                assert list(a) == sorted(set(a))
                if mode == "one_per_30":
                    assert len(a) == -(-n // 30)
                if mode == "two_per_30":
                    assert len(a) <= min(2 * -(-n // 30), n)
                    if n % 30 == 0:
                        assert len(a) == 2 * (n // 30)


class TestFrankenstoneSubset:
    def test_twenty_to_five(self):
        assert frankenstone_subset(20, 5) == (0, 6, 11, 15, 18)

    def test_identity_when_equal(self):
        assert frankenstone_subset(5, 5) == (0, 1, 2, 3, 4)

    def test_matches_formula_oracle(self):
        assert frankenstone_subset(10, 5) == subset_oracle(10, 5)
        for m in (5, 7, 20, 33, 100, 599):
            for t in (1, 2, 5):
                assert frankenstone_subset(m, t) == subset_oracle(m, t)

    def test_gaps_non_increasing(self):
        for m in range(5, 601):
            idx = frankenstone_subset(m, 5)
            gaps = [b - a for a, b in zip(idx, idx[1:])]
            assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:])), (m, idx)

    def test_insufficient(self):
        with pytest.raises(InsufficientFrames):
            frankenstone_subset(4, 5)


class TestResize:
    def test_constant_preserved(self):
        out = resize_bilinear(np.full((64, 64), 0.25), 224, 224)
        assert out.shape == (224, 224)
        assert np.allclose(out, 0.25, atol=0, rtol=0)

    def test_half_pixel_weights_2_to_4(self):
        # src centers at (x+0.5)/2 - 0.5 -> [-0.25, 0.25, 0.75, 1.25], clamped
        out = resize_bilinear(np.array([[0.0, 1.0]]), 4, 1)
        assert np.allclose(out, [[0.0, 0.25, 0.75, 1.0]], atol=1e-15)

    def test_identity(self):
        rng = np.random.default_rng(0)
        p = rng.random((5, 7))
        assert np.array_equal(resize_bilinear(p, 7, 5), p)

    def test_bounds_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = rng.integers(1, 40, size=2)
            p = rng.random((h, w))
            out = resize_bilinear(p, int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            assert out.min() >= p.min() - 1e-12
            assert out.max() <= p.max() + 1e-12


class TestPadToSquare:
    def test_fhd_bands(self):
        out = pad_to_square(np.ones((1080, 1920)))
        assert out.shape == (1920, 1920)
        assert np.all(out[:420] == 0) and np.all(out[-420:] == 0)
        assert np.all(out[420:1500] == 1)

    def test_square_unchanged(self):
        p = np.arange(9, dtype=float).reshape(3, 3)
        assert np.array_equal(pad_to_square(p), p)

    def test_3x1_centered(self):
        out = pad_to_square(np.array([[0.1, 0.2, 0.3]]))
        expect = np.zeros((3, 3))
        expect[1] = [0.1, 0.2, 0.3]
        assert np.array_equal(out, expect)

    def test_fill_value(self):
        out = pad_to_square(np.zeros((1, 3)), fill=0.7)
        assert out[0, 0] == 0.7


def region_constant_plane(h, w, grid=7):
    """Plane where region (i,j) is filled with value (grid*i+j)/grid^2."""
    plane = np.empty((h, w))
    bh, bw = h // grid, w // grid
    for i in range(grid):
        for j in range(grid):
            y1 = (i + 1) * bh if i < grid - 1 else h
            x1 = (j + 1) * bw if j < grid - 1 else w
            plane[i * bh : y1, j * bw : x1] = (grid * i + j) / grid**2
    return plane


class TestFragment:
    def test_fhd_shape(self):
        rng = np.random.default_rng(0)
        out = fragment_sample(rng.random((1080, 1920)), rng=3)
        assert out.shape == (224, 224)

    def test_degenerate_identity(self):
        rng = np.random.default_rng(0)
        p = rng.random((224, 224))
        assert np.array_equal(fragment_sample(p, rng=9), p)

    def test_region_to_cell_mapping(self):
        p = region_constant_plane(360, 640)
        out = fragment_sample(p, rng=42)
        for i in range(7):
            for j in range(7):
                cell = out[i * 32 : (i + 1) * 32, j * 32 : (j + 1) * 32]
                assert np.all(cell == (7 * i + j) / 49), (i, j)

    def test_too_small(self):
        with pytest.raises(SourceTooSmall):
            fragment_sample(np.zeros((100, 300)))

    def test_seed_determinism(self):
        rng = np.random.default_rng(8)
        p = rng.random((300, 500))
        assert np.array_equal(fragment_sample(p, rng=5), fragment_sample(p, rng=5))
        assert not np.array_equal(fragment_sample(p, rng=5), fragment_sample(p, rng=6))


class TestBuildView:
    def test_threaded_equals_serial(self):
        clip = synth_clip(ClipSpec("t", 6, 240, 320), "noise", seed=2)
        plan = temporal_sample(clip, "all")
        tr = SpatialTransform.fragment()
        serial = build_view(clip, plan, tr, seed=77, threads=1)
        pooled = build_view(clip, plan, tr, seed=77, threads=4)
        for a, b in zip(serial.frames, pooled.frames):
            assert np.array_equal(a, b)

    def test_view_alignment(self):
        clip = synth_clip(ClipSpec("t", 4, 16, 16), "constant")
        view = build_view(clip, temporal_sample(clip, "two_per_30"))
        assert len(view.frames) == len(view.origin_indices)

    def test_resize_transform(self):
        clip = synth_clip(ClipSpec("t", 2, 64, 48), "constant", value=0.5)
        view = build_view(clip, temporal_sample(clip, "all"), SpatialTransform.resize(32, 32))
        assert view.frames[0].shape == (32, 32)
        assert np.allclose(view.frames[0], 0.5)

    def test_pad_square_then_resize(self):
        clip = synth_clip(ClipSpec("t", 1, 64, 32), "constant", value=1.0)
        view = build_view(clip, temporal_sample(clip, "all"),
                          SpatialTransform.pad_square_then_resize(448))
        assert view.frames[0].shape == (448, 448)

    def test_mixed_chroma_rejected(self):
        luma = np.zeros((8, 8))
        clip = VideoClip(8, 8, 30, (Frame(luma, luma[::2, ::2], luma[::2, ::2]), Frame(luma)))
        with pytest.raises(DimensionMismatch, match="sampled frame 1 lacks chroma"):
            build_view(clip, temporal_sample(clip, "all"))


def _noise_y4m(n_frames, w, h):
    rng = np.random.default_rng(3)
    frames = [(rng.integers(0, 256, (h, w), dtype=np.uint8),
               rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
               rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))
              for _ in range(n_frames)]
    return y4m_bytes(w, h, frames)


class TestSampledDecode:
    """A parsed 90-frame clip with a 3-frame plan decodes those 3 frames only."""

    def test_only_sampled_planes_read(self, monkeypatch):
        reads = []
        read_plane = clip_io._read_plane

        def counting(*args):
            reads.append(args)
            return read_plane(*args)

        monkeypatch.setattr(clip_io, "_read_plane", counting)
        clip = parse_y4m(_noise_y4m(90, 32, 16))
        plan = temporal_sample(clip, "one_fps")
        assert plan.indices == (0, 30, 60)
        build_view(clip, plan, threads=1)
        assert len(reads) == 3 * 3

    def test_peak_memory_bounded_by_sampled_frames(self):
        w, h = 64, 48
        data = _noise_y4m(90, w, h)
        # what one sampled frame holds while build_view works on it: its
        # decoded float64 planes plus the three RGB planes made from them
        frame_bytes = 8 * (w * h + 2 * (w // 2) * (h // 2) + 3 * w * h)
        tracemalloc.start()
        try:
            clip = parse_y4m(data)
            build_view(clip, temporal_sample(clip, "one_fps"),
                       SpatialTransform.resize(8, 8), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # frames are converted one at a time, each with one luma-sized
        # temporary (measured peak: 1.37 sampled frames)
        assert peak < 1.5 * frame_bytes
