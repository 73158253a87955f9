import math
import tracemalloc

import numpy as np
import pytest

from conftest import flat_clip, write_pgm, write_ppm, y4m_bytes
from vqakit import clip_io, sampling
from vqakit.bench_harness import check_run_counts
from vqakit.clip_io import ClipSpec, Frame, VideoClip, load_frame_dir, parse_y4m, synth_clip
from vqakit.errors import (EmptyInput, InsufficientFrames, InvalidParameter, NumericalError,
                           SourceTooSmall)
from vqakit.regressors import fit_forest
from vqakit.sampling import (
    SampledView,
    SpatialTransform,
    TemporalPlan,
    _pad_to_square,
    _resize_bilinear,
    build_view,
    fragment_sample,
    frankenstone_subset,
    plan_indices,
    temporal_sample,
)
from vqakit.signal_features import FEATURE_ORDER, FeatureVector, extract_clip_features


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
        clip = flat_clip(ClipSpec("t", 60, 8, 8))
        assert temporal_sample(clip, "one_per_30").indices == (0, 30)

    def test_two_per_30(self):
        assert plan_indices(60, 30, "two_per_30") == (0, 15, 30, 45)

    def test_one_fps_single_second(self):
        clip = flat_clip(ClipSpec("t", 30, 8, 8))  # 30 frames @30fps
        assert temporal_sample(clip, "one_fps").indices == (0,)

    @pytest.mark.parametrize("mode", ["one_fps", "five_fps", "frankenstone_reduce", "all"])
    @pytest.mark.parametrize("fps", [0, -30])
    def test_non_positive_fps_refused(self, fps, mode):
        # every second would start at frame 0, so the second-start loop would never end
        with pytest.raises(InvalidParameter, match="^fps="):
            plan_indices(10, fps, mode)

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
        out = _resize_bilinear(np.full((64, 64), 0.25), 224, 224)
        assert out.shape == (224, 224)
        assert np.allclose(out, 0.25, atol=0, rtol=0)

    def test_half_pixel_weights_2_to_4(self):
        # src centers at (x+0.5)/2 - 0.5 -> [-0.25, 0.25, 0.75, 1.25], clamped
        out = _resize_bilinear(np.array([[0.0, 1.0]]), 4, 1)
        assert np.allclose(out, [[0.0, 0.25, 0.75, 1.0]], atol=1e-15)

    def test_identity(self):
        rng = np.random.default_rng(0)
        p = rng.random((5, 7))
        assert np.array_equal(_resize_bilinear(p, 7, 5), p)

    def test_bounds_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            h, w = rng.integers(1, 40, size=2)
            p = rng.random((h, w))
            out = _resize_bilinear(p, int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            assert out.min() >= p.min() - 1e-12
            assert out.max() <= p.max() + 1e-12


class TestPadToSquare:
    def test_fhd_bands(self):
        out = _pad_to_square(np.ones((1080, 1920)))
        assert out.shape == (1920, 1920)
        assert np.all(out[:420] == 0) and np.all(out[-420:] == 0)
        assert np.all(out[420:1500] == 1)

    def test_square_unchanged(self):
        p = np.arange(9, dtype=float).reshape(3, 3)
        assert np.array_equal(_pad_to_square(p), p)
        assert _pad_to_square(p) is p

    def test_3x1_centered(self):
        out = _pad_to_square(np.array([[0.1, 0.2, 0.3]]))
        expect = np.zeros((3, 3))
        expect[1] = [0.1, 0.2, 0.3]
        assert np.array_equal(out, expect)


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

    @pytest.mark.parametrize("grid,patch,name", [(0, 32, "grid"), (-1, 32, "grid"),
                                                 (7, 0, "patch")])
    def test_degenerate_grid(self, grid, patch, name):
        with pytest.raises(InvalidParameter, match=f"^{name}="):
            fragment_sample(np.zeros((300, 300)), grid, patch)
        with pytest.raises(InvalidParameter, match=f"^{name}="):
            SpatialTransform.fragment(grid, patch)

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
        clip = flat_clip(ClipSpec("t", 4, 16, 16))
        plan = temporal_sample(clip, "two_per_30")
        assert len(build_view(clip, plan).frames) == len(plan.indices)

    def test_resize_transform(self):
        clip = flat_clip(ClipSpec("t", 2, 64, 48), 0.5)
        view = build_view(clip, temporal_sample(clip, "all"), SpatialTransform.resize(32, 32))
        assert view.frames[0].shape == (32, 32)
        assert np.allclose(view.frames[0], 0.5)

    def test_pad_square_then_resize(self):
        clip = flat_clip(ClipSpec("t", 1, 64, 32), 1.0)
        view = build_view(clip, temporal_sample(clip, "all"),
                          SpatialTransform.pad_square_then_resize(448))
        assert view.frames[0].shape == (448, 448)

    def test_selecting_views_keep_ycbcr(self, monkeypatch):
        # none and fragment keep (cb, cr) under their luma samples and never
        # convert a whole frame to RGB; resizes keep transformed (r, g, b)
        w, h = 40, 36
        rng = np.random.default_rng(8)
        frames = [(rng.integers(0, 256, (h, w), dtype=np.uint8),
                   rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
                   rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8)) for _ in range(2)]
        clip = parse_y4m(y4m_bytes(w, h, frames))
        plan = temporal_sample(clip, "all")
        frame_rgb = sampling.frame_rgb
        calls = []
        monkeypatch.setattr(sampling, "frame_rgb", lambda f: calls.append(f) or frame_rgb(f))

        view = build_view(clip, plan)
        for (cb, cr), f in zip(view.color, clip.frames):
            assert np.array_equal(cb, f.chroma_b) and np.array_equal(cr, f.chroma_r)
        tr = SpatialTransform.fragment(2, 16)
        view = build_view(clip, plan, tr, seed=3, threads=2)
        for i, (cb, cr) in enumerate(view.color):
            f = clip.frames[i]
            up = [np.repeat(np.repeat(c, 2, axis=0), 2, axis=1) for c in (f.chroma_b, f.chroma_r)]
            assert np.array_equal(view.frames[i], fragment_sample(f.luma, 2, 16, 3))
            assert np.array_equal(cb, fragment_sample(up[0], 2, 16, 3))
            assert np.array_equal(cr, fragment_sample(up[1], 2, 16, 3))
        assert calls == []

        view = build_view(clip, plan, SpatialTransform.resize(8, 6))
        assert len(calls) == 2 and [len(c) for c in view.color] == [3, 3]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("spatial", ["none", "resize:97:61", "pad_square:64",
                                         "fragment:3:32"])
    def test_still_clip_reads_still(self, spatial, threads):
        # a clip whose frames are all one frame has no motion in any view: a
        # fragment view takes the same patches from every frame
        rng = np.random.default_rng(4)
        w, h = 160, 120
        planes = (rng.integers(0, 256, (h, w), dtype=np.uint8),
                  rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
                  rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))
        clip = parse_y4m(y4m_bytes(w, h, [planes] * 4))
        fv = extract_clip_features(clip, temporal_sample(clip, "all"),
                                   SpatialTransform.parse(spatial), seed=9, threads=threads)
        values = fv.values
        assert (values["ti"], values["ti_first"]) == (0.0, 0.0)
        assert (values["ssim_pair"], values["ssim_first"]) == (1.0, 1.0)


def _noise_y4m(n_frames, w, h):
    rng = np.random.default_rng(3)
    frames = [(rng.integers(0, 256, (h, w), dtype=np.uint8),
               rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
               rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))
              for _ in range(n_frames)]
    return y4m_bytes(w, h, frames)


def _noise_frame_dir(path, n_frames, w, h, ppm):
    rng = np.random.default_rng(3)
    for i in range(n_frames):
        if ppm:
            write_ppm(path / f"f{i:03d}.ppm", rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        else:
            write_pgm(path / f"f{i:03d}.pgm", rng.integers(0, 256, (h, w), dtype=np.uint8))


def _counting(monkeypatch, name):
    """Record each call of clip_io's ``name``, which decodes one frame."""
    frames = []
    decode = getattr(clip_io, name)

    def counting(*args):
        frames.append(decode(*args))
        return frames[-1]

    monkeypatch.setattr(clip_io, name, counting)
    return frames


class TestSampledDecode:
    """A 90-frame clip with a 3-frame plan decodes those 3 frames only."""

    def test_only_sampled_planes_read(self, monkeypatch):
        decoded = _counting(monkeypatch, "_decode_y4m")
        clip = parse_y4m(_noise_y4m(90, 32, 16))
        plan = temporal_sample(clip, "one_fps")
        assert plan.indices == (0, 30, 60)
        build_view(clip, plan, threads=1)
        assert len(decoded) == 3
        assert sum(1 + 2 * f.has_chroma for f in decoded) == 3 * 3

    def test_only_sampled_files_decoded(self, tmp_path, monkeypatch):
        decoded = _counting(monkeypatch, "_decode_pnm")
        _noise_frame_dir(tmp_path, 90, 32, 16, ppm=False)
        clip = load_frame_dir(tmp_path, 30)
        assert decoded == []
        plan = temporal_sample(clip, "one_fps")
        assert plan.indices == (0, 30, 60)
        build_view(clip, plan, threads=1)
        assert len(decoded) == 3

    def test_peak_memory_bounded_by_sampled_frames(self):
        w, h = 64, 48
        data = _noise_y4m(90, w, h)
        sample_bytes = w * h + 2 * (w // 2) * (h // 2)
        decoded_bytes = 8 * sample_bytes
        # what one sampled frame holds while a resize view works on it: its
        # planes as float64 plus the three RGB planes made from them
        frame_bytes = decoded_bytes + 8 * 3 * w * h
        peaks = {}
        for transform in (SpatialTransform.resize(8, 8), SpatialTransform()):
            # an untraced build first, so that numpy's and the modules'
            # one-time objects do not count, whichever tests ran before
            clip = parse_y4m(data)
            build_view(clip, temporal_sample(clip, "one_fps"), transform, threads=1)
            tracemalloc.start()
            try:
                clip = parse_y4m(data)
                view = build_view(clip, temporal_sample(clip, "one_fps"), transform,
                                  threads=1)
                peaks[transform.kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # frames are converted one at a time, each with its luma divided into
        # one plane and one band-sized work strip (measured peak: 1.47
        # sampled frames, alone and in the suite)
        assert peaks["resize"] < 1.5 * frame_bytes
        # a view that keeps whole frames keeps views of their samples and
        # makes no float or RGB plane: its peak is the views' Python objects,
        # under one frame's samples plus 4 KiB (measured peak: 8,016 bytes
        # for 3 frames, where float64 planes peaked at 3.88 decoded frames,
        # 143,072 bytes, and 9.2 with RGB planes as well)
        assert len(view.frames) == 3 and len(view.color[0]) == 2
        assert all(p.dtype == np.uint8 for p in view.frames + view.color[0])
        assert peaks["none"] < sample_bytes + 4096

    def test_every_frame_view_bounded_by_one_frame(self):
        # --temporal all keeps every frame, and a frame is its samples: a
        # 30-frame view holds views of the clip's bytes, not a float64 copy
        # of each frame (measured peak: 26,176 bytes, about 870 bytes of
        # views a frame; 6,997,104 with float64 planes, 243 frames' samples)
        w, h = 160, 120
        data = _noise_y4m(30, w, h)
        sample_bytes = w * h + 2 * (w // 2) * (h // 2)
        clip = parse_y4m(data)
        build_view(clip, temporal_sample(clip, "all"), threads=1)
        tracemalloc.start()
        try:
            clip = parse_y4m(data)
            view = build_view(clip, temporal_sample(clip, "all"), threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(view.frames) == 30 and view.scale == 255.0
        assert peak < sample_bytes + 8192, peak

    def test_peak_memory_bounded_by_sampled_frames_frame_dir(self, tmp_path):
        w, h = 64, 48
        _noise_frame_dir(tmp_path, 90, w, h, ppm=True)
        file_bytes = sum(p.stat().st_size for p in tmp_path.iterdir())
        # a decoded PPM frame: float64 Y, Cb and Cr at full resolution
        frame_bytes = 8 * 3 * w * h
        peaks = {}
        for transform in (SpatialTransform.resize(8, 8), SpatialTransform()):
            tracemalloc.start()
            try:
                clip = load_frame_dir(tmp_path, 30)
                view = build_view(clip, temporal_sample(clip, "one_fps"), transform,
                                  threads=1)
                peaks[transform.kind] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the clip keeps the files' bytes, and frames are decoded one at a
        # time: the float64 RGB stack, the planes made from it, the view's
        # RGB planes and the one luma plane its resize reads (measured peak:
        # files + 3.22 decoded frames; 2.96 when the resize read the decoded
        # luma in place, and decoding every file up front peaked at files + 82)
        assert peaks["resize"] < file_bytes + 3.5 * frame_bytes
        # a view that keeps whole frames keeps 3 decoded frames: a PPM
        # frame's Y/Cb/Cr are float (measured peak: files + 4.75 decoded frames)
        assert len(view.frames) == 3 and len(view.color[0]) == 2
        assert peaks["none"] < file_bytes + 5 * frame_bytes


# Each input is checked where it is made: (the call, the error, what its message starts with)
BAD_INPUTS = {
    "unknown-kind": (lambda: SpatialTransform("bogus"), InvalidParameter, "kind="),
    "zero-width": (lambda: SpatialTransform("resize", width=0), InvalidParameter, "width="),
    "float-width": (lambda: SpatialTransform.resize(20.5, 16), InvalidParameter, "width="),
    "float-size": (lambda: SpatialTransform.pad_square_then_resize(16.5), InvalidParameter,
                   "size="),
    "float-grid": (lambda: SpatialTransform.fragment(2.5, 8), InvalidParameter, "grid="),
    "bool-width": (lambda: SpatialTransform.resize(True, 16), InvalidParameter, "width="),
    "text-size": (lambda: SpatialTransform.parse("resize:a:b"), InvalidParameter,
                  "spatial='resize:a:b'"),
    "empty-clip": (lambda: VideoClip(0, 0, 30, [Frame(np.zeros((0, 0)))]), InvalidParameter,
                   "width="),
    "unknown-mode": (lambda: TemporalPlan("bogus", (0,)), InvalidParameter, "mode="),
    "no-index": (lambda: TemporalPlan("all", ()), InvalidParameter, "indices="),
    "negative-index": (lambda: TemporalPlan("all", (-1,)), InvalidParameter, "indices="),
    "empty-view": (lambda: SampledView((), SpatialTransform()), EmptyInput, "a view"),
    "index-past-end": (lambda: build_view(flat_clip(ClipSpec("t", 3, 8, 8)),
                                          TemporalPlan("all", (0, 3))),
                       InsufficientFrames, "plan index 3"),
    "missing-feature": (lambda: FeatureVector({"si": 0.0}), InvalidParameter, "values="),
    "nan-feature": (lambda: FeatureVector(dict.fromkeys(FEATURE_ORDER, math.nan)),
                    NumericalError, "feature si"),
    "float-runs": (lambda: check_run_counts(0.5, 1.5), InvalidParameter, "warmup="),
    "bool-trees": (lambda: fit_forest(np.zeros((4, 2)), np.arange(4.0), n_trees=True),
                   InvalidParameter, "n_trees="),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_named_where_it_enters(case, monkeypatch):
    call, error, start = BAD_INPUTS[case]
    read = []
    monkeypatch.setattr(sampling, "_apply_transform", lambda *a: read.append(a))
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start), info.value
    assert read == []  # before any pixel is read
