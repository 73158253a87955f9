import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import corpus as corpus_mod
from conftest import flat_clip, write_pgm, write_ppm, y4m_bytes
from vqakit.clip_io import (
    ClipSpec,
    Frame,
    VideoClip,
    frame_rgb,
    load_frame_dir,
    _parse_pnm,
    parse_y4m,
    synth_clip,
)
from vqakit.errors import (
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    ParseError,
    TruncatedFrame,
    Unsupported,
)


def _flat(w, h, value):
    return np.full((h, w), value, dtype=np.uint8)


class TestParseY4m:
    def test_header_echo(self):
        frames = [
            (_flat(16, 16, 100), _flat(8, 8, 128), _flat(8, 8, 128)),
            (_flat(16, 16, 50), _flat(8, 8, 128), _flat(8, 8, 128)),
        ]
        clip = parse_y4m(y4m_bytes(16, 16, frames))
        assert (clip.width, clip.height) == (16, 16)
        assert clip.fps == 30
        assert len(clip) == 2

    def test_zero_frames_rejected(self):
        with pytest.raises(TruncatedFrame) as ei:
            parse_y4m(b"YUV4MPEG2 W16 H16 F30:1 C420\n")
        assert ei.value.index == 0

    def test_c444_normalization(self):
        # luma bytes 0..15 on a 4x4 C444 frame
        y = np.arange(16, dtype=np.uint8).reshape(4, 4)
        c = _flat(4, 4, 128)
        clip = parse_y4m(y4m_bytes(4, 4, [(y, c, c)], ctag="C444"))
        frame = clip.frames[0]
        assert frame.scale == 255.0
        luma = frame.luma / frame.scale
        assert luma[0][0] == 0.0
        assert luma[3][3] == 15 / 255
        assert np.array_equal(luma, np.arange(16).reshape(4, 4) / 255)

    def test_c422_plane_shapes(self):
        y = _flat(8, 4, 10)
        clip = parse_y4m(y4m_bytes(8, 4, [(y, _flat(4, 4, 1), _flat(4, 4, 2))], ctag="C422"))
        assert clip.frames[0].chroma_b.shape == (4, 4)

    def test_10bit(self):
        y = np.full((4, 4), 1023, dtype="<u2")
        c = np.full((2, 2), 512, dtype="<u2")
        frame = parse_y4m(y4m_bytes(4, 4, [(y, c, c)], ctag="C420p10")).frames[0]
        assert frame.scale == 1023.0
        assert frame.luma[0, 0] / frame.scale == 1.0
        assert frame.chroma_b[0, 0] / frame.scale == 512 / 1023

    def test_10bit_sample_above_1023_rejected(self):
        y = np.full((4, 4), 0xFFFF, dtype="<u2")
        c = np.full((2, 2), 512, dtype="<u2")
        frames = [(np.zeros((4, 4), dtype="<u2"), c, c), (y, c, c)]
        with pytest.raises(ParseError) as ei:
            parse_y4m(y4m_bytes(4, 4, frames, ctag="C420p10"))
        assert "frame 1 luma" in str(ei.value)

    def test_10bit_sample_above_1023_in_last_frame_raises_at_parse(self):
        # frames are decoded on access, but every sample is range-checked at parse
        c = np.full((2, 2), 512, dtype="<u2")
        bad_cb = c.copy()
        bad_cb[0, 1] = 1024
        frames = [(np.zeros((4, 4), dtype="<u2"), c, c)] * 4 + [(np.zeros((4, 4), dtype="<u2"), bad_cb, c)]
        data = y4m_bytes(4, 4, frames, ctag="C420p10")
        with pytest.raises(ParseError) as ei:
            parse_y4m(data)
        header = len(b"YUV4MPEG2 W4 H4 F30:1 C420p10\n")
        frame = len(b"FRAME\n") + 2 * (16 + 4 + 4)
        assert ei.value.position == header + 4 * frame + len(b"FRAME\n") + 2 * 16 + 2 * 1
        assert ei.value.token == "frame 4 cb: sample 1024 above 1023"

    def test_takes_bytes_only(self):
        # the clip decodes from the buffer it keeps, so that buffer must not change
        data = y4m_bytes(4, 4, [(_flat(4, 4, 9), _flat(2, 2, 1), _flat(2, 2, 2))])
        with pytest.raises(InvalidParameter, match="bytearray"):
            parse_y4m(bytearray(data))

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            parse_y4m(b"JUNK W2 H2 F30:1\nFRAME\n" + b"\x00" * 6)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_y4m(b"YUV4MPEG2 W2 Hx F30:1\nFRAME\n" + b"\x00" * 6)

    @pytest.mark.parametrize("header, position, token", [
        (b"YUV4MPEG2 W0 H4 F30:1", 10, "W0"),
        (b"YUV4MPEG2 W4 H-2 F30:1", 13, "H-2"),
        (b"YUV4MPEG2 W4 H4 F0:1", 16, "F0:1"),
        (b"YUV4MPEG2 F30:1 W4  H0 C420", 20, "H0"),  # a doubled space counts
        (b"YUV4MPEG2 W4 H4 F-30:1 W0", 23, "W0"),  # the tag's last occurrence
        (b"YUV4MPEG2 H4 F30:1", 18, "W"),  # a missing tag: where the header ends
    ], ids=lambda v: v.decode() if isinstance(v, bytes) else str(v))
    def test_bad_tag_names_its_offset_and_token(self, header, position, token):
        with pytest.raises(ParseError) as ei:
            parse_y4m(header + b"\nFRAME\n" + bytes(24))
        assert (ei.value.position, ei.value.token) == (position, token)
        assert str(ei.value) == f"malformed input at byte {position}: {token!r}"

    def test_non_positive_fps_is_invalid_parameter(self):
        # still a ValueError, as callers catch
        for fps in (0, -30, Fraction(-1, 2)):
            with pytest.raises(InvalidParameter, match="^fps=") as ei:
                VideoClip(4, 4, fps, (Frame(np.zeros((4, 4))),))
            assert isinstance(ei.value, ValueError)

    def test_unsupported_colorspace(self):
        with pytest.raises(Unsupported) as ei:
            parse_y4m(b"YUV4MPEG2 W2 H2 F30:1 Cmono\nFRAME\n" + b"\x00" * 4)
        assert ei.value.tag == "mono"

    def test_truncated_payload(self):
        data = y4m_bytes(4, 4, [(_flat(4, 4, 0), _flat(2, 2, 0), _flat(2, 2, 0))])
        with pytest.raises(TruncatedFrame) as ei:
            parse_y4m(data[:-3])
        assert ei.value.index == 0

    def test_truncated_last_frame_raises_at_parse(self):
        frame = (_flat(4, 4, 0), _flat(2, 2, 0), _flat(2, 2, 0))
        with pytest.raises(TruncatedFrame) as ei:
            parse_y4m(y4m_bytes(4, 4, [frame] * 5)[:-1])
        assert ei.value.index == 4
        assert str(ei.value) == "truncated payload for frame 4"

    @pytest.mark.parametrize("depth", [8, 10])
    def test_decode_matches_cast_then_divide_bits(self, depth):
        # a frame's planes are the stream's samples, and RGB divided and
        # converted in bands matches the reference formula on whole planes
        maxv, dtype, p10 = (255, np.uint8, "") if depth == 8 else (1023, np.dtype("<u2"), "p10")
        rng = np.random.default_rng(depth)
        fhd = [tuple(rng.integers(0, maxv + 1, shape).astype(dtype)
                     for shape in ((1080, 1920), (540, 960), (540, 960)))]
        streams = [(fhd, y4m_bytes(1920, 1080, fhd, ctag="C420" + p10))]
        for _ in range(400):
            clip = corpus_mod.make_clip(rng.random(), rng)
            raws = [tuple(np.rint(p * maxv).astype(dtype) for p in (f.luma, f.chroma_b, f.chroma_r))
                    for f in clip.frames]
            streams.append((raws, y4m_bytes(clip.width, clip.height, raws, ctag="C444" + p10)))
        for raws, data in streams:
            for planes, frame in zip(raws, parse_y4m(data).frames):
                got = (frame.luma, frame.chroma_b, frame.chroma_r)
                for raw, plane in zip(planes, got):
                    assert plane.dtype == raw.dtype and plane.tobytes() == raw.tobytes()
                for p, want in zip(frame_rgb(frame), frame_rgb_repeat(frame)):
                    assert p.tobytes() == want.tobytes()

    def test_roundtrip_bit_identical(self):
        rng = np.random.default_rng(5)
        for ctag, cw, ch in (("C420", 3, 2), ("C422", 3, 4), ("C444", 6, 4)):
            frames = [
                (
                    rng.integers(0, 256, (4, 6), dtype=np.uint8),
                    rng.integers(0, 256, (ch, cw), dtype=np.uint8),
                    rng.integers(0, 256, (ch, cw), dtype=np.uint8),
                )
                for _ in range(3)
            ]
            clip = parse_y4m(y4m_bytes(6, 4, frames, ctag=ctag))
            assert len(clip) == 3
            for raws, f in zip(frames, clip.frames):
                for raw, plane in zip(raws, (f.luma, f.chroma_b, f.chroma_r)):
                    assert np.array_equal(plane / f.scale, raw / 255)

    def test_roundtrip_10bit(self):
        rng = np.random.default_rng(6)
        frames = [
            (
                rng.integers(0, 1024, (4, 6)).astype("<u2"),
                rng.integers(0, 1024, (2, 3)).astype("<u2"),
                rng.integers(0, 1024, (2, 3)).astype("<u2"),
            )
        ]
        f = parse_y4m(y4m_bytes(6, 4, frames, ctag="C420p10")).frames[0]
        for raw, plane in zip(frames[0], (f.luma, f.chroma_b, f.chroma_r)):
            assert np.array_equal(plane / f.scale, raw / 1023)

    def test_normalization_bounds_random_streams(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            frames = [
                (
                    rng.integers(0, 256, (6, 8), dtype=np.uint8),
                    rng.integers(0, 256, (3, 4), dtype=np.uint8),
                    rng.integers(0, 256, (3, 4), dtype=np.uint8),
                )
            ]
            clip = parse_y4m(y4m_bytes(8, 6, frames))
            for f in clip.frames:
                for p in (f.luma, f.chroma_b, f.chroma_r):
                    p = p / f.scale
                    assert p.min() >= 0.0 and p.max() <= 1.0

    def test_decode_returns_the_stream_samples(self):
        rng = np.random.default_rng(8)
        frames = [(rng.integers(0, 256, (4, 6), dtype=np.uint8),
                   rng.integers(0, 256, (2, 3), dtype=np.uint8),
                   rng.integers(0, 256, (2, 3), dtype=np.uint8)) for _ in range(3)]
        clip = parse_y4m(y4m_bytes(6, 4, frames))
        assert (clip.width, clip.height, len(clip)) == (6, 4, 3)
        for raws, f in zip(frames, clip.frames):
            for raw, plane in zip(raws, (f.luma, f.chroma_b, f.chroma_r)):
                assert np.array_equal(plane, raw)

    @pytest.mark.parametrize("ctag", ["420", "422", "444", "420p10", "422p10", "444p10"])
    def test_planes_are_read_only_views_of_one_buffer(self, ctag):
        # the one buffer is the stream: a frame's planes are its samples in
        # place, with no copy, and divided by the frame's scale they are the
        # float64 planes of one cast-then-divide
        w, h = 7, 5
        sx, sy = {"420": (2, 2), "422": (2, 1), "444": (1, 1)}[ctag[:3]]
        maxv, dtype = (1023, np.dtype("<u2")) if ctag.endswith("p10") else (255, np.dtype(np.uint8))
        rng = np.random.default_rng(len(ctag))
        shapes = ((h, w), (-(-h // sy), -(-w // sx)), (-(-h // sy), -(-w // sx)))
        raws = tuple(rng.integers(0, maxv + 1, shape).astype(dtype) for shape in shapes)
        data = y4m_bytes(w, h, [raws], ctag="C" + ctag)
        frame = parse_y4m(data).frames[0]
        assert frame.scale == maxv
        planes = (frame.luma, frame.chroma_b, frame.chroma_r)
        payload = data.index(b"FRAME\n") + len(b"FRAME\n")
        offsets = [payload + dtype.itemsize * n for n in (0, w * h, w * h + raws[1].size)]
        stream = np.frombuffer(data, np.uint8).__array_interface__["data"][0]
        for plane, raw, offset in zip(planes, raws, offsets):
            assert plane.dtype == dtype and plane.shape == raw.shape
            assert plane.base is not None and plane.base.base is data
            assert plane.__array_interface__["data"][0] == stream + offset
            assert plane.flags.c_contiguous and not plane.flags.writeable
            assert (plane / frame.scale).tobytes() == (raw.astype(np.float64) / maxv).tobytes()

    def test_listing_frames_allocates_no_sample_copies(self):
        # every plane of every frame of a 90-frame clip, held at once, costs
        # its views, not 8 bytes a sample: 90 frames of 64x48 4:2:0 are
        # 414,720 samples, and the bound is 2 kB a frame (measured: 68 kB,
        # about 760 bytes a frame; float64 planes took 3.39 MB)
        rng = np.random.default_rng(9)
        frames = [(rng.integers(0, 256, (48, 64), dtype=np.uint8),
                   rng.integers(0, 256, (24, 32), dtype=np.uint8),
                   rng.integers(0, 256, (24, 32), dtype=np.uint8)) for _ in range(90)]
        clip = parse_y4m(y4m_bytes(64, 48, frames))
        [p for f in clip.frames for p in (f.luma, f.chroma_b, f.chroma_r)]  # warm numpy up
        tracemalloc.start()
        try:
            planes = [p for f in clip.frames for p in (f.luma, f.chroma_b, f.chroma_r)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(p.size for p in planes) == 90 * 64 * 48 * 3 // 2
        assert peak < 2048 * 90, peak

    def test_frames_sequence(self):
        frames = [(_flat(4, 4, v), _flat(2, 2, 128), _flat(2, 2, 128)) for v in (10, 20, 30)]
        clip = parse_y4m(y4m_bytes(4, 4, frames))
        assert len(clip.frames) == 3
        assert [f.luma[0, 0] for f in clip.frames] == [10, 20, 30]
        assert clip.frames[-1].luma[0, 0] / clip.frames[-1].scale == 30 / 255
        with pytest.raises(IndexError):
            clip.frames[3]

    def test_parse_is_pure(self):
        data = y4m_bytes(4, 4, [(_flat(4, 4, 7), _flat(2, 2, 3), _flat(2, 2, 9))])
        a, b = parse_y4m(data), parse_y4m(data)
        assert np.array_equal(a.frames[0].luma, b.frames[0].luma)


class TestFrameDir:
    def test_count_and_fps(self, tmp_path):
        for i in range(30):
            write_pgm(tmp_path / f"f{i:03d}.pgm", _flat(16, 16, i))
        clip = load_frame_dir(tmp_path, 30)
        assert len(clip) == 30
        assert clip.fps == 30
        assert clip.width == clip.height == 16

    def test_mixed_dimensions(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", _flat(8, 8, 0))
        write_pgm(tmp_path / "b.pgm", _flat(16, 16, 0))
        with pytest.raises(DimensionMismatch):
            load_frame_dir(tmp_path, 30)

    def test_mixed_chroma_presence(self, tmp_path):
        write_ppm(tmp_path / "a.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        write_pgm(tmp_path / "b.pgm", _flat(8, 8, 0))
        with pytest.raises(DimensionMismatch) as ei:
            load_frame_dir(tmp_path, 30)
        assert "b.pgm" in str(ei.value) and "lacks chroma" in str(ei.value)

    @pytest.mark.parametrize("maxvals", [(255, 1023), (1023, 255)])
    def test_mixed_pgm_depth_named(self, tmp_path, maxvals):
        # a PGM frame's planes are its samples at its depth's scale, and a
        # view divides every frame by one scale, so one depth per directory
        for name, maxval in zip(("a.pgm", "b.pgm"), maxvals):
            write_pgm(tmp_path / name, _flat(8, 8, 200), maxval=maxval)
        with pytest.raises(DimensionMismatch) as ei:
            load_frame_dir(tmp_path, 30)
        bits = 8 if maxvals[1] == 255 else 10
        assert str(ei.value).endswith(f"b.pgm: {bits}-bit, unlike a.pgm")

    def test_mixed_ppm_depth_each_file_at_its_own(self, tmp_path):
        # a PPM frame is float Y/Cb/Cr, so its depth is spent when it is built
        arr = np.full((8, 8, 3), 200, dtype=np.uint16)
        write_ppm(tmp_path / "a.ppm", arr, maxval=255)
        write_ppm(tmp_path / "b.ppm", arr, maxval=1023)
        clip = load_frame_dir(tmp_path, 30)
        a, b = clip.frames
        assert a.scale == b.scale == 1.0
        for frame, maxval in ((a, 255), (b, 1023)):
            v = 200 / maxval  # BT.709 luma of a grey
            assert np.array_equal(frame.luma, np.full((8, 8), 0.2126 * v + 0.7152 * v + 0.0722 * v))

    def test_truncated_file_named(self, tmp_path):
        for i in range(3):
            write_ppm(tmp_path / f"f{i}.ppm", np.zeros((8, 8, 3), dtype=np.uint8))
        last = tmp_path / "f2.ppm"
        last.write_bytes(last.read_bytes()[:-5])
        with pytest.raises(TruncatedFrame) as ei:
            load_frame_dir(tmp_path, 30)
        assert ei.value.index == 2
        assert str(ei.value) == "f2.ppm: truncated payload for frame 2"

    def test_empty_dir(self, tmp_path):
        with pytest.raises(EmptyInput):
            load_frame_dir(tmp_path, 30)

    def test_gray_ramps_increasing_means(self, tmp_path):
        # three ramps with increasing offsets -> strictly increasing luma means
        for i, off in enumerate((0, 60, 120)):
            ramp = (np.arange(64).reshape(8, 8) + off).clip(0, 255)
            write_pgm(tmp_path / f"r{i}.pgm", ramp)
        clip = load_frame_dir(tmp_path, 30)
        means = [f.luma.mean() for f in clip.frames]
        assert means[0] < means[1] < means[2]

    def test_ppm_has_chroma(self, tmp_path):
        rgb = np.zeros((8, 8, 3), dtype=np.uint8)
        rgb[..., 0] = 200
        write_ppm(tmp_path / "a.ppm", rgb)
        clip = load_frame_dir(tmp_path, 24)
        assert clip.frames[0].has_chroma
        r, g, b = frame_rgb(clip.frames[0])
        assert r.shape == g.shape == b.shape == (8, 8)
        assert np.allclose(r, 200 / 255, atol=1e-9)
        assert np.allclose(g, 0.0, atol=1e-9)
        assert np.allclose(b, 0.0, atol=1e-9)

    def test_pgm_16bit_maxval_1023(self, tmp_path):
        arr = np.full((4, 4), 1023, dtype=np.uint16)
        write_pgm(tmp_path / "a.pgm", arr, maxval=1023)
        frame = load_frame_dir(tmp_path, 30).frames[0]
        assert frame.luma.dtype == ">u2" and frame.scale == 1023.0
        assert frame.luma[0, 0] / frame.scale == 1.0

    def test_pnm_sample_above_1023_rejected(self, tmp_path):
        arr = np.full((4, 4), 0xFFFF, dtype=np.uint16)
        write_pgm(tmp_path / "hot.pgm", arr, maxval=1023)
        with pytest.raises(ParseError) as ei:
            load_frame_dir(tmp_path, 30)
        assert "hot.pgm" in str(ei.value)

    @pytest.mark.parametrize("data", [
        b"P5 -2 3 255\n" + bytes(6),
        b"P5 0 0 255\n",
        b"P6 2 -2 255\n" + bytes(12),
    ])
    def test_non_positive_dimensions_rejected(self, data):
        with pytest.raises(ParseError):
            _parse_pnm(data, "bad.pgm", 0)

    def test_long_whitespace_run_is_linear(self):
        # a header regex with a nested quantifier took seconds on 26 bytes
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            _parse_pnm(b"P5" + b" " * 26, "blank.pgm", 0)
        assert time.perf_counter() - t0 < 0.25


def frame_rgb_repeat(frame):
    """BT.709 RGB with chroma upsampled by np.repeat: the reference formula."""
    kr, kg, kb = 0.2126, 0.7152, 0.0722
    y = frame.luma / frame.scale
    h, w = y.shape

    def up(plane):
        ph, pw = plane.shape
        return np.repeat(np.repeat(plane, -(-h // ph), axis=0), -(-w // pw), axis=1)[:h, :w]

    cb = up(frame.chroma_b / frame.scale) - 0.5
    cr = up(frame.chroma_r / frame.scale) - 0.5
    r = y + 2.0 * (1.0 - kr) * cr
    b = y + 2.0 * (1.0 - kb) * cb
    g = (y - kr * r - kb * b) / kg
    return tuple(np.clip(p, 0.0, 1.0) for p in (r, g, b))


class TestFrameRgb:
    @pytest.mark.parametrize("h, w, ch, cw", [
        (20, 24, 10, 12), (21, 25, 11, 13), (20, 24, 20, 12), (21, 25, 21, 13),
        (20, 24, 20, 24), (7, 9, 4, 5), (1, 1, 1, 1), (2, 3, 1, 2),
    ])
    def test_matches_repeat_formula_bits(self, h, w, ch, cw):
        # values outside [0, 1] after conversion exercise the clamp
        rng = np.random.default_rng(h * w + ch)
        frame = Frame(rng.random((h, w)), rng.random((ch, cw)), rng.random((ch, cw)))
        got = frame_rgb(frame)
        for p, want in zip(got, frame_rgb_repeat(frame)):
            assert p.flags.c_contiguous
            assert p.tobytes() == want.tobytes()


class TestSynthClip:
    def test_noise_deterministic(self):
        spec = ClipSpec("tiny", 3, 32, 24)
        a = synth_clip(spec, "noise", seed=7)
        b = synth_clip(spec, "noise", seed=7)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.luma, fb.luma)

    def test_noise_only(self):
        # the library makes noise clips only; flat test clips come from conftest.flat_clip
        spec = ClipSpec("tiny", 2, 16, 8)
        clip = synth_clip(spec, "noise", seed=1)
        assert (len(clip), clip.width, clip.height) == (2, 16, 8)
        for pattern in ("constant", "gradient", "ramp"):
            with pytest.raises(InvalidParameter, match="pattern"):
                synth_clip(spec, pattern)

    def test_bad_spec(self):
        with pytest.raises(InvalidParameter, match="frame_count"):
            synth_clip(ClipSpec("bad", 0, 16, 16), "noise")


class TestInvariants:
    def test_clip_frames_immutable(self):
        clip = flat_clip(ClipSpec("t", 1, 8, 8))
        with pytest.raises(ValueError):
            clip.frames[0].luma[0, 0] = 1.0

    def test_frame_chroma_must_pair(self):
        with pytest.raises(DimensionMismatch):
            Frame(np.zeros((4, 4)), chroma_b=np.zeros((2, 2)), chroma_r=None)

    def test_clip_requires_uniform_dims(self):
        with pytest.raises(DimensionMismatch):
            VideoClip(4, 4, 30, (Frame(np.zeros((4, 4))), Frame(np.zeros((2, 2)))))

    def test_mixed_chroma_rejected(self):
        luma = np.zeros((8, 8))
        frames = (Frame(luma, luma[::2, ::2], luma[::2, ::2]), Frame(luma))
        with pytest.raises(DimensionMismatch, match="frame 1 lacks chroma, unlike frame 0"):
            VideoClip(8, 8, 30, frames)
