import time

import numpy as np
import pytest

from conftest import write_pgm, write_ppm, y4m_bytes
from vqakit.clip_io import (
    CANONICAL_SPECS,
    ClipSpec,
    Frame,
    VideoClip,
    frame_rgb,
    load_frame_dir,
    _parse_pnm,
    parse_y4m,
    synth_clip,
    write_y4m,
)
from vqakit.errors import (
    DimensionMismatch,
    EmptyInput,
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
        luma = clip.frames[0].luma
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
        clip = parse_y4m(y4m_bytes(4, 4, [(y, c, c)], ctag="C420p10"))
        assert clip.frames[0].source_bit_depth == 10
        assert clip.frames[0].luma[0, 0] == 1.0
        assert clip.frames[0].chroma_b[0, 0] == 512 / 1023

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

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            parse_y4m(b"JUNK W2 H2 F30:1\nFRAME\n" + b"\x00" * 6)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_y4m(b"YUV4MPEG2 W2 Hx F30:1\nFRAME\n" + b"\x00" * 6)

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
            data = y4m_bytes(6, 4, frames, ctag=ctag)
            clip = parse_y4m(data)
            clip2 = parse_y4m(write_y4m(clip))
            for f1, f2 in zip(clip.frames, clip2.frames):
                assert np.array_equal(f1.luma, f2.luma)
                assert np.array_equal(f1.chroma_b, f2.chroma_b)
                assert np.array_equal(f1.chroma_r, f2.chroma_r)

    def test_roundtrip_10bit(self):
        rng = np.random.default_rng(6)
        frames = [
            (
                rng.integers(0, 1024, (4, 6)).astype("<u2"),
                rng.integers(0, 1024, (2, 3)).astype("<u2"),
                rng.integers(0, 1024, (2, 3)).astype("<u2"),
            )
        ]
        clip = parse_y4m(y4m_bytes(6, 4, frames, ctag="C420p10"))
        clip2 = parse_y4m(write_y4m(clip))
        assert np.array_equal(clip.frames[0].luma, clip2.frames[0].luma)
        assert np.array_equal(clip.frames[0].chroma_r, clip2.frames[0].chroma_r)

    def test_write_rejects_luma_only(self):
        clip = synth_clip(ClipSpec("t", 1, 8, 8), "constant")
        with pytest.raises(Unsupported):
            write_y4m(clip)

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
                    assert p.min() >= 0.0 and p.max() <= 1.0

    def test_write_returns_the_parsed_stream(self):
        rng = np.random.default_rng(8)
        frames = [(rng.integers(0, 256, (4, 6), dtype=np.uint8),
                   rng.integers(0, 256, (2, 3), dtype=np.uint8),
                   rng.integers(0, 256, (2, 3), dtype=np.uint8)) for _ in range(3)]
        data = y4m_bytes(6, 4, frames)
        assert write_y4m(parse_y4m(data)) == data

    def test_frames_sequence(self):
        frames = [(_flat(4, 4, v), _flat(2, 2, 128), _flat(2, 2, 128)) for v in (10, 20, 30)]
        clip = parse_y4m(y4m_bytes(4, 4, frames))
        assert len(clip.frames) == 3
        assert [f.luma[0, 0] * 255 for f in clip.frames] == [10, 20, 30]
        assert clip.frames[-1].luma[0, 0] == 30 / 255
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
        clip = load_frame_dir(tmp_path, 30)
        assert clip.frames[0].source_bit_depth == 10
        assert clip.frames[0].luma[0, 0] == 1.0

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
            _parse_pnm(data, "bad.pgm")

    def test_long_whitespace_run_is_linear(self):
        # a header regex with a nested quantifier took seconds on 26 bytes
        t0 = time.perf_counter()
        with pytest.raises(ParseError):
            _parse_pnm(b"P5" + b" " * 26, "blank.pgm")
        assert time.perf_counter() - t0 < 0.25


def frame_rgb_repeat(frame):
    """BT.709 RGB with chroma upsampled by np.repeat: the reference formula."""
    kr, kg, kb = 0.2126, 0.7152, 0.0722
    y = frame.luma
    h, w = y.shape

    def up(plane):
        ph, pw = plane.shape
        return np.repeat(np.repeat(plane, -(-h // ph), axis=0), -(-w // pw), axis=1)[:h, :w]

    cb = up(frame.chroma_b) - 0.5
    cr = up(frame.chroma_r) - 0.5
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
    def test_constant(self):
        clip = synth_clip(CANONICAL_SPECS["30-FHD"], "constant", value=0.5)
        assert len(clip) == 30
        assert (clip.width, clip.height) == (1920, 1080)
        assert np.all(clip.frames[0].luma == 0.5)
        assert np.all(clip.frames[29].luma == 0.5)

    def test_noise_deterministic(self):
        spec = ClipSpec("tiny", 3, 32, 24)
        a = synth_clip(spec, "noise", seed=7)
        b = synth_clip(spec, "noise", seed=7)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.luma, fb.luma)

    def test_gradient_endpoints_4k(self):
        clip = synth_clip(CANONICAL_SPECS["30-4K"], "gradient")
        luma = clip.frames[0].luma
        assert luma[0][0] == 0.0
        assert abs(luma[2159][3839] - 1.0) <= np.finfo(np.float64).eps

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            synth_clip(ClipSpec("bad", 0, 16, 16), "constant")


class TestInvariants:
    def test_clip_frames_immutable(self):
        clip = synth_clip(ClipSpec("t", 1, 8, 8), "constant")
        with pytest.raises(ValueError):
            clip.frames[0].luma[0, 0] = 1.0

    def test_frame_chroma_must_pair(self):
        with pytest.raises(DimensionMismatch):
            Frame(np.zeros((4, 4)), chroma_b=np.zeros((2, 2)), chroma_r=None)

    def test_clip_requires_uniform_dims(self):
        with pytest.raises(DimensionMismatch):
            VideoClip(4, 4, 30, (Frame(np.zeros((4, 4))), Frame(np.zeros((2, 2)))))
