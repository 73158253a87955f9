"""Property tests: any byte string either parses or raises a VqaError.

An IndexError, ValueError, MemoryError or any other exception escaping
parse_y4m or _parse_pnm fails the test. A y4m stream or PGM/PPM file that
parses must then decode: the parsers check what decoding on access relies on.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import y4m_bytes
from vqakit.clip_io import VideoClip, _decode_pnm, _parse_pnm, parse_y4m
from vqakit.errors import VqaError

SETTINGS = settings(max_examples=300, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# sizes a header may claim: degenerate, small, plausible and absurd
dims = st.one_of(
    st.integers(-3, 4),
    st.integers(-(10**6), 10**6),
    st.integers(10**9, 10**40),
)
payload = st.binary(max_size=600)


def parses_or_vqa_error(parse, data):
    try:
        return parse(data)
    except VqaError:
        return None


def y4m_parses_and_decodes_or_vqa_error(data):
    """A stream that parses decodes every frame, without error, to its header's shape."""
    clip = parses_or_vqa_error(parse_y4m, data)
    if clip is not None:
        for f in clip.frames:
            assert f.luma.shape == (clip.height, clip.width)
            for p in (f.luma, f.chroma_b, f.chroma_r):
                assert p.min() >= 0.0 and p.max() / f.scale <= 1.0
    return clip


def pnm_parses_and_decodes_or_vqa_error(data, name):
    """A file that parses decodes, without error, to its header's luma shape."""
    out = parses_or_vqa_error(lambda d: _parse_pnm(d, name, 0), data)
    if out is not None:
        frame = _decode_pnm(*out)
        assert frame.luma.shape == out[0].shape[:2]
        assert frame.luma.min() >= 0.0 and frame.luma.max() / frame.scale <= 1.0
    return out


def _valid_y4m(w=4, h=4, frames=2, ctag="C420"):
    rng = np.random.default_rng(0)
    top, dtype = (1024, "<u2") if ctag.endswith("p10") else (256, np.uint8)
    planes = [
        (rng.integers(0, top, (h, w), dtype=dtype),
         rng.integers(0, top, (h // 2, w // 2), dtype=dtype),
         rng.integers(0, top, (h // 2, w // 2), dtype=dtype))
        for _ in range(frames)
    ]
    return y4m_bytes(w, h, planes, ctag=ctag)


@st.composite
def mutated(draw, base: bytes):
    """base with a few bytes replaced, inserted or deleted."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        byte = draw(st.integers(0, 255))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "replace":
            data[pos] = byte
        else:
            del data[pos]
    return bytes(data)


@st.composite
def y4m_headers(draw):
    tokens = [
        f"W{draw(dims)}",
        f"H{draw(dims)}",
        f"F{draw(st.integers(-2, 60))}:{draw(st.integers(-1, 1001))}",
        "C" + draw(st.sampled_from(("420", "422", "444", "420p10", "444p10", "411", "mono", ""))),
    ]
    tokens += draw(st.lists(st.text("IAXWHFC0123456789:-", max_size=6), max_size=2))
    tokens = draw(st.permutations(tokens))
    frame = draw(st.sampled_from((b"FRAME\n", b"FRAME Ixyz\n", b"FRAM\n", b"")))
    return ("YUV4MPEG2 " + " ".join(tokens) + "\n").encode() + frame + draw(payload)


@st.composite
def pnm_headers(draw):
    magic = draw(st.sampled_from((b"P5", b"P6", b"P4", b"P7", b"PX")))
    sep = st.sampled_from((b" ", b"\n", b"\t ", b" # note\n", b"#\n", b"  \r\n"))
    w, h = draw(dims), draw(dims)
    maxval = draw(st.sampled_from((255, 1023, 0, -1, 65535, 256)))
    out = magic
    for f in (w, h, maxval):
        out += draw(sep) + str(f).encode()
    data = out + draw(st.sampled_from((b"\n", b" ", b""))) + draw(payload)
    return data, (h, w) if magic == b"P5" else (h, w, 3)


class TestParseY4mProperties:
    @SETTINGS
    @given(st.binary(max_size=600))
    def test_random_bytes(self, data):
        y4m_parses_and_decodes_or_vqa_error(data)

    @SETTINGS
    @given(st.binary(max_size=600))
    def test_random_bytes_after_magic(self, data):
        y4m_parses_and_decodes_or_vqa_error(b"YUV4MPEG2 " + data)

    @SETTINGS
    @given(y4m_headers())
    def test_mutated_headers(self, data):
        clip = y4m_parses_and_decodes_or_vqa_error(data)
        if clip is not None:
            assert isinstance(clip, VideoClip)
            assert clip.width > 0 and clip.height > 0 and clip.fps > 0

    @SETTINGS
    @given(mutated(_valid_y4m()))
    def test_mutated_valid_stream(self, data):
        y4m_parses_and_decodes_or_vqa_error(data)

    @SETTINGS
    @given(mutated(_valid_y4m(ctag="C420p10")))
    def test_mutated_valid_10bit_stream(self, data):
        y4m_parses_and_decodes_or_vqa_error(data)


class TestParsePnmProperties:
    @SETTINGS
    @given(st.binary(max_size=600))
    def test_random_bytes(self, data):
        pnm_parses_and_decodes_or_vqa_error(data, "fuzz.pgm")

    @SETTINGS
    @given(pnm_headers())
    def test_mutated_headers(self, case):
        data, claimed_shape = case
        out = pnm_parses_and_decodes_or_vqa_error(data, "fuzz.pnm")
        if out is not None:
            arr, depth = out
            assert arr.shape == claimed_shape and depth in (8, 10)

    @SETTINGS
    @given(mutated(b"P6 2 2 255\n" + bytes(range(12))))
    def test_mutated_valid_file(self, data):
        pnm_parses_and_decodes_or_vqa_error(data, "fuzz.ppm")
