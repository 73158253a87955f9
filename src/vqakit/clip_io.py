"""Clip ingestion: YUV4MPEG2 parsing, frame directories, synthetic clips.

Frames are planar and full-range normalized: every sample is a float64 in
[0,1], obtained as raw / (2^bit_depth - 1). A parsed YUV4MPEG2 clip keeps the
stream's bytes and an index of its frames, and decodes a frame each time it is
read, so memory is the stream's bytes plus the frames in use. Chroma (when
present) stays at its source resolution. Colour is converted to clamped
BT.709 RGB in bands of rows that fit in cache (``row_bands``, which the
luma kernels of ``signal_features`` walk too): ``ycbcr_to_rgb`` converts one
band, with chroma upsampled by nearest neighbor, into planes the caller owns,
so a consumer that keeps only a band at a time needs no full-frame RGB
plane. ``frame_rgb`` runs it over all rows.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    ParseError,
    TruncatedFrame,
    Unsupported,
)

__all__ = [
    "Frame",
    "VideoClip",
    "ClipSpec",
    "CANONICAL_SPECS",
    "parse_y4m",
    "load_frame_dir",
    "synth_clip",
    "chroma_factors",
    "row_bands",
    "ycbcr_to_rgb",
    "frame_rgb",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Frame:
    """One decoded frame: normalized luma plane plus optional chroma planes.

    chroma_b / chroma_r may be subsampled relative to the luma plane; they are
    either both present or both absent.
    """

    luma: np.ndarray
    chroma_b: np.ndarray | None = None
    chroma_r: np.ndarray | None = None
    source_bit_depth: int = 8

    def __post_init__(self):
        object.__setattr__(self, "luma", _freeze(self.luma))
        if (self.chroma_b is None) != (self.chroma_r is None):
            raise DimensionMismatch("chroma planes must be both present or both absent")
        if self.chroma_b is not None:
            object.__setattr__(self, "chroma_b", _freeze(self.chroma_b))
            object.__setattr__(self, "chroma_r", _freeze(self.chroma_r))
        if self.source_bit_depth not in (8, 10):
            raise Unsupported(f"{self.source_bit_depth}-bit")

    @property
    def has_chroma(self) -> bool:
        return self.chroma_b is not None


@dataclass(frozen=True)
class VideoClip:
    """A clip's geometry, rate and frames.

    ``frames`` is any sequence of Frame (stored as a tuple), or the lazy
    sequence parse_y4m builds, whose geometry comes from the stream header.
    """

    width: int
    height: int
    fps: Fraction
    frames: Sequence[Frame]

    def __post_init__(self):
        object.__setattr__(self, "fps", Fraction(self.fps))
        if isinstance(self.frames, _Y4mFrames):
            shapes = [self.frames.luma_shape]
        else:
            object.__setattr__(self, "frames", tuple(self.frames))
            shapes = [f.luma.shape for f in self.frames]
        if not self.frames:
            raise EmptyInput("clip needs at least one frame")
        if self.fps.numerator <= 0 or self.fps.denominator <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        for i, shape in enumerate(shapes):
            if shape != (self.height, self.width):
                raise DimensionMismatch(
                    f"frame {i} luma is {shape}, clip is {(self.height, self.width)}"
                )

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ClipSpec:
    """Canonical benchmarking payload: frame count x resolution."""

    label: str
    frame_count: int
    width: int
    height: int


CANONICAL_SPECS: dict[str, ClipSpec] = {
    "30-FHD": ClipSpec("30-FHD", 30, 1920, 1080),
    "60-HD": ClipSpec("60-HD", 60, 1280, 720),
    "30-4K": ClipSpec("30-4K", 30, 3840, 2160),
}


# --- YUV4MPEG2 ---------------------------------------------------------------

# colorspace tag -> (x subsampling, y subsampling, bit depth)
_COLORSPACES: dict[str, tuple[int, int, int]] = {
    "420": (2, 2, 8),
    "420jpeg": (2, 2, 8),
    "420mpeg2": (2, 2, 8),
    "420paldv": (2, 2, 8),
    "422": (2, 1, 8),
    "444": (1, 1, 8),
    "420p10": (2, 2, 10),
    "422p10": (2, 1, 10),
    "444p10": (1, 1, 10),
}


def _check_10bit(raw: np.ndarray, pos: int, where: str):
    """Raise ParseError at the first 10-bit sample above 1023."""
    if raw.max() > 1023:
        bad = int(np.argmax(raw > 1023))
        raise ParseError(pos + 2 * bad, f"{where}: sample {int(raw[bad])} above 1023")


def _read_plane(buf: bytes, pos: int, w: int, h: int, depth: int):
    """Decode the plane at ``pos`` (already length- and range-checked).

    Returns the normalized plane and the offset just past it.
    """
    dtype, maxv = (np.uint8, 255.0) if depth == 8 else (np.dtype("<u2"), 1023.0)
    raw = np.frombuffer(buf, dtype=dtype, count=w * h, offset=pos)
    plane = np.divide(raw.reshape(h, w), maxv, out=np.empty((h, w)))
    return plane, pos + raw.nbytes


class _Y4mFrames(Sequence):
    """The frames of a parsed stream, decoded from its bytes on every access.

    Nothing is cached: a frame lives only as long as its caller holds it.
    """

    def __init__(self, buf: bytes, offsets: list[int], planes, depth: int):
        self._buf = buf
        self._offsets = offsets
        self._planes = planes  # ((width, height), ...) for luma, cb, cr
        self._depth = depth
        self.luma_shape = planes[0][::-1]

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index: int) -> Frame:
        pos = self._offsets[operator.index(index)]
        planes = []
        for w, h in self._planes:
            plane, pos = _read_plane(self._buf, pos, w, h, self._depth)
            planes.append(plane)
        return Frame(*planes, source_bit_depth=self._depth)


def parse_y4m(buf: bytes) -> VideoClip:
    """Parse the bytes of a YUV4MPEG2 stream into a clip.

    Supports 4:2:0, 4:2:2 and 4:4:4 layouts, 8- or 10-bit. Samples are
    normalized to [0,1] by the full-range maximum (255 or 1023).

    Every frame is checked here (its FRAME line, its length and, for 10-bit
    streams, every sample's range), but none is decoded: the clip keeps the
    bytes and decodes a frame each time ``clip.frames[i]`` is read, so they
    must not change: a mutable buffer is refused.
    """
    if not isinstance(buf, bytes):
        raise TypeError(f"parse_y4m takes bytes, got {type(buf).__name__}")
    nl = buf.find(b"\n")
    if nl < 0:
        raise ParseError(0, buf[:20].decode("latin-1"))
    header = buf[:nl].decode("latin-1")
    tokens = header.split(" ")
    if tokens[0] != "YUV4MPEG2":
        raise ParseError(0, tokens[0])

    width = height = None
    fps = None
    ctag = "420"
    offset = len(tokens[0]) + 1
    for tok in tokens[1:]:
        if not tok:
            offset += 1
            continue
        key, val = tok[0], tok[1:]
        try:
            if key == "W":
                width = int(val)
            elif key == "H":
                height = int(val)
            elif key == "F":
                num, den = val.split(":")
                fps = Fraction(int(num), int(den))
            elif key == "C":
                ctag = val
            # I (interlace), A (aspect), X (extensions) are ignored
        except (ValueError, ZeroDivisionError):
            raise ParseError(offset, tok) from None
        offset += len(tok) + 1

    if width is None or width <= 0:
        raise ParseError(0, "W")
    if height is None or height <= 0:
        raise ParseError(0, "H")
    if fps is None or fps <= 0:
        raise ParseError(0, "F")
    if ctag not in _COLORSPACES:
        raise Unsupported(ctag)
    sx, sy, depth = _COLORSPACES[ctag]
    cw = -(-width // sx)
    ch = -(-height // sy)

    planes = ((width, height), (cw, ch), (cw, ch))
    itemsize = 1 if depth == 8 else 2
    offsets: list[int] = []
    pos = nl + 1
    while pos < len(buf):
        i = len(offsets)
        if not buf.startswith(b"FRAME", pos):
            raise ParseError(pos, buf[pos : pos + 8].decode("latin-1", "replace"))
        fnl = buf.find(b"\n", pos)
        if fnl < 0:
            raise TruncatedFrame(i)
        pos = fnl + 1
        offsets.append(pos)
        for name, (w, h) in zip(("luma", "cb", "cr"), planes):
            end = pos + itemsize * w * h
            if end > len(buf):
                raise TruncatedFrame(i)
            if depth == 10:
                raw = np.frombuffer(buf, dtype="<u2", count=w * h, offset=pos)
                _check_10bit(raw, pos, f"frame {i} {name}")
            pos = end

    if not offsets:
        raise TruncatedFrame(0)
    return VideoClip(width, height, fps, _Y4mFrames(buf, offsets, planes, depth))


# --- PGM/PPM frame directories ----------------------------------------------

_PNM_EXT = (".pgm", ".ppm")


def _parse_pnm(data: bytes, name: str):
    """Parse a binary PGM (P5) or PPM (P6) with maxval 255 or 1023."""
    toks = []
    pos = 0
    while len(toks) < 4:
        # one whitespace byte per repetition: a nested \s+ backtracks exponentially
        m = re.match(rb"(?:\s|#[^\n]*\n)*([^\s#]+)", data[pos:])
        if not m:
            raise ParseError(pos, name)
        toks.append(m.group(1))
        pos += m.end()
    magic, w_, h_, maxval_ = toks
    if magic not in (b"P5", b"P6"):
        raise Unsupported(magic.decode("latin-1"))
    try:
        w, h, maxval = int(w_), int(h_), int(maxval_)
    except ValueError:
        raise ParseError(pos, name) from None
    if w <= 0 or h <= 0:
        raise ParseError(pos, f"{name}: {w}x{h}")
    if maxval not in (255, 1023):
        raise Unsupported(f"maxval {maxval}")
    depth = 8 if maxval == 255 else 10
    channels = 1 if magic == b"P5" else 3
    itemsize = 1 if maxval == 255 else 2
    pos += 1  # single whitespace byte after maxval
    n = w * h * channels
    if pos + n * itemsize > len(data):
        raise TruncatedFrame(0)
    dtype = np.uint8 if maxval == 255 else ">u2"  # netpbm 16-bit is big-endian
    raw = np.frombuffer(data, dtype=dtype, count=n, offset=pos)
    if maxval == 1023:
        _check_10bit(raw, pos, name)
    arr = raw.reshape((h, w) if channels == 1 else (h, w, 3)).astype(np.float64) / maxval
    return arr, depth


# BT.709 analysis/synthesis; the toolkit's single fixed matrix.
_KR, _KG, _KB = 0.2126, 0.7152, 0.0722


def _rgb_to_planes(rgb: np.ndarray):
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = (b - y) / (2.0 * (1.0 - _KB)) + 0.5
    cr = (r - y) / (2.0 * (1.0 - _KR)) + 0.5
    return y, cb, cr


def load_frame_dir(path, fps) -> VideoClip:
    """Load a directory of same-sized PGM/PPM frames, ordered by filename.

    The frames must all be PGM (luma only) or all PPM (chroma).
    """
    root = Path(path)
    files = sorted(p for p in root.iterdir() if p.suffix.lower() in _PNM_EXT)
    if not files:
        raise EmptyInput(f"no PGM/PPM files in {root}")

    frames: list[Frame] = []
    shape: tuple[int, ...] | None = None
    for p in files:
        arr, depth = _parse_pnm(p.read_bytes(), p.name)
        if shape is None:
            shape = arr.shape
        elif arr.shape[:2] != shape[:2]:
            raise DimensionMismatch(str(p))
        elif arr.ndim != len(shape):
            has = "has" if arr.ndim == 3 else "lacks"
            raise DimensionMismatch(f"{p}: {has} chroma, unlike {files[0].name}")
        if arr.ndim == 2:
            frames.append(Frame(arr, source_bit_depth=depth))
        else:
            y, cb, cr = _rgb_to_planes(arr)
            frames.append(Frame(y, cb, cr, source_bit_depth=depth))
    h, w = shape[:2]
    return VideoClip(w, h, Fraction(fps), tuple(frames))


# --- synthetic clips ---------------------------------------------------------

def synth_clip(spec: ClipSpec, pattern: str, *, value: float = 0.5, seed: int = 0) -> VideoClip:
    """Generate a deterministic luma-only clip for a benchmark spec.

    pattern: "constant" (flat at ``value``), "gradient" (raster ramp 0..1,
    identical frames), or "noise" (uniform [0,1] per frame from ``seed``).
    """
    if spec.width <= 0 or spec.height <= 0 or spec.frame_count <= 0:
        raise ValueError(f"invalid spec {spec}")
    w, h, n = spec.width, spec.height, spec.frame_count

    if pattern == "constant":
        planes = [np.full((h, w), float(value))] * n
    elif pattern == "gradient":
        ramp = np.arange(h * w, dtype=np.float64).reshape(h, w) / max(h * w - 1, 1)
        planes = [ramp] * n
    elif pattern == "noise":
        rng = np.random.default_rng(seed)
        planes = [rng.random((h, w)) for _ in range(n)]
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    frames = tuple(Frame(p) for p in planes)
    return VideoClip(w, h, Fraction(30), frames)


def chroma_factors(luma_shape, chroma_shape) -> tuple[int, int]:
    """The (vertical, horizontal) chroma subsampling factors: luma row y and
    column x take chroma row y // fy and column x // fx."""
    return -(-luma_shape[0] // chroma_shape[0]), -(-luma_shape[1] // chroma_shape[1])


# Pixels per band: a band of colour conversion keeps its r, g, b and work
# strips, a band of a luma kernel its stencil strips, in one 1 MiB buffer of
# float64 that stays in L2 (about 16 rows of FHD, 50 of 640x360). The budget
# is in pixels, not rows, because a narrow frame's bands would otherwise cost
# more numpy calls than their pixels are worth.
_BAND_PIXELS = 1 << 15


def row_bands(shape: tuple[int, int], fy: int = 1) -> list[slice]:
    """The rows of each band that a plane of ``shape`` is walked in.

    A band holds the rows of ``_BAND_PIXELS`` pixels rounded down to a
    multiple of ``fy`` (at least ``fy``), so with chroma subsampled by ``fy``
    every band starts on a chroma row; the last may be short.
    """
    height, width = shape
    step = max(_BAND_PIXELS // width // fy, 1) * fy
    return [slice(top, min(top + step, height)) for top in range(0, height, step)]


def ycbcr_to_rgb(y, cb, cr, rows: slice, fy: int, fx: int, out) -> None:
    """Write the clamped BT.709 (r, g, b) of luma rows ``y[rows]`` into ``out``.

    ``cb`` and ``cr`` are whole chroma planes, subsampled by ``fy`` x ``fx``:
    luma row i takes chroma row i // fy, so ``rows`` must start on a chroma
    row, as every band of ``row_bands(y.shape, fy)`` does. ``out`` is four
    row-major planes of ``y[rows]``'s shape: r, g, b, then a work plane.
    Chroma is upsampled by nearest neighbor: each of the fy x fx luma phases
    (rows dy::fy, columns dx::fx) takes one strided add of the shifted and
    scaled chroma, so no upsampled copy is made. Every step is per pixel, so
    a band gets the bits the same rows get in a whole frame.
    """
    y = y[rows]
    chroma_rows = slice(rows.start // fy, -(-rows.stop // fy))
    r, g, b, work = out
    for plane, c, k in ((r, cr[chroma_rows], 2.0 * (1.0 - _KR)),
                        (b, cb[chroma_rows], 2.0 * (1.0 - _KB))):
        shifted = np.subtract(c, 0.5, out=work.reshape(-1)[: c.size].reshape(c.shape))
        shifted *= k
        for dy in range(fy):
            for dx in range(fx):
                phase = plane[dy::fy, dx::fx]
                np.add(y[dy::fy, dx::fx], shifted[: phase.shape[0], : phase.shape[1]],
                       out=phase)
    np.multiply(r, _KR, out=g)
    np.subtract(y, g, out=g)
    g -= np.multiply(b, _KB, out=work)
    g /= _KG
    for p in (r, g, b):
        np.clip(p, 0.0, 1.0, out=p)


def frame_rgb(frame: Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Return the frame's (r, g, b) planes in [0,1], or None for chroma-less frames.

    This is ``ycbcr_to_rgb`` over all rows, band by band. Beyond the three
    planes it returns, it allocates one band-sized work strip.
    """
    if not frame.has_chroma:
        return None
    y, cb, cr = frame.luma, frame.chroma_b, frame.chroma_r
    fy, fx = chroma_factors(y.shape, cb.shape)
    r, g, b = (np.empty(y.shape) for _ in range(3))
    bands = row_bands(y.shape, fy)
    work = np.empty(y[bands[0]].shape)
    for rows in bands:
        strips = (r[rows], g[rows], b[rows], work[: rows.stop - rows.start])
        ycbcr_to_rgb(y, cb, cr, rows, fy, fx, strips)
    return r, g, b
