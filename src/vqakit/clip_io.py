"""Clip ingestion: YUV4MPEG2 parsing, frame directories, synthetic clips.

Frames are planar and full range. A frame is its samples: it holds its planes
and their scale, and a plane's values in [0,1] are its entries divided by
that scale. A YUV4MPEG2 frame's planes are read-only ``uint8`` (scale 255) or
little-endian ``uint16`` (scale 1023) views of the stream's bytes, and a PGM
frame's are views of its file's bytes (big-endian at 10 bits). A float plane,
as ``synth_clip``, tests and a PPM frame's BT.709 Y/Cb/Cr give, has scale
1.0. A kernel divides only the rows it reads, into a float64 band of its
own (``np.divide(plane[rows], scale, out=band)``); only a resize view, which
interpolates, divides a whole plane (``sampling``). The divide is per
sample, so a band has the bits of the same rows of one whole-plane divide,
and ``x / 1.0`` is ``x``, so float planes take the same path. A frame thus
costs no memory beyond its samples, which 8-bit FHD 4:2:0 keeps in 3.1 MB
where a float64 copy took 24.9 MB.

A YUV4MPEG2 stream or PGM/PPM directory is checked when loaded, but the clip
keeps the file bytes and builds a frame's views each time it is read, so
memory is the bytes plus what the frames in use made. Chroma (when present)
stays at its source resolution. Colour is converted to clamped BT.709 RGB in
bands of rows that fit in cache (``row_bands``, which the luma kernels of
``signal_features`` walk too): ``ycbcr_to_rgb`` divides and converts one
band, with chroma upsampled by nearest neighbor, into planes the caller owns,
so a consumer that keeps only a band at a time needs no full-frame RGB plane.
``frame_rgb`` runs it over all rows.
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
    InvalidParameter,
    ParseError,
    TruncatedFrame,
    Unsupported,
    check_count,
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


@dataclass(frozen=True)
class Frame:
    """One frame: a luma plane, optional chroma planes, and their scale.

    A plane's values are its entries divided by ``scale``: 255 or 1023 for
    samples, which keep their integer dtype, and 1.0 for a float plane, which
    is stored as float64. Every plane is row-major and read-only.
    chroma_b / chroma_r may be subsampled relative to the luma plane; they are
    either both present or both absent.
    """

    luma: np.ndarray
    chroma_b: np.ndarray | None = None
    chroma_r: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if (self.chroma_b is None) != (self.chroma_r is None):
            raise DimensionMismatch("chroma planes must be both present or both absent")
        object.__setattr__(self, "scale", float(self.scale))
        for name in ("luma", "chroma_b", "chroma_r"):
            plane = getattr(self, name)
            if plane is not None:
                plane = np.ascontiguousarray(plane, np.float64 if self.scale == 1.0 else None)
                plane.setflags(write=False)
                object.__setattr__(self, name, plane)

    @property
    def has_chroma(self) -> bool:
        return self.chroma_b is not None


@dataclass(frozen=True)
class VideoClip:
    """A clip's geometry, rate and frames.

    ``frames`` is any sequence of Frame (stored as a tuple, whose frames must
    all have chroma or all lack it, and share one scale), or the lazy sequence
    that parse_y4m and load_frame_dir build, whose geometry, chroma and scale
    they checked.
    """

    width: int
    height: int
    fps: Fraction
    frames: Sequence[Frame]

    def __post_init__(self):
        object.__setattr__(self, "fps", Fraction(self.fps))
        check_count("width", self.width)
        check_count("height", self.height)
        if isinstance(self.frames, _Frames):
            shapes = [self.frames.luma_shape]
        else:
            object.__setattr__(self, "frames", tuple(self.frames))
            shapes = [f.luma.shape for f in self.frames]
            for i, f in enumerate(self.frames):
                if f.has_chroma != self.frames[0].has_chroma:
                    has = "has" if f.has_chroma else "lacks"
                    raise DimensionMismatch(f"frame {i} {has} chroma, unlike frame 0")
                if f.scale != self.frames[0].scale:
                    raise DimensionMismatch(f"frame {i} has scale {f.scale}, unlike frame 0")
        if not self.frames:
            raise EmptyInput("clip needs at least one frame")
        if self.fps <= 0:
            raise InvalidParameter("fps", self.fps, "a positive rate")
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

    def __post_init__(self):
        for name in ("frame_count", "width", "height"):
            check_count(name, getattr(self, name))


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


def _decode_y4m(buf: bytes, pos: int, planes, depth: int) -> Frame:
    """The frame whose payload starts at ``pos`` (already length- and
    range-checked): its luma, cb and cr samples as views of ``buf``."""
    dtype, scale = (np.uint8, 255.0) if depth == 8 else (np.dtype("<u2"), 1023.0)
    out = []
    for w, h in planes:
        out.append(np.frombuffer(buf, dtype=dtype, count=w * h, offset=pos).reshape(h, w))
        pos += out[-1].nbytes
    return Frame(*out, scale=scale)


class _Frames(Sequence):
    """A file's frames, built from the bytes the clip keeps on every access.

    ``decode(i)`` builds frame i. Nothing is cached: a frame lives only as
    long as its caller holds it.
    """

    def __init__(self, n: int, luma_shape: tuple[int, int], decode):
        self._n, self.luma_shape, self._decode = n, luma_shape, decode

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> Frame:
        return self._decode(range(self._n)[operator.index(index)])


def parse_y4m(buf: bytes) -> VideoClip:
    """Parse the bytes of a YUV4MPEG2 stream into a clip.

    Supports 4:2:0, 4:2:2 and 4:4:4 layouts, 8- or 10-bit. A frame's planes
    are views of its samples, at the full-range maximum (255 or 1023) as
    their scale.

    Every frame is checked here (its FRAME line, its length and, for 10-bit
    streams, every sample's range), but none is read: the clip keeps the
    bytes and makes a frame's views each time ``clip.frames[i]`` is read, so
    they must not change: a mutable buffer is refused. A bad W, H or F tag is
    reported at its own byte offset, with its token.
    """
    if not isinstance(buf, bytes):
        raise InvalidParameter("buf", type(buf).__name__, "bytes")
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
    where = {}  # tag -> (byte offset, token) of its last occurrence
    offset = len(tokens[0]) + 1
    for tok in tokens[1:]:
        if not tok:
            offset += 1
            continue
        key, val = tok[0], tok[1:]
        where[key] = (offset, tok)
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

    for key, value in (("W", width), ("H", height), ("F", fps)):
        if value is None or value <= 0:  # a missing tag is reported where the header ends
            raise ParseError(*where.get(key, (nl, key)))
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
    return VideoClip(width, height, fps, _Frames(
        len(offsets), (height, width), lambda i: _decode_y4m(buf, offsets[i], planes, depth)))


# --- PGM/PPM frame directories ----------------------------------------------

_PNM_EXT = (".pgm", ".ppm")


def _parse_pnm(data: bytes, name: str, index: int):
    """Check a binary PGM (P5) or PPM (P6) with maxval 255 or 1023, frame
    ``index`` of its directory. Returns its samples, undecoded, as an (h, w)
    or (h, w, 3) view of ``data``, and its bit depth."""
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
    channels = 1 if magic == b"P5" else 3
    itemsize = 1 if maxval == 255 else 2
    pos += 1  # single whitespace byte after maxval
    n = w * h * channels
    if pos + n * itemsize > len(data):
        raise TruncatedFrame(index, name)
    dtype = np.uint8 if maxval == 255 else ">u2"  # netpbm 16-bit is big-endian
    raw = np.frombuffer(data, dtype=dtype, count=n, offset=pos)
    if maxval == 1023:
        _check_10bit(raw, pos, name)
    return raw.reshape((h, w) if channels == 1 else (h, w, 3)), 8 if maxval == 255 else 10


# BT.709 analysis/synthesis; the toolkit's single fixed matrix.
_KR, _KG, _KB = 0.2126, 0.7152, 0.0722


def _decode_pnm(raw: np.ndarray, depth: int) -> Frame:
    """The frame of the samples ``_parse_pnm`` checked: a PGM's are its luma,
    and a PPM's are converted to float BT.709 Y/Cb/Cr at full resolution."""
    scale = 255.0 if depth == 8 else 1023.0
    if raw.ndim == 2:
        return Frame(raw, scale=scale)
    rgb = raw / scale
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = (b - y) / (2.0 * (1.0 - _KB)) + 0.5
    cr = (r - y) / (2.0 * (1.0 - _KR)) + 0.5
    return Frame(y, cb, cr)


def load_frame_dir(path, fps) -> VideoClip:
    """Load a directory of same-sized PGM/PPM frames, ordered by filename.

    The frames must all be PGM (luma only) or all PPM (chroma), and PGMs
    must share one bit depth, since a PGM frame's planes are its samples at
    that depth's scale (a PPM frame is float). Every file is checked here
    (header, length, size, chroma, PGM depth, 10-bit range), but none is
    decoded: the clip keeps the files' bytes, so a file changed later does not
    change it, and builds frame i each time ``clip.frames[i]`` is read.
    """
    root = Path(path)
    files = sorted(p for p in root.iterdir() if p.suffix.lower() in _PNM_EXT)
    if not files:
        raise EmptyInput(f"no PGM/PPM files in {root}")

    samples = []
    for i, p in enumerate(files):
        raw, depth = _parse_pnm(p.read_bytes(), p.name, i)
        first, first_depth = samples[0] if samples else (raw, depth)
        if raw.shape[:2] != first.shape[:2]:
            raise DimensionMismatch(str(p))
        if raw.ndim != first.ndim:
            has = "has" if raw.ndim == 3 else "lacks"
            raise DimensionMismatch(f"{p}: {has} chroma, unlike {files[0].name}")
        if raw.ndim == 2 and depth != first_depth:  # a PGM frame's scale is its depth's
            raise DimensionMismatch(f"{p}: {depth}-bit, unlike {files[0].name}")
        samples.append((raw, depth))
    h, w = samples[0][0].shape[:2]
    frames = _Frames(len(samples), (h, w), lambda i: _decode_pnm(*samples[i]))
    return VideoClip(w, h, Fraction(fps), frames)


# --- synthetic clips ---------------------------------------------------------

def synth_clip(spec: ClipSpec, pattern: str, *, seed: int = 0) -> VideoClip:
    """Generate a deterministic luma-only clip for a benchmark spec.

    pattern: "noise" (uniform [0,1] per frame from ``seed``), the one pattern.
    """
    if pattern != "noise":
        raise InvalidParameter("pattern", pattern, '"noise"')
    rng = np.random.default_rng(seed)
    frames = tuple(Frame(rng.random((spec.height, spec.width))) for _ in range(spec.frame_count))
    return VideoClip(spec.width, spec.height, Fraction(30), frames)


def chroma_factors(luma_shape, chroma_shape) -> tuple[int, int]:
    """The (vertical, horizontal) chroma subsampling factors: luma row y and
    column x take chroma row y // fy and column x // fx."""
    return -(-luma_shape[0] // chroma_shape[0]), -(-luma_shape[1] // chroma_shape[1])


# Pixels per band: a band of colour conversion keeps its r, g, b and work
# strips, a band of a luma kernel its stencil strips, in one 2 MiB buffer of
# float64, the L2 of one core of a 2-vCPU Xeon (about 34 rows of FHD, 102 of
# 640x360). Every numpy call of a band hands the GIL back and forth when two
# threads extract, so on that host half this budget, which kept the buffer
# well inside L2, cost more in calls than it saved in cache misses: 5-frame
# FHD features at threads=2 took 10-15% longer. The budget is in pixels, not
# rows, because a narrow frame's bands would otherwise cost more numpy calls
# than their pixels are worth.
_BAND_PIXELS = 1 << 16


def row_bands(shape: tuple[int, int], fy: int = 1) -> list[slice]:
    """The rows of each band that a plane of ``shape`` is walked in.

    A band holds the rows of ``_BAND_PIXELS`` pixels rounded down to a
    multiple of ``fy`` (at least ``fy``), so with chroma subsampled by ``fy``
    every band starts on a chroma row; the last may be short.
    """
    height, width = shape
    step = max(_BAND_PIXELS // width // fy, 1) * fy
    return [slice(top, min(top + step, height)) for top in range(0, height, step)]


def ycbcr_to_rgb(y, cb, cr, scale: float, rows: slice, fy: int, fx: int, out) -> None:
    """Write the clamped BT.709 (r, g, b) of luma rows ``y[rows]`` into ``out``.

    ``y``, ``cb`` and ``cr`` are a frame's whole planes, of ``scale`` (see
    ``Frame``); the chroma is subsampled by ``fy`` x ``fx``: luma row i takes
    chroma row i // fy, so ``rows`` must start on a chroma row, as every band
    of ``row_bands(y.shape, fy)`` does. ``out`` is four row-major planes of
    ``y[rows]``'s shape: r, g, b, then a work plane. The band's luma is
    divided into g, which holds it until g is formed from it; each chroma
    band is divided, shifted and scaled in the work plane. Chroma is
    upsampled by nearest neighbor: each of the fy x fx luma phases (rows
    dy::fy, columns dx::fx) takes one strided add of the chroma, so no
    upsampled copy is made. Every step is per pixel, so a band gets the bits
    the same rows get in a whole frame.
    """
    chroma_rows = slice(rows.start // fy, -(-rows.stop // fy))
    r, g, b, work = out
    luma = np.divide(y[rows], scale, out=g)
    for plane, c, k in ((r, cr[chroma_rows], 2.0 * (1.0 - _KR)),
                        (b, cb[chroma_rows], 2.0 * (1.0 - _KB))):
        shifted = np.divide(c, scale, out=work.reshape(-1)[: c.size].reshape(c.shape))
        shifted -= 0.5
        shifted *= k
        for dy in range(fy):
            for dx in range(fx):
                phase = plane[dy::fy, dx::fx]
                np.add(luma[dy::fy, dx::fx], shifted[: phase.shape[0], : phase.shape[1]],
                       out=phase)
    g -= np.multiply(r, _KR, out=work)  # y - kr r - kb b, in that order
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
        ycbcr_to_rgb(y, cb, cr, frame.scale, rows, fy, fx, strips)
    return r, g, b
