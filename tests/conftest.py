import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the shared corpus module

import corpus as corpus_mod
from vqakit.clip_io import Frame, VideoClip


@pytest.fixture(scope="session")
def corpus():
    """400-clip synthetic corpus shared by the learnability and forest tests."""
    return corpus_mod.generate(n_clips=400, seed=11)


# --- raw y4m / pnm builders ---------------------------------------------------

def y4m_bytes(w, h, frames, ctag="C420", fps="30:1", header_extra=""):
    """Assemble a y4m stream from per-frame (y, cb, cr) uint8/uint16 arrays."""
    head = f"YUV4MPEG2 W{w} H{h} F{fps} {ctag}{header_extra}".strip() + "\n"
    out = bytearray(head.encode())
    for planes in frames:
        out += b"FRAME\n"
        for p in planes:
            out += np.asarray(p).tobytes()
    return bytes(out)


def write_pgm(path, arr, maxval=255):
    arr = np.asarray(arr)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {w} {h} {maxval}\n".encode())
        dtype = np.uint8 if maxval == 255 else ">u2"
        fh.write(arr.astype(dtype).tobytes())


def write_ppm(path, arr, maxval=255):
    arr = np.asarray(arr)
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P6 {w} {h} {maxval}\n".encode())
        dtype = np.uint8 if maxval == 255 else ">u2"
        fh.write(arr.astype(dtype).tobytes())


def flat_clip(spec, value=0.5):
    """A luma-only 30 fps clip of the spec's size whose every sample is
    ``value``: one plane, shared by every frame."""
    plane = np.full((spec.height, spec.width), float(value))
    return VideoClip(spec.width, spec.height, Fraction(30),
                     tuple(Frame(plane) for _ in range(spec.frame_count)))
