"""Bit-exact binary PGM (P5) and PPM (P6) reading and writing, 8-bit only."""

from __future__ import annotations

import numpy as np

from .errors import DataError


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comment lines between header fields.
    while pos < len(data):
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DataError("truncated PNM header")
    return data[start:pos], pos


def read_pnm(path: str) -> np.ndarray:
    """Read a binary PGM/PPM file.

    Returns a uint8 array of shape (h, w) for PGM or (h, w, 3) for PPM.
    """
    with open(path, "rb") as f:
        data = f.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"unsupported PNM magic {magic!r} (need binary P5 or P6)")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_header_token(data, pos)
        if not tok.isdigit():  # ASCII decimal digits only: no sign, no "_"
            raise DataError(f"bad PNM header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise DataError(f"bad PNM dimensions {width}x{height}")
    if maxval != 255:
        raise DataError(f"only 8-bit PNM supported, maxval={maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) != need:
        raise DataError(
            f"PNM payload truncated: expected {need} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width).copy()
    return arr.reshape(height, width, 3).copy()


def write_pnm(path: str, pixels: np.ndarray) -> None:
    """Write a uint8 array as binary PGM (2-D) or PPM (3-D, 3 channels)."""
    arr = np.asarray(pixels)
    if arr.dtype != np.uint8:
        raise DataError(f"PNM writer needs uint8 pixels, got {arr.dtype}")
    if arr.ndim == 2:
        magic = b"P5"
        h, w = arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
        h, w = arr.shape[:2]
    else:
        raise DataError(f"unsupported pixel array shape {arr.shape}")
    if arr.size == 0:
        raise DataError(f"PNM writer needs a non-empty image, got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(arr.tobytes())
