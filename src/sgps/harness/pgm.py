"""Binary PGM (P5) image I/O, 8-bit or 16-bit, mapped to [0, 1] floats."""
from __future__ import annotations

import numpy as np

from ..core import ConfigError, SgpsError, Signal


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comment lines between header tokens
    while pos < len(data):
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(data) and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise SgpsError("truncated PGM header")
    return data[start:pos], pos


def read_pgm(path: str) -> Signal:
    """The image at path; a file that cannot be read is a ConfigError, and
    one that is not an 8- or 16-bit P5 PGM an SgpsError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read image file {path}: {e.strerror}") from e
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise SgpsError(f"unsupported PGM magic {magic!r}; only binary P5 is handled")
    w_tok, pos = _read_token(data, pos)
    h_tok, pos = _read_token(data, pos)
    max_tok, pos = _read_token(data, pos)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as e:
        raise SgpsError(f"malformed PGM header in {path}") from e
    if width < 1 or height < 1:
        raise SgpsError(f"bad PGM dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise SgpsError(f"bad PGM maxval {maxval}")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    if len(data) - pos < count * dtype.itemsize:
        raise SgpsError(f"truncated PGM pixel data in {path}")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return Signal(raw.astype(np.float64) / maxval, (height, width))


def write_pgm(path: str, image: Signal, maxval: int = 65535) -> None:
    if len(image.shape) != 2:
        raise SgpsError(f"PGM images must be 2D, got shape {image.shape}")
    if not (0 < maxval < 65536):
        raise SgpsError(f"bad PGM maxval {maxval}")
    h, w = image.shape
    vals = np.clip(image.as_nd(), 0.0, 1.0)
    q = np.rint(vals * maxval).astype(np.dtype(">u2") if maxval > 255 else np.dtype("u1"))
    header = f"P5\n{w} {h}\n{maxval}\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())
