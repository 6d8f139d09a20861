"""Grayscale image support: binary PGM I/O and the per-block residual transform.

Images are cut into 64x64 blocks (edge blocks clamp to the image bounds) and
each block is predicted independently: every pixel subtracts the pixel above,
the first row of a block subtracts its left neighbor, and the block origin
subtracts nothing.  Residuals are kept mod 256, so the transform is exactly
invertible.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError

BLOCK_EDGE = 64


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary (P5) PGM with maxval <= 255 into a 2-D uint8 array."""
    if not data.startswith(b"P5"):
        raise FormatError("only binary (P5) PGM images are supported")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        field = data[start:pos]
        name = ("width", "height", "maxval")[len(fields)]
        if field[:1] == b"-" and field[1:].isdigit():
            raise FormatError(f"PGM {name} {field.decode()} is negative")
        if not field.isdigit():  # ASCII digits only: int() would also take "+2" or "1_0"
            raise FormatError(f"bad PGM header field {field!r} for the {name}")
        fields.append(int(field))
    if pos == len(data):
        raise FormatError("PGM header ends without the whitespace after maxval")
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval > 255:
        raise FormatError("16-bit PGM images are not supported")
    if maxval < 1:
        raise FormatError(f"PGM maxval {maxval} is below 1")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if len(pixels) < width * height:
        raise FormatError("PGM pixel data truncated")
    return pixels[: width * height].reshape(height, width).copy()


def write_pgm(img: np.ndarray) -> bytes:
    h, w = img.shape
    return b"P5\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def block_geometry(width: int, height: int) -> list[tuple[int, int]]:
    """(block width, block height) in raster block order; the 64-pixel
    ``BLOCK_EDGE`` is fixed by the container format, which stores no edge."""
    out = []
    for y0 in range(0, height, BLOCK_EDGE):
        for x0 in range(0, width, BLOCK_EDGE):
            out.append((min(BLOCK_EDGE, width - x0), min(BLOCK_EDGE, height - y0)))
    return out


def _row_blocks(rows: np.ndarray) -> list[np.ndarray]:
    """One block row as (blocks, rows, cols) views: the full blocks, then the right edge."""
    bh, w = rows.shape
    full = w - w % BLOCK_EDGE
    views = []
    if full:
        views.append(rows[:, :full].reshape(bh, -1, BLOCK_EDGE).transpose(1, 0, 2))
    if full < w:
        views.append(rows[None, :, full:])
    return views


def residual_transform(img: np.ndarray) -> bytes:
    """Above-pixel residuals per 64x64 block (the edge the container format
    fixes), serialized block by block."""
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    out = np.empty(h * w, dtype=np.uint8)
    pos = 0
    for y0 in range(0, h, BLOCK_EDGE):
        for blk in _row_blocks(img[y0 : y0 + BLOCK_EDGE]):
            res = out[pos : pos + blk.size].reshape(blk.shape)
            pos += blk.size
            # uint8 arithmetic wraps mod 256
            np.subtract(blk[:, 1:], blk[:, :-1], out=res[:, 1:])
            np.subtract(blk[:, 0, 1:], blk[:, 0, :-1], out=res[:, 0, 1:])
            res[:, 0, 0] = blk[:, 0, 0]
    return out.tobytes()


def residual_inverse(data: bytes, width: int, height: int) -> np.ndarray:
    """Rebuild the image from residuals serialized per 64x64 block (the edge
    the container format fixes)."""
    if len(data) != width * height:
        raise FormatError(
            f"residuals hold {len(data)} bytes, a {width}x{height} image needs {width * height}"
        )
    img = np.empty((height, width), dtype=np.uint8)
    res = np.frombuffer(data, dtype=np.uint8)
    pos = 0
    for y0 in range(0, height, BLOCK_EDGE):
        for blk in _row_blocks(img[y0 : y0 + BLOCK_EDGE]):
            blk[...] = res[pos : pos + blk.size].reshape(blk.shape)
            pos += blk.size
            # uint8 sums wrap mod 256: first rows run left to right, then columns down
            np.cumsum(blk[:, 0], axis=1, dtype=np.uint8, out=blk[:, 0])
            np.cumsum(blk, axis=1, dtype=np.uint8, out=blk)
    return img
