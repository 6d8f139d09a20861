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


# Bands of block rows bound the scratch of both transforms: the inverse's
# uint16 lanes then take 1 KiB per column whatever the height, and images of up
# to 512 rows still run in one pass.
_BAND_ROWS = 8 * BLOCK_EDGE


def _block_runs(band: np.ndarray, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each run of equal blocks in ``band`` (whole block rows, the last may be
    short) paired with its bytes in ``flat``, the band serialized block by
    block, both as (block rows, blocks, rows, cols) views."""
    rows, w = band.shape
    tall, full = rows - rows % BLOCK_EDGE, w - w % BLOCK_EDGE
    runs = []
    for y0, y1 in ((0, tall), (tall, rows)):
        if y1 > y0:
            bh = min(y1 - y0, BLOCK_EDGE)
            cuts = flat[y0 * w : y1 * w].reshape((y1 - y0) // bh, bh * w)
            for x0, x1 in ((0, full), (full, w)):
                if x1 > x0:
                    bw = min(x1 - x0, BLOCK_EDGE)
                    blocks = band[y0:y1, x0:x1].reshape(len(cuts), bh, -1, bw).swapaxes(1, 2)
                    runs.append((blocks, cuts[:, bh * x0 : bh * x1].reshape(blocks.shape)))
    return runs


def residual_transform(img: np.ndarray) -> bytes:
    """Above-pixel residuals per 64x64 block (the edge the container format
    fixes), serialized block by block."""
    img = np.asarray(img, dtype=np.uint8)
    h, w = img.shape
    out = np.empty(h * w, dtype=np.uint8)
    scratch = np.empty((min(h, _BAND_ROWS), w), dtype=np.uint8)
    for y0 in range(0, h, _BAND_ROWS):
        band = img[y0 : y0 + _BAND_ROWS]
        res = scratch[: len(band)]
        # uint8 arithmetic wraps mod 256: the pixel above, on a block's first
        # row the pixel to the left, at a block's origin nothing
        np.subtract(band[1:], band[:-1], out=res[1:])
        np.subtract(band[::BLOCK_EDGE, 1:], band[::BLOCK_EDGE, :-1], out=res[::BLOCK_EDGE, 1:])
        res[::BLOCK_EDGE, ::BLOCK_EDGE] = band[::BLOCK_EDGE, ::BLOCK_EDGE]
        for blocks, cut in _block_runs(res, out[y0 * w : y0 * w + res.size]):
            cut[...] = blocks
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
    full, wide = width - width % BLOCK_EDGE, -(-width // 4) * 4
    # one 16-bit lane per pixel, four to a uint64 word, zero past the last
    # column; rows past a short last block row only ever sum into themselves
    lanes = np.zeros((-(-min(height, _BAND_ROWS) // BLOCK_EDGE) * BLOCK_EDGE, wide), np.uint16)
    for y0 in range(0, height, _BAND_ROWS):
        rows = min(_BAND_ROWS, height - y0)
        band = lanes[:rows, :width]
        for blocks, cut in _block_runs(band, res[y0 * width : (y0 + rows) * width]):
            blocks[...] = cut
        first = band[::BLOCK_EDGE]  # each block's first row sums left to right
        for row in (first[:, :full].reshape(len(first), -1, BLOCK_EDGE), first[:, full:]):
            np.add.accumulate(row, axis=-1, out=row)
        # Then every column sums down its block, four per word.  A lane reaches
        # at most 64*255 + 63*255 = 32385 < 2**16, so none carries into the
        # next, and its low byte is the pixel mod 256.
        pad = -(-rows // BLOCK_EDGE) * BLOCK_EDGE
        words = lanes[:pad].view(np.uint64).reshape(pad // BLOCK_EDGE, BLOCK_EDGE, wide // 4)
        np.add.accumulate(words, axis=1, out=words)
        np.copyto(img[y0 : y0 + rows], band, casting="unsafe")
    return img
