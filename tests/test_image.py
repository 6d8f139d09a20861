import numpy as np
import pytest

from ricemarlin.errors import FormatError
from ricemarlin.image import (
    block_geometry,
    read_pgm,
    residual_inverse,
    residual_transform,
    write_pgm,
)


def test_pgm_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (37, 123), dtype=np.uint8)
    data = write_pgm(img)
    assert np.array_equal(read_pgm(data), img)


def test_pgm_with_comment():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = b"P5\n# a comment\n4 3\n255\n" + img.tobytes()
    assert np.array_equal(read_pgm(data), img)


def test_pgm_rejects_ascii_and_16bit():
    with pytest.raises(FormatError):
        read_pgm(b"P2\n2 2\n255\n0 1 2 3")
    with pytest.raises(FormatError):
        read_pgm(b"P5\n2 2\n65535\n" + bytes(8))


@pytest.mark.parametrize("data, match", [
    (b"P5\n-3 4\n255\n" + bytes(20), "negative"),
    (b"P5\n3 -4\n255\n" + bytes(20), "negative"),
    (b"P5\n-1 -1\n255\n", "negative"),
    (b"P5\n2 2\n0\n" + bytes(4), "maxval"),
    (b"P5\n2 2\n-255\n" + bytes(4), "maxval"),
    (b"P5\n1_0 1\n255\n" + bytes(10), "bad PGM header field b'1_0' for the width"),
    (b"P5\n1 +2\n255\n" + bytes(2), "bad PGM header field b'\\+2' for the height"),
    (b"P5\n2 2\n2\xb55\n" + bytes(4), "bad PGM header field .* for the maxval"),
    (b"P5\n2 2", "bad PGM header field b'' for the maxval"),
    (b"P5\n0 0 255", "without the whitespace after maxval"),
], ids=["negative-width", "negative-height", "both-negative", "maxval-0", "maxval-negative",
        "underscore", "plus-sign", "non-ascii-digit", "header-cut", "no-whitespace-after-maxval"])
def test_pgm_rejects_hostile_headers(data, match):
    with pytest.raises(FormatError, match=match):
        read_pgm(data)


def test_pgm_truncated_pixels():
    with pytest.raises(FormatError):
        read_pgm(b"P5\n4 4\n255\n" + bytes(3))


def test_block_geometry_clamps_edges():
    assert block_geometry(130, 65) == [
        (64, 64), (64, 64), (2, 64),
        (64, 1), (64, 1), (2, 1),
    ]


def test_residual_known_values():
    img = np.array([[10, 20], [30, 5]], dtype=np.uint8)
    res = np.frombuffer(residual_transform(img), dtype=np.uint8).reshape(2, 2)
    # origin keeps its value; first row differences go left, others go up
    assert res[0, 0] == 10
    assert res[0, 1] == 10
    assert res[1, 0] == 20
    assert res[1, 1] == (5 - 20) % 256


def test_residual_roundtrip_random_images():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = int(rng.integers(1, 200))
        w = int(rng.integers(1, 200))
        img = rng.integers(0, 256, (h, w), dtype=np.uint8)
        data = residual_transform(img)
        assert len(data) == h * w
        assert np.array_equal(residual_inverse(data, w, h), img)


def test_residual_blocks_are_independent():
    rng = np.random.default_rng(8)
    img = rng.integers(0, 256, (128, 128), dtype=np.uint8)
    # changing one block's pixels leaves other blocks' residuals untouched
    res_a = np.frombuffer(residual_transform(img), dtype=np.uint8)
    img2 = img.copy()
    img2[:64, :64] ^= 0xFF
    res_b = np.frombuffer(residual_transform(img2), dtype=np.uint8)
    assert not np.array_equal(res_a[:4096], res_b[:4096])
    assert np.array_equal(res_a[4096:], res_b[4096:])


def test_smooth_image_residuals_compress_well():
    # a smooth gradient becomes near-constant residuals
    y = np.arange(256, dtype=np.uint8)
    img = np.repeat(y[:, None], 256, axis=1)
    res = np.frombuffer(residual_transform(img), dtype=np.uint8)
    assert (res == 1).mean() > 0.95


# The earlier per-block code, kept as the reference: each block copied out,
# differenced or summed on its own, the inverse in int64 reduced mod 256.
def _oracle_blocks(img, edge=64):
    h, w = img.shape
    for y0 in range(0, h, edge):
        for x0 in range(0, w, edge):
            yield img[y0 : min(y0 + edge, h), x0 : min(x0 + edge, w)]


def oracle_transform(img):
    out = bytearray()
    for blk in _oracle_blocks(img):
        res = blk.copy()
        res[1:, :] = blk[1:, :] - blk[:-1, :]
        res[0, 1:] = blk[0, 1:] - blk[0, :-1]
        out += res.tobytes()
    return bytes(out)


def oracle_inverse(data, width, height):
    img = np.zeros((height, width), dtype=np.uint8)
    pos = 0
    for blk in _oracle_blocks(img):
        bh, bw = blk.shape
        res = np.frombuffer(data, dtype=np.uint8, count=bw * bh, offset=pos)
        pos += bw * bh
        res = res.reshape(bh, bw).astype(np.int64)
        res[0] = np.cumsum(res[0]) % 256
        blk[:] = np.cumsum(res, axis=0) % 256
    return img


EDGE_SHAPES = [(1, 1), (1, 65), (65, 1), (63, 63), (64, 64), (64, 65), (65, 64),
               (128, 128), (129, 200), (0, 5), (5, 0)]
# (width, height) of the benchmark's images; no side is a multiple of 64
BENCH_SHAPES = [(97, 251), (150, 150), (200, 75), (130, 190), (257, 66),
                (70, 70), (180, 110), (115, 140), (220, 90), (83, 160)]


@pytest.mark.parametrize("width, height", EDGE_SHAPES + BENCH_SHAPES)
def test_residuals_match_per_block_oracle(width, height):
    rng = np.random.default_rng([width, height])
    img = rng.integers(0, 256, (height, width), dtype=np.uint8)
    data = residual_transform(img)
    assert data == oracle_transform(img)
    field = rng.integers(0, 256, width * height, dtype=np.uint8).tobytes()
    got = residual_inverse(field, width, height)
    want = oracle_inverse(field, width, height)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(residual_inverse(data, width, height), img)


@pytest.mark.parametrize("size", [0, 5, 7])
def test_residual_inverse_rejects_data_of_another_size(size):
    # short data used to end in numpy's ValueError, extra bytes were dropped
    with pytest.raises(FormatError, match="3x2 image needs 6"):
        residual_inverse(bytes(size), 3, 2)
