import numpy as np
import pytest

from ricemarlin.bitpack import (
    loc_bytes,
    pack_low_bits,
    pack_units,
    unpack_low_bits,
    unpack_units,
)
from ricemarlin.errors import CorruptBlockError


def test_loc_bytes_boundaries():
    assert loc_bytes(0) == 1
    assert loc_bytes(256) == 1
    assert loc_bytes(257) == 2
    assert loc_bytes(1 << 16) == 2
    assert loc_bytes((1 << 16) + 1) == 4
    with pytest.raises(ValueError):
        loc_bytes((1 << 32) + 1)


def test_pack_units_msb_first():
    # 3-bit units 101 001 101 -> 10100110 1.......
    assert pack_units(np.array([0b101, 0b001, 0b101]), 3) == bytes([0xA6, 0x80])


def test_pack_units_byte_width_is_identity():
    vals = np.arange(256, dtype=np.uint32)
    assert pack_units(vals, 8) == bytes(range(256))


@pytest.mark.parametrize("width", [1, 3, 5, 8, 11, 12, 16])
def test_units_roundtrip(width):
    rng = np.random.default_rng(width)
    vals = rng.integers(0, 1 << width, size=337, dtype=np.uint32)
    buf = pack_units(vals, width)
    assert len(buf) == (337 * width + 7) // 8
    out = unpack_units(buf, width, 337)
    assert np.array_equal(out, vals)


def test_one_codec_serves_both_sections():
    assert pack_low_bits is pack_units and unpack_low_bits is unpack_units


def oracle_pack_units(values: np.ndarray, width: int) -> bytes:
    """The bit-matrix packer: every field spread to a row of its low bits."""
    v = np.asarray(values, dtype=np.uint32)
    bits = (v[:, None] >> np.arange(width - 1, -1, -1, dtype=np.uint32)) & 1
    return np.packbits(bits.astype(np.uint8).ravel()).tobytes()


@pytest.mark.parametrize("width", range(1, 25))
def test_pack_units_matches_bit_matrix(width):
    # full 32-bit draws check that only the low bits are packed; in-range
    # draws in the narrowest dtype are what the walk's units look like
    rng = np.random.default_rng(200 + width)
    narrow = np.min_scalar_type((1 << width) - 1)
    for n in [*range(18), 4095, 4096, 4097]:
        vals = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
        assert pack_units(vals, width) == oracle_pack_units(vals, width), n
        vals &= np.uint32((1 << width) - 1)
        assert pack_units(vals.astype(narrow), width) == oracle_pack_units(vals, width), n


def test_unpack_units_truncated():
    with pytest.raises(CorruptBlockError):
        unpack_units(b"\x00", 8, 2)


def test_pack_low_bits_worked_example():
    # bytes 0..7 at S=3 pack to exactly 05 39 77
    assert pack_low_bits(np.arange(8, dtype=np.uint8), 3) == bytes([0x05, 0x39, 0x77])


def test_pack_low_bits_degenerate_shifts():
    msg = np.frombuffer(bytes(range(16)), dtype=np.uint8)
    assert pack_low_bits(msg, 0) == b""
    assert pack_low_bits(msg, 8) == msg.tobytes()


@pytest.mark.parametrize("s", range(9))
def test_low_bits_roundtrip(s):
    rng = np.random.default_rng(s)
    msg = rng.integers(0, 256, size=501, dtype=np.uint8)
    buf = pack_low_bits(msg, s)
    assert len(buf) == (501 * s + 7) // 8
    out = unpack_low_bits(buf, s, 501)
    assert np.array_equal(out, msg & ((1 << s) - 1))


def oracle_pack_low_bits(message: np.ndarray, s: int) -> bytes:
    """The earlier bit-matrix packer: unpack every byte to bits, keep the low s."""
    if s == 0 or len(message) == 0:
        return b""
    msg = np.asarray(message, dtype=np.uint8)
    if s == 8:
        return msg.tobytes()
    bits = np.unpackbits(msg.reshape(-1, 1), axis=1)[:, 8 - s :]
    return np.packbits(bits.ravel()).tobytes()


@pytest.mark.parametrize("s", range(9))
def test_pack_low_bits_matches_oracle(s):
    rng = np.random.default_rng(100 + s)
    for n in [*range(18), 4095, 4096, 4097]:
        msg = rng.integers(0, 256, size=n, dtype=np.uint8)
        assert pack_low_bits(msg, s) == oracle_pack_low_bits(msg, s), n


def oracle_unpack_wide(buf: bytes, width: int, count: int) -> np.ndarray:
    """The window unpack: a big-endian 32-bit window at every byte of the
    section, and each field cut from the window at its first byte."""
    starts = np.arange(count, dtype=np.int64) * width
    b = np.frombuffer(bytes(buf) + b"\0\0\0", dtype=np.uint8).astype(np.uint32)
    windows = (b[:-3] << 24) | (b[1:-2] << 16) | (b[2:-1] << 8) | b[3:]
    drop = (32 - width - (starts & 7)).astype(np.uint32)
    return (windows[starts >> 3] >> drop) & np.uint32((1 << width) - 1)


@pytest.mark.parametrize("width", range(9, 25))
def test_unpack_wide_matches_window_oracle(width):
    # the section alone, and with a ragged tail of set bits after it that the
    # strided read's last words reach into
    rng = np.random.default_rng(300 + width)
    for n in (0, 1, 7, 8, 9, 337, 4096):
        vals = rng.integers(0, 1 << width, size=n, dtype=np.uint32)
        buf = pack_units(vals, width)
        for section in (buf, buf + b"\xff" * 5, memoryview(buf + b"\xa5\xff")):
            got = unpack_units(section, width, n)
            want = oracle_unpack_wide(section, width, n)
            assert got.dtype == want.dtype == np.uint32, n
            assert np.array_equal(got, want) and np.array_equal(got, vals), n
