"""MSB-first bit packing for codeword units and reminder fields."""

from __future__ import annotations

import numpy as np

from .errors import CorruptBlockError


def loc_bytes(n: int) -> int:
    """Bytes per escape location for a message of ``n`` symbols."""
    if n <= 1 << 8:
        return 1
    if n <= 1 << 16:
        return 2
    if n <= 1 << 32:
        return 4
    raise ValueError(f"messages of {n} symbols are not supported")


def pack_units(values: np.ndarray, width: int) -> bytes:
    """Concatenate ``width``-bit units MSB-first; the last byte is zero-padded."""
    if len(values) == 0:
        return b""
    if width == 8:
        return values.astype(np.uint8).tobytes()
    v = np.asarray(values, dtype=np.uint32)
    bits = (v[:, None] >> np.arange(width - 1, -1, -1, dtype=np.uint32)) & 1
    return np.packbits(bits.astype(np.uint8).ravel()).tobytes()


def unpack_units(buf: bytes, width: int, count: int) -> np.ndarray:
    """Read ``count`` MSB-first ``width``-bit units from ``buf``, as ``intp`` table indices."""
    if count == 0:
        return np.zeros(0, dtype=np.intp)
    if len(buf) * 8 < count * width:
        raise CorruptBlockError(
            f"quotient section holds {len(buf) * 8} bits, need {count * width}"
        )
    if width == 8:
        return np.frombuffer(buf, dtype=np.uint8, count=count).astype(np.intp)
    if width < 8:
        return _unpack_narrow(buf, width, count).astype(np.intp)
    return _unpack_wide(buf, width, count).astype(np.intp)


def _unpack_narrow(buf: bytes, width: int, count: int) -> np.ndarray:
    """``count`` MSB-first fields of 1 <= ``width`` <= 7 bits, as uint8.

    Every 8 fields fill exactly ``width`` bytes.  Each such group is placed
    right-aligned in an 8-byte big-endian word, and one broadcast shift pulls
    all 8 fields out of every word.
    """
    groups = -(-count // 8)
    size = groups * width
    src = np.frombuffer(bytes(buf[:size]).ljust(size, b"\0"), dtype=np.uint8)
    rows = np.zeros((groups, 8), dtype=np.uint8)
    rows[:, 8 - width :] = src.reshape(groups, width)
    shifts = np.arange(7 * width, -1, -width, dtype=np.uint64)
    fields = (rows.view(">u8") >> shifts).astype(np.uint8)
    return fields.reshape(-1)[:count] & np.uint8((1 << width) - 1)


def _unpack_wide(buf: bytes, width: int, count: int) -> np.ndarray:
    """``count`` MSB-first fields of 9 <= ``width`` <= 25 bits, as uint32.

    Such a field spans at most 4 bytes, so each is cut from the big-endian
    32-bit window that starts at its first byte.
    """
    starts = np.arange(count, dtype=np.int64) * width
    b = np.frombuffer(bytes(buf) + b"\0\0\0", dtype=np.uint8).astype(np.uint32)
    windows = (b[:-3] << 24) | (b[1:-2] << 16) | (b[2:-1] << 8) | b[3:]
    drop = (32 - width - (starts & 7)).astype(np.uint32)
    return (windows[starts >> 3] >> drop) & np.uint32((1 << width) - 1)


# field i of a group of 8 is shifted left by (7 - i) * s, for s in 1..7
_FIELD_WEIGHTS = {
    s: np.uint64(1) << np.arange(7 * s, -1, -s, dtype=np.uint64) for s in range(1, 8)
}


def pack_low_bits(message: np.ndarray, s: int) -> bytes:
    """Reminder field: the low ``s`` bits of every byte, MSB-first.

    The inverse of :func:`_unpack_narrow`: every 8 fields become one 64-bit
    word, field i shifted left by ``(7 - i) * s`` (a dot product with powers
    of two, which is the shift-or since the fields do not overlap), and the
    word's low ``s`` bytes, big-endian, are the group's bytes.
    """
    if s == 0 or len(message) == 0:
        return b""
    msg = np.asarray(message, dtype=np.uint8)
    if s == 8:
        return msg.tobytes()
    n = len(msg)
    fields = np.zeros(-(-n // 8) * 8, dtype=np.uint64)
    fields[:n] = msg & ((1 << s) - 1)
    words = fields.reshape(-1, 8) @ _FIELD_WEIGHTS[s]
    rows = words.astype(">u8").view(np.uint8).reshape(-1, 8)
    return rows[:, 8 - s :].tobytes()[: (n * s + 7) // 8]


def unpack_low_bits(buf: bytes, s: int, n: int) -> np.ndarray:
    """Inverse of :func:`pack_low_bits`; returns ``n`` reminder values."""
    if s == 0 or n == 0:
        return np.zeros(n, dtype=np.uint8)
    if len(buf) * 8 < n * s:
        raise CorruptBlockError(
            f"reminder section holds {len(buf) * 8} bits, need {n * s}"
        )
    if s == 8:
        return np.frombuffer(buf, dtype=np.uint8, count=n).copy()
    return _unpack_narrow(buf, s, n)
