"""MSB-first bit fields, the layout of both a block's codeword units and its
reminders: fixed-width fields, most significant bit first, the last byte
zero-padded.

Fields of 1, 2 and 4 bits are read a byte at a time through a 256-row table,
fields of 3, 5, 6 and 7 bits a group of 8 at a time through a strided 64-bit
word, bytes as they are, and wider fields through strided 32-bit words."""

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


# field i of a group of 8 sits (7 - i) * w bits above the group's last bit,
# for w in 3, 5, 6 and 7
_FIELD_SHIFTS = {w: np.arange(7 * w, -1, -w, dtype=np.uint64) for w in (3, 5, 6, 7)}
# row b holds the low w bits of byte b, MSB first, for w in 1..7
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
_LOW_BITS = {w: np.ascontiguousarray(_BYTE_BITS[:, 8 - w :]) for w in range(1, 8)}
# row b holds the 8 // w fields of byte b, MSB first, for w in 1, 2 and 4
_BYTE_FIELDS = {
    w: (_BYTE_BITS.reshape(256, 8 // w, w) @ (1 << np.arange(w - 1, -1, -1))).astype(np.uint8)
    for w in (1, 2, 4)
}

# field i of a group of 8 starts at the group's byte (i * w) >> 3; the
# big-endian 32-bit word there holds it (32 - w - (i * w & 7)) bits up,
# for w in 9..25
_WIDE_COLUMNS = {w: (np.arange(8) * w) >> 3 for w in range(9, 26)}
_WIDE_SHIFTS = {
    w: (32 - w - (np.arange(8) * w & 7)).astype(np.uint32) for w in range(9, 26)
}


def pack_units(values: np.ndarray, width: int) -> bytes:
    """Concatenate the low ``width`` bits (0 to 24) of every value MSB-first;
    the last byte is zero-padded.

    Below 8 bits each field's low byte picks its row of bits from a table,
    and the rows are packed in order.  Above 8 bits every field is spread to
    a row of bits.
    """
    if width == 0:
        return b""
    if width > 8:
        v = np.asarray(values, dtype=np.uint32)
        bits = (v[:, None] >> np.arange(width - 1, -1, -1, dtype=np.uint32)) & 1
        return np.packbits(bits.astype(np.uint8).ravel()).tobytes()
    low = np.asarray(values).astype(np.uint8, copy=False)
    if width < 8:
        return np.packbits(_LOW_BITS[width].take(low, axis=0)).tobytes()
    return low.tobytes()


def unpack_units(buf: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_units`: ``count`` fields of ``buf``, as uint8
    up to 8 bits (a read-only view of ``buf`` at 8) and as uint32 above."""
    if len(buf) * 8 < count * width:
        raise CorruptBlockError(
            f"section holds {len(buf) * 8} bits, {count} {width}-bit fields need {count * width}"
        )
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint8 if width <= 8 else np.uint32)
    if width == 8:
        return np.frombuffer(buf, dtype=np.uint8, count=count)
    if width in _BYTE_FIELDS:
        whole = np.frombuffer(buf, dtype=np.uint8, count=(count * width + 7) // 8)
        return _BYTE_FIELDS[width].take(whole, axis=0).reshape(-1)[:count]
    if width < 8:
        return _unpack_narrow(buf, width, count)
    return _unpack_wide(buf, width, count)


def _unpack_narrow(buf: bytes, width: int, count: int) -> np.ndarray:
    """``count`` MSB-first fields of 3, 5, 6 or 7 bits, as uint8.

    Every 8 fields fill exactly ``width`` bytes.  With ``8 - width`` zero
    bytes in front of the section, the big-endian 64-bit word that starts
    ``g * width`` bytes in ends at group g's last byte, so one strided view
    reads every group; its high bytes hold the bytes before the group, which
    the field shifts and the mask drop.
    """
    groups = -(-count // 8)
    size = groups * width
    padded = (bytes(8 - width) + buf[:size]).ljust(8 - width + size, b"\0")
    words = np.ndarray(groups, ">u8", padded, strides=(width,))
    fields = (words[:, None] >> _FIELD_SHIFTS[width]).astype(np.uint8)
    fields &= (1 << width) - 1
    return fields.reshape(-1)[:count]


def _unpack_wide(buf: bytes, width: int, count: int) -> np.ndarray:
    """``count`` MSB-first fields of 9 <= ``width`` <= 25 bits, as uint32.

    Every 8 fields fill exactly ``width`` bytes, and field i of a group
    starts ``(i * width) & 7`` bits into the group's byte ``(i * width) >> 3``,
    so it lies within the big-endian 32-bit word that starts there.  One
    strided view holds the word at every byte of every group; the per-width
    columns pick each field's word, and its shift and the mask cut it out.
    """
    groups = -(-count // 8)
    size = groups * width
    padded = bytes(buf[:size]).ljust(size + 3, b"\0")
    words = np.ndarray((groups, width), ">u4", padded, strides=(width, 1))
    fields = words.take(_WIDE_COLUMNS[width], axis=1) >> _WIDE_SHIFTS[width]
    fields &= np.uint32((1 << width) - 1)
    return fields.reshape(-1)[:count]


# the reminder section (the low S bits of every byte) has the same layout; its
# call sites keep names of their own, so a tracer can time the two sections apart
pack_low_bits = pack_units
unpack_low_bits = unpack_units
