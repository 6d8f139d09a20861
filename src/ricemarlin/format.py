"""Wire formats: block layout, file container, and dictionary-set files.

All integers are little-endian.  Per the out-of-band size contract, a bare
block carries neither its compressed nor its original size; the container
stores compressed lengths and derives original sizes from its header.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitpack import loc_bytes
from .dictionary import (
    MAX_CODE_BITS,
    RAW_INDEX,
    DictionarySet,
    LevelWords,
    MarlinDictionary,
    QuotientAlphabet,
    link_word_sets,
)
from .encoder import CompressedBlock, encode_block
from .decoder import decode_block
from .errors import CorruptBlockError, FormatError
from .image import BLOCK_EDGE, block_geometry

CONTAINER_MAGIC = b"RMC1"
DICTSET_MAGIC = b"RMDS"
VERSION = 1

FLAG_IMAGE = 0x01


# ---------------------------------------------------------------------------
# block wire format


def serialize_block(block: CompressedBlock, n: int) -> bytes:
    """#D | #U | quotient section | escape pairs | reminder bitfield."""
    if block.is_raw:
        return bytes([RAW_INDEX]) + block.raw
    if block.unrep_count > 255:
        raise ValueError("a block cannot carry more than 255 escapes")
    lb = loc_bytes(n)
    out = bytearray([block.dict_index, block.unrep_count])
    out += block.quotient_stream
    for loc, sym in block.escapes:
        out += loc.to_bytes(lb, "little")
        out.append(sym)
    out += block.reminders
    return bytes(out)


def parse_block(buf: bytes, n: int, dset: DictionarySet) -> CompressedBlock:
    """Inverse of :func:`serialize_block`; sizes are supplied out of band."""
    if len(buf) < 1:
        raise CorruptBlockError("empty block buffer")
    dict_index = buf[0]
    if dict_index == RAW_INDEX:
        if len(buf) != 1 + n:
            raise CorruptBlockError(
                f"raw block is {len(buf)} bytes, expected {1 + n}"
            )
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=bytes(buf[1:]))
    if dict_index >= len(dset):
        raise CorruptBlockError(f"unknown dictionary index {dict_index}")
    if len(buf) < 2:
        raise CorruptBlockError("block truncated before the escape counter")
    dct = dset[dict_index]
    unrep = buf[1]
    lb = loc_bytes(n)
    rem_bytes = (n * dct.shift + 7) // 8
    esc_bytes = unrep * (lb + 1)
    q_bytes = len(buf) - 2 - esc_bytes - rem_bytes
    if q_bytes < 0:
        raise CorruptBlockError("block size is inconsistent with its sections")
    if dct.empty_quotient:
        if q_bytes != 0:
            raise CorruptBlockError(
                "empty-quotient dictionary with a quotient section"
            )
    elif n > 0:
        min_units = -(-n // dct.max_word_len)
        if q_bytes * 8 < min_units * dct.k:
            raise CorruptBlockError(
                f"quotient section of {q_bytes} bytes cannot span {n} symbols"
            )
    pos = 2
    stream = bytes(buf[pos : pos + q_bytes])
    pos += q_bytes
    escapes = []
    prev = -1
    for _ in range(unrep):
        loc = int.from_bytes(buf[pos : pos + lb], "little")
        sym = buf[pos + lb]
        if loc <= prev:
            raise CorruptBlockError("escape locations must be strictly ascending")
        prev = loc
        escapes.append((loc, sym))
        pos += lb + 1
    reminders = bytes(buf[pos:])
    return CompressedBlock(
        dict_index=dict_index,
        n=n,
        quotient_stream=stream,
        escapes=escapes,
        reminders=reminders,
    )


# ---------------------------------------------------------------------------
# dictionary-set files


def _dict_table_bytes(dct: MarlinDictionary) -> bytes:
    """Canonical bytes determining the dictionary's tables (digest input).

    The exclusion list and the placeholder are derived from the ranking: the
    unranked quotient values, and the most probable value.
    """
    a = dct.alphabet
    out = bytearray()
    out += struct.pack("<BBH", dct.shift, 1 if dct.empty_quotient else 0, len(a))
    out += bytes(a.values)
    excl_q = _excluded_quotients(dct)
    out += struct.pack("<H", len(excl_q))
    out += excl_q
    out.append(a.values[0])
    if not dct.empty_quotient:
        out += bytes(dct.chapter_sets)
        out += struct.pack("<H", len(dct.word_sets))
        for key, lw in enumerate(dct.word_sets):
            out += struct.pack("<HB", key, lw.level)
            out += _word_records(lw)
    return bytes(out)


def _word_records(lw: LevelWords) -> bytes:
    """The set's words as consecutive ``(u16 length, bytes)`` records."""
    lengths, ranks = lw.lengths, lw.ranks
    if lengths.max() > 0xFFFF:
        raise ValueError("a word of more than 65535 symbols does not fit")
    # word i's record starts 2 * i bytes after the word's first rank
    heads = lw.offsets[:-1] + 2 * np.arange(len(lengths))
    records = np.empty(len(ranks) + 2 * len(lengths), dtype=np.uint8)
    payload = np.ones(len(records), dtype=bool)
    payload[heads] = payload[heads + 1] = False
    records[heads], records[heads + 1] = lengths & 0xFF, lengths >> 8
    records[payload] = ranks
    return records.tobytes()


def _excluded_quotients(dct: MarlinDictionary) -> bytes:
    """The quotient values the alphabet leaves unranked, in ascending order."""
    return bytes(sorted(set(range(256 >> dct.shift)).difference(dct.alphabet.values)))


def _dict_meta_bytes(dct: MarlinDictionary) -> bytes:
    sid = dct.source_id.encode("utf-8")
    probs = np.asarray(dct.alphabet.probs, dtype="<f8").tobytes()
    return (
        struct.pack(
            "<ddddI", dct.alphabet.p_escape, dct.abr, dct.quotient_bits,
            dct.search_threshold, dct.block_n,
        )
        + struct.pack("<H", len(sid))
        + sid
        + probs
    )


def _tables_digest(k: int, o: int, tables: list[bytes]) -> bytes:
    """sha256 over the geometry, the set size and every table's bytes."""
    digest = hashlib.sha256(struct.pack("<BBB", k, o, len(tables)))
    for table in tables:
        digest.update(table)
    return digest.digest()


def save_dictset(dset: DictionarySet) -> bytes:
    """Serialize a dictionary set; ends with a digest over the table bytes."""
    out = bytearray(DICTSET_MAGIC)
    out += struct.pack("<BBBB", VERSION, dset.k, dset.o, len(dset))
    tables = [_dict_table_bytes(dct) for dct in dset.dictionaries]
    for table, dct in zip(tables, dset.dictionaries):
        meta = _dict_meta_bytes(dct)
        out += struct.pack("<II", len(table), len(meta))
        out += table
        out += meta
    out += _tables_digest(dset.k, dset.o, tables)
    return bytes(out)


def dictset_digest(dset: DictionarySet) -> bytes:
    """Digest over table-determining bytes only; changes iff any table bit does.

    Computed afresh on every call; :attr:`DictionarySet.digest` keeps it.
    """
    tables = [_dict_table_bytes(dct) for dct in dset.dictionaries]
    return _tables_digest(dset.k, dset.o, tables)


class _Reader:
    """Bounds-checked cursor over the bytes of a set file or one of its parts."""

    def __init__(self, buf: bytes, what: str):
        self.buf, self.pos, self.what = buf, 0, what

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.what} truncated at byte {self.pos}")
        self.pos += n
        return self.buf[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def records(self, n: int) -> list[bytes]:
        """The payloads of ``n`` consecutive ``(u16 length, bytes)`` records."""
        buf, p = self.buf, self.pos
        try:
            # a slice's start is read before ``:=`` moves p past its record
            words = [buf[p + 2 : (p := p + 2 + (buf[p] | buf[p + 1] << 8))] for _ in range(n)]
        except IndexError:
            p = len(buf) + 1
        if p > len(buf):
            raise FormatError(f"{self.what} truncated in the records from byte {self.pos}")
        self.pos = p
        return words

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(
                f"{self.what} has {len(self.buf) - self.pos} bytes after its end"
            )


class _Table(NamedTuple):
    """One dictionary table as read, its words still bytes."""

    shift: int
    empty_q: int
    values: tuple[int, ...]
    excl_q: bytes
    placeholder: int
    chapter_sets: tuple[int, ...]
    levels: list[int]  # per word set
    words: list[list[bytes]]  # per word set


def _scan_table(table: bytes, k: int, o: int) -> _Table:
    """Read a dictionary table; its words are kept as bytes."""
    t = _Reader(table, "dictionary table")
    shift, empty_q, nq = t.unpack("<BBH")
    values = tuple(t.take(nq))
    (n_excl,) = t.unpack("<H")
    excl_q = t.take(n_excl)
    (placeholder,) = t.take(1)
    chapter_sets: tuple[int, ...] = ()
    levels, words = [], []
    if not empty_q:
        chapter_sets = tuple(t.take(1 << o))
        (n_sets,) = t.unpack("<H")
        for at in range(n_sets):
            key, level = t.unpack("<HB")
            if key != at:
                raise FormatError(f"word set {at} is stored under key {key}")
            levels.append(level)
            words.append(t.records(1 << k))
    t.finish()
    return _Table(shift, empty_q, values, excl_q, placeholder, chapter_sets, levels, words)


def _read_word_sets(tables: list[_Table]) -> list[tuple[LevelWords, ...]]:
    """Every table's word sets, linked in one pass over them all."""
    sets = iter(link_word_sets(
        [lvl for t in tables for lvl in t.levels], [words for t in tables for words in t.words]
    ))
    return [tuple(next(sets) for _ in t.levels) for t in tables]


def _parse_dict(
    t: _Table, word_sets: tuple[LevelWords, ...], meta: bytes, k: int, o: int
) -> MarlinDictionary:
    m = _Reader(meta, "dictionary metadata")
    p_escape, abr, qbits, thr, block_n = m.unpack("<ddddI")
    (sid_len,) = m.unpack("<H")
    try:
        source_id = m.take(sid_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("dictionary source id is not UTF-8") from exc
    probs = np.frombuffer(m.take(8 * len(t.values)), dtype="<f8")
    m.finish()
    alphabet = QuotientAlphabet(
        shift=t.shift, values=t.values, probs=np.array(probs), p_escape=p_escape
    )
    dct = MarlinDictionary(
        k, o, alphabet, word_sets, t.chapter_sets,
        source_id=source_id, block_n=block_n, search_threshold=thr,
    )
    dct.check(FormatError)
    # the flag, the exclusions and the placeholder are derived on saving
    if t.empty_q != dct.empty_quotient:
        raise FormatError(f"empty-quotient flag {t.empty_q} does not match the word sets")
    if t.excl_q != _excluded_quotients(dct):
        raise FormatError("stored exclusions differ from the unranked quotient values")
    if t.placeholder != t.values[0]:
        raise FormatError("stored placeholder is not the most probable quotient value")
    dct.abr = abr
    dct.quotient_bits = qbits
    return dct


def load_dictset(buf: bytes) -> DictionarySet:
    """Parse and digest-verify a serialized dictionary set.

    Every malformed input, truncated or not, raises :class:`FormatError`.
    """
    r = _Reader(bytes(buf), "dictionary-set file")
    if buf[:4] != DICTSET_MAGIC:
        raise FormatError("not a dictionary-set file")
    r.take(4)
    version, k, o, count = r.unpack("<BBBB")
    if version != VERSION:
        raise FormatError(f"unsupported dictionary-set version {version}")
    if count == 0:
        raise FormatError("a dictionary set must contain at least one dictionary")
    if k < 1 or o > k or k + o > MAX_CODE_BITS:
        raise FormatError(f"unsupported code geometry K={k}, O={o}")
    parts = []
    for _ in range(count):
        tlen, mlen = r.unpack("<II")
        parts.append((r.take(tlen), r.take(mlen)))
    digest = r.take(32)
    if digest != _tables_digest(k, o, [table for table, _ in parts]):
        raise FormatError("dictionary-set digest mismatch")
    r.finish()
    tables = [_scan_table(table, k, o) for table, _ in parts]
    word_sets = _read_word_sets(tables)
    dset = DictionarySet(
        [_parse_dict(t, ws, meta, k, o) for t, ws, (_, meta) in zip(tables, word_sets, parts)],
        metadata={"k": k, "o": o},
    )
    dset.digest = digest  # verified above: the tables need not be serialized again
    return dset


# ---------------------------------------------------------------------------
# container


@dataclass(frozen=True)
class ContainerHeader:
    k: int
    o: int
    block_size: int
    total_size: int
    flags: int = 0
    width: int = 0
    height: int = 0
    digest: bytes = b"\x00" * 32

    _FMT = "<4sBBBBIQII32sI"

    def pack(self, n_blocks: int) -> bytes:
        return struct.pack(
            self._FMT, CONTAINER_MAGIC, VERSION, self.flags, self.k, self.o,
            self.block_size, self.total_size, self.width, self.height,
            self.digest, n_blocks,
        )

    @classmethod
    def unpack(cls, buf: bytes) -> tuple["ContainerHeader", int, int]:
        size = struct.calcsize(cls._FMT)
        if len(buf) < size:
            raise CorruptBlockError("container header truncated")
        magic, version, flags, k, o, block_size, total, w, h, digest, nb = (
            struct.unpack_from(cls._FMT, buf, 0)
        )
        if magic != CONTAINER_MAGIC:
            raise CorruptBlockError("not a compressed container")
        if version != VERSION:
            raise CorruptBlockError(f"unsupported container version {version}")
        if block_size == 0:
            raise CorruptBlockError("container block size is 0")
        hdr = cls(
            k=k, o=o, block_size=block_size, total_size=total, flags=flags,
            width=w, height=h, digest=digest,
        )
        if flags & FLAG_IMAGE and total != w * h:
            raise CorruptBlockError(
                f"image container holds {total} bytes, geometry {w}x{h} implies {w * h}"
            )
        implied = hdr.block_count()
        if implied != nb:
            raise CorruptBlockError(
                f"container lists {nb} blocks, geometry implies {implied}"
            )
        # every block takes at least a 4-byte length and a 1-byte body
        if nb * 5 > len(buf) - size:
            raise CorruptBlockError(
                f"container lists {nb} blocks, but only {len(buf) - size} bytes "
                f"follow the header at offset {size}"
            )
        return hdr, nb, size

    def block_count(self) -> int:
        """Number of blocks the header implies, computed without listing them."""
        if self.flags & FLAG_IMAGE:
            return -(-self.width // BLOCK_EDGE) * -(-self.height // BLOCK_EDGE)
        return -(-self.total_size // self.block_size)

    def block_sizes(self) -> list[int]:
        """Original size of every block, derived from the header alone."""
        if self.flags & FLAG_IMAGE:
            return [bw * bh for bw, bh in block_geometry(self.width, self.height)]
        if self.total_size == 0:
            return []
        bs = self.block_size
        full, rem = divmod(self.total_size, bs)
        return [bs] * full + ([rem] if rem else [])


def compress_blocks(data: bytes, dset: DictionarySet, sizes: list[int]) -> list[bytes]:
    """Encode consecutive slices of ``data`` given by ``sizes``."""
    out = []
    pos = 0
    for n in sizes:
        chunk = data[pos : pos + n]
        pos += n
        counts = np.bincount(np.frombuffer(chunk, dtype=np.uint8), minlength=256)
        idx = dset.quick_select(counts, n)
        block = encode_block(dset[idx], chunk, dict_index=idx)
        out.append(serialize_block(block, n))
    return out


def compress_bytes(
    data: bytes,
    dset: DictionarySet,
    block_size: int = 4096,
    flags: int = 0,
    width: int = 0,
    height: int = 0,
    sizes: list[int] | None = None,
) -> bytes:
    """Compress ``data`` into a standalone container."""
    if not 1 <= block_size <= 0xFFFFFFFF:
        raise ValueError("block size must be in [1, 2^32 - 1]")
    header = ContainerHeader(
        k=dset.k, o=dset.o, block_size=block_size, total_size=len(data),
        flags=flags, width=width, height=height, digest=dset.digest,
    )
    if sizes is None:
        sizes = header.block_sizes()
    payloads = compress_blocks(data, dset, sizes)
    out = bytearray(header.pack(len(payloads)))
    for p in payloads:
        out += struct.pack("<I", len(p))
        out += p
    return bytes(out)


def decompress_bytes(buf: bytes, dset: DictionarySet) -> bytes:
    """Decompress a container produced by :func:`compress_bytes`."""
    header, _, pos = ContainerHeader.unpack(buf)
    if header.digest != dset.digest:
        raise FormatError(
            "container was compressed with a different dictionary set"
        )
    out = bytearray()
    for n in header.block_sizes():
        if pos + 4 > len(buf):
            raise CorruptBlockError("container truncated at a block header")
        (clen,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        payload = buf[pos : pos + clen]
        if len(payload) != clen:
            raise CorruptBlockError("container truncated inside a block")
        pos += clen
        block = parse_block(payload, n, dset)
        out += decode_block(dset, block, n)
    if pos != len(buf):
        raise CorruptBlockError(
            f"{len(buf) - pos} trailing bytes after the last block at offset {pos}"
        )
    if len(out) != header.total_size:
        raise CorruptBlockError(
            f"decoded {len(out)} bytes, header promised {header.total_size}"
        )
    return bytes(out)
