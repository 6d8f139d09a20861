"""Wire formats: block layout, file container, and dictionary-set files.

All integers are little-endian.  Per the out-of-band size contract, a bare
block carries neither its compressed nor its original size; the container
stores compressed lengths and derives original sizes from its header.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import zlib
from typing import Iterator, NamedTuple

import numpy as np

from .bitpack import loc_bytes
from .dictionary import (
    RAW_INDEX,
    DictionarySet,
    LevelWords,
    MarlinDictionary,
    QuotientAlphabet,
    _validate_block_n,
    _validate_ko,
    _validate_set_size,
    link_word_sets,
)
from .encoder import CompressedBlock, _validate_dict_index, encode_block
from .decoder import decode_block
from .errors import CorruptBlockError, FormatError
from .image import BLOCK_EDGE, block_geometry

CONTAINER_MAGIC = b"RMC1"
CONTAINER_VERSION = 1
DICTSET_MAGIC = b"RMDS"
DICTSET_VERSION = 2

FLAG_IMAGE = 0x01

_HEADER = struct.Struct("<4sBBBBIQII32sI")
HEADER_SIZE = _HEADER.size  # a container's first block starts here


# ---------------------------------------------------------------------------
# block wire format


def serialize_block(block: CompressedBlock) -> bytearray:
    """#D | #U | quotient section | escape pairs | reminder bitfield; escape
    locations take ``loc_bytes(block.n)`` bytes, and ``n`` travels out of band.
    The bytes come back in the ``bytearray`` they were written to, which
    :func:`compress_bytes` appends to its container without another copy."""
    if block.is_raw:
        out = bytearray([RAW_INDEX])
        out += block.raw
        return out
    _validate_dict_index(block.dict_index)
    if len(block.escapes) > 255:
        raise ValueError("a block cannot carry more than 255 escapes")
    lb = loc_bytes(block.n)
    out = bytearray([block.dict_index, len(block.escapes)])
    out += block.quotient_stream
    for loc, sym in block.escapes:
        out += loc.to_bytes(lb, "little")
        out.append(sym)
    out += block.reminders
    return out


def parse_block(buf: bytes, n: int, dset: DictionarySet) -> CompressedBlock:
    """Inverse of :func:`serialize_block`; sizes are supplied out of band.

    It only cuts ``buf`` into sections, and raises only when it cannot: an
    empty buffer, an unknown index (whose shift sizes the reminder section),
    a block truncated before the escape counter, or sections that do not
    fit.  Every other rule of a block is :func:`decode_block`'s.
    """
    if len(buf) < 1:
        raise CorruptBlockError("empty block buffer")
    dict_index = buf[0]
    if dict_index == RAW_INDEX:
        return CompressedBlock(dict_index=RAW_INDEX, n=n, raw=bytes(buf[1:]))
    if dict_index >= len(dset):
        raise CorruptBlockError(f"unknown dictionary index {dict_index}")
    if len(buf) < 2:
        raise CorruptBlockError("block truncated before the escape counter")
    lb = loc_bytes(n)
    esc_end = len(buf) - (n * dset[dict_index].shift + 7) // 8
    q_end = esc_end - buf[1] * (lb + 1)
    if q_end < 2:
        raise CorruptBlockError("block size is inconsistent with its sections")
    escapes = [
        (int.from_bytes(buf[pos : pos + lb], "little"), buf[pos + lb])
        for pos in range(q_end, esc_end, lb + 1)
    ]
    return CompressedBlock(
        dict_index=dict_index,
        n=n,
        quotient_stream=bytes(buf[2:q_end]),
        escapes=escapes,
        reminders=bytes(buf[esc_end:]),
    )


# ---------------------------------------------------------------------------
# dictionary-set files


def _parent_dtype(k: int) -> str:
    """Stored parents take two bytes while a word set's 2^K positions fit them."""
    return "<u2" if k <= 16 else "<u4"


def _set_index_dtype(n_sets: int) -> str:
    """A chapter's set index takes one byte while the set count allows it."""
    return "<u1" if n_sets <= 1 << 8 else "<u2"


def _dict_table_bytes(dct: MarlinDictionary) -> bytes:
    """Canonical bytes determining the dictionary's tables (digest input).

    The shift, the quotient ranking and the number of word sets; with any
    sets, each chapter's set index and each set's level, then for all sets
    every word's length, every word's parent and the concatenated ranks.  A
    parent is the position of the word's prefix in its own set; a
    single-symbol word stores its own position instead.
    """
    a, sets = dct.alphabet, dct.word_sets
    out = struct.pack("<BH", dct.shift, len(a)) + bytes(a.values) + struct.pack("<H", len(sets))
    if not sets:
        return out
    lengths = np.concatenate([lw.lengths for lw in sets])
    if lengths.max() > 0xFFFF:
        raise ValueError("a word of more than 65535 symbols does not fit")
    parents = np.concatenate(
        [np.where(lw.parents < 0, np.arange(len(lw.parents)), lw.parents) for lw in sets]
    )
    return b"".join([
        out, np.array(dct.chapter_sets, dtype=_set_index_dtype(len(sets))).tobytes(),
        bytes(lw.level for lw in sets),
        lengths.astype("<u2").tobytes(), parents.astype(_parent_dtype(dct.k)).tobytes(),
        *(lw.ranks.tobytes() for lw in sets),
    ])


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
    """Serialize a dictionary set.

    A digest over the table bytes, the set's identity in containers, and
    then a CRC-32 over every byte before it end the file.
    """
    out = bytearray(DICTSET_MAGIC)
    out += struct.pack("<BBBB", DICTSET_VERSION, dset.k, dset.o, len(dset))
    tables = [_dict_table_bytes(dct) for dct in dset.dictionaries]
    for table, dct in zip(tables, dset.dictionaries):
        meta = _dict_meta_bytes(dct)
        out += struct.pack("<II", len(table), len(meta))
        out += table
        out += meta
    out += _tables_digest(dset.k, dset.o, tables)
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


def dictset_digest(dset: DictionarySet) -> bytes:
    """Digest over table-determining bytes only; changes iff any table bit does.

    Computed afresh on every call; :attr:`DictionarySet.digest` keeps it.
    """
    tables = [_dict_table_bytes(dct) for dct in dset.dictionaries]
    return _tables_digest(dset.k, dset.o, tables)


class _Reader:
    """Bounds-checked cursor over a set file, a container or one of their
    parts; every read past the end, or byte left over, raises ``error``."""

    def __init__(self, buf: bytes, what: str, error: type[Exception]):
        self.buf, self.pos, self.what, self.error = buf, 0, what, error

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise self.error(f"{self.what} truncated at byte {self.pos}")
        self.pos += n
        return self.buf[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self) -> None:
        if self.pos != len(self.buf):
            raise self.error(
                f"{self.what} has {len(self.buf) - self.pos} trailing bytes at offset {self.pos}"
            )


class _Table(NamedTuple):
    """One dictionary table as read; its arrays are views of the file."""

    shift: int
    values: tuple[int, ...]
    chapter_sets: tuple[int, ...]
    levels: bytes  # per word set
    lengths: np.ndarray  # per word of every set
    parents: np.ndarray  # per word of every set, as stored
    ranks: np.ndarray


def _read_table(table: bytes, k: int, o: int) -> _Table:
    t = _Reader(table, "dictionary table", FormatError)
    shift, nq = t.unpack("<BH")
    values = tuple(t.take(nq))
    (n_sets,) = t.unpack("<H")
    chapter_sets, levels = (), b""
    if n_sets:
        index = np.dtype(_set_index_dtype(n_sets))
        chapter_sets = tuple(np.frombuffer(t.take(index.itemsize << o), dtype=index).tolist())
        levels = t.take(n_sets)
    words = n_sets << k
    lengths = np.frombuffer(t.take(2 * words), dtype="<u2")
    dtype = np.dtype(_parent_dtype(k))
    parents = np.frombuffer(t.take(dtype.itemsize * words), dtype=dtype)
    ranks = np.frombuffer(t.take(len(table) - t.pos), dtype=np.uint8)
    total = int(lengths.sum(dtype=np.int64))
    if total != len(ranks):
        raise FormatError(
            f"the word lengths add up to {total} ranks, but the table holds {len(ranks)}"
        )
    return _Table(shift, values, chapter_sets, levels, lengths, parents, ranks)


def _verified_parents(
    k: int, set_counts: list[int], ranks: np.ndarray, lengths: np.ndarray, stored: np.ndarray
) -> np.ndarray:
    """Each word's parent as a position in its set, -1 for a single.

    Every stored parent is checked first: it lies in the word's set, a word
    stores its own position exactly when it is a single-symbol word, and
    any other word's parent is one rank shorter and equal to its prefix.
    """
    size = 1 << k
    own = np.arange(len(lengths)) & (size - 1)

    def reject(words: np.ndarray, what: str) -> None:
        if len(words):
            at = int(words[0])
            d = int(np.searchsorted(np.cumsum(set_counts), at >> k, side="right"))
            s = (at >> k) - sum(set_counts[:d])
            raise FormatError(f"dictionary {d}, word set {s}, word {at & (size - 1)} {what}")

    single = lengths == 1
    none = stored == own
    reject(np.flatnonzero(lengths == 0), "is empty")
    reject(np.flatnonzero(stored >= size), "names a parent outside its set")
    reject(np.flatnonzero(none & ~single), "stores no parent: the set is not prefix-closed")
    reject(np.flatnonzero(single & ~none), "is a single-symbol word with a parent")
    up = stored + (np.arange(len(lengths)) - own)  # a single names itself
    reject(
        np.flatnonzero(~single & (lengths[up] != lengths - 1)),
        "names a parent that is not one rank shorter",
    )
    # rank d of a word is rank d of its parent, but for the word's last rank,
    # which is compared with itself; a single's one rank is its last
    ends = np.cumsum(lengths)
    starts = ends - lengths
    index = np.int32 if len(ranks) < 1 << 31 else np.intp
    source = np.repeat((starts[up] - starts).astype(index), lengths)
    source += np.arange(len(ranks), dtype=index)
    source[ends - 1] = ends - 1
    reject(
        np.searchsorted(ends, np.flatnonzero(ranks[source] != ranks), "right"),
        "names a parent that is not its prefix",
    )
    return np.where(none, -1, stored)


def _read_word_sets(tables: list[_Table], k: int) -> list[tuple[LevelWords, ...]]:
    """Every table's word sets, their stored parents verified, linked in one pass."""
    lengths = np.concatenate([t.lengths for t in tables]).astype(np.intp)
    stored = np.concatenate([t.parents for t in tables]).astype(np.intp)
    ranks = np.concatenate([t.ranks for t in tables])
    counts = [len(t.levels) for t in tables]
    parents = _verified_parents(k, counts, ranks, lengths, stored)
    sets = iter(link_word_sets(
        [lvl for t in tables for lvl in t.levels], [1 << k] * sum(counts), ranks, lengths,
        parents,
    ))
    return [tuple(next(sets) for _ in t.levels) for t in tables]


def _parse_dict(
    t: _Table, word_sets: tuple[LevelWords, ...], meta: bytes, k: int, o: int
) -> MarlinDictionary:
    m = _Reader(meta, "dictionary metadata", FormatError)
    p_escape, abr, qbits, thr, block_n = m.unpack("<ddddI")
    _validate_block_n(block_n, FormatError)
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
    dct.abr = abr
    dct.quotient_bits = qbits
    return dct


def load_dictset(buf: bytes) -> DictionarySet:
    """Parse and verify a serialized dictionary set.

    The CRC, the digest, every stored parent and every dictionary are
    checked; every malformed input, truncated or not, raises
    :class:`FormatError`.
    """
    data = bytes(buf)
    if data[:4] != DICTSET_MAGIC:
        raise FormatError("not a dictionary-set file")
    if len(data) > 4 and data[4] != DICTSET_VERSION:
        raise FormatError(f"unsupported dictionary-set version {data[4]}")
    if len(data) < 12 or zlib.crc32(data[:-4]) != int.from_bytes(data[-4:], "little"):
        raise FormatError("dictionary-set checksum mismatch: the file is truncated or damaged")
    r = _Reader(data[:-4], "dictionary-set file", FormatError)
    _, _, k, o, count = r.unpack("<4sBBBB")
    _validate_set_size(count, FormatError)
    _validate_ko(k, o, FormatError)
    parts = []
    for _ in range(count):
        tlen, mlen = r.unpack("<II")
        parts.append((r.take(tlen), r.take(mlen)))
    digest = r.take(32)
    r.finish()
    if digest != _tables_digest(k, o, [table for table, _ in parts]):
        raise FormatError("dictionary-set digest mismatch")
    tables = [_read_table(table, k, o) for table, _ in parts]
    word_sets = _read_word_sets(tables, k)
    dset = DictionarySet(
        [_parse_dict(t, ws, meta, k, o) for t, ws, (_, meta) in zip(tables, word_sets, parts)]
    )
    dset.digest = digest  # verified above: the tables need not be serialized again
    return dset


# ---------------------------------------------------------------------------
# container


class ContainerHeader(NamedTuple):
    k: int
    o: int
    block_size: int
    total_size: int
    flags: int
    width: int
    height: int
    digest: bytes

    def pack(self) -> bytes:
        """The header's bytes; the block count stored is :meth:`block_count`."""
        return _HEADER.pack(
            CONTAINER_MAGIC, CONTAINER_VERSION, self.flags, self.k, self.o,
            self.block_size, self.total_size, self.width, self.height,
            self.digest, self.block_count(),
        )

    def check(self, error: type[Exception]) -> None:
        """Raise ``error`` unless the fields keep the header's rules: the
        encoder checks what it would write, the decoder what it read.  An
        image is coded in its ``BLOCK_EDGE``-square grid, so its block size
        is that of a full grid block."""
        _validate_block_n(self.block_size, error)
        if self.flags & ~FLAG_IMAGE:
            raise error(f"unknown container flags {self.flags:#x}")
        w, h = self.width, self.height
        if not (0 <= w <= 0xFFFFFFFF and 0 <= h <= 0xFFFFFFFF):
            raise error(f"sides {w}x{h} are not in [0, 2^32 - 1]")
        if not self.flags & FLAG_IMAGE:
            if w or h:
                raise error(f"a container that is not an image has sides {w}x{h}")
        elif w * h != self.total_size:
            raise error(f"image {w}x{h} needs {w * h} bytes, got {self.total_size}")
        elif self.block_size != BLOCK_EDGE**2:
            raise error(f"an image's block size is {BLOCK_EDGE**2}, not {self.block_size}")

    @classmethod
    def read(cls, r: _Reader) -> "ContainerHeader":
        """The checked header at ``r``'s position; its stored block count must
        equal :meth:`block_count`, and that many blocks must fit after it."""
        magic, version, flags, k, o, block_size, total, w, h, digest, nb = _HEADER.unpack(
            r.take(HEADER_SIZE)
        )
        if magic != CONTAINER_MAGIC:
            raise CorruptBlockError("not a compressed container")
        if version != CONTAINER_VERSION:
            raise CorruptBlockError(f"unsupported container version {version}")
        hdr = cls(k, o, block_size, total, flags, w, h, digest)
        hdr.check(CorruptBlockError)
        implied = hdr.block_count()
        if implied != nb:
            raise CorruptBlockError(f"container lists {nb} blocks, geometry implies {implied}")
        # every block takes at least a 4-byte length and a 1-byte body
        if nb * 5 > len(r.buf) - r.pos:
            raise CorruptBlockError(
                f"container lists {nb} blocks, but only {len(r.buf) - r.pos} bytes "
                f"follow the header at offset {r.pos}"
            )
        return hdr

    @classmethod
    def unpack(cls, buf: bytes) -> "ContainerHeader":
        """The checked header at the start of ``buf``, a whole container."""
        return cls.read(_Reader(buf, "container", CorruptBlockError))

    def block_count(self) -> int:
        """Number of blocks the header implies, computed without listing them."""
        if self.flags & FLAG_IMAGE:
            return -(-self.width // BLOCK_EDGE) * -(-self.height // BLOCK_EDGE)
        return -(-self.total_size // self.block_size)

    def block_sizes(self) -> Iterator[int]:
        """Original size of every block, derived lazily from the header alone."""
        if self.flags & FLAG_IMAGE:
            return (bw * bh for bw, bh in block_geometry(self.width, self.height))
        full, rem = divmod(self.total_size, self.block_size)
        return itertools.chain(itertools.repeat(self.block_size, full), [rem] if rem else [])


def compress_bytes(
    data: bytes,
    dset: DictionarySet,
    block_size: int = 4096,
    flags: int = 0,
    width: int = 0,
    height: int = 0,
) -> bytes:
    """Compress ``data`` (``bytes`` or any contiguous buffer, read as its
    bytes) into a standalone container, in the blocks its header implies;
    each block is framed into the output as it is encoded."""
    view = data if isinstance(data, bytes) else memoryview(data).cast("B")
    header = ContainerHeader(
        dset.k, dset.o, block_size, len(view), flags, width, height, dset.digest
    )
    header.check(ValueError)
    out = bytearray(header.pack())
    pos = 0
    for n in header.block_sizes():
        chunk = bytes(view[pos : pos + n])
        pos += n
        counts = np.bincount(np.frombuffer(chunk, np.uint8), minlength=256)
        idx = dset.quick_select(counts, n)
        payload = serialize_block(encode_block(dset[idx], chunk, dict_index=idx))
        out += struct.pack("<I", len(payload))
        out += payload
    return bytes(out)


def decompress_bytes(buf: bytes, dset: DictionarySet) -> bytes:
    """Decompress a container produced by :func:`compress_bytes`; a damaged
    block raises :class:`CorruptBlockError` naming it and its offset."""
    r = _Reader(buf, "container", CorruptBlockError)
    header = ContainerHeader.read(r)
    if header.digest != dset.digest:
        raise FormatError("container was compressed with a different dictionary set")
    # the digest covers the set's K and O: once it matches, only a damaged header differs
    if (header.k, header.o) != (dset.k, dset.o):
        raise CorruptBlockError(f"header K={header.k}, O={header.o}, set K={dset.k}, O={dset.o}")
    out = bytearray()
    for i, n in enumerate(header.block_sizes()):
        at = r.pos
        try:
            clen = int.from_bytes(r.take(4), "little")
            out += decode_block(dset, parse_block(r.take(clen), n, dset))
        except CorruptBlockError as exc:
            raise CorruptBlockError(f"block {i} at offset {at}: {exc}") from exc
    r.finish()
    if len(out) != header.total_size:
        raise CorruptBlockError(
            f"decoded {len(out)} bytes, header promised {header.total_size}"
        )
    return bytes(out)
