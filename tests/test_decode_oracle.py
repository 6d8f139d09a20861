"""Differential tests: the flat-gather decoder against the scalar decoder.

The functions below are the earlier decoder kept as the reference: a table
filled one codeword at a time, a boolean row mask per block, and bit fields
read through ``unpackbits`` and a matrix multiply.  Every fast path must
return exactly what they return.
"""

import numpy as np
import pytest

from ricemarlin import (
    DecoderTable,
    DictionarySet,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    build_dictionary_set,
    compress_bytes,
    decode_block,
    decode_quotients,
    encode_block,
    make_distribution,
    parse_block,
)
from ricemarlin.bitpack import pack_low_bits, pack_units, unpack_low_bits, unpack_units
from ricemarlin.encoder import CompressedBlock
from ricemarlin.format import HEADER_SIZE, ContainerHeader

from conftest import GRID_SIZES, chapter_words, max_word_len, padded_rows

SIZES = (1, 7, 8, 9, 63, 4095, 4096, 65537)
SOURCES = (("laplacian", 0.02), ("laplacian", 0.3), ("poisson", 0.6), ("exponential", 0.85))


def oracle_unpack_units(buf: bytes, width: int, count: int) -> np.ndarray:
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    if width == 8:
        return np.frombuffer(buf, dtype=np.uint8, count=count).astype(np.uint32)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[: count * width]
    weights = (1 << np.arange(width - 1, -1, -1, dtype=np.uint32))
    return bits.reshape(count, width).astype(np.uint32) @ weights


def oracle_unpack_low_bits(buf: bytes, s: int, n: int) -> np.ndarray:
    if s == 0 or n == 0:
        return np.zeros(n, dtype=np.uint8)
    if s == 8:
        return np.frombuffer(buf, dtype=np.uint8, count=n).copy()
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))[: n * s]
    weights = (1 << np.arange(s - 1, -1, -1, dtype=np.uint16)).astype(np.uint16)
    vals = bits.reshape(n, s).astype(np.uint16) @ weights
    return vals.astype(np.uint8)


class OracleTable:
    def __init__(self, dct: MarlinDictionary):
        self.dct = dct
        if dct.empty_quotient:
            return
        self.max_word_len = max_word_len(dct)
        n = dct.n_codewords
        self.words = np.zeros((n, self.max_word_len), dtype=np.uint8)
        self.lengths = np.zeros(n, dtype=np.int64)
        values = np.asarray(dct.alphabet.values, dtype=np.uint8)
        for cw in range(n):
            w = chapter_words(dct, cw >> dct.k)[cw & (dct.words_per_chapter - 1)]
            self.lengths[cw] = len(w)
            self.words[cw, : len(w)] = values[list(w)]


def oracle_decode_quotients(table: OracleTable, stream: bytes, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    dct = table.dct
    k = dct.k
    units = oracle_unpack_units(stream, k, (len(stream) * 8) // k)
    windows = np.empty_like(units)
    windows[0] = 0
    np.bitwise_and(units[:-1], np.uint32(dct.n_chapters - 1), out=windows[1:])
    codewords = (windows.astype(np.int64) << k) | units
    lens = table.lengths[codewords]
    total = np.cumsum(lens)
    assert total[-1] >= n
    used = int(np.searchsorted(total, n, side="left")) + 1
    rows = table.words[codewords[:used]]
    mask = np.arange(table.max_word_len) < lens[:used, None]
    return rows[mask][:n]


def oracle_decode_block(table: OracleTable, block: CompressedBlock, n: int) -> bytes:
    if block.is_raw:
        return bytes(block.raw)
    dct = table.dct
    if dct.empty_quotient:
        quotients = np.full(n, dct.alphabet.values[0], dtype=np.uint8)
    else:
        quotients = oracle_decode_quotients(table, block.quotient_stream, n)
    reminders = oracle_unpack_low_bits(block.reminders, dct.shift, n)
    out = ((quotients.astype(np.uint16) << dct.shift) | reminders).astype(np.uint8)
    for loc, sym in block.escapes:
        out[loc] = sym
    return out.tobytes()


@pytest.fixture(scope="module")
def oracle_set():
    return build_dictionary_set({"grid": list(SOURCES), "k": 8, "o": 4})


@pytest.mark.parametrize("width", range(1, 25))
def test_unpack_units_matches_oracle(width):
    # a group of 8 narrow fields is read through the bytes in front of it, so
    # every partial group (counts 0-17 and around 4096), every buffer type,
    # bytes after the section and a section cut out of a larger buffer must
    # all read the same fields
    rng = np.random.default_rng(width)
    for n in (*SIZES, *range(18), 4097):
        vals = rng.integers(0, 1 << width, n, dtype=np.uint32)
        buf = pack_units(vals, width)
        tail = b"\xff\xff" + rng.bytes(7)
        streams = (buf, bytearray(buf), memoryview(buf), buf + tail, bytearray(buf + tail),
                   memoryview(buf + tail), memoryview(tail + buf + tail)[len(tail) : -len(tail)])
        for stream in streams:
            got = unpack_units(stream, width, n)
            assert got.dtype == (np.uint8 if width <= 8 else np.uint32)
            assert np.array_equal(got, oracle_unpack_units(bytes(stream), width, n)), n
            assert np.array_equal(got, vals)


@pytest.mark.parametrize("s", range(1, 9))
def test_unpack_low_bits_matches_oracle(s):
    rng = np.random.default_rng(100 + s)
    for n in SIZES:
        msg = rng.integers(0, 256, n, dtype=np.uint8)
        buf = pack_low_bits(msg, s)
        got = unpack_low_bits(buf, s, n)
        assert got.dtype == np.uint8
        assert np.array_equal(got, oracle_unpack_low_bits(buf, s, n))


def _assert_same_table(dct):
    got, want = DecoderTable(dct), OracleTable(dct)
    rows = padded_rows(got, want.max_word_len)
    assert rows.dtype == want.words.dtype and rows.shape == want.words.shape
    assert np.array_equal(rows, want.words)
    assert got.lengths.dtype == want.lengths.dtype
    assert np.array_equal(got.lengths, want.lengths)


def test_decoder_table_matches_oracle(oracle_set, worked_dictionary):
    assert max(map(max_word_len, oracle_set.dictionaries)) > 100
    for dct in oracle_set.dictionaries:
        if not dct.empty_quotient:
            _assert_same_table(dct)
    _assert_same_table(worked_dictionary)  # one word set per chapter
    p = np.zeros(256)
    p[:3] = (0.6, 0.25, 0.15)
    _assert_same_table(
        MarlinDictionary.build(SymbolDistribution(p), k=3, o=0, shift=0, threshold=2**-16)
    )


def test_decode_matches_oracle_on_built_set(oracle_set):
    for i, ((fam, frac), dct) in enumerate(zip(SOURCES, oracle_set.dictionaries)):
        dist = make_distribution(SyntheticFamily(fam, frac))
        oracle = OracleTable(dct)
        for n in SIZES:
            msg = dist.sample(n, seed=n)
            block = encode_block(dct, msg, dict_index=i)
            if block.is_raw:
                continue
            if not dct.empty_quotient:
                got = decode_quotients(DecoderTable(dct), block.quotient_stream, n)
                want = oracle_decode_quotients(oracle, block.quotient_stream, n)
                assert got.dtype == np.uint8 and np.array_equal(got, want)
            assert decode_block(oracle_set, block) == oracle_decode_block(oracle, block, n) == msg


def test_decode_matches_oracle_at_table_shifts():
    # the oracle set builds at S = 0, 0, 3 and 5; these blocks carry reminders
    # of 1, 2 and 4 bits, the widths read through the per-byte field table
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dset = DictionarySet([MarlinDictionary.build(dist, k=8, o=4, shift=s, threshold=2**-10)
                          for s in (1, 2, 4)])
    for i, dct in enumerate(dset.dictionaries):
        oracle = OracleTable(dct)
        for n in SIZES:
            msg = dist.sample(n, seed=n)
            block = encode_block(dct, msg, dict_index=i)
            assert block.is_raw == (n == 1)  # one byte is cheaper raw
            if not block.is_raw:
                assert len(block.reminders) == (n * dct.shift + 7) // 8
            assert decode_block(dset, block) == oracle_decode_block(oracle, block, n) == msg


def test_decode_matches_oracle_on_acceptance_grid(grid_distributions, grid_set):
    oracles = [OracleTable(dct) for dct in grid_set.dictionaries]
    checked = 0
    for i, dist in enumerate(grid_distributions.values()):
        for j, n in enumerate(GRID_SIZES):
            data = dist.sample(n, seed=1000 + j)
            comp = compress_bytes(data, grid_set)
            pos, at = 0, HEADER_SIZE
            # each block as the container frames it: a u32 length, then its body
            for size in ContainerHeader.unpack(comp).block_sizes():
                clen = int.from_bytes(comp[at : at + 4], "little")
                block = parse_block(comp[at + 4 : at + 4 + clen], size, grid_set)
                at += 4 + clen
                oracle = None if block.is_raw else oracles[block.dict_index]
                want = oracle_decode_block(oracle, block, size)
                assert decode_block(grid_set, block) == want == data[pos : pos + size]
                pos += size
                checked += 1
            assert (at, pos) == (len(comp), n)
    assert checked == len(grid_distributions) * 21
