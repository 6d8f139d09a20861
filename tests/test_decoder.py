import dataclasses
import functools
import random
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A, B, C, D, chapter_words
from ricemarlin import (
    CorruptBlockError,
    DecoderTable,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    decode_block,
    decode_quotients,
    encode_block,
    make_distribution,
)
from ricemarlin.dictionary import DictionarySet
from ricemarlin.encoder import CompressedBlock
from ricemarlin.format import parse_block, serialize_block
from ricemarlin.source import point_mass, uniform


def test_quotient_reminder_identity_exhaustive():
    # (q << S) | r == x for every byte and every shift
    for s in range(9):
        for x in range(256):
            q, r = x >> s, x & ((1 << s) - 1)
            assert (q << s) | r == x


def test_table_entries_worked_dictionary(worked_dictionary):
    table = DecoderTable(worked_dictionary)
    words = chapter_words(worked_dictionary, 0) + chapter_words(worked_dictionary, 1)
    assert words[0b0101] == (A, A, A)
    assert words[0b1000] == (B, A, A, A)
    assert words[0b0000] == (A, A, A, A)
    assert words[0b1111] == (B,)
    values = worked_dictionary.alphabet.values
    for cw in range(worked_dictionary.n_codewords):
        word = tuple(values[r] for r in words[cw])
        end = int(table.ends[cw])
        assert table.lengths[cw] == len(word)
        assert tuple(table.symbols[end - len(word) : end]) == word
    # each of the two word sets once, without padding
    assert len(table.symbols) == sum(map(len, words))


def test_table_near_identity_dictionary():
    # 3 represented quotients at K=2: all singles plus one forced extension
    p = np.zeros(256)
    p[:3] = (0.5, 0.3, 0.2)
    dct = MarlinDictionary.build(SymbolDistribution(p), k=2, o=0, shift=0, threshold=2**-16)
    table = DecoderTable(dct)
    assert sorted(table.lengths.tolist()) == [1, 1, 1, 2]


def test_decode_worked_bitstream(worked_dictionary):
    table = DecoderTable(worked_dictionary)
    stream = bytes([0b10100110, 0b10000000])  # 101 001 101 zero-initialized
    out = decode_quotients(table, stream, 6)
    assert list(out) == [A, A, A, B, A, C]


def test_decode_zero_symbols_consumes_nothing(worked_dictionary):
    table = DecoderTable(worked_dictionary)
    assert len(decode_quotients(table, b"", 0)) == 0


def test_decode_exhaustion_raises(worked_dictionary):
    table = DecoderTable(worked_dictionary)
    with pytest.raises(CorruptBlockError):
        decode_quotients(table, bytes([0b10100110]), 100)
    with pytest.raises(CorruptBlockError):
        decode_quotients(table, b"", 1)


def test_decode_rejects_overrun_and_extra_units(worked_dictionary):
    table = DecoderTable(worked_dictionary)
    stream = bytes([0b10100110, 0b10000000])  # three words, six symbols
    with pytest.raises(CorruptBlockError, match="overruns"):
        decode_quotients(table, stream, 4)  # the second word ends at symbol 5
    with pytest.raises(CorruptBlockError, match="3 bytes"):
        decode_quotients(table, stream + b"\x00", 6)
    with pytest.raises(CorruptBlockError):
        decode_quotients(table, b"\x00", 0)


def test_inserted_quotient_byte_is_corrupt():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=2, threshold=2**-10)
    msg = dist.sample(4096, seed=8)
    buf = serialize_block(encode_block(dct, msg))
    assert buf[0] == 0  # not raw: the quotient section starts at byte 2
    dset = DictionarySet([dct])
    assert decode_block(dset, parse_block(buf, 4096, dset)) == msg
    for at in (2, 3, 40):  # first, second and a middle quotient byte
        bad = buf[:at] + bytes([buf[at]]) + buf[at:]
        with pytest.raises(CorruptBlockError):
            decode_block(dset, parse_block(bad, 4096, dset))


def test_decode_quotients_matches_encoder_stage_one():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=2, threshold=2**-10)
    table = DecoderTable(dct)
    rank_lut = dct.alphabet.rank_lut
    values = np.asarray(dct.alphabet.values, dtype=np.uint8)
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 3000))
        msg = dist.sample(n, seed=int(rng.integers(1 << 30)))
        block = encode_block(dct, msg)
        if block.is_raw:
            continue
        ranks = rank_lut[np.frombuffer(msg, np.uint8)]
        expected = values[np.where(ranks < 0, 0, ranks)]
        got = decode_quotients(table, block.quotient_stream, n)
        assert np.array_equal(got, expected)


def test_decode_block_raw_passthrough():
    blk = CompressedBlock(dict_index=255, n=3, raw=bytes([9, 8, 7]))
    assert decode_block(None, blk) == bytes([9, 8, 7])
    with pytest.raises(CorruptBlockError):
        decode_block(None, CompressedBlock(dict_index=255, n=4, raw=bytes([9, 8, 7])))


@pytest.mark.parametrize("index", [-1, 1, 255])
def test_decode_block_rejects_an_index_outside_the_set(index):
    # a set holds at most 255 dictionaries, so 255 is never a coded block's
    dct = MarlinDictionary.build(uniform(), k=8, o=4, shift=8, threshold=0.0)
    blk = CompressedBlock(dict_index=index, n=64, reminders=bytes(range(64)))
    with pytest.raises(CorruptBlockError, match=f"unknown dictionary index {index}$"):
        decode_block(DictionarySet([dct]), blk)


def test_decode_block_full_shift_outputs_reminders():
    dct = MarlinDictionary.build(uniform(), k=8, o=4, shift=8, threshold=0.0)
    payload = bytes(range(64))
    blk = CompressedBlock(dict_index=0, n=64, reminders=payload)
    assert decode_block(DictionarySet([dct]), blk) == payload


def test_decode_block_bad_escape_location():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=2**-10)
    msg = dist.sample(100, seed=4)
    blk = encode_block(dct, msg)
    assert not blk.is_raw
    # beyond the block, and -1, which would otherwise write its last byte
    for loc in (100, -1):
        blk.escapes = [(0, 7), (loc, 7)]
        with pytest.raises(CorruptBlockError, match="^escape location outside the block$"):
            decode_block(DictionarySet([dct]), blk)
    # descending and repeated locations, as the wire parser used to reject them
    for escapes in ([(50, 7), (5, 7)], [(5, 7), (5, 7), (50, 7)]):
        blk.escapes = escapes
        with pytest.raises(
            CorruptBlockError, match="^escape locations must be strictly ascending$"
        ):
            decode_block(DictionarySet([dct]), blk)
    # symbols that are not bytes: numpy would raise OverflowError, or wrap
    for sym in (300, -1):
        blk.escapes = [(5, sym)]
        with pytest.raises(CorruptBlockError, match=r"^escape symbol outside \[0, 255\]$"):
            decode_block(DictionarySet([dct]), blk)


def test_empty_quotient_block_rejects_a_quotient_section():
    # an empty-quotient dictionary codes no bits per quotient, so any byte
    # of a quotient section is damage
    dct = MarlinDictionary.build(point_mass(7), 8, 4, shift=0, threshold=2**-16)
    dset = DictionarySet([dct])
    blk = encode_block(dct, bytes([7]) * 100)
    assert not blk.is_raw and blk.quotient_stream == b""
    assert decode_block(dset, blk) == bytes([7]) * 100
    stray = dataclasses.replace(blk, quotient_stream=b"\x55\x66")
    with pytest.raises(
        CorruptBlockError, match="^empty-quotient dictionary with a quotient section$"
    ):
        decode_block(dset, stray)


def test_a_short_quotient_section_allocates_nothing_for_its_declared_size():
    # a 1-byte quotient section declared to hold 2^32 - 1 symbols: the
    # decoder unpacks the one unit it holds and stops, so the failing decode
    # allocates nothing in proportion to n
    dist = make_distribution(SyntheticFamily("laplacian", 0.3))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=2**-10)
    assert not dct.empty_quotient
    dset = DictionarySet([dct])
    dct.table  # compiled before the trace: the table is the set's, not the block's
    n = 2**32 - 1
    tracemalloc.start()
    try:
        with pytest.raises(CorruptBlockError, match="^quotient stream exhausted"):
            decode_block(dset, parse_block(bytes([0, 0, 0x00]), n, dset))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("shift", [0, 2])
def test_an_empty_block_keeps_the_block_rules(shift):
    # n = 0 takes the checks of every other size: a quotient byte or an
    # escape in an empty block is damage, not an empty result
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=shift, threshold=2**-10)
    dset = DictionarySet([dct])
    assert decode_block(dset, CompressedBlock(0, 0)) == b""
    with pytest.raises(CorruptBlockError, match="^quotient section present for an empty block$"):
        decode_block(dset, CompressedBlock(0, 0, b"\x01", [], b""))
    with pytest.raises(CorruptBlockError, match="^escape location outside the block$"):
        decode_block(dset, CompressedBlock(0, 0, b"", [(0, 9)], b""))


@pytest.mark.parametrize("shift", [0, 2])
def test_reminder_bytes_past_the_block_are_corrupt(shift):
    # the reminder section holds exactly ceil(n * S / 8) bytes, none at S = 0
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=shift, threshold=2**-10)
    dset = DictionarySet([dct])
    msg = dist.sample(100, seed=5)
    blk = encode_block(dct, msg)
    assert not blk.is_raw and len(blk.reminders) == (100 * shift + 7) // 8
    assert decode_block(dset, blk) == msg
    long = dataclasses.replace(blk, reminders=blk.reminders + b"\x00\x00")
    with pytest.raises(CorruptBlockError, match="^reminder section is"):
        decode_block(dset, long)


def test_decode_is_deterministic(worked_dictionary):
    msg = bytes([A, A, A, B, A, C] * 10)
    blk = encode_block(worked_dictionary, msg)
    dset = DictionarySet([worked_dictionary])
    a = decode_block(dset, blk)
    b = decode_block(dset, blk)
    assert a == b == msg


@pytest.mark.parametrize("fam,frac", [("laplacian", 0.3), ("poisson", 0.6), ("exponential", 0.5)])
def test_full_pipeline_fuzz(fam, frac):
    dist = make_distribution(SyntheticFamily(fam, frac))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=1, threshold=2**-10)
    rng = np.random.default_rng(hash(fam) & 0xFFFF)
    for _ in range(300):
        n = int(rng.integers(0, 1500))
        msg = dist.sample(n, seed=int(rng.integers(1 << 30)))
        blk = encode_block(dct, msg)
        assert decode_block(DictionarySet([dct]), blk) == msg


@functools.cache
def _differential_set() -> tuple[DictionarySet, tuple]:
    """Sources and a set of one dictionary per source: S = 0 and S > 0, and
    the empty-quotient ``point_mass(7)``."""
    sources = (
        (make_distribution(SyntheticFamily("laplacian", 0.5)), 0),
        (make_distribution(SyntheticFamily("laplacian", 0.5)), 2),
        (make_distribution(SyntheticFamily("poisson", 0.6)), 1),
        (make_distribution(SyntheticFamily("exponential", 0.5)), 3),
        (point_mass(7), 0),
    )
    dset = DictionarySet([
        MarlinDictionary.build(dist, k=8, o=4, shift=shift, threshold=2**-10)
        for dist, shift in sources
    ])
    return dset, tuple(dist for dist, _ in sources)


def _one_field_edits(blk: CompressedBlock, rnd: random.Random):
    """Copies of ``blk`` with one field changed: a raw body lengthened or
    shortened; a quotient or reminder byte added or dropped; an escape
    repeated, moved or dropped, or the escapes reversed."""
    replace = dataclasses.replace
    if blk.is_raw:
        yield replace(blk, raw=blk.raw + bytes([rnd.randrange(256)]))
        yield replace(blk, raw=blk.raw[:-1])
        return
    for name in ("quotient_stream", "reminders"):
        data = getattr(blk, name)
        at = rnd.randint(0, len(data))
        yield replace(blk, **{name: data[:at] + bytes([rnd.randrange(256)]) + data[at:]})
        if data:
            at = rnd.randrange(len(data))
            yield replace(blk, **{name: data[:at] + data[at + 1 :]})
    esc = blk.escapes
    if esc:
        i = rnd.randrange(len(esc))
        moved = list(esc)
        moved[i] = (rnd.randrange(blk.n + 2), esc[i][1])
        yield replace(blk, escapes=esc[: i + 1] + esc[i:])
        yield replace(blk, escapes=moved)
        yield replace(blk, escapes=esc[:i] + esc[i + 1 :])
        yield replace(blk, escapes=esc[::-1])


def _outcome(decode):
    """The bytes ``decode()`` returns, or ``CorruptBlockError`` if it raises that."""
    try:
        return decode()
    except CorruptBlockError:
        return CorruptBlockError


# The wire path against the in-memory path: 150 examples take about 0.5 s
# (pytest --durations on a shared 2-vCPU host).
@hypothesis.seed(2018)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    index=st.integers(0, 4),
    n=st.integers(0, 700),
    rare=st.lists(st.tuples(st.integers(0, 699), st.integers(0, 255)), max_size=4),
    seed=st.integers(0, 2**30),
)
def test_parsed_blocks_decode_as_the_blocks_they_were_written_from(index, n, rare, seed):
    # every block that serialize_block can write decodes the same, or is
    # rejected, whether it is decoded in memory or after a trip over the wire
    dset, sources = _differential_set()
    msg = bytearray(sources[index].sample(n, seed=seed))
    for at, sym in rare:  # bytes the dictionary may escape
        if at < n:
            msg[at] = sym
    blk = encode_block(dset[index], bytes(msg), dict_index=index)
    assert decode_block(dset, blk) == msg
    for changed in _one_field_edits(blk, random.Random(seed)):
        try:
            wire = bytes(serialize_block(changed))
        except (ValueError, OverflowError):  # a location wider than its field
            continue
        assert _outcome(lambda: decode_block(dset, changed)) == _outcome(
            lambda: decode_block(dset, parse_block(wire, n, dset))
        )
