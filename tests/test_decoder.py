import numpy as np
import pytest

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
from ricemarlin.source import uniform


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
