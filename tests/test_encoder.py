import numpy as np
import pytest

from conftest import A, B, C, D, chapter_words, codewords
from ricemarlin import (
    EncoderMatrix,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    encode_block,
    make_distribution,
    pack_reminders,
)
from ricemarlin.dictionary import RAW_INDEX
from ricemarlin.decoder import decode_block
from ricemarlin.source import point_mass
from test_table_oracle import OracleMatrix as GraphOracle


def cw_of(dct, chapter, word_values):
    ranks = tuple(dct.alphabet.values.index(v) for v in word_values)
    return chapter * dct.words_per_chapter + chapter_words(dct, chapter).index(ranks)


# ---------------------------------------------------------------------------
# encoder matrix against the worked dictionary


def node_of(dct, chapter, word_values):
    cw = cw_of(dct, chapter, word_values)
    return dct.chapter_sets[chapter] * dct.words_per_chapter + (cw & (dct.words_per_chapter - 1))


def step(dct, node, rank):
    """The oracle's node after ``rank`` and whether it starts a word; the
    compiled cell of that transition must agree."""
    g, m = GraphOracle(dct), EncoderMatrix(dct)
    nxt = int(g.nxt[node, rank])
    cell = rank * m.stride + g.node_class[node]
    assert m.cell_next[cell] == g.node_class[nxt] and m.cell_ends[cell] == g.starts_word[nxt]
    assert m.cell_units[cell] == nxt & (dct.words_per_chapter - 1)
    return nxt, bool(g.starts_word[nxt])


def test_matrix_extends_within_chapter(worked_dictionary):
    dct = worked_dictionary
    node_aa = node_of(dct, 0, (A, A))  # 0011
    nxt, emits = step(dct, node_aa, A)
    assert not emits  # no emit
    assert nxt == node_of(dct, 0, (A, A, A))  # go to "aaa"


def test_matrix_emits_on_mismatch(worked_dictionary):
    dct = worked_dictionary
    node_aa = node_of(dct, 0, (A, A))
    nxt, emits = step(dct, node_aa, B)
    assert emits  # emit the current codeword (0011)
    # "aa" has an odd codeword, so the next chapter is 1: its word "b"
    assert node_aa & 1 == 1
    assert nxt == node_of(dct, 1, (B,))  # 1111


def test_matrix_chain_dictionary_emits_every_max_length():
    # all mass on one quotient: growth follows the single deepest chain
    dct = MarlinDictionary.build(point_mass(0), k=3, o=0, shift=6, threshold=0.0)
    m = EncoderMatrix(dct)
    max_len = dct.max_word_len
    assert max_len == (1 << 3) - len(dct.alphabet) + 1
    assert len(m.walk([0] * (3 * max_len))) == 3


def test_walk_worked_example_bitstream(worked_dictionary):
    dct = worked_dictionary
    m = EncoderMatrix(dct)
    units = m.walk([A, A, A, B, A, C])
    assert units.tolist() == [0b101, 0b001, 0b101]
    assert codewords(dct, units).tolist() == [0b0101, 0b1001, 0b1101]


def test_encode_block_worked_example(worked_dictionary):
    msg = bytes([A, A, A, B, A, C])
    block = encode_block(worked_dictionary, msg)
    # 101 001 101 packed MSB-first
    assert block.quotient_stream == bytes([0b10100110, 0b10000000])
    assert block.escapes == []
    assert block.reminders == b""


# ---------------------------------------------------------------------------
# reminders


def test_pack_reminders_worked_example():
    assert pack_reminders(bytes(range(8)), 3) == bytes([0x05, 0x39, 0x77])


def test_pack_reminders_degenerate():
    msg = bytes(range(32))
    assert pack_reminders(msg, 0) == b""
    assert pack_reminders(msg, 8) == msg
    with pytest.raises(ValueError):
        pack_reminders(msg, 9)


# ---------------------------------------------------------------------------
# encode_block behavior


def test_encode_empty_message_is_minimal():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=1, threshold=2**-10)
    block = encode_block(dct, b"")
    # a structured empty block would spend 2 bytes; the size fallback keeps 1
    assert block.is_raw and block.raw == b"" and block.n == 0
    assert block.serialized_size() == 1


def test_encode_records_escapes_in_order():
    p = np.zeros(256)
    p[0], p[1], p[200] = 0.9, 0.0999, 0.0001
    dist = SymbolDistribution(p)
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=0.01)
    msg = bytes([0, 200, 0, 0, 200, 1] * 10)
    block = encode_block(dct, msg)
    assert not block.is_raw
    locs = [loc for loc, _ in block.escapes]
    assert locs == sorted(locs)
    assert all(sym == 200 for _, sym in block.escapes)
    assert len(block.escapes) == 20
    assert decode_block(dct, block) == msg


def test_encode_too_many_escapes_falls_back_to_raw():
    p = np.zeros(256)
    p[0], p[1], p[200] = 0.9, 0.0999, 0.0001
    dist = SymbolDistribution(p)
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=0.01)
    msg = bytes([200] * 300)
    block = encode_block(dct, msg)
    assert block.is_raw
    assert block.dict_index == RAW_INDEX
    assert block.serialized_size() == 1 + 300


def test_encode_expansion_falls_back_to_raw():
    dist = make_distribution(SyntheticFamily("laplacian", 0.2))
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=2**-10)
    msg = bytes(np.random.default_rng(0).integers(0, 256, 4096, dtype=np.uint8))
    block = encode_block(dct, msg)
    assert block.is_raw
    assert block.serialized_size() == 1 + 4096


def test_placeholder_substitution_keeps_reminders():
    # escaped positions must contribute their original low bits
    p = np.zeros(256)
    p[0], p[2], p[255] = 0.9, 0.0999, 0.0001
    dist = SymbolDistribution(p)
    dct = MarlinDictionary.build(dist, k=8, o=2, shift=1, threshold=0.01)
    msg = (bytes([0, 2] * 50) + bytes([255])) * 3
    block = encode_block(dct, msg)
    assert not block.is_raw
    assert len(block.escapes) == 3
    assert decode_block(dct, block) == msg


def test_emitted_units_count_matches_parse(worked_dictionary):
    dct = worked_dictionary
    m = EncoderMatrix(dct)
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 64))
        ranks = rng.integers(0, 4, n).tolist()
        stream = len(m.walk(ranks)) * 3  # K bits per emitted word
        block = encode_block(dct, bytes(ranks))
        if not block.is_raw:
            assert len(block.quotient_stream) == (stream + 7) // 8


def test_matrix_never_consults_traps_across_fuzz():
    for fam, frac, k, o, s in [
        ("laplacian", 0.3, 8, 4, 0),
        ("laplacian", 0.7, 8, 4, 2),
        ("poisson", 0.5, 10, 2, 1),
    ]:
        dist = make_distribution(SyntheticFamily(fam, frac))
        dct = MarlinDictionary.build(dist, k=k, o=o, shift=s, threshold=2**-8)
        rng = np.random.default_rng(99)
        for _ in range(20):
            msg = bytes(rng.integers(0, 256, 2048, dtype=np.uint8))
            encode_block(dct, msg)  # raises on any trap hit


def test_per_chapter_walks_start_anywhere(worked_dictionary):
    # parsing from any chapter over admissible sequences always succeeds
    dct = worked_dictionary
    m = EncoderMatrix(dct)
    rng = np.random.default_rng(17)
    for c in range(dct.n_chapters):
        lvl = dct.levels[c]
        for _ in range(200):
            n = int(rng.integers(1, 32))
            seq = rng.integers(lvl, 4, 1).tolist() + rng.integers(0, 4, n).tolist()
            words = codewords(dct, m.walk(seq, chapter=c), c)
            total = sum(
                len(chapter_words(dct, cw >> dct.k)[cw & (dct.words_per_chapter - 1)])
                for cw in words.tolist()
            )
            assert total == len(seq)


def test_units_wider_than_16_bits_round_trip():
    # K = 17 at O = 0: one word set, m = 1 over about 92 000 classes, and
    # units that need 32-bit cell tables and the wide unit packer
    dist = make_distribution(SyntheticFamily("laplacian", 0.3))
    dct = MarlinDictionary.build(dist, k=17, o=0, shift=5, threshold=0.0)
    m = EncoderMatrix(dct)
    assert m.m == 1 and m.cell_units.dtype == np.uint32
    msg = dist.sample(20_000, seed=17)
    block = encode_block(dct, msg)
    assert not block.is_raw and decode_block(dct, block) == msg
    units = m.walk(np.frombuffer(msg.translate(dct.alphabet.rank_table), dtype=np.uint8))
    assert units.max() > 1 << 16
