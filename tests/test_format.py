import collections.abc
import dataclasses
import hashlib
import random
import re
import struct
import zlib

import numpy as np
import pytest

from ricemarlin import (
    BuildError,
    CorruptBlockError,
    DecoderTable,
    EncoderMatrix,
    FormatError,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    abr_estimate,
    build_dictionary_set,
    compress_bytes,
    decode_block,
    decompress_bytes,
    encode_block,
    load_dictset,
    make_distribution,
    parse_block,
    save_dictset,
    serialize_block,
)
from ricemarlin.dictionary import (
    MAX_CODE_BITS,
    RAW_INDEX,
    DictionarySet,
    link_word_lists,
    split_alphabet,
)
from ricemarlin.encoder import CompressedBlock
from ricemarlin.image import residual_inverse, residual_transform
from ricemarlin.source import point_mass, uniform
from ricemarlin.format import (
    _HEADER,
    CONTAINER_MAGIC,
    CONTAINER_VERSION,
    FLAG_IMAGE,
    HEADER_SIZE,
    ContainerHeader,
    _tables_digest,
    dictset_digest,
)

from conftest import (
    A,
    B,
    C,
    D,
    FAMILIES,
    FRACTIONS,
    GRID_SIZES,
    WORKED_CHAPTER_0,
    WORKED_CHAPTER_1,
    abcd_distribution,
    binary_word_sets,
    excluded,
    from_tables_copy,
    level_one_start,
    max_word_len,
    select,
    unsafe_copy,
)


@pytest.fixture(scope="module")
def tiny_set():
    grid = [("laplacian", 0.2), ("laplacian", 0.5), ("laplacian", 0.8)]
    return build_dictionary_set({"grid": grid, "k": 8, "o": 4, "block_n": 4096})


# ---------------------------------------------------------------------------
# block wire format


def test_serialize_raw_block():
    blk = CompressedBlock(dict_index=255, n=3, raw=bytes([1, 2, 3]))
    assert serialize_block(blk) == bytes([0xFF, 1, 2, 3])


def test_serialize_simple_block():
    blk = CompressedBlock(dict_index=4, n=1, quotient_stream=bytes([0xAB]))
    assert serialize_block(blk) == bytes([0x04, 0x00, 0xAB])


@pytest.mark.parametrize("index", [-1, RAW_INDEX, 300])
def test_serialize_rejects_an_index_a_coded_block_cannot_carry(tiny_set, index):
    # encode_block refuses these indexes; a coded block given one in memory
    # wrote 255 as the raw-block byte, which parses as a raw block, and
    # failed on -1 and 300 with bytearray's own range error
    msg = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(1000, seed=3)
    block = encode_block(tiny_set[1], msg, dict_index=1)
    assert not block.is_raw
    with pytest.raises(ValueError, match=rf"^dictionary index {index} is not in \[0, 255\)$"):
        serialize_block(dataclasses.replace(block, dict_index=index))


def test_escape_section_width_scales_with_message_size(tiny_set):
    p = np.zeros(256)
    p[0], p[1], p[200] = 0.9, 0.0999, 0.0001
    dist = SymbolDistribution(p)
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=0.01)
    one = DictionarySet([dct])
    msg = bytearray(dist.sample(300, seed=1).replace(bytes([200]), bytes([0])))
    msg[5], msg[200] = 200, 200
    blk = encode_block(dct, bytes(msg), dict_index=0)
    assert len(blk.escapes) == 2
    data = serialize_block(blk)
    # 2 escapes x (2 location bytes + 1 symbol byte) for a 300-symbol block
    assert len(data) == 2 + len(blk.quotient_stream) + 2 * 3 + len(blk.reminders)
    parsed = parse_block(data, 300, one)
    assert parsed.escapes == [(5, 200), (200, 200)]


@pytest.mark.parametrize("second, message", [
    (300, "escape location outside the block"),
    (65535, "escape location outside the block"),
    (5, "escape locations must be strictly ascending"),
    (4, "escape locations must be strictly ascending"),
])
def test_container_rejects_bad_escape_locations(second, message):
    # the escapes at 5 and 200 of a 300-symbol block take 2 location bytes
    # each; the second is rewritten in place in the container
    p = np.zeros(256)
    p[0], p[1], p[200] = 0.9, 0.0999, 0.0001
    dist = SymbolDistribution(p)
    dct = MarlinDictionary.build(dist, k=8, o=4, shift=0, threshold=0.01)
    one = DictionarySet([dct])
    msg = bytearray(dist.sample(300, seed=1).replace(bytes([200]), bytes([0])))
    msg[5], msg[200] = 200, 200
    blk = encode_block(dct, bytes(msg), dict_index=0)
    buf = bytearray(compress_bytes(bytes(msg), one))
    second_at = HEADER_SIZE + 4 + 2 + len(blk.quotient_stream) + 3
    assert buf[second_at : second_at + 3] == bytes([200, 0, 200])
    assert decompress_bytes(bytes(buf), one) == msg
    buf[second_at : second_at + 2] = second.to_bytes(2, "little")
    with pytest.raises(CorruptBlockError, match=f"^block 0 at offset {HEADER_SIZE}: {message}$"):
        decompress_bytes(bytes(buf), one)


def _with_first_body(comp: bytes, body: bytes) -> bytes:
    """``comp`` with block 0's body replaced by ``body`` and its length field fixed."""
    clen = int.from_bytes(comp[HEADER_SIZE : HEADER_SIZE + 4], "little")
    rest = comp[HEADER_SIZE + 4 + clen :]
    return comp[:HEADER_SIZE] + struct.pack("<I", len(body)) + body + rest


@pytest.mark.parametrize("case, message", [
    ("raw-short", "raw block holds 299 bytes, expected 300"),
    ("one-byte", "block truncated before the escape counter"),
    ("escapes-overrun", "block size is inconsistent with its sections"),
    ("extra-quotient-byte", "empty-quotient dictionary with a quotient section"),
])
def test_container_rejects_blocks_their_sections_cannot_fill(tiny_set, case, message):
    # each block body is rewritten in a valid one-block container of 300
    # symbols, so only the block's own rules can reject it: parse_block's
    # when the sections cannot be cut, decode_block's otherwise
    dset = tiny_set
    msg = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(300, seed=2)
    if case == "extra-quotient-byte":
        # one quotient at S = 0: no bits per symbol, and decode_quotients
        # never runs, so decode_block must reject the section itself
        dct = MarlinDictionary.build(point_mass(7), 8, 4, shift=0, threshold=2**-16)
        dset = DictionarySet([dct])
        msg = bytes([7]) * 300
    comp = compress_bytes(msg, dset)
    body = comp[HEADER_SIZE + 4 :]
    assert decompress_bytes(comp, dset) == msg
    if case == "raw-short":
        body = bytes([RAW_INDEX]) + msg[:-1]
    elif case == "one-byte":
        body = body[:1]
    elif case == "escapes-overrun":
        assert body[0] != RAW_INDEX and len(body) < 2 + 255 * 3
        body = body[:1] + bytes([255]) + body[2:]
    else:
        assert body == bytes(2)
        body += b"\x00"
    with pytest.raises(CorruptBlockError, match=f"^block 0 at offset {HEADER_SIZE}: {message}$"):
        decompress_bytes(_with_first_body(comp, body), dset)


def test_parse_inverts_serialize_fuzzed(tiny_set):
    rng = np.random.default_rng(3)
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = tiny_set[1]
    for _ in range(100):
        n = int(rng.integers(0, 2000))
        msg = dist.sample(n, seed=int(rng.integers(1 << 30)))
        blk = encode_block(dct, msg, dict_index=1)
        buf = serialize_block(blk)
        parsed = parse_block(buf, n, tiny_set)
        assert parsed.dict_index == blk.dict_index
        assert parsed.quotient_stream == blk.quotient_stream
        assert parsed.escapes == blk.escapes
        assert parsed.reminders == blk.reminders
        assert parsed.raw == blk.raw


def test_parse_raw_empty():
    blk = parse_block(bytes([0xFF]), 0, None)
    assert blk.is_raw and blk.raw == b""


def test_parse_truncated_raises(tiny_set):
    dct = tiny_set[0]
    msg = make_distribution(SyntheticFamily("laplacian", 0.2)).sample(500, seed=1)
    buf = serialize_block(encode_block(dct, msg, dict_index=0))

    def parse_and_decode(data):
        from ricemarlin import decode_block

        return decode_block(tiny_set, parse_block(data, 500, tiny_set))

    assert parse_and_decode(buf) == msg
    # gross truncation dies at parse; a shaved stream dies while decoding
    with pytest.raises(CorruptBlockError):
        parse_and_decode(buf[:3])
    with pytest.raises(CorruptBlockError):
        parse_and_decode(buf[: len(buf) - 2])
    with pytest.raises(CorruptBlockError):
        parse_block(b"", 0, tiny_set)


def test_parse_unknown_index_raises(tiny_set):
    with pytest.raises(CorruptBlockError):
        parse_block(bytes([7, 0, 0, 0]), 2, tiny_set)


def test_serialized_length_formula(tiny_set):
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = tiny_set[1]
    for n in (1, 255, 256, 4096):
        msg = dist.sample(n, seed=n)
        blk = encode_block(dct, msg, dict_index=1)
        buf = serialize_block(blk)
        assert len(buf) == blk.serialized_size()


# ---------------------------------------------------------------------------
# dictionary-set persistence


def test_dictset_roundtrip_reproduces_tables(tiny_set):
    data = save_dictset(tiny_set)
    loaded = load_dictset(data)
    assert len(loaded) == len(tiny_set)
    assert loaded.k == tiny_set.k and loaded.o == tiny_set.o
    for a, b in zip(tiny_set.dictionaries, loaded.dictionaries):
        assert a.shift == b.shift
        assert a.levels == b.levels
        assert a.abr == pytest.approx(b.abr, rel=1e-12)
        ta, tb = DecoderTable(a), DecoderTable(b)
        for name in ("symbols", "lengths", "ends"):
            assert np.array_equal(getattr(ta, name), getattr(tb, name)), name
        ma, mb = EncoderMatrix(a), EncoderMatrix(b)
        assert ma.rows == mb.rows
        for name in ("cell_next", "cell_ends", "cell_units"):
            assert np.array_equal(getattr(ma, name), getattr(mb, name)), name
    # byte-identical re-serialization
    assert save_dictset(loaded) == data


def test_built_from_tables_and_loaded_sets_hold_one_form(grid_set):
    # every chapter's word set is equal array for array, dtype included,
    # however the dictionary was made
    loaded = load_dictset(save_dictset(grid_set))
    for built, reloaded in zip(grid_set.dictionaries, loaded.dictionaries):
        if built.empty_quotient:
            continue
        copies = (built, from_tables_copy(built), reloaded)
        for c in range(built.n_chapters):
            want, *others = (d.word_sets[d.chapter_sets[c]] for d in copies)
            for got in others:
                assert got.level == want.level and got.distinct == want.distinct
                for name in ("ranks", "lengths", "kvals", "parents", "offsets"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_dictset_roundtrip_keeps_from_tables_levels():
    # chapters 1 and 2 share exclusion level 1 but hold separate word sets
    dist = abcd_distribution()
    dct = from_tables_copy(MarlinDictionary.build(dist, 4, 2, 0, 2**-16))
    data = save_dictset(DictionarySet([dct]))
    loaded = load_dictset(data)
    got = loaded[0]
    assert got.levels == dct.levels == (0, 1, 1, 0)
    assert got.mean_parse_length(dist) == dct.mean_parse_length(dist)
    assert abr_estimate(got, dist) == abr_estimate(dct, dist)
    assert select(loaded, dist, 4096) == 0
    assert save_dictset(loaded) == data


def test_loaded_dictionaries_have_the_built_chapter_stationary(grid_distributions, grid_set):
    # a loaded dictionary carries no training statistics; the chain gives them
    loaded = load_dictset(save_dictset(grid_set))
    for built, got, dist in zip(
        grid_set.dictionaries, loaded.dictionaries, grid_distributions.values()
    ):
        assert np.array_equal(got.chapter_stationary(dist), built.chapter_stationary(dist))


def _signed(k: int, o: int, parts: list[tuple[bytes, bytes]]) -> bytes:
    """A set file of ``(table, metadata)`` parts, its digest and CRC computed."""
    body = b"RMDS" + struct.pack("<BBBB", 2, k, o, len(parts)) + b"".join(
        struct.pack("<II", len(table), len(meta)) + table + meta for table, meta in parts
    )
    body += _tables_digest(k, o, [table for table, _ in parts])
    return body + struct.pack("<I", zlib.crc32(body))


def _split(data: bytes) -> tuple[int, int, list[tuple[bytes, bytes]]]:
    """K, O and the ``(table, metadata)`` parts of a set file."""
    k, o, count = data[5], data[6], data[7]
    pos, parts = 8, []
    for _ in range(count):
        tlen, mlen = struct.unpack_from("<II", data, pos)
        table = data[pos + 8 : pos + 8 + tlen]
        parts.append((table, data[pos + 8 + tlen : pos + 8 + tlen + mlen]))
        pos += 8 + tlen + mlen
    assert pos + 32 + 4 == len(data)
    assert _signed(k, o, parts) == data
    return k, o, parts


def _parent_code(k: int) -> str:
    return "H" if k <= 16 else "I"


def edited_set_file(dct, edit) -> bytes:
    """``dct``'s one-entry set file after ``edit`` has changed its table.

    The table is decoded into fields: ``shift``, ``values``,
    ``chapter_sets`` and ``word_sets`` (dicts of ``level``, ``words`` and
    the stored ``parents``, where a single-symbol word names itself).
    ``edit`` changes them in place; the table is re-encoded and the digest
    and the CRC recomputed, so only the loader's own checks can reject the
    file.
    """
    k, o, [(table, meta)] = _split(save_dictset(DictionarySet([dct])))
    code = _parent_code(k)
    pos = 0

    def take(n):
        nonlocal pos
        pos += n
        return table[pos - n : pos]

    shift, nq = struct.unpack("<BH", take(3))
    f = {"shift": shift, "values": list(take(nq)), "chapter_sets": [], "word_sets": []}
    (n_sets,) = struct.unpack("<H", take(2))
    if n_sets:
        f["chapter_sets"] = list(take(1 << o))
        levels = list(take(n_sets))
        n = n_sets << k
        lengths = struct.unpack(f"<{n}H", take(2 * n))
        parents = list(struct.unpack(f"<{n}{code}", take(struct.calcsize(code) * n)))
        words = [tuple(take(length)) for length in lengths]
        for s, level in enumerate(levels):
            at = slice(s << k, (s + 1) << k)
            f["word_sets"].append({"level": level, "words": words[at], "parents": parents[at]})
    assert pos == len(table)

    def encode(f):
        sets = f["word_sets"]
        out = struct.pack("<BH", f["shift"], len(f["values"])) + bytes(f["values"])
        out += struct.pack("<H", len(sets))
        if sets:
            out += bytes(f["chapter_sets"]) + bytes(ws["level"] for ws in sets)
            words = [w for ws in sets for w in ws["words"]]
            parents = [p for ws in sets for p in ws["parents"]]
            out += struct.pack(f"<{len(words)}H", *map(len, words))
            out += struct.pack(f"<{len(parents)}{code}", *parents)
            out += b"".join(map(bytes, words))
        return out

    assert encode(f) == table
    edit(f)
    return _signed(k, o, [(encode(f), meta)])


def test_dictset_rejects_word_set_header_unlike_its_place(abcd_dist):
    dct = MarlinDictionary.build(abcd_dist, 3, 1, 0, 2**-16)
    assert dct.levels == (0, 1) and len(dct.word_sets) == 2

    # a set's index is its place in the file; its header is its level
    def with_level(level):
        return edited_set_file(dct, lambda f: f["word_sets"][1].update(level=level))

    assert load_dictset(with_level(1))[0].levels == (0, 1)
    # a set's level is the lowest first rank of its words
    for level in (0, 2, 255):
        with pytest.raises(FormatError, match="level"):
            load_dictset(with_level(level))
    # every stored set must be named by a chapter; an unnamed one would only
    # add unreachable nodes and rows to the compiled tables
    extra = edited_set_file(dct, lambda f: f["word_sets"].append(dict(f["word_sets"][-1])))
    with pytest.raises(FormatError, match="no chapter names"):
        load_dictset(extra)
    # and every chapter must name a stored set
    with pytest.raises(FormatError, match="does not hold"):
        load_dictset(edited_set_file(dct, lambda f: f.update(chapter_sets=[0, 2])))


def _value_out_of_range(f):
    f["values"][-1] = 256 >> f["shift"]


def _value_repeated(f):
    f["values"][-1] = f["values"][0]


def _single_missing(f):
    # the top rank's single-symbol word becomes an extension of a leaf
    ws = f["word_sets"][0]
    words = ws["words"]
    at, leaf = words.index((len(f["values"]) - 1,)), words.index(max(words, key=len))
    words[at] = words[leaf] + (0,)
    ws["parents"][at] = leaf


#: table edits that each leave a set file the loader must reject, each by
#: breaking one rule only.  An empty-quotient dictionary is one without sets
SET_FILE_MUTATIONS = {
    "value-out-of-range": _value_out_of_range,
    "repeated-value": _value_repeated,
    "single-symbol-word-missing": _single_missing,
    "empty-flag-over-ten-quotients": lambda f: f.update(chapter_sets=[], word_sets=[]),
}


def small_laplacian_dictionary():
    """laplacian 0.5 at K=4/O=1, S=2: ten quotients, one word set."""
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, 4, 1, 2, 2**-10)
    assert len(dct.alphabet) == 10 and excluded(dct.alphabet)
    return dct


@pytest.mark.parametrize("mutation", list(SET_FILE_MUTATIONS))
def test_dictset_rejects_tables_unlike_a_valid_dictionary(mutation):
    dct = small_laplacian_dictionary()
    data = save_dictset(DictionarySet([dct]))
    assert edited_set_file(dct, lambda f: None) == data
    assert save_dictset(load_dictset(data)) == data
    with pytest.raises(FormatError):
        load_dictset(edited_set_file(dct, SET_FILE_MUTATIONS[mutation]))


def test_unsafe_word_sets_are_rejected(worked_dictionary):
    # the digest of a saved unsafe set verifies, so only the safety check
    # keeps it from loading
    unsafe = unsafe_copy(worked_dictionary)
    with pytest.raises(FormatError, match="unsafe"):
        load_dictset(save_dictset(DictionarySet([unsafe])))
    with pytest.raises(BuildError, match="unsafe"):
        from_tables_copy(unsafe)
    # a word must be non-empty and hold alphabet values only
    for bad in ((9,), ()):
        chapters = [list(WORKED_CHAPTER_0), list(WORKED_CHAPTER_1)]
        chapters[0][0] = bad
        with pytest.raises(BuildError, match="empty word or a value outside"):
            MarlinDictionary.from_tables(3, 1, worked_dictionary.alphabet, chapters)


def test_shifts_and_ranks_outside_the_alphabet_are_rejected(worked_dictionary):
    alphabet = worked_dictionary.alphabet
    for shift in (-1, 9):
        with pytest.raises(BuildError, match="shift"):
            MarlinDictionary.from_tables(
                3, 1, dataclasses.replace(alphabet, shift=shift),
                [WORKED_CHAPTER_0, WORKED_CHAPTER_1],
            )
    # "a" is followed by every value and then by 9, so its child count
    # exceeds the four quotients; the set is prefix-closed otherwise
    words = [(A,), (B,), (C,), (D,), (A, A), (A, B), (A, C), (A, D), (A, 9), (A, A, A),
             (A, A, B), (A, A, C), (A, A, D), (A, B, A), (A, B, B), (A, B, C)]
    with pytest.raises(BuildError, match="outside the alphabet"):
        MarlinDictionary.from_tables(4, 0, alphabet, [words])
    ranks = [bytes(min(r, len(alphabet)) for r in w) for w in words]
    dct = MarlinDictionary(4, 0, alphabet, tuple(link_word_lists([A], [ranks])), (0,))
    with pytest.raises(FormatError, match="outside the alphabet"):
        load_dictset(save_dictset(DictionarySet([dct])))


def test_from_tables_rejects_a_value_past_a_full_alphabet():
    # at shift 0 with all 256 quotients, value 256 is one past the last rank:
    # as a byte it would wrap to rank 0 and make this set a valid copy of one
    # that holds the word (a, a)
    alphabet = split_alphabet(uniform(), 0, 0.0)
    values = alphabet.values
    assert len(values) == 256
    words = [(v,) for v in values] + [(values[0], v) for v in values]
    assert MarlinDictionary.from_tables(9, 0, alphabet, [words]).word_sets[0].distinct
    words[256] = (values[0], 256)
    with pytest.raises(BuildError, match="outside the alphabet"):
        MarlinDictionary.from_tables(9, 0, alphabet, [words])


def test_dictset_empty_dictionary_stores_no_sets():
    # at shift 8 the one quotient needs no word sets: the table ends at the
    # set count, and a byte after it is rejected
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, 4, 1, 8, 0.0)
    assert dct.empty_quotient and not dct.word_sets
    data = save_dictset(DictionarySet([dct]))
    k, o, [(table, meta)] = _split(data)
    assert table == struct.pack("<BHBH", 8, 1, dct.alphabet.values[0], 0)
    assert load_dictset(data)[0].empty_quotient
    with pytest.raises(FormatError, match="add up to 0 ranks"):
        load_dictset(_signed(k, o, [(table + b"\0", meta)]))


@pytest.mark.parametrize("o, index, bad", [(8, "<u1", []), (9, "<u2", [512, 0xFFFF])])
def test_dictset_set_index_width_follows_the_set_count(o, index, bad):
    # each of the 2^O chapters has its own set: 256 sets keep one-byte
    # indices; 512 need two
    dist, dct = binary_word_sets(o)
    alphabet, n_sets = dct.alphabet, 1 << o
    assert len(dct.word_sets) == n_sets
    data = save_dictset(DictionarySet([dct]))
    k, o, [(table, meta)] = _split(data)
    at = 5 + len(alphabet)  # shift, ranking and set count come first
    width = np.dtype(index).itemsize
    assert table[at - 2 : at] == struct.pack("<H", n_sets)
    assert table[at : at + width * n_sets] == np.arange(n_sets, dtype=index).tobytes()
    assert table[at + width * n_sets : at + (width + 1) * n_sets] == bytes(n_sets)  # levels
    loaded = load_dictset(data)
    assert loaded[0].chapter_sets == dct.chapter_sets
    assert save_dictset(loaded) == data
    msg = dist.sample(10000, seed=3)
    container = compress_bytes(msg, loaded)
    assert len(container) < len(msg) // 4
    assert decompress_bytes(container, loaded) == msg
    # a set index at or above the set count still names no stored set (one
    # byte cannot hold such an index for 256 sets)
    for c in bad:
        edited = table[:at] + np.array([c], dtype=index).tobytes() + table[at + width :]
        with pytest.raises(FormatError, match="does not hold"):
            load_dictset(_signed(k, o, [(edited, meta)]))


# Each case edits the worked dictionary's chapter 1 (level 1) without making
# it unsafe: offset 4 ("bb") and offset 6 ("d") are level-0 slots, and "b"
# keeps its child "ba".
@pytest.mark.parametrize("offset, word, rule", [
    (4, (B, A), "distinct"),  # repeats "ba"
    (4, (C, B, A), "prefix-closed"),  # "cb" is absent
    (4, (B, C), "most probable"),  # "bc" without "bb"
    (6, (B, B, A), "single-symbol"),  # drops "d"
], ids=["repeated-word", "not-prefix-closed", "not-most-probable", "single-missing"])
def test_invalid_word_sets_are_rejected(worked_dictionary, offset, word, rule):
    chapters = [list(WORKED_CHAPTER_0), list(WORKED_CHAPTER_1)]
    chapters[1][offset] = word
    alphabet = worked_dictionary.alphabet
    with pytest.raises(BuildError, match=rule):
        MarlinDictionary.from_tables(3, 1, alphabet, chapters)
    # the same sets, assembled without a check, saved and loaded
    assert alphabet.values == (A, B, C, D)  # ranks are values
    word_sets = tuple(link_word_lists(
        [min(w[0] for w in ws) for ws in chapters], [list(map(bytes, ws)) for ws in chapters]
    ))
    dct = MarlinDictionary(3, 1, alphabet, word_sets, (0, 1))
    with pytest.raises(FormatError, match=rule):
        load_dictset(save_dictset(DictionarySet([dct])))


def test_chapter_0_of_level_1_is_rejected():
    # every block's first word is read in chapter 0: a set whose chapter 0
    # has level 1 would trap the encoder on a first quotient of rank 0
    alphabet, chapters = level_one_start()
    with pytest.raises(BuildError, match="chapter 0 has level 1"):
        MarlinDictionary.from_tables(2, 1, alphabet, chapters)
    word_sets = tuple(link_word_lists([1, 0], [list(map(bytes, ws)) for ws in chapters]))
    dct = MarlinDictionary(2, 1, alphabet, word_sets, (0, 1))
    with pytest.raises(FormatError, match="chapter 0 has level 1"):
        load_dictset(save_dictset(DictionarySet([dct])))


def test_from_tables_rejects_chapters_without_2k_distinct_words(worked_dictionary):
    # a short chapter, empty ones, and eight empty words
    alphabet = worked_dictionary.alphabet
    for chapters in ([WORKED_CHAPTER_0, WORKED_CHAPTER_1[:-1]], [WORKED_CHAPTER_0, []], [[], []],
                     [WORKED_CHAPTER_0, [()] * 8]):
        with pytest.raises(BuildError, match="must hold 8 distinct words"):
            MarlinDictionary.from_tables(3, 1, alphabet, chapters)


def test_dictset_digest_tracks_tables_only(tiny_set):
    d = dictset_digest(tiny_set)
    assert tiny_set.digest == d
    # metadata does not move the digest; a set keeps its digest, so each
    # check digests a fresh one
    old = tiny_set[0].abr
    tiny_set[0].abr = old + 1.0
    try:
        assert DictionarySet(tiny_set.dictionaries).digest == d
    finally:
        tiny_set[0].abr = old
    assert DictionarySet(tiny_set.dictionaries[::-1]).digest != d


def test_dictset_corrupted_digest_rejected(tiny_set):
    data = bytearray(save_dictset(tiny_set))
    data[-1] ^= 0xFF
    with pytest.raises(FormatError):
        load_dictset(bytes(data))


def test_dictset_corrupted_table_rejected(tiny_set):
    data = bytearray(save_dictset(tiny_set))
    data[40] ^= 0x01
    with pytest.raises(FormatError):
        load_dictset(bytes(data))


def test_dictset_rejects_wrong_magic():
    with pytest.raises(FormatError):
        load_dictset(b"NOPE" + b"\x00" * 64)


def test_dictset_rejects_version_1(tiny_set):
    # version 1 stored every word as a (u16 length, bytes) record and ended
    # at the digest; the version byte is read before anything else
    data = bytearray(save_dictset(tiny_set))
    assert data[4] == 2
    data[4] = 1
    with pytest.raises(FormatError, match="unsupported dictionary-set version 1"):
        load_dictset(bytes(data))


def test_dictset_crc_covers_the_metadata(tiny_set):
    # the estimate metadata lies outside the digest, so the CRC alone
    # catches a change there; a set re-signed with its new CRC loads
    data = save_dictset(tiny_set)
    k, o, parts = _split(data)
    table, meta = parts[0]
    abr = struct.unpack_from("<d", meta, 8)[0]
    parts[0] = (table, meta[:8] + struct.pack("<d", abr + 1.0) + meta[16:])
    resigned = _signed(k, o, parts)
    assert resigned[-36:-4] == data[-36:-4]  # the same digest
    with pytest.raises(FormatError, match="checksum"):
        load_dictset(resigned[:-4] + data[-4:])
    assert load_dictset(resigned)[0].abr == abr + 1.0


def _flip_digest(data: bytes) -> bytes:
    """``data`` with one digest bit flipped and its CRC recomputed."""
    body = bytearray(data[:-4])
    body[-32] ^= 0x01
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def _non_utf8_source_id(data: bytes) -> bytes:
    """``data`` re-signed with its first source id's bytes set to 0xFF."""
    k, o, parts = _split(data)
    table, meta = parts[0]
    (sid_len,) = struct.unpack_from("<H", meta, 36)
    parts[0] = (table, meta[:38] + b"\xff" * sid_len + meta[38 + sid_len :])
    return _signed(k, o, parts)


def _block_n_zero(data: bytes) -> bytes:
    """``data`` re-signed with its first dictionary's block size set to 0."""
    k, o, parts = _split(data)
    table, meta = parts[0]
    parts[0] = (table, meta[:32] + struct.pack("<I", 0) + meta[36:])
    return _signed(k, o, parts)


@pytest.mark.parametrize("forge, message", [
    (lambda data: _signed(8, 4, []), "^a dictionary set must contain at least one dictionary$"),
    (
        lambda data: _signed(0, *_split(data)[1:]),
        rf"^need 1 <= K, 0 <= O <= K, K\+O <= {MAX_CODE_BITS}; got K=0, O=4$",
    ),
    (_flip_digest, "^dictionary-set digest mismatch$"),
    (_non_utf8_source_id, "^dictionary source id is not UTF-8$"),
    (_block_n_zero, r"^block size 0 is not in \[1, 2\^32 - 1\]$"),
], ids=["no-dictionaries", "k-zero", "digest-bit", "source-id", "block-n-zero"])
def test_dictset_rejects_signed_files_it_cannot_hold(tiny_set, forge, message):
    # every forged file carries a valid CRC, so only the loader's own checks
    # reject it; a set without dictionaries would otherwise reach the word
    # sets' concatenation with nothing to join
    with pytest.raises(FormatError, match=message):
        load_dictset(forge(save_dictset(tiny_set)))


def _table_parents(table: bytes, k: int, o: int) -> tuple[int, np.ndarray, np.ndarray, int]:
    """A table's set count, word lengths and stored parents, and where the
    parents start."""
    (nq,) = struct.unpack_from("<H", table, 1)
    (n_sets,) = struct.unpack_from("<H", table, 3 + nq)
    n, at = n_sets << k, 5 + nq + (1 << o) + n_sets
    lengths = np.frombuffer(table, "<u2", n, at)
    parents = np.frombuffer(table, "<" + _parent_code(k), n, at + 2 * n)
    return n_sets, lengths, parents, at + 2 * n


def _parent_edits(k: int, lengths: np.ndarray, parents: np.ndarray, s: int) -> dict:
    """``{rejection: (word, stored parent)}`` for word set ``s``: one edit per
    way a stored parent can be wrong."""
    size = 1 << k
    ln = lengths[s * size : (s + 1) * size].astype(int)
    up = parents[s * size : (s + 1) * size].astype(int)
    # a word whose parent's length is shared by another word of the set
    i = next(int(i) for i in np.flatnonzero(ln > 1) if (ln == ln[i] - 1).sum() > 1)
    edits = {
        "not one rank shorter": (i, next(j for j in range(size) if j != i and ln[j] != ln[i] - 1)),
        "not its prefix": (i, next(j for j in range(size) if j != up[i] and ln[j] == ln[i] - 1)),
        "stores no parent": (i, i),  # a word naming itself
        "single-symbol word with a parent": (int(np.flatnonzero(ln == 1)[0]), i),
    }
    if size <= 0xFFFF:  # at K=16 every two-byte value names a word of the set
        edits["outside its set"] = (i, size)
    return edits


def _binary_tree_file() -> bytes:
    """A valid K=16/O=0 set over two quotients: every word of up to 15
    ranks and two of 16, stored in reverse, so the singles, which name
    themselves, sit at positions 2^16 - 2 and 2^16 - 1."""
    size, words, depth = 1 << 16, [], [b"\0", b"\1"]
    while len(words) + len(depth) <= size:
        words += depth
        depth = [w + bytes([r]) for w in depth for r in (0, 1)]
    words = (words + depth[: size - len(words)])[::-1]
    index = {w: i for i, w in enumerate(words)}
    return _one_set_file(16, words, [index.get(w[:-1], i) for i, w in enumerate(words)])


@pytest.mark.parametrize("which", ["grid", "long-words", "k3", "k16"])
def test_hostile_parents_raise_format_error_naming_the_word_set(
    which, grid_set, long_word_set, worked_dictionary
):
    if which == "grid":
        d = next(d for d, dct in enumerate(grid_set) if len(dct.word_sets) == 2)
        data = save_dictset(grid_set)
    elif which == "long-words":
        d, data = 0, save_dictset(long_word_set)
        assert max_word_len(long_word_set[0]) == 237
    elif which == "k3":
        d, data = 0, save_dictset(DictionarySet([worked_dictionary]))
    else:
        d, data = 0, _binary_tree_file()
    k, o, parts = _split(data)
    n_sets, lengths, parents, at = _table_parents(parts[d][0], k, o)
    assert load_dictset(data)[d].k == k
    width = struct.calcsize(_parent_code(k))
    for s in range(n_sets):
        edits = _parent_edits(k, lengths, parents, s)
        assert len(edits) == (4 if k == 16 else 5)
        for what, (word, parent) in edits.items():
            def edit(table, at=at + width * ((s << k) + word), parent=parent):
                struct.pack_into("<" + _parent_code(k), table, at, parent)
                return table

            match = f"dictionary {d}, word set {s}, word {word} .*{what}"
            with pytest.raises(FormatError, match=match):
                load_dictset(_resigned(data, d, edit))


def test_dictset_mutations_raise_format_error_or_load(tiny_set):
    # truncations, bit flips and byte insertions anywhere in the file
    data = save_dictset(tiny_set)
    msg = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(1500, seed=6)
    rng = np.random.default_rng(2026)
    loaded_count = 0
    for i in range(300):
        buf = bytearray(data)
        at = int(rng.integers(0, len(buf)))
        if i % 3 == 0:
            del buf[at:]
        elif i % 3 == 1:
            buf[at] ^= 1 << int(rng.integers(0, 8))
        else:
            buf.insert(at, int(rng.integers(0, 256)))
        try:
            loaded = load_dictset(bytes(buf))
        except FormatError:
            continue
        loaded_count += 1
        assert decompress_bytes(compress_bytes(msg, loaded), loaded) == msg
    # the CRC covers every byte before it, metadata included
    assert loaded_count == 0


def test_tables_compile_once_per_owner(tiny_set, monkeypatch):
    from ricemarlin import format as fmt

    built = {"matrix": [], "table": [], "digest": []}
    for cls, name in ((EncoderMatrix, "matrix"), (DecoderTable, "table")):
        def counting(self, dct, _init=cls.__init__, _name=name):
            built[_name].append(dct)
            _init(self, dct)

        monkeypatch.setattr(cls, "__init__", counting)
    digest = fmt.dictset_digest
    monkeypatch.setattr(
        fmt, "dictset_digest", lambda dset: built["digest"].append(dset) or digest(dset)
    )
    dset = load_dictset(save_dictset(tiny_set))  # a set nothing has compiled yet
    assert isinstance(dset.dictionaries, tuple)
    data = b"".join(
        make_distribution(SyntheticFamily("laplacian", f)).sample(4096, seed=5)
        for f in (0.2, 0.8, 0.2, 0.8)
    )
    for _ in range(2):
        comp = compress_bytes(data, dset)
        assert decompress_bytes(comp, dset) == data
    used, pos = set(), HEADER_SIZE
    while pos < len(comp):  # each block: a 4-byte length, then #D first
        used.add(comp[pos + 4])
        pos += 4 + struct.unpack_from("<I", comp, pos)[0]
    assert len(used) >= 2 and RAW_INDEX not in used
    for name in ("matrix", "table"):
        assert sorted(map(dset.dictionaries.index, built[name])) == sorted(used), name
    # the loader verified the file's digest and keeps it
    assert built["digest"] == [] and dset.digest == digest(dset)
    for dct in dset.dictionaries:
        lut = dct.alphabet.rank_lut
        assert dct.alphabet.rank_lut is lut and not lut.flags.writeable


def test_built_set_computes_its_digest_once(tiny_set, monkeypatch):
    from ricemarlin import format as fmt

    calls = []
    digest = fmt.dictset_digest
    monkeypatch.setattr(fmt, "dictset_digest", lambda dset: calls.append(dset) or digest(dset))
    dset = DictionarySet(tiny_set.dictionaries)  # a set nothing has digested yet
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(5000, seed=8)
    for _ in range(2):
        assert decompress_bytes(compress_bytes(data, dset), dset) == data
    assert calls == [dset] and dset.digest == digest(tiny_set)


def _one_set_file(k: int, words: list[bytes], parents: list[int]) -> bytes:
    """A signed K/O=0 set file: one dictionary over two quotients at shift 0,
    whose one word set holds ``words`` with stored ``parents``."""
    table = struct.pack("<BH", 0, 2) + bytes([0, 1]) + struct.pack("<H", 1) + bytes([0, 0])
    table += struct.pack(f"<{len(words)}H", *map(len, words))
    table += struct.pack(f"<{len(parents)}{_parent_code(k)}", *parents)
    table += b"".join(words)
    meta = struct.pack("<ddddIH", 0.0, 1.0, 1.0, 0.0, 4096, 0) + struct.pack("<2d", 0.5, 0.5)
    return _signed(k, 0, [(table, meta)])


@pytest.mark.parametrize("k, long_word", [(8, 60_000), (16, 362)], ids=["k8", "k16"])
def test_long_words_load_in_memory_in_proportion_to_the_file(k, long_word):
    # one word of ``long_word`` ranks among single-symbol words.  A 2^K by
    # longest-word matrix of ranks would take 15 MB at K=8 and 23 MB at
    # K=16 (362 ranks is about the square root of twice the set's total
    # length); the loader holds the words as they are in the file
    import tracemalloc

    words = [bytes([i & 1]) for i in range((1 << k) - 1)] + [bytes(long_word)]
    data = _one_set_file(k, words, list(range(1 << k)))  # every word names itself
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="word set 0"):
            load_dictset(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * len(data) + (1 << 20), (peak, len(data))


def test_shared_long_chain_compiles_its_decoder_table_in_proportion_to_the_file():
    # K=9, O=9 over two quotients: one word set holding both singles and the
    # chain of zeros up to 511 ranks, named by all 512 chapters.  A table of
    # 2^18 codewords padded to the longest word would take 133 MB; the
    # decoder keeps the set's symbols once, plus 12 bytes per codeword
    import tracemalloc

    p = np.full(256, 0.01 / 254)
    p[:2] = (0.9, 0.09)
    dist = SymbolDistribution(p)
    words = [b"\x00", b"\x01"] + [bytes(n) for n in range(2, 512)]
    dct = MarlinDictionary(
        9, 9, split_alphabet(dist, 0, 0.05), tuple(link_word_lists([0], [words])), (0,) * 512
    )
    dct.check(BuildError)
    data = save_dictset(DictionarySet([dct]))
    assert len(data) < 140_000
    dset = load_dictset(data)
    tracemalloc.start()
    try:
        table = dset[0].table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert len(table.symbols) == sum(map(len, words))
    msg = dist.sample(4096, seed=5)
    block = encode_block(dset[0], msg)
    assert not block.is_raw
    assert decode_block(dset, parse_block(serialize_block(block), 4096, dset)) == msg


def _resigned(data: bytes, at: int, edit) -> bytes:
    """``data`` with ``edit`` applied to table ``at``, its length, the digest
    and the CRC updated."""
    k, o, parts = _split(data)
    parts[at] = (bytes(edit(bytearray(parts[at][0]))), parts[at][1])
    return _signed(k, o, parts)


def test_resigned_table_mutations_raise_format_error_or_reload():
    # mutations re-signed with the table digest reach the word-set parser; a
    # long-word dictionary (words up to 237 ranks) and two word sets per
    # dictionary.  Each mutation is rejected or loads as exactly those bytes.
    dset = build_dictionary_set(
        {"grid": [("laplacian", 0.02), ("laplacian", 0.5), ("poisson", 0.3)],
         "k": 8, "o": 4, "block_n": 4096}
    )
    assert max_word_len(dset[0]) == 237 and all(len(d.word_sets) == 2 for d in dset)
    data = save_dictset(dset)
    msg = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(3000, seed=9)
    rng = np.random.default_rng(2027)
    loaded = 0
    for i in range(3000):
        at = int(rng.integers(len(dset)))

        def edit(table, i=i):
            where = int(rng.integers(len(table)))
            if i % 3 == 0:
                del table[where:]
            elif i % 3 == 1:
                table[where] ^= 1 << int(rng.integers(8))
            else:
                table.insert(where, int(rng.integers(256)))
            return table

        buf = _resigned(data, at, edit)
        try:
            got = load_dictset(buf)
        except FormatError:
            continue
        loaded += 1
        assert save_dictset(got) == buf
        assert decompress_bytes(compress_bytes(msg, got), got) == msg
    assert loaded < 30, loaded


def test_grid_set_and_containers_bytes_are_pinned(grid_distributions, grid_set):
    """Set-file and container bytes of the acceptance grid, pinned by sha256.

    The digests were taken on x86-64 Linux with numpy 2.4; a refactor that
    keeps the codec's output must keep them.  The image containers have
    sides that are not multiples of the 64-pixel block edge, so their edge
    blocks mix block sizes.
    """
    assert list(grid_distributions) == [(f, x) for f in FAMILIES for x in FRACTIONS]
    set_digest = hashlib.sha256(save_dictset(grid_set)).hexdigest()
    assert set_digest == "63718f4287cefdceccf14ffd5bd0b27b649b1f3da00a38c4c82f1558d3e9974b"
    containers = hashlib.sha256()
    for dist in grid_distributions.values():
        for i, n in enumerate(GRID_SIZES):
            containers.update(compress_bytes(dist.sample(n, seed=1000 + i), grid_set))
    assert containers.hexdigest() == (
        "5e78ae7c3a63f5b5f1c17f87a51e40080e8db16eeb6f29dd4d12ef334ed81a1b"
    )
    images = hashlib.sha256()
    for (w, h), seed in (((130, 100), 2000), ((97, 65), 2001)):
        field = make_distribution(SyntheticFamily("laplacian", 0.3)).sample(w * h, seed=seed)
        img = residual_inverse(field, w, h)
        comp = compress_bytes(
            residual_transform(img), grid_set, flags=FLAG_IMAGE, width=w, height=h
        )
        images.update(comp)
        assert np.array_equal(residual_inverse(decompress_bytes(comp, grid_set), w, h), img)
    assert images.hexdigest() == (
        "52b654f9d881217b4ea49058505559e3b2a63abae3280cca9f766bc66b8306f4"
    )


def test_empty_set_unrepresentable():
    from ricemarlin.errors import BuildError

    with pytest.raises(BuildError):
        DictionarySet([])


# ---------------------------------------------------------------------------
# container


def test_container_roundtrip_various_sizes(tiny_set):
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    for n in (0, 1, 4095, 4096, 4097, 65536):
        data = dist.sample(n, seed=n)
        comp = compress_bytes(data, tiny_set, block_size=4096)
        assert decompress_bytes(comp, tiny_set) == data


def test_container_blocks_follow_the_header(tiny_set):
    # no caller can pass other block sizes, which would write a container
    # whose block count disagrees with its header
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(10_000, seed=6)
    with pytest.raises(TypeError):
        compress_bytes(data, tiny_set, sizes=[100, 200])
    comp = compress_bytes(data, tiny_set)
    assert ContainerHeader.unpack(comp).block_count() == 3
    assert decompress_bytes(comp, tiny_set) == data

def test_block_size_must_fit_the_header(tiny_set):
    # the header stores the block size as a u32
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(3000, seed=4)
    for bad in (0, 1 << 32, 5_000_000_000):
        with pytest.raises(ValueError, match="block size"):
            compress_bytes(data, tiny_set, block_size=bad)
    comp = compress_bytes(data, tiny_set, block_size=0xFFFFFFFF)
    assert decompress_bytes(comp, tiny_set) == data


def test_empty_blocks_are_raw(tiny_set):
    # an empty block is stored as the raw index alone, whichever dictionary coded it
    for i in range(len(tiny_set)):
        payload = serialize_block(encode_block(tiny_set[i], b"", dict_index=i))
        assert payload == b"\xff"
        block = parse_block(payload, 0, tiny_set)
        assert block.is_raw and decode_block(tiny_set, block) == b""


def test_compress_holds_one_copy_of_the_container_beside_its_result(tiny_set):
    # each block is framed into the output as it is encoded: the output
    # buffer and the bytes returned are the two copies, and no list of every
    # block body is held beside them
    import tracemalloc

    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(1 << 20, seed=9)
    tracemalloc.start()
    try:
        comp = compress_bytes(data, tiny_set, block_size=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert decompress_bytes(comp, tiny_set) == data
    assert peak < 2.5 * len(comp), (peak, len(comp))


@pytest.mark.parametrize("wrap", [
    bytes, bytearray, memoryview,
    lambda data: memoryview(bytearray(data)).cast("H"),  # read as its bytes
], ids=["bytes", "bytearray", "memoryview", "memoryview-u16"])
def test_compress_reads_any_contiguous_buffer_as_its_bytes(tiny_set, wrap):
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(5000, seed=4)
    for block_size in (4096, 1024):
        comp = compress_bytes(wrap(data), tiny_set, block_size=block_size)
        assert comp == compress_bytes(data, tiny_set, block_size=block_size)
        assert type(comp) is bytes and decompress_bytes(comp, tiny_set) == data


def test_compress_rejects_a_strided_buffer(tiny_set):
    with pytest.raises(TypeError, match="C-contiguous"):
        compress_bytes(memoryview(bytes(100))[::2], tiny_set)


def test_container_rejects_wrong_set(tiny_set):
    other = build_dictionary_set(
        {"grid": [("laplacian", 0.4)], "k": 8, "o": 4, "block_n": 4096}
    )
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(5000, seed=2)
    comp = compress_bytes(data, tiny_set)
    with pytest.raises(FormatError):
        decompress_bytes(comp, other)


def test_container_detects_truncation(tiny_set):
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(9000, seed=3)
    comp = compress_bytes(data, tiny_set)
    with pytest.raises(CorruptBlockError):
        decompress_bytes(comp[: len(comp) - 3], tiny_set)
    with pytest.raises(CorruptBlockError):
        decompress_bytes(comp[:10], tiny_set)


def _bytes_header(block_size: int, total: int) -> ContainerHeader:
    return ContainerHeader(8, 4, block_size, total, 0, 0, 0, bytes(32))


def _image_header(w: int, h: int) -> ContainerHeader:
    return ContainerHeader(8, 4, 4096, w * h, FLAG_IMAGE, w, h, bytes(32))


_GEOMETRY = [
    *(pytest.param(_bytes_header(1, t), [1] * t, id=f"bytes-{t}-in-1")
      for t in (0, 1, 4095, 4096, 4097, 10_000)),
    *(pytest.param(_bytes_header(4096, t), want, id=f"bytes-{t}-in-4096") for t, want in (
        (0, []), (1, [1]), (4095, [4095]), (4096, [4096]), (4097, [4096, 1]),
        (10_000, [4096, 4096, 1808]),
    )),
    *(pytest.param(_bytes_header(2**32 - 1, t), [t] if t else [], id=f"bytes-{t}-in-2^32-1")
      for t in (0, 1, 4095, 4096, 4097, 10_000)),
    # an image's blocks are its 64x64 grid in raster order, edges included
    *(pytest.param(_image_header(w, h), want, id=f"image-{w}x{h}") for w, h, want in (
        (0, 5, []), (5, 0, []), (64, 64, [4096]), (65, 1, [64, 1]),
        (130, 70, [4096, 4096, 128, 384, 384, 12]), (1, 200, [64, 64, 64, 8]),
    )),
]


@pytest.mark.parametrize("hdr, want", _GEOMETRY)
def test_container_header_derives_block_sizes(hdr, want):
    sizes = hdr.block_sizes()
    assert isinstance(sizes, collections.abc.Iterator)  # lazy: nothing is listed
    sizes = list(sizes)
    assert sizes == want
    assert sum(sizes) == hdr.total_size and len(sizes) == hdr.block_count()
    assert all(1 <= n <= hdr.block_size for n in sizes)
    # the stored count is always the one the geometry implies
    assert int.from_bytes(hdr.pack()[-4:], "little") == hdr.block_count()


# ---------------------------------------------------------------------------
# container header validation


def _valid_container(dset) -> bytes:
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(9000, seed=4)
    return compress_bytes(data, dset)


def _with_header(comp: bytes, n_blocks: int, **fields) -> bytes:
    """``comp`` with a forged header: ``fields`` override header fields, and
    ``n_blocks`` is stored as the block count whatever they imply."""
    h = ContainerHeader.unpack(comp)._replace(**fields)
    return _HEADER.pack(
        CONTAINER_MAGIC, CONTAINER_VERSION, h.flags, h.k, h.o, h.block_size, h.total_size,
        h.width, h.height, h.digest, n_blocks,
    ) + comp[HEADER_SIZE:]


def test_container_rejects_zero_block_size(tiny_set):
    comp = _with_header(_valid_container(tiny_set), 3, block_size=0)
    with pytest.raises(CorruptBlockError, match=r"block size 0 is not in \[1, 2\^32 - 1\]"):
        decompress_bytes(comp, tiny_set)


def test_container_rejects_more_blocks_than_the_file_holds(tiny_set):
    comp = _valid_container(tiny_set)
    n = 10_000_000  # consistent with total_size, but 5 bytes each do not fit
    with pytest.raises(CorruptBlockError, match="bytes follow the header"):
        decompress_bytes(_with_header(comp, n, block_size=1, total_size=n), tiny_set)
    side = 64 * 1000
    image = _with_header(
        comp, 1000 * 1000, flags=FLAG_IMAGE, width=side, height=side,
        total_size=side * side,
    )
    with pytest.raises(CorruptBlockError, match="bytes follow the header"):
        decompress_bytes(image, tiny_set)


def test_container_rejects_image_size_mismatch(tiny_set):
    comp = _with_header(
        _valid_container(tiny_set), 1, flags=FLAG_IMAGE, width=64, height=64,
    )
    with pytest.raises(CorruptBlockError, match="image 64x64 needs 4096 bytes"):
        decompress_bytes(comp, tiny_set)


def test_compress_rejects_image_of_another_size(tiny_set):
    # decompress_bytes rejects these headers with the same check
    with pytest.raises(ValueError, match="image 10x10 needs 100 bytes, got 50"):
        compress_bytes(bytes(50), tiny_set, flags=FLAG_IMAGE, width=10, height=10)
    for fields, match in (
        ({"flags": 0x02}, "unknown container flags 0x2"),
        ({"flags": FLAG_IMAGE | 0x80, "width": 10, "height": 10}, "unknown container flags 0x81"),
        ({"width": 10, "height": 10}, "not an image has sides 10x10"),
        ({"height": 100}, "not an image has sides 0x100"),
        # the sides are u32 fields, and an image's blocks are its 64x64 grid
        ({"flags": FLAG_IMAGE, "width": -10, "height": -10}, "sides -10x-10 are not in"),
        ({"flags": FLAG_IMAGE, "width": 0, "height": 2**32}, "sides 0x4294967296 are not in"),
        ({"width": 2**32}, "sides 4294967296x0 are not in"),
        ({"flags": FLAG_IMAGE, "width": 10, "height": 10, "block_size": 8192},
         "an image's block size is 4096, not 8192"),
    ):
        with pytest.raises(ValueError, match=match):
            compress_bytes(bytes(100), tiny_set, **fields)
    data = make_distribution(SyntheticFamily("laplacian", 0.5)).sample(100, seed=3)
    comp = compress_bytes(data, tiny_set, flags=FLAG_IMAGE, width=10, height=10)
    assert decompress_bytes(comp, tiny_set) == data


@pytest.mark.parametrize("n_blocks", [2, 4, 2**32 - 1])
def test_container_rejects_block_count_mismatch(tiny_set, n_blocks):
    comp = _with_header(_valid_container(tiny_set), n_blocks)
    with pytest.raises(CorruptBlockError, match="geometry implies 3"):
        decompress_bytes(comp, tiny_set)


def test_container_rejects_trailing_bytes(tiny_set):
    comp = _valid_container(tiny_set)
    assert decompress_bytes(comp, tiny_set)
    with pytest.raises(CorruptBlockError, match=f"trailing bytes .* offset {len(comp)}$"):
        decompress_bytes(comp + b"junk", tiny_set)


# ---------------------------------------------------------------------------
# damaged containers


def _flipped(buf: bytes, bit: int) -> bytes:
    out = bytearray(buf)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_every_header_bit_flip_is_rejected(tiny_set):
    # K and O must be the set's, no flag but the image flag may be set, a
    # container of bytes has sides 0x0, and an image's block size is 4096
    data = make_distribution(SyntheticFamily("laplacian", 0.3)).sample(10_000, seed=1)
    image = compress_bytes(data[:130 * 70], tiny_set, flags=FLAG_IMAGE, width=130, height=70)
    for comp in (compress_bytes(data, tiny_set), image):
        for bit in range(8 * HEADER_SIZE):
            with pytest.raises((CorruptBlockError, FormatError)):
                decompress_bytes(_flipped(comp, bit), tiny_set)


@pytest.fixture(scope="module")
def four_sources(tiny_set):
    data = b"".join(
        make_distribution(SyntheticFamily(family, fraction)).sample(16_384, seed=1)
        for family, fraction in (
            ("laplacian", 0.3), ("poisson", 0.5), ("exponential", 0.7), ("laplacian", 0.85)
        )
    )
    return data, compress_bytes(data, tiny_set)


def test_truncations_and_insertions_name_their_offset(tiny_set, four_sources):
    # past the header, every block error names the block's offset, and the
    # reader's own errors name theirs
    _, comp = four_sources
    rng = random.Random(7)
    for i in range(400):
        at = rng.randrange(len(comp))
        damaged = comp[:at] if i % 2 else comp[:at] + bytes([rng.randrange(256)]) + comp[at:]
        try:
            decompress_bytes(damaged, tiny_set)
        except CorruptBlockError as exc:
            assert at < HEADER_SIZE or re.search(r"offset \d+", str(exc)), (i, at, exc)
        except FormatError:
            assert at < HEADER_SIZE, (i, at)
        else:
            pytest.fail(f"damage {i} at byte {at} decoded")


def test_bit_flips_raise_or_decode_to_the_promised_size(tiny_set, four_sources):
    # flips in reminder and quotient bytes can decode to wrong bytes of the
    # right length: only a per-block checksum would catch them
    data, comp = four_sources
    rng = random.Random(7)
    for _ in range(1000):
        try:
            out = decompress_bytes(_flipped(comp, rng.randrange(8 * len(comp))), tiny_set)
        except (CorruptBlockError, FormatError):
            continue
        assert len(out) == len(data)
