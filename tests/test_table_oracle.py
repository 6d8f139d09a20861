"""Differential tests: tables compiled from word-set arrays against tuple-driven builds.

``OracleMatrix`` and ``OracleTable`` are the earlier constructors of
``EncoderMatrix`` and ``DecoderTable`` kept as the reference: they read each
word set as tuples, count children by probing ``w + (r,)`` in a dict, and
fill the child table one word at a time.  The compiled tables must equal
theirs array for array, the decoder's words codeword by codeword against
the oracle's padded rows, for built, loaded and ``from_tables`` sets.
``reference_links`` recomputes each word's parent, child count and the
repeat flag the same way, for hostile word sets too.
"""

import gc
import weakref
from array import array
from itertools import accumulate, chain

import numpy as np
import pytest

from ricemarlin import (
    DecoderTable,
    EncoderMatrix,
    MarlinDictionary,
    load_dictset,
    save_dictset,
)
from ricemarlin.dictionary import link_word_lists
from ricemarlin.encoder import STEP_TABLE_CAP

from conftest import abcd_distribution, from_tables_copy, padded_rows, words_of


def reference_links(words: list[tuple[int, ...]]) -> tuple[list[int], list[int], bool]:
    """Parent position, child count and distinctness, read off the tuples."""
    index = {w: i for i, w in enumerate(words)}
    parents = [index.get(w[:-1], -1) if len(w) > 1 else -1 for w in words]
    kvals = []
    for w in words:
        kw = 0
        while w + (kw,) in index:
            kw += 1
        kvals.append(kw)
    return parents, kvals, len(index) == len(words)


class OracleMatrix:
    def __init__(self, dct: MarlinDictionary):
        k, nq = dct.k, len(dct.alphabet)
        self.nn = nn = len(dct.word_sets) << k
        self.single = np.full((len(dct.word_sets), nq), nn, dtype=np.int32)
        child = np.full((nn, nq), nn, dtype=np.int32)
        kvals = np.zeros(nn, dtype=np.int32)
        for ki, lw in enumerate(dct.word_sets):
            base = ki << k
            words = words_of(lw)
            index = {w: i for i, w in enumerate(words)}
            _, counts, _ = reference_links(words)
            kvals[base : base + len(counts)] = counts
            for off, (w, kw) in enumerate(zip(words, counts)):
                if len(w) == 1:
                    self.single[ki, w[0]] = base + off
                child[base + off, :kw] = [base + index[w + (r,)] for r in range(kw)]
        offsets = np.arange(nn) & (dct.words_per_chapter - 1)
        emit = np.arange(nq) >= kvals[:, None]
        chapter_sets = np.array(dct.chapter_sets, dtype=np.intp)
        nxt = np.where(emit, self.single[chapter_sets[offsets & (dct.n_chapters - 1)]], child)
        self.nxt = np.vstack([nxt, np.full((1, nq), nn, dtype=np.int32)])
        self.starts_word = np.zeros(nn + 1, dtype=bool)
        self.starts_word[self.single[self.single < nn]] = True
        # classes: the leaves' (fed set, starts_word) keys in sorted order,
        # then every other node in node order, the trap last
        starts = self.starts_word.tolist()
        fed = {
            v: (dct.chapter_sets[v & (dct.words_per_chapter - 1) & (dct.n_chapters - 1)], starts[v])
            for v in range(nn) if kvals[v] == 0
        }
        leaf_class = {key: c for c, key in enumerate(sorted(set(fed.values())))}
        node_class, first, others = [], {}, len(leaf_class)
        for v in range(nn + 1):
            if v in fed:
                c = leaf_class[fed[v]]
            else:
                c, others = others, others + 1
            node_class.append(c)
            first.setdefault(c, v)
        self.n_classes = classes = len(first)
        self.node_class = np.array(node_class, dtype=np.intp)
        self.rep = np.array([first[c] for c in range(classes)], dtype=np.intp)
        dtype = np.uint8 if classes <= 1 << 8 else np.uint16 if classes <= 1 << 16 else np.uint32
        self.class_nxt = np.array(
            [[node_class[v] for v in self.nxt[first[c]].tolist()] for c in range(classes)],
            dtype=dtype,
        )
        m = 1
        while nq > 1 and classes * nq ** (m + 1) <= STEP_TABLE_CAP:
            m += 1
        self.m = m
        tab = self.class_nxt
        for _ in range(m - 1):
            tab = self.class_nxt[tab].reshape(classes, -1)
        self.byte_keys = nq**m <= 256
        raws = [row.tobytes() for row in tab]
        self.rows = raws if dtype is np.uint8 else [
            array("H" if dtype is np.uint16 else "I", raw) for raw in raws]


class OracleTable:
    def __init__(self, dct: MarlinDictionary):
        sets = [words_of(lw) for lw in dct.word_sets]
        self.max_word_len = width = max(len(w) for words in sets for w in words)
        values = np.asarray(dct.alphabet.values, dtype=np.uint8)
        blocks, lengths = [], []
        for words in sets:
            lens = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
            ranks = np.fromiter(chain.from_iterable(words), dtype=np.intp)
            block = np.zeros((len(words), width), dtype=np.uint8)
            block[np.arange(width) < lens[:, None]] = values[ranks]
            blocks.append(block)
            lengths.append(lens)
        chapter_sets = list(dct.chapter_sets)
        self.words = np.stack(blocks)[chapter_sets].reshape(dct.n_codewords, width)
        self.lengths = np.stack(lengths)[chapter_sets].reshape(dct.n_codewords)


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


def assert_same_cells(got: EncoderMatrix, want: OracleMatrix, dct: MarlinDictionary) -> None:
    """The cell tables, one cell at a time: rank-major over the classes and
    then one start class per chapter, and a flush rank that ends every word."""
    nq, classes = len(dct.alphabet), want.n_classes
    reached = [
        int(want.nxt[want.rep[c], r]) if c < classes
        else int(want.single[dct.chapter_sets[c - classes], r])
        for r in range(nq) for c in range(classes + dct.n_chapters)
    ]
    assert got.stride == classes + dct.n_chapters
    assert got.cell_next.dtype == want.class_nxt.dtype
    assert got.cell_next.tolist() == [int(want.node_class[v]) for v in reached]
    assert got.cell_ends.tolist() == [bool(want.starts_word[v]) for v in reached] + [True] * got.stride
    assert got.cell_units.dtype.itemsize == (1 if dct.k <= 8 else 2 if dct.k <= 16 else 4)
    assert got.cell_units.tolist() == [v % dct.words_per_chapter for v in reached]


def assert_same_matrix(got: EncoderMatrix, want: OracleMatrix, dct: MarlinDictionary) -> None:
    """Everything the walk reads: the step rows, type and typecode included,
    and the cell tables."""
    assert got.n_classes == want.n_classes and got.m == want.m
    assert got.byte_keys == want.byte_keys and len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        assert type(a) is type(b) and a == b
        assert isinstance(a, bytes) or a.typecode == b.typecode
    assert_same_cells(got, want, dct)


def assert_same_tables(dct: MarlinDictionary) -> None:
    assert_same_matrix(EncoderMatrix(dct), OracleMatrix(dct), dct)
    got, want = DecoderTable(dct), OracleTable(dct)
    assert got.k == dct.k
    assert _same(padded_rows(got, want.max_word_len), want.words)
    assert _same(got.lengths, want.lengths)
    # the gather tables, one codeword and one unit at a time: each set's words
    # follow each other in ``symbols``, the sets in order, so a chapter's
    # ends are its set's running total of the oracle's lengths
    size, omask = dct.words_per_chapter, dct.n_chapters - 1
    set_lengths = {s: want.lengths[c * size : (c + 1) * size].tolist()
                   for c, s in enumerate(dct.chapter_sets)}
    set_ends, total = [], 0
    for s in range(len(dct.word_sets)):
        set_ends.append(list(accumulate(set_lengths[s], initial=total))[1:])
        total = set_ends[s][-1]
    ends = [end for s in dct.chapter_sets for end in set_ends[s]]
    window = [(u & omask) << dct.k for u in range(1 << dct.k)]
    assert len(got.symbols) == total  # no padding, no per-chapter copies
    assert got.ends.dtype == (np.int32 if total < 2**31 else np.intp)
    assert got.window.dtype == np.intp
    assert got.ends.tolist() == ends and got.window.tolist() == window


def _coded(dset):
    return [dct for dct in dset.dictionaries if not dct.empty_quotient]


def test_tables_match_oracle_on_grid_set(grid_set):
    loaded = load_dictset(save_dictset(grid_set))
    for dct in _coded(grid_set) + _coded(loaded):
        assert_same_tables(dct)


def test_tables_match_oracle_on_long_words(long_word_set):
    assert [d.max_word_len for d in long_word_set.dictionaries] == [237, 93, 4]
    loaded = load_dictset(save_dictset(long_word_set))
    for dct in long_word_set.dictionaries + loaded.dictionaries:
        assert len(dct.word_sets) == 2
        assert_same_tables(dct)


def test_tables_match_oracle_on_from_tables_dictionaries(worked_dictionary):
    built = MarlinDictionary.build(abcd_distribution(), 4, 2, 0, 2**-16)
    for dct in (worked_dictionary, from_tables_copy(built)):
        assert len(dct.word_sets) == dct.n_chapters
        assert_same_tables(dct)


def test_compiled_tables_keep_only_what_coding_reads(worked_dictionary):
    dct = from_tables_copy(worked_dictionary)
    assert set(vars(EncoderMatrix(dct))) == {
        "rows", "cell_next", "cell_ends", "cell_units", "stride", "n_classes", "m",
        "byte_keys", "_key_weights", "_pack", "n_chapters"}
    assert set(vars(DecoderTable(dct))) == {"k", "symbols", "lengths", "ends", "window"}


def test_compiled_tables_do_not_keep_their_dictionary_alive(worked_dictionary):
    dct = from_tables_copy(worked_dictionary)
    refs = [weakref.ref(dct.matrix), weakref.ref(dct.table)]
    enabled = gc.isenabled()
    gc.disable()  # only reference counting may free them
    try:
        del dct
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def _assert_links(sets) -> int:
    """Compare every set; returns how many held a repeated word.

    A repeated word is two parents at once, so the links of such a set,
    which the check rejects, are not compared.
    """
    repeats = 0
    for lw in sets:
        parents, kvals, distinct = reference_links(words_of(lw))
        assert lw.distinct == distinct
        if distinct:
            assert lw.parents.tolist() == parents
            assert np.asarray(lw.kvals).tolist() == kvals
        repeats += not distinct
    return repeats


def _hostile(words: list[tuple[int, ...]], rng) -> list[tuple[int, ...]]:
    """``words`` with a few replaced: repeats, extensions, cut-off and stray words."""
    words = list(words)
    for _ in range(int(rng.integers(1, 4))):
        i, j = (int(x) for x in rng.integers(0, len(words), 2))
        kind = int(rng.integers(4))
        if kind == 0:
            words[i] = words[j]
        elif kind == 1:
            words[i] = words[j] + (int(rng.integers(0, 6)),)
        elif kind == 2:
            words[i] = words[j][: max(1, len(words[j]) - 2)]
        else:
            words[i] = tuple(int(r) for r in rng.integers(0, 6, int(rng.integers(1, 9))))
    return words


def _linked(word_lists):
    return link_word_lists([0] * len(word_lists), [list(map(bytes, ws)) for ws in word_lists])


def test_links_match_reference(long_word_set):
    rng = np.random.default_rng(11)
    repeats = 0
    for dct in long_word_set.dictionaries:
        assert _assert_links(dct.word_sets) == 0
        sets = [words_of(lw) for lw in dct.word_sets]
        # hostile lists of unequal sizes, linked in one call
        hostile = [_hostile(sets[int(rng.integers(2))], rng)[: int(rng.integers(200, 257))]
                   for _ in range(20)]
        repeats += _assert_links(_linked(hostile))
    assert 0 < repeats < 60
    # through the loader, whose words are bytes
    loaded = load_dictset(save_dictset(long_word_set))
    assert _assert_links(lw for d in loaded.dictionaries for lw in d.word_sets) == 0
