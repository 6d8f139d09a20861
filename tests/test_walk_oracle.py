"""Differential tests: the stepped class walk against the scalar walk.

``OracleMatrix`` is the earlier encoder kept as the reference: a 2**(K+O)
row cell matrix and a loop that consumes one rank per Python step.  The
stepped walk emits K-bit units; with each word's chapter read off the unit
before it, they must be exactly the codewords the oracle emits from
chapter 0, where every block starts, for every stream length, and the walk
must raise where the oracle's checked loop raises.
"""

from array import array

import hypothesis
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ricemarlin import (
    EncoderMatrix,
    MarlinDictionary,
    QuotientAlphabet,
    SyntheticFamily,
    best_dictionary_for,
    make_distribution,
)
from ricemarlin.dictionary import link_word_lists
from ricemarlin.errors import BuildError, CorruptBlockError, EntropyTargetError
from ricemarlin.source import FAMILIES, point_mass

from conftest import (
    A, B, C, EDGE_DRAWS, THRESHOLDS, _built, _geometries, _with_edge_draws,
    abcd_distribution, binary_word_sets, chapter_words, codewords, from_tables_copy,
    level_one_start, unsafe_copy, words_of,
)
from test_table_oracle import OracleMatrix as GraphOracle, assert_same_cells, assert_same_matrix

TRAP = -2  # cell for transitions the safety invariant makes unreachable
LENGTHS = tuple(range(1, 65)) + (4095, 4096, 4097)


class OracleMatrix:
    """Prefix tree as a state matrix: column = current codeword, row = next rank.

    Cells pack ``(next_state_base << 1) | emit`` where a state base is the
    codeword pre-shifted by the row-index width, so the walk needs one index
    and two shifts per symbol.
    """

    def __init__(self, dct: MarlinDictionary):
        self.dct = dct
        nq = max(1, len(dct.alphabet))
        self.row_bits = max(1, (nq - 1).bit_length())
        n_states = dct.n_codewords
        sr = self.row_bits
        cell_bits = (dct.k + dct.o) + sr + 1
        self._dtype = np.int32 if cell_bits < 31 else np.int64
        mat = np.full((n_states, 1 << sr), TRAP, dtype=self._dtype)

        omask = dct.n_chapters - 1
        kwords = dct.words_per_chapter
        # emit targets: next chapter v, row r -> single-symbol word r there
        emit_target = np.full((dct.n_chapters, 1 << sr), TRAP, dtype=self._dtype)
        for v in range(dct.n_chapters):
            words = chapter_words(dct, v)
            offset_of = {w[0]: off for off, w in enumerate(words) if len(w) == 1}
            for r, off in offset_of.items():
                emit_target[v, r] = (((v * kwords + off) << sr) << 1) | 1

        for c in range(dct.n_chapters):
            base_cw = c * kwords
            lw = dct.word_sets[dct.chapter_sets[c]]
            offset_of_word = {w: off for off, w in enumerate(words_of(lw))}
            rows = np.arange(kwords) & omask
            mat[base_cw : base_cw + kwords, :] = emit_target[rows]
            for off, w in enumerate(words_of(lw)):
                for r in range(lw.kvals[off]):
                    child_off = offset_of_word[w + (r,)]
                    mat[base_cw + off, r] = ((base_cw + child_off) << sr) << 1
        typecode = "i" if self._dtype is np.int32 else "q"
        self.cells = array(typecode)
        self.cells.frombytes(mat.ravel().tobytes())
        if self.cells.itemsize != mat.itemsize:  # platform 'i' width mismatch
            self.cells = array("q")
            self.cells.frombytes(mat.ravel().astype(np.int64).tobytes())
        # start states per chapter: pre-shifted single-symbol word bases
        self._starts = [
            [(e >> 1) if e >= 0 else TRAP for e in row]
            for row in emit_target.tolist()
        ]

    def walk(self, ranks: list[int], check: bool = False, chapter: int = 0) -> list[int]:
        """Longest-match parse; returns emitted codewords including the flush."""
        if not ranks:
            return []
        sr = self.row_bits
        cells = self.cells
        base = self._starts[chapter][ranks[0]]
        out: list[int] = []
        append = out.append
        if check:
            if base < 0:
                raise CorruptBlockError("walk started at an inadmissible quotient")
            for r in ranks[1:]:
                cell = cells[base | r]
                if cell < 0:
                    raise CorruptBlockError("encoder matrix trap cell consulted")
                if cell & 1:
                    append(base >> sr)
                base = cell >> 1
        else:
            for r in ranks[1:]:
                cell = cells[base | r]
                if cell & 1:
                    append(base >> sr)
                base = cell >> 1
        append(base >> sr)
        return out


def _stream(rng, dct, n, skewed):
    """``n`` ranks, all admissible from chapter 0, whose level is 0."""
    nq = len(dct.alphabet)
    if skewed:  # long words: draw from the coding distribution
        p = dct.alphabet.coding_probs
        return rng.choice(nq, n, p=p / p.sum()).tolist()
    return rng.integers(0, nq, n).tolist()


def _assert_key_type(m, nq):
    """Horner's rule builds the keys in ``key_dtype``, the narrowest type
    that holds ``nq**m - 1``."""
    keys = nq**m.m
    assert m.byte_keys == (keys <= 256) == (m.key_dtype == np.uint8)
    assert isinstance(m.key_dtype, np.dtype) and m.key_dtype.kind == "u"
    assert np.iinfo(m.key_dtype).max >= keys - 1
    assert m.key_dtype == np.min_scalar_type(keys - 1)


def _assert_same_walks(dct, seed):
    """Every length in ``LENGTHS`` and every one up to ``3m + 2``: no step,
    a body of ``n - 1`` ranks and each tail length from 1 to ``m - 1``; the
    ranks as the encoder's uint8 and as int64."""
    got, want = EncoderMatrix(dct), OracleMatrix(dct)
    _assert_key_type(got, len(dct.alphabet))
    rng = np.random.default_rng(seed)
    for n in sorted({*LENGTHS, *range(1, 3 * got.m + 3)}):
        for skewed in (False, True):
            ranks = _stream(rng, dct, n, skewed)
            expect = want.walk(ranks, check=True)
            for dtype in (np.uint8, np.int64):
                units = got.walk(np.array(ranks, dtype=dtype))
                assert codewords(dct, units).tolist() == expect
    return got


def _one_symbol_chain():
    """K=2/O=0 ``from_tables`` dictionary over a one-quotient alphabet: the
    step table cannot grow with m, so m must stay 1."""
    alphabet = QuotientAlphabet(
        shift=6, values=(0,), probs=np.array([1.0]), p_escape=0.0,
    )
    return MarlinDictionary.from_tables(2, 0, alphabet, [[(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]])


def _singles(nq):
    """One chapter of the ``nq`` single-symbol words at K = log2(nq): one
    leaf class and the trap, so m is as large as the step-table cap allows."""
    k = (nq - 1).bit_length()
    alphabet = QuotientAlphabet(
        shift=8 - k, values=tuple(range(nq)), probs=np.full(nq, 1 / nq), p_escape=0.0,
    )
    return MarlinDictionary.from_tables(k, 0, alphabet, [[(v,) for v in range(nq)]])


def _abcd(k, o):
    return MarlinDictionary.build(abcd_distribution(), k=k, o=o, shift=0, threshold=2**-16)


EXTRA = {
    "chain-k3-o0": lambda: MarlinDictionary.build(point_mass(0), k=3, o=0, shift=6, threshold=0.0),
    "k10-o2": lambda: best_dictionary_for(
        make_distribution(SyntheticFamily("laplacian", 0.5)), 10, 2, shifts=(1, 2)),
    "k6-o2": lambda: best_dictionary_for(
        make_distribution(SyntheticFamily("poisson", 0.4)), 6, 2),
    "k4-o0": lambda: best_dictionary_for(
        make_distribution(SyntheticFamily("exponential", 0.7)), 4, 0),
    "from-tables-k4-o2": lambda: from_tables_copy(_abcd(4, 2)),
    "from-tables-one-symbol": _one_symbol_chain,
    # 16 word sets of 4096 nodes plus the trap: too many nodes for 16 bits,
    # but few enough classes
    "from-tables-k12-o4": lambda: from_tables_copy(_abcd(12, 4)),
    # two default-set entries at m = 2: nq**m = 256 keys fit a byte, 289 do not
    "key-edge-256": lambda: _built((8, 4), "laplacian", 0.44, 1, 2**-12),
    "key-edge-289": lambda: _built((8, 4), "laplacian", 0.56, 2, 2**-13),
    # two classes: 256 quotients at m = 2 give 65 536 keys, which fit 16
    # bits; 2 quotients at m = 17 give 131 072, which do not
    "key-edge-65536": lambda: _singles(256),
    "key-edge-131072": lambda: _singles(2),
}


def _entry_width(m) -> int:
    """Bytes per step-row entry; asserts every row has the one type, the
    narrowest that holds every class."""
    kinds = {(type(row), getattr(row, "itemsize", 1)) for row in m.rows}
    assert len(kinds) == 1
    (kind, width), = kinds
    assert width == (1 if m.n_classes <= 1 << 8 else 2 if m.n_classes <= 1 << 16 else 4)
    assert kind is (bytes if width == 1 else array)
    return width


def test_walk_matches_oracle_on_grid_set(grid_set):
    steps, widths, keys = set(), set(), set()
    for i, dct in enumerate(grid_set.dictionaries):
        if not dct.empty_quotient:
            m = _assert_same_walks(dct, seed=i)
            steps.add(m.m)
            widths.add(_entry_width(m))
            keys.add(m.byte_keys)
    assert len(steps) > 1  # more than one step width is exercised
    assert widths == {1, 2}
    assert keys == {True, False}  # both key kinds are walked


def test_walk_matches_oracle_at_every_table_width(long_word_set):
    # long words keep most nodes internal: 501 and 462 classes need 16 bits,
    # 139 fit in 8; the 512 word sets of 255 internal words need 32
    walked = [_assert_same_walks(dct, seed=200 + i)
              for i, dct in enumerate(long_word_set.dictionaries)]
    _, wide = binary_word_sets(9)
    walked.append(_assert_same_walks(wide, seed=300))
    assert [_entry_width(m) for m in walked] == [2, 2, 1, 4]


def test_walk_matches_oracle_on_worked_dictionary(worked_dictionary):
    _assert_same_walks(worked_dictionary, seed=100)
    # one word set per chapter
    assert GraphOracle(worked_dictionary).nn == worked_dictionary.n_codewords


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_walk_matches_oracle_on_extra_dictionaries(name):
    dct = EXTRA[name]()
    m = _assert_same_walks(dct, seed=len(name))
    if name.startswith("from-tables"):
        assert len(dct.word_sets) == dct.n_chapters
    assert _entry_width(m) == (2 if name in ("k10-o2", "from-tables-k12-o4") else 1)
    assert_classes_share_rows(m, dct)


def assert_classes_share_rows(m, dct):
    """In the oracle's node graph, every node's ``nxt`` row and
    ``starts_word`` are its class's; only leaves share a class, and the trap
    is the last class, alone.  The compiled cells are made from that graph."""
    g = GraphOracle(dct)
    c = g.node_class
    assert np.array_equal(c[g.rep], np.arange(g.n_classes))
    assert np.array_equal(g.nxt, g.nxt[g.rep][c])
    assert np.array_equal(g.starts_word, g.starts_word[g.rep][c])
    assert np.array_equal(g.class_nxt, c[g.nxt[g.rep]])
    sizes = np.bincount(c)
    kvals = np.concatenate([lw.kvals for lw in dct.word_sets])
    assert (kvals[sizes[c[:-1]] > 1] == 0).all()
    assert c[g.nn] == g.n_classes - 1 and sizes[-1] == 1
    assert_same_cells(m, g, dct)
    return g


def test_classes_share_rows(grid_set, long_word_set, worked_dictionary):
    dicts = [worked_dictionary, unsafe_copy(worked_dictionary)]
    dicts += [d for d in grid_set.dictionaries + long_word_set.dictionaries if not d.empty_quotient]
    merged = 0
    for dct in dicts:
        g = assert_classes_share_rows(EncoderMatrix(dct), dct)
        merged += g.n_classes < g.nn + 1
    assert merged == len(dicts)


def test_step_rows_are_per_class(grid_set):
    dct = grid_set[3]
    m, g = EncoderMatrix(dct), GraphOracle(dct)
    classes, nq = m.n_classes, len(dct.alphabet)
    assert classes * nq**m.m <= (1 << 18) < classes * nq ** (m.m + 1)
    assert len(m.rows) == classes and _entry_width(m) == 1
    assert all(len(row) == nq**m.m for row in m.rows)
    rng = np.random.default_rng(7)
    for _ in range(200):
        # m steps of the oracle's node graph land in the class the node's
        # class row names
        node = int(rng.integers(g.nn + 1))
        ranks = rng.integers(0, nq, m.m).tolist()
        key, want = 0, node
        for r in ranks:
            key, want = key * nq + r, int(g.nxt[want, r])
        assert m.rows[g.node_class[node]][key] == g.node_class[want]


def test_byte_keys_exactly_when_every_key_fits_a_byte(grid_set, long_word_set):
    dicts = [*grid_set.dictionaries, *long_word_set.dictionaries,
             EXTRA["key-edge-256"](), EXTRA["key-edge-289"]()]
    seen = {}
    for dct in dicts:
        if not dct.empty_quotient:
            m = EncoderMatrix(dct)
            keys = len(dct.alphabet) ** m.m
            assert m.byte_keys == (keys <= 256)
            seen[keys] = m.byte_keys
    assert seen[256] is True and seen[289] is False


def test_key_type_holds_every_key_at_the_edges():
    for name, (keys, dtype) in {
        "key-edge-256": (256, np.uint8), "key-edge-289": (289, np.uint16),
        "key-edge-65536": (65536, np.uint16), "key-edge-131072": (131072, np.uint32),
    }.items():
        dct = EXTRA[name]()
        m = EncoderMatrix(dct)
        assert len(dct.alphabet) ** m.m == keys and m.key_dtype == dtype, name
        _assert_key_type(m, len(dct.alphabet))


def test_walk_matches_oracle_on_edge_draws():
    for i, draw in enumerate(EDGE_DRAWS):
        _assert_same_walks(_built(*draw), seed=400 + i)


def test_walk_of_nothing_is_empty(worked_dictionary):
    assert EncoderMatrix(worked_dictionary).walk([]).tolist() == []


def test_walk_rejects_ranks_out_of_range(worked_dictionary):
    # rank nq is the cell tables' flush rank, never a quotient's
    m, nq = EncoderMatrix(worked_dictionary), len(worked_dictionary.alphabet)
    for bad in (nq, nq + 3, -1):
        ranks = [A] * 9
        ranks[4] = bad
        for given in (ranks, np.array(ranks, dtype=np.int8 if bad < 0 else np.uint8)):
            with pytest.raises(ValueError, match=f"rank {bad} is not in"):
                m.walk(given)
    # ranks that are not a 1-D integer sequence name their type or shape
    for given, what in (
        (np.full(9, float(A)), "must be integers, not float64"),
        ([0.5] * 9, "must be integers, not float64"),
        (np.full(9, True), "must be integers, not bool"),
        (np.full((3, 3), A, dtype=np.uint8), r"must be one-dimensional, not of shape \(3, 3\)"),
        (np.uint8(A), r"must be one-dimensional, not of shape \(\)"),
    ):
        with pytest.raises(ValueError, match=what):
            m.walk(given)


def test_inadmissible_start_raises(worked_dictionary):
    # the oracle from a level-1 chapter, and both walks of a set whose
    # chapter 0 has level 1, which the check rejects: it is assembled here
    # without the check
    for n in (1, 2, 7, 64):
        ranks = [A] + [B] * (n - 1)
        with pytest.raises(CorruptBlockError):
            OracleMatrix(worked_dictionary).walk(ranks, check=True, chapter=1)
    alphabet, word_lists = level_one_start()
    word_sets = link_word_lists([1, 0], [list(map(bytes, ws)) for ws in word_lists])
    dct = MarlinDictionary(2, 1, alphabet, tuple(word_sets), (0, 1))
    assert dct.levels == (1, 0)
    for n in (1, 2, 7, 64):
        ranks = [A] + [B] * (n - 1)
        with pytest.raises(CorruptBlockError):
            OracleMatrix(dct).walk(ranks, check=True)
        with pytest.raises(CorruptBlockError):
            EncoderMatrix(dct).walk(ranks)
    # from rank B, both walks read it
    assert codewords(dct, EncoderMatrix(dct).walk([B, A, A])).tolist() == OracleMatrix(
        dct).walk([B, A, A], check=True)


def test_trap_mid_stream_raises(worked_dictionary):
    dct = unsafe_copy(worked_dictionary)
    got, want = EncoderMatrix(dct), OracleMatrix(dct)
    assert got.m > 2
    rng = np.random.default_rng(3)
    for lead in range(0, 20):
        for tail in (0, 1, 2, 5, 100):
            ranks = rng.integers(0, 4, lead).tolist() + [A] * 10 + rng.integers(0, 4, tail).tolist()
            with pytest.raises(CorruptBlockError):
                want.walk(ranks, check=True)
            with pytest.raises(CorruptBlockError):
                got.walk(np.asarray(ranks))
    # streams that never emit "aaaa" into chapter 1 still match the oracle
    units = got.walk([A, A, B, A, C])
    assert codewords(dct, units).tolist() == want.walk([A, A, B, A, C], check=True)


def test_edge_draws_reach_long_steps_and_wide_rows():
    mats = [EncoderMatrix(_built(*draw)) for draw in EDGE_DRAWS]
    assert [(m.m, m.n_classes) for m in mats[:2]] == [(14, 16), (7, 15)]
    assert [m.n_classes for m in mats[2:]] == [257, 269]
    assert [m.byte_keys for m in mats] == [False, False, True, False]


# Random built dictionaries against the scalar walk, and their rows and
# cells against the table oracle: the two oracles' per-codeword Python
# builds make 300 examples take about 14 s, 10 s without the table oracle
# (pytest --durations on a shared 2-vCPU host).
@hypothesis.seed(2018)
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@_with_edge_draws(seed=0)
@given(
    ko=_geometries(),
    family=st.sampled_from(FAMILIES),
    fraction=st.floats(0.02, 0.98),
    shift=st.integers(0, 7),
    threshold=st.sampled_from(THRESHOLDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_matches_oracle_on_random_dictionaries(ko, family, fraction, shift, threshold, seed):
    try:
        dct = _built(ko, family, fraction, shift, threshold)
    except (BuildError, EntropyTargetError):
        dct = None
    assume(dct is not None and not dct.empty_quotient)
    got, want = EncoderMatrix(dct), OracleMatrix(dct)
    assert_same_matrix(got, GraphOracle(dct), dct)
    rng = np.random.default_rng(seed)
    for n in sorted({1, got.m, got.m + 1, (1 << dct.k) - 1, (1 << dct.k) + 1}):
        ranks = _stream(rng, dct, n, skewed=True)
        units = got.walk(np.asarray(ranks))
        assert codewords(dct, units).tolist() == want.walk(ranks, check=True)
    _entry_width(got)
