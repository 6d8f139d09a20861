"""Differential tests: the stepped class walk against the scalar walk.

``OracleMatrix`` is the earlier encoder kept as the reference: a 2**(K+O)
row cell matrix and a loop that consumes one rank per Python step.  The
stepped walk emits K-bit units; with each word's chapter read off the unit
before it, they must be exactly the codewords the oracle emits, from every
chapter, for every stream length, and the walk must raise where the
oracle's checked loop raises.
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
from ricemarlin.errors import BuildError, CorruptBlockError, EntropyTargetError
from ricemarlin.source import FAMILIES, point_mass

from conftest import (
    A, B, C, EDGE_DRAWS, THRESHOLDS, _built, _geometries, _with_edge_draws,
    abcd_distribution, binary_word_sets, chapter_words, codewords, from_tables_copy,
    unsafe_copy, words_of,
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
        self.start_base = self._starts[0]

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


def _stream(rng, dct, chapter, n, skewed):
    """Ranks admissible from ``chapter``: any first rank at or above its level."""
    nq = len(dct.alphabet)
    first = int(rng.integers(dct.levels[chapter], nq))
    if skewed:  # long words: draw from the coding distribution
        p = dct.alphabet.coding_probs
        rest = rng.choice(nq, n - 1, p=p / p.sum())
    else:
        rest = rng.integers(0, nq, n - 1)
    return [first] + rest.tolist()


def _assert_same_walks(dct, seed, chapters=None):
    got, want = EncoderMatrix(dct), OracleMatrix(dct)
    rng = np.random.default_rng(seed)
    for chapter in range(dct.n_chapters) if chapters is None else chapters:
        for n in LENGTHS:
            ranks = _stream(rng, dct, chapter, n, skewed=(n + chapter) % 2 == 0)
            units = got.walk(np.asarray(ranks), chapter=chapter)
            assert codewords(dct, units, chapter).tolist() == want.walk(
                ranks, check=True, chapter=chapter)
    return got


def _one_symbol_chain():
    """K=2/O=0 ``from_tables`` dictionary over a one-quotient alphabet: the
    step table cannot grow with m, so m must stay 1."""
    alphabet = QuotientAlphabet(
        shift=6, values=(0,), probs=np.array([1.0]), p_escape=0.0,
    )
    return MarlinDictionary.from_tables(2, 0, alphabet, [[(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)]])


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
    walked.append(_assert_same_walks(wide, seed=300, chapters=(0, 1, 255, 256, 511)))
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


def test_walk_of_nothing_is_empty(worked_dictionary):
    assert EncoderMatrix(worked_dictionary).walk([]).tolist() == []


def test_walk_from_a_chapter_out_of_range_raises(worked_dictionary):
    for chapter in (-1, worked_dictionary.n_chapters):
        with pytest.raises(ValueError, match="chapter"):
            EncoderMatrix(worked_dictionary).walk([A], chapter=chapter)


def test_walk_rejects_ranks_out_of_range(worked_dictionary):
    # rank nq is the cell tables' flush rank, never a quotient's
    m, nq = EncoderMatrix(worked_dictionary), len(worked_dictionary.alphabet)
    for bad in (nq, nq + 3, -1):
        ranks = [A] * 9
        ranks[4] = bad
        for given in (ranks, np.array(ranks, dtype=np.int8 if bad < 0 else np.uint8)):
            with pytest.raises(ValueError, match=f"rank {bad} is not in"):
                m.walk(given)


def test_inadmissible_start_raises(worked_dictionary, grid_set):
    dct = worked_dictionary
    assert dct.levels[1] == 1
    for n in (1, 2, 7, 64):
        ranks = [A] + [B] * (n - 1)
        with pytest.raises(CorruptBlockError):
            OracleMatrix(dct).walk(ranks, check=True, chapter=1)
        with pytest.raises(CorruptBlockError):
            EncoderMatrix(dct).walk(ranks, chapter=1)
    for dct in grid_set.dictionaries:
        levels = list(dct.levels)
        if not dct.empty_quotient and max(levels) > 0:
            chapter = levels.index(max(levels))
            with pytest.raises(CorruptBlockError):
                EncoderMatrix(dct).walk([0] * 4096, chapter=chapter)


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
    top = max(range(dct.n_chapters), key=dct.levels.__getitem__)
    rng = np.random.default_rng(seed)
    for chapter in sorted({0, top}):
        for n in sorted({1, got.m, got.m + 1, (1 << dct.k) - 1, (1 << dct.k) + 1}):
            ranks = _stream(rng, dct, chapter, n, skewed=True)
            units = got.walk(np.asarray(ranks), chapter=chapter)
            assert codewords(dct, units, chapter).tolist() == want.walk(
                ranks, check=True, chapter=chapter)
    _entry_width(got)
    if dct.levels[top] > 0:  # rank 0 is inadmissible there: both walks raise
        for n in (1, got.m + 1):
            with pytest.raises(CorruptBlockError):
                want.walk([0] * n, check=True, chapter=top)
            with pytest.raises(CorruptBlockError):
                got.walk(np.zeros(n, dtype=np.intp), chapter=top)
