"""Differential tests: the stepped node-graph walk against the scalar walk.

``OracleMatrix`` is the earlier encoder kept as the reference: a 2**(K+O)
row cell matrix and a loop that consumes one rank per Python step.  The
stepped walk must emit exactly the codewords it emits, from every chapter,
for every stream length, and must raise where its checked loop raises.
"""

from array import array

import numpy as np
import pytest

from ricemarlin import (
    EncoderMatrix,
    MarlinDictionary,
    QuotientAlphabet,
    SyntheticFamily,
    best_dictionary_for,
    make_distribution,
)
from ricemarlin.errors import CorruptBlockError
from ricemarlin.source import point_mass

from conftest import (
    A, B, C, abcd_distribution, chapter_words, from_tables_copy, unsafe_copy, words_of,
)

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


def _assert_same_walks(dct, seed):
    got, want = EncoderMatrix(dct), OracleMatrix(dct)
    rng = np.random.default_rng(seed)
    for chapter in range(dct.n_chapters):
        for n in LENGTHS:
            ranks = _stream(rng, dct, chapter, n, skewed=(n + chapter) % 2 == 0)
            codewords = got.walk(np.asarray(ranks), chapter=chapter)
            assert codewords.tolist() == want.walk(ranks, check=True, chapter=chapter)
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
    # 16 word sets of 4096 nodes plus the trap: too many nodes for 16 bits
    "from-tables-k12-o4": lambda: from_tables_copy(_abcd(12, 4)),
}


def test_walk_matches_oracle_on_grid_set(grid_set):
    steps = set()
    for i, dct in enumerate(grid_set.dictionaries):
        if not dct.empty_quotient:
            steps.add(_assert_same_walks(dct, seed=i).m)
    assert len(steps) > 1  # more than one step width is exercised


def test_walk_matches_oracle_on_worked_dictionary(worked_dictionary):
    m = _assert_same_walks(worked_dictionary, seed=100)
    assert m.nn == worked_dictionary.n_codewords  # one word set per chapter


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_walk_matches_oracle_on_extra_dictionaries(name):
    dct = EXTRA[name]()
    m = _assert_same_walks(dct, seed=len(name))
    assert m.nn == len(dct.word_sets) << dct.k
    if name.startswith("from-tables"):
        assert len(dct.word_sets) == dct.n_chapters
    assert m.table.typecode == ("H" if m.nn < 1 << 16 else "I")


def test_step_table_is_key_major(grid_set):
    dct = grid_set[3]
    m = EncoderMatrix(dct)
    nodes, nq = m.nn + 1, len(dct.alphabet)
    assert nodes * nq**m.m <= (1 << 18) < nodes * nq ** (m.m + 1)
    assert len(m.table) == nodes * nq**m.m and m.table.typecode == "H"
    rng = np.random.default_rng(7)
    for _ in range(200):
        node = int(rng.integers(nodes))
        ranks = rng.integers(0, nq, m.m).tolist()
        key, want = 0, node
        for r in ranks:
            key, want = key * nq + r, int(m.nxt[want, r])
        assert m.table[key * nodes + node] == want


def test_walk_of_nothing_is_empty(worked_dictionary):
    assert EncoderMatrix(worked_dictionary).walk([]).tolist() == []


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
    assert got.walk([A, A, B, A, C]).tolist() == want.walk([A, A, B, A, C], check=True)
