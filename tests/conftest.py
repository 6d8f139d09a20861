from itertools import pairwise, product

import numpy as np
import pytest
from hypothesis import example
from hypothesis import strategies as st

from ricemarlin import (
    DictionarySet,
    MarlinDictionary,
    QuotientAlphabet,
    SymbolDistribution,
    SyntheticFamily,
    abr_estimate,
    build_dictionary_set,
    make_distribution,
)
from ricemarlin.dictionary import MAX_CODE_BITS, link_word_lists, split_alphabet

# Four-symbol alphabet used across the worked-example tests: bytes 0..3
# stand in for a..d, most probable first.
ABCD_PROBS = (0.7, 0.15, 0.1, 0.05)

A, B, C, D = 0, 1, 2, 3

# A reference two-chapter K=3/O=1 dictionary, words in codeword order.
WORKED_CHAPTER_0 = [
    (A, A, A, A),  # 0000
    (A,),          # 0001
    (B, A),        # 0010
    (A, A),        # 0011
    (C,),          # 0100
    (A, A, A),     # 0101
    (D,),          # 0110
    (B,),          # 0111
]
WORKED_CHAPTER_1 = [
    (B, A, A, A),  # 1000
    (B, A),        # 1001
    (C, A),        # 1010
    (B, A, A),     # 1011
    (B, B),        # 1100
    (C,),          # 1101
    (D,),          # 1110
    (B,),          # 1111
]


def abcd_distribution() -> SymbolDistribution:
    p = np.zeros(256)
    p[: len(ABCD_PROBS)] = ABCD_PROBS
    return SymbolDistribution(p, source_id="abcd")


@pytest.fixture(scope="session")
def abcd_dist() -> SymbolDistribution:
    return abcd_distribution()


@pytest.fixture(scope="session")
def worked_dictionary(abcd_dist) -> MarlinDictionary:
    """The reference two-chapter dictionary, loaded verbatim."""
    alphabet = split_alphabet(abcd_dist, shift=0, threshold=2**-16)
    return MarlinDictionary.from_tables(
        k=3, o=1, alphabet=alphabet,
        chapters=[WORKED_CHAPTER_0, WORKED_CHAPTER_1],
    )


def words_of(lw) -> list[tuple[int, ...]]:
    """A word set's words as tuples of ranks: ``ranks`` sliced by ``offsets``."""
    ranks = lw.ranks.tolist()
    return [tuple(ranks[a:b]) for a, b in pairwise(lw.offsets.tolist())]


def max_word_len(dct: MarlinDictionary) -> int:
    """The length of the longest word in any of ``dct``'s word sets, 1 for none."""
    return max([int(lw.lengths.max()) for lw in dct.word_sets], default=1)


def chapter_words(dct: MarlinDictionary, c: int) -> list[tuple[int, ...]]:
    """Words of chapter ``c`` in codeword-offset order, as tuples of ranks."""
    return words_of(dct.word_sets[dct.chapter_sets[c]])


def padded_rows(table, width: int) -> np.ndarray:
    """A decoder table's words as rows zero-padded to ``width``, filled one
    codeword at a time: codeword ``cw``'s word is the ``lengths[cw]``
    symbols that end at ``ends[cw]`` in ``symbols``."""
    rows = np.zeros((len(table.lengths), width), dtype=table.symbols.dtype)
    for cw, (end, n) in enumerate(zip(table.ends.tolist(), table.lengths.tolist())):
        rows[cw, :n] = table.symbols[end - n : end]
    return rows


def codewords(dct: MarlinDictionary, units) -> np.ndarray:
    """The full codewords, ``chapter << K | unit``, of a walk's units.

    A word's chapter is the low O bits of the unit before it; the first
    word's is 0, where every walk starts.
    """
    units = np.asarray(units, dtype=np.int64)
    chapters = np.zeros_like(units)
    chapters[1:] = units[:-1] & (dct.n_chapters - 1)
    return chapters << dct.k | units


def from_tables_copy(dct: MarlinDictionary) -> MarlinDictionary:
    """``dct`` re-assembled by ``from_tables``: one word set per chapter."""
    values = dct.alphabet.values
    chapters = [
        [tuple(values[r] for r in w) for w in chapter_words(dct, c)]
        for c in range(dct.n_chapters)
    ]
    return MarlinDictionary.from_tables(dct.k, dct.o, dct.alphabet, chapters)


def unsafe_copy(worked: MarlinDictionary) -> MarlinDictionary:
    """The worked dictionary with "aaaa" (no children) moved to an odd offset.

    Emitting "aaaa" then leads to chapter 1, which has no word "a", so an
    "a" after "aaaa" is a trap transition.
    """
    first, second = worked.word_sets
    words = [bytes(w) for w in words_of(first)]
    (swapped,) = link_word_lists([first.level], [[words[1], words[0]] + words[2:]])
    return MarlinDictionary(
        worked.k, worked.o, worked.alphabet, (swapped, second), worked.chapter_sets,
    )


def level_one_start() -> tuple[QuotientAlphabet, list[list[tuple[int, ...]]]]:
    """K=2/O=1 word lists over quotient values 0 and 1 at shift 7 whose
    chapter 0 has level 1: every word there starts with the second value.
    The lists are otherwise valid and safe, but a block whose first quotient
    is 0 cannot start in chapter 0."""
    alphabet = QuotientAlphabet(shift=7, values=(0, 1), probs=np.array([0.6, 0.4]), p_escape=0.0)
    return alphabet, [[(1,), (1, 1), (1, 0), (1, 0, 0)], [(0,), (1,), (0, 0), (0, 0, 0)]]


def binary_word_sets(o: int) -> tuple[SymbolDistribution, MarlinDictionary]:
    """A two-quotient source and a K=9 ``from_tables`` dictionary for it that
    gives each of the 2^O chapters its own set: binary words of lengths 1 to
    8 plus two of length 9 fill each set's 2^9 slots."""
    p = np.full(256, 0.01 / 254)
    p[:2] = (0.9, 0.09)
    dist = SymbolDistribution(p)
    zero, one = (alphabet := split_alphabet(dist, 0, 0.05)).values
    words = [w for n in range(1, 9) for w in product((zero, one), repeat=n)]
    words += [(zero,) * 9, (zero,) * 8 + (one,)]
    return dist, MarlinDictionary.from_tables(9, o, alphabet, [words] * (1 << o))


def select(dset: DictionarySet, hist: SymbolDistribution, block_n: int) -> int:
    """Index of the dictionary with the lowest modeled ABR on ``hist``: the
    model reference that the codec's ``quick_select`` is checked against."""
    best_i, best_abr = 0, float("inf")
    for i, dct in enumerate(dset.dictionaries):
        abr = abr_estimate(dct, hist, block_n)
        if abr < best_abr:
            best_i, best_abr = i, abr
    return best_i


def excluded(alphabet: QuotientAlphabet) -> frozenset[int]:
    """Byte symbols whose quotient is unrepresented."""
    return frozenset(np.flatnonzero(alphabet.rank_lut < 0).tolist())


def skewed_distribution(top: float = 0.9) -> SymbolDistribution:
    """A 256-symbol distribution with a heavy head and a long thin tail."""
    p = np.full(256, (1.0 - top) / 255)
    p[0] = top
    return SymbolDistribution(p / p.sum(), source_id="skewed")


# The acceptance grid: 27 synthetic sources, one dictionary each, and the
# message sizes every grid source is coded at.
FAMILIES = ("laplacian", "poisson", "exponential")
FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 10))
GRID_SIZES = (0, 1, 255, 256, 4095, 4096, 65536)


@pytest.fixture(scope="session")
def grid_distributions():
    return {
        (fam, frac): make_distribution(SyntheticFamily(fam, frac))
        for fam in FAMILIES
        for frac in FRACTIONS
    }


@pytest.fixture(scope="session")
def long_word_set():
    """laplacian 0.02, 0.04 (words up to 237 and 93 ranks) and 0.5 at
    K=8/O=4, two word sets each."""
    grid = [("laplacian", 0.02), ("laplacian", 0.04), ("laplacian", 0.5)]
    return build_dictionary_set({"grid": grid, "k": 8, "o": 4, "block_n": 4096})


@pytest.fixture(scope="session")
def default_set():
    """The documented default set: 58 dictionaries at K=8, O=4."""
    return build_dictionary_set()


@pytest.fixture(scope="session")
def grid_set(grid_distributions):
    return build_dictionary_set(
        {"grid": list(grid_distributions), "k": 8, "o": 4, "block_n": 4096}
    )


# Random built dictionaries, drawn by the oracle properties.  K stays at or
# below 11 and O at or below 4 so the scalar oracles' per-codeword Python
# builds stay cheap; every such pair is a valid geometry.  Each property
# pins its draws with ``hypothesis.seed(2018)``: derandomized draws would be
# seeded from the test body's source, so any edit to a body would swap them.
THRESHOLDS = (0.0,) + tuple(2.0**-j for j in range(4, 17, 2))
# (K, O), family, fraction, shift, threshold: m = 14 at nq = 2, m = 7 at
# nq = 4, and 257 and 269 classes, just past the byte-wide rows
EDGE_DRAWS = (
    ((3, 1), "laplacian", 0.1, 2, 2**-8),
    ((4, 0), "laplacian", 0.1, 6, 0.0),
    ((8, 2), "laplacian", 0.5, 2, 2**-5),
    ((8, 1), "laplacian", 0.6, 5, 2**-8),
)


@st.composite
def _geometries(draw):
    k = draw(st.integers(1, 11))
    return k, draw(st.integers(0, min(k, 4, MAX_CODE_BITS - k)))


def _built(ko, family, fraction, shift, threshold):
    dist = make_distribution(SyntheticFamily(family, fraction))
    return MarlinDictionary.build(dist, k=ko[0], o=ko[1], shift=shift, threshold=threshold)


def _with_edge_draws(**fixed):
    """Adds every ``EDGE_DRAWS`` entry as an explicit example of a property
    over (ko, family, fraction, shift, threshold), with its other arguments
    set to ``fixed``."""
    def add(test):
        for ko, family, fraction, shift, threshold in EDGE_DRAWS:
            test = example(ko=ko, family=family, fraction=fraction, shift=shift,
                           threshold=threshold, **fixed)(test)
        return test
    return add
