from itertools import pairwise, product

import numpy as np
import pytest

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
from ricemarlin.dictionary import link_word_lists, split_alphabet

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


def chapter_words(dct: MarlinDictionary, c: int) -> list[tuple[int, ...]]:
    """Words of chapter ``c`` in codeword-offset order, as tuples of ranks."""
    return words_of(dct.word_sets[dct.chapter_sets[c]])


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
def grid_set(grid_distributions):
    return build_dictionary_set(
        {"grid": list(grid_distributions), "k": 8, "o": 4, "block_n": 4096}
    )
