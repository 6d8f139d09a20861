"""Construction of overlapped variable-to-fixed dictionaries.

A dictionary splits every byte into an S-bit reminder and a quotient,
drops quotients rarer than a threshold onto an escape channel, and grows
plurally parsable word sets over the remaining quotient alphabet.  Words
map to N = K + O bit codewords of which only K bits are consumed per
step; the low O bits select which *chapter* the next codeword is read from.
A chapter names one word set, stored in codeword-offset order, whose
exclusion level is the lowest rank its first symbol may take; a built
dictionary gives chapters with equal levels one shared set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .bitpack import loc_bytes
from .errors import BuildError
from .source import (
    ALPHABET_SIZE, SymbolDistribution, SyntheticFamily, _validate_shift, entropy, make_distribution,
)

if TYPE_CHECKING:
    from .decoder import DecoderTable
    from .encoder import EncoderMatrix

#: threshold grid searched for unrepresented-symbol exclusion
THRESHOLD_GRID = (0.0,) + tuple(2.0**-i for i in range(16, 5, -1))

#: shifts searched by best_dictionary_for
SHIFT_RANGE = range(0, 8)

MAX_CODE_BITS = 24  # K + O cap; keeps tables desk-sized

_STATIONARY_TOL = 1e-12
_STATIONARY_CAP = 100_000


# ---------------------------------------------------------------------------
# quotient alphabet


@dataclass(frozen=True)
class QuotientAlphabet:
    """The represented quotient alphabet for one (distribution, S, threshold).

    ``values[0]`` is the placeholder that escaped symbols are parsed as.
    """

    shift: int
    values: tuple[int, ...]  # quotient values, most probable first
    probs: np.ndarray  # per-quotient probability, aligned with values
    p_escape: float

    def __len__(self) -> int:
        return len(self.values)

    @property
    def coding_probs(self) -> np.ndarray:
        """Quotient probabilities as seen by the parser.

        Escaped symbols are substituted by the placeholder before parsing, so
        its probability absorbs the escape mass.
        """
        p = np.array(self.probs)
        p[0] += self.p_escape
        return p

    @cached_property
    def rank_lut(self) -> np.ndarray:
        """Read-only map byte value -> quotient rank; escaped bytes map to -1."""
        rank_of_q = np.full(ALPHABET_SIZE >> self.shift, -1, dtype=np.int16)
        for r, v in enumerate(self.values):
            rank_of_q[v] = r
        lut = rank_of_q[np.arange(ALPHABET_SIZE) >> self.shift]
        lut.setflags(write=False)
        return lut

    @cached_property
    def rank_table(self) -> bytes:
        """``bytes.translate`` table of ``rank_lut``: byte value -> quotient
        rank, escaped bytes -> 0, the placeholder rank they are parsed as."""
        return np.maximum(self.rank_lut, 0).astype(np.uint8).tobytes()

    @cached_property
    def represented(self) -> bytes:
        """Byte values whose quotient is represented, ascending: deleting them
        with ``bytes.translate`` leaves a message's escaped bytes in order."""
        return np.flatnonzero(self.rank_lut >= 0).astype(np.uint8).tobytes()


def split_alphabet(dist: SymbolDistribution, shift: int, threshold: float) -> QuotientAlphabet:
    """Split bytes into quotient/reminder and drop quotients below ``threshold``;
    :meth:`SymbolDistribution.quotient_probs` checks that ``shift`` is in [0, 8]."""
    qp = dist.quotient_probs(shift)
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must be in [0, 1)")
    keep = qp >= threshold
    if not keep.any():
        raise BuildError(
            f"threshold {threshold} excludes every quotient at shift {shift}"
        )
    kept = np.nonzero(keep)[0]
    order = kept[np.lexsort((kept, -qp[kept]))]  # prob desc, value asc on ties
    return QuotientAlphabet(
        shift=shift,
        values=tuple(int(v) for v in order),
        probs=qp[order],
        p_escape=float(qp[~keep].sum()),
    )


# ---------------------------------------------------------------------------
# chapter growth


@dataclass(frozen=True, eq=False)
class LevelWords:
    """One word set of quotient-rank words, held as arrays.

    Word ``i`` is ``ranks[offsets[i]:offsets[i + 1]]``, ``lengths[i]`` ranks
    long: the uint8 ranks of every word, concatenated in order.  ``kvals[i]``
    is its child count, the length of the run of ranks 0, 1, ... that extend
    it to another word of the set; ``parents[i]`` is the position of
    ``word[:-1]``, or -1 for a single-symbol word or an absent prefix.
    ``distinct`` is false when a word repeats another.  In a dictionary's
    ``word_sets`` a word's position is its codeword offset.  Built, assembled
    from tables and loaded sets alike are made by :func:`link_word_sets`.
    """

    level: int
    ranks: np.ndarray
    lengths: np.ndarray
    kvals: np.ndarray
    parents: np.ndarray
    distinct: bool

    @cached_property
    def offsets(self) -> np.ndarray:
        """Where each word starts in ``ranks``, then where the last ends."""
        return np.concatenate([[0], np.cumsum(self.lengths)])


def link_word_sets(
    levels: list[int], sizes: list[int], ranks: np.ndarray, lengths, parents
) -> list[LevelWords]:
    """Word sets at ``levels``, set ``s`` holding the next ``sizes[s]`` words.

    ``ranks`` holds the uint8 ranks of every word, concatenated, and
    ``lengths`` the length of each.  ``parents[i]`` is the position of word
    i's prefix in its own set, or -1 where there is none; a given parent
    must be that prefix.  The builder records it as it grows a word,
    :func:`link_word_lists` looks it up and the loader verifies the stored
    one.  Child counts and repeated words come from one sort of (parent,
    last rank) pairs over all sets.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    parents = np.asarray(parents, dtype=np.intp)
    n_sets = len(sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes, dtype=np.intp)])
    set_of = np.repeat(np.arange(n_sets), sizes)
    ends = np.cumsum(lengths)
    # a word's key is its parent, counted after the sets, and its last rank;
    # a single's parent is its set.  Two equal words have equal prefixes, so
    # the shortest repeat found has one parent twice and repeats a key
    linked = parents >= 0
    keyed = np.flatnonzero(linked | (lengths == 1))
    up = np.where(linked, parents + bounds[set_of] + n_sets, set_of)[keyed]
    base = int(ranks.max(initial=0)) + 1
    pairs = np.sort(up * base + ranks[ends[keyed] - 1])
    owner = np.concatenate([np.arange(n_sets), set_of])
    distinct = np.ones(n_sets, dtype=bool)
    distinct[owner[pairs[1:][pairs[1:] == pairs[:-1]] // base]] = False
    # a word without a parent that is no single: an empty word or one whose
    # prefix is absent, which can only equal another such word
    loose: set[tuple[int, bytes]] = set()
    for i in np.flatnonzero(~linked & (lengths != 1)).tolist():
        key = (int(set_of[i]), ranks[ends[i] - lengths[i] : ends[i]].tobytes())
        if key in loose:
            distinct[key[0]] = False
        loose.add(key)
    # sorted, the children of one parent with distinct last ranks run 0, 1,
    # ... up to the first gap, so the leading run is where rank equals place
    up, rank = np.divmod(pairs[pairs >= n_sets * base], base)
    up -= n_sets
    children = np.bincount(up, minlength=len(lengths))
    place = np.arange(len(up)) - (np.cumsum(children) - children)[up]
    kvals = np.bincount(up[rank == place], minlength=len(lengths))
    cuts = np.concatenate([[0], ends])[bounds]
    return [
        LevelWords(
            level, ranks[cuts[s] : cuts[s + 1]], lengths[a:b], kvals[a:b], parents[a:b],
            bool(distinct[s]),
        )
        for s, (level, a, b) in enumerate(zip(levels, bounds, bounds[1:]))
    ]


def _ragged(words: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 ranks of ``words`` concatenated, and the length of each."""
    ranks = np.frombuffer(b"".join(words), dtype=np.uint8)
    return ranks, np.fromiter(map(len, words), dtype=np.intp, count=len(words))


_prefix = itemgetter(slice(None, -1))


def link_word_lists(levels: list[int], word_lists: list[list[bytes]]) -> list[LevelWords]:
    """Word sets holding ``word_lists``, each word the bytes of its ranks.

    For words that come without links: a word's parent is its prefix looked
    up in a dict of its list's words.
    """
    parents: list[int] = []
    for ws in word_lists:
        index = dict(zip(ws, range(len(ws))))
        parents += map(index.get, map(_prefix, ws), repeat(-1))  # index.get(w[:-1], -1)
    ranks, lengths = _ragged(list(chain.from_iterable(word_lists)))
    # the prefix of a single is the empty word, which no valid set holds
    parents = np.where(lengths > 1, np.array(parents, dtype=np.intp), -1)
    return link_word_sets(levels, [len(ws) for ws in word_lists], ranks, lengths, parents)


def _conditional_roots(coding: np.ndarray, level: int) -> np.ndarray:
    tail = coding[level:]
    z = tail.sum()
    if z > 0:
        return tail / z
    return np.full(len(tail), 1.0 / len(tail))


class Growth(NamedTuple):
    """The builder's working lists for one word set, in growth order."""

    words: list[bytes]  # the bytes of each word's ranks
    kvals: list[int]
    raws: list[float]  # per word: P(source emits it | first rank >= level)
    parents: list[int]  # per word: where its prefix was grown, -1 for a single


def grow_chapter(coding: np.ndarray, level: int, size: int) -> Growth:
    """Grow a plurally parsable word set of exactly ``size`` words from the
    parser's quotient probabilities by rank (``QuotientAlphabet.coding_probs``).

    Seeds every admissible quotient (rank >= level) as a single-symbol word,
    then repeatedly adds the candidate extension with the highest probability
    of occurring, where each word exposes one candidate at a time: itself
    extended by its next-most-probable successor.
    """
    nq = len(coding)
    admissible = nq - level
    if admissible < 1:
        raise BuildError(f"no admissible quotients at exclusion level {level}")
    if admissible > size:
        raise BuildError(
            f"{admissible} admissible quotients exceed the {size} dictionary slots"
        )
    raws: list[float] = _conditional_roots(coding, level).tolist()
    symbols = [bytes((r,)) for r in range(nq)]
    words = symbols[level:]
    kvals: list[int] = [0] * len(words)
    parents: list[int] = [-1] * len(words)

    # a candidate is (-probability, seq, word): the word extended by its
    # next successor, rank kvals[word]; seq breaks ties in push order
    probs = coding.tolist()
    top = probs[0]
    heap = [(-raw * top, i, i) for i, raw in enumerate(raws)]
    heapq.heapify(heap)
    seq = len(heap)
    replace, push = heapq.heapreplace, heapq.heappush
    for new in range(len(words), size):
        parent = heap[0][2]
        child = kvals[parent]
        raw = raws[parent]
        new_raw = raw * probs[child]
        words.append(words[parent] + symbols[child])
        kvals[parent] = child = child + 1
        if child < nq:
            replace(heap, (-raw * probs[child], seq, parent))
            push(heap, (-new_raw * top, seq + 1, new))
            seq += 2
        else:
            replace(heap, (-new_raw * top, seq, new))
            seq += 1
        raws.append(new_raw)
        kvals.append(0)
        parents.append(parent)
    return Growth(words, kvals, raws, parents)


# ---------------------------------------------------------------------------
# codeword layout

def _misfits(kvals_desc: list[int], levels: list[int], k: int, o: int) -> tuple[list, list]:
    """The one rule for whether a word set fits ``levels``: the fill order of
    the next-chapter values, by decreasing level and then value, and in it
    every value whose run fails.  The i-th value takes the i-th run of
    2^(K-O) words by decreasing child count, ``kvals_desc``, as the words left
    that may feed it are always the head of what is left; it fails when the
    run's last word has fewer children than its level.  The last failing
    value's level is the lowest at which Hall's condition fails."""
    cap = 1 << (k - o)
    # stable, so values of one level stay in the descending order given
    fill = sorted(reversed(range(1 << o)), key=levels.__getitem__, reverse=True)
    ends = kvals_desc[cap - 1 :: cap]  # the fewest children in each run
    return fill, [v for v, end in zip(fill, ends) if end < levels[v]]


def assign_codewords(growth: Growth, levels: list[int], k: int, o: int) -> list[int]:
    """Assign each word of a grown set a codeword offset within its chapter's range.

    Offset low O bits select the next chapter; a word may only feed chapters
    whose exclusion level its child count covers.  Slot groups are filled from
    the highest exclusion level downward, preferring words with the largest
    child counts, then the most probable, as :func:`_misfits` states; overflow
    demotes words to lower slots.  Returns word indices in codeword-offset order.
    """
    words, kvals, raws, *_ = growth
    cap = 1 << (k - o)
    order = sorted(range(len(words)), key=lambda i: (-kvals[i], -raws[i], words[i]))
    fill, misfits = _misfits(sorted(kvals, reverse=True), levels, k, o)
    if misfits:
        v = misfits[0]
        raise BuildError(
            f"cannot place {cap} words on next-chapter value {v} "
            f"(exclusion level {levels[v]})"
        )
    layout: list[int] = [-1] * (1 << k)
    for i, v in enumerate(fill):
        layout[v :: 1 << o] = order[i * cap : (i + 1) * cap]
    return layout


# ---------------------------------------------------------------------------
# the dictionary


class MarlinDictionary:
    """A fully assigned dictionary: chapters, codewords, and statistics.

    Chapter ``c`` reads word set ``word_sets[chapter_sets[c]]``, whose words
    sit in codeword-offset order; ``levels[c]`` is that set's exclusion level.
    A dictionary without word sets codes no quotients (``empty_quotient``).
    """

    def __init__(
        self,
        k: int,
        o: int,
        alphabet: QuotientAlphabet,
        word_sets: tuple[LevelWords, ...],
        chapter_sets: tuple[int, ...],
        source_id: str = "custom",
        block_n: int = 4096,
        search_threshold: float = 0.0,
    ):
        _validate_ko(k, o)
        self.k = k
        self.o = o
        self.alphabet = alphabet
        self.word_sets = word_sets
        self.chapter_sets = chapter_sets
        self.empty_quotient = not word_sets
        self.source_id = source_id
        self.block_n = block_n
        # the searched threshold that produced this dictionary; 0.0 if unsearched
        self.search_threshold = search_threshold
        self.abr: float = float("nan")
        self.quotient_bits: float = 0.0  # K / mean parse length under training dist

    # -- basic geometry -----------------------------------------------------

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """Exclusion level of every chapter, read off its word set."""
        return tuple(self.word_sets[s].level for s in self.chapter_sets)

    @property
    def shift(self) -> int:
        return self.alphabet.shift

    @property
    def n_codewords(self) -> int:
        return 1 << (self.k + self.o)

    @property
    def n_chapters(self) -> int:
        return 1 << self.o

    @property
    def words_per_chapter(self) -> int:
        return 1 << self.k

    # -- compiled tables --------------------------------------------------------

    @cached_property
    def matrix(self) -> EncoderMatrix:
        """The encoder's step rows and cell tables, compiled on first use."""
        from .encoder import EncoderMatrix

        return EncoderMatrix(self)

    @cached_property
    def table(self) -> DecoderTable:
        """The decoder's flat word table, compiled on first use."""
        from .decoder import DecoderTable

        return DecoderTable(self)

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        dist: SymbolDistribution,
        k: int,
        o: int,
        shift: int,
        threshold: float,
        block_n: int = 4096,
    ) -> "MarlinDictionary":
        """Build and evaluate a dictionary for one (S, threshold) choice."""
        alphabet = split_alphabet(dist, shift, threshold)
        return cls.from_alphabet(dist, k, o, alphabet, block_n=block_n)

    @classmethod
    def from_alphabet(
        cls,
        dist: SymbolDistribution,
        k: int,
        o: int,
        alphabet: QuotientAlphabet,
        block_n: int = 4096,
    ) -> "MarlinDictionary":
        _validate_block_n(block_n)  # before any chapter is grown
        _validate_ko(k, o)
        nq = len(alphabet)
        if nq == 1:
            dct = cls(k, o, alphabet, (), (), source_id=dist.source_id, block_n=block_n)
            dct._finalize(dist)
            return dct
        if nq >= (1 << k):
            raise BuildError(
                f"{nq} quotients need a dictionary larger than 2^{k} words"
            )
        coding = alphabet.coding_probs
        levels = [min(c, nq - 1) for c in range(1 << o)]
        grown: dict[int, Growth] = {}
        kvals_desc: dict[int, list[int]] = {}
        # a demotion only lowers levels, which adds room below every level
        # and adds no level a set fitting before could fail at, so a set that
        # fits keeps fitting
        fits: set[int] = set()

        def stuck() -> int | None:
            """The first word set that does not fit, and its failing level:
            the higher of the two, or None when every set fits."""
            for lvl in sorted(set(levels) - fits):
                # a word set is grown only once the check reaches its level
                if lvl not in grown:
                    grown[lvl] = grow_chapter(coding, lvl, 1 << k)
                    kvals_desc[lvl] = sorted(grown[lvl].kvals, reverse=True)
                _, misfits = _misfits(kvals_desc[lvl], levels, k, o)
                if misfits:
                    return max(lvl, levels[misfits[-1]])
                fits.add(lvl)
            return None

        while (floor := stuck()) is not None:
            # demote the last chapter with the hardest exclusion promise.  A
            # demotion above ``floor`` leaves the failing set, its level and
            # the slots below that level as they were, so the check would fail
            # again: demote on until the top level comes down to ``floor``,
            # which clamps every level to it.  ``floor`` can be the top level
            # itself, so one demotion comes first
            top = max(levels)
            levels[max(i for i, v in enumerate(levels) if v == top)] = top - 1
            levels[:] = [min(v, floor) for v in levels]
        in_use = sorted(set(levels))
        words, parents = [], []
        for lvl in in_use:
            growth = grown[lvl]
            layout = assign_codewords(growth, levels, k, o)
            words += map(growth.words.__getitem__, layout)
            # a parent's growth index becomes its codeword offset; a single's
            # stays -1
            up = np.array(growth.parents)[layout]
            parents.append(np.where(up >= 0, np.argsort(layout)[up], -1))
        word_sets = link_word_sets(
            in_use, [1 << k] * len(in_use), *_ragged(words), np.concatenate(parents)
        )
        dct = cls(
            k, o, alphabet, tuple(word_sets), tuple(in_use.index(lvl) for lvl in levels),
            source_id=dist.source_id, block_n=block_n,
        )
        dct._finalize(dist)
        return dct

    @classmethod
    def from_tables(
        cls,
        k: int,
        o: int,
        alphabet: QuotientAlphabet,
        chapters: list[list[tuple[int, ...]]],
        block_n: int = 4096,
    ) -> "MarlinDictionary":
        """Assemble a dictionary from explicit per-chapter word lists.

        ``chapters[c][i]`` is the word (quotient values) for codeword
        ``c * 2**K + i``.  Each chapter gets its own word set, which must pass
        :meth:`check`; otherwise :class:`BuildError` is raised.
        """
        _validate_block_n(block_n)
        _validate_ko(k, o)
        if len(chapters) != 1 << o:
            raise BuildError(f"need {1 << o} chapters, got {len(chapters)}")
        value_rank = {v: r for r, v in enumerate(alphabet.values)}
        word_lists = []
        for c, words in enumerate(chapters):
            try:
                word_lists.append([bytes(value_rank[v] for v in w) for w in words])
            except KeyError:
                raise BuildError(
                    f"word set {c} holds an empty word or a value outside the alphabet"
                ) from None
        levels = [min((w[0] for w in words if w), default=0) for words in word_lists]
        dct = cls(
            k, o, alphabet, tuple(link_word_lists(levels, word_lists)), tuple(range(1 << o)),
            source_id="tables", block_n=block_n,
        )
        dct.check(BuildError)
        return dct

    def check(self, error: type[Exception]) -> None:
        """Raise ``error`` unless the encoder and decoder can share these tables.

        The builder's output passes by construction and is not checked.
        """
        a, sets = self.alphabet, self.word_sets
        nq = len(a)
        _validate_shift(a.shift, error)
        qspace = ALPHABET_SIZE >> a.shift
        if not nq or len(set(a.values)) != nq or min(a.values) < 0 or max(a.values) >= qspace:
            raise error(f"quotient values must be one or more, distinct and below {qspace}")
        if not sets:
            if nq != 1 or self.chapter_sets:
                raise error("a dictionary without word sets needs one quotient and no chapters")
            return
        named = set(self.chapter_sets)
        if not named <= set(range(len(sets))):
            raise error("a chapter names a word set the table does not hold")
        if len(named) != len(sets):
            raise error("the table holds a word set that no chapter names")
        size = self.words_per_chapter
        for s, lw in enumerate(sets):
            if len(lw.lengths) != size:
                raise error(f"word set {s} must hold {size} distinct words")
        # per set: the extremes of its word lengths, first ranks and child
        # counts, found for all sets at once.  An empty word reads the next
        # word's first rank, or a trailing pad, and is rejected below
        lengths = np.stack([lw.lengths for lw in sets])
        ranks = np.concatenate([lw.ranks for lw in sets] + [np.zeros(1, np.intp)])
        firsts = ranks[np.cumsum(lengths) - lengths.reshape(-1)].reshape(lengths.shape)
        stats = np.stack([lengths, firsts, np.stack([lw.kvals for lw in sets])], axis=1)
        singles = (stats[:, 0] == 1).sum(axis=1).tolist()
        children = stats[:, 2].sum(axis=1).tolist()
        for s, (lw, (short, low, _), (_, high, most), n1, nk) in enumerate(zip(
            sets, stats.min(axis=2).tolist(), stats.max(axis=2).tolist(), singles, children
        )):
            if not lw.distinct:
                raise error(f"word set {s} must hold {size} distinct words")
            if short == 0 or high >= nq or most > nq:
                raise error(f"word set {s} holds an empty word or a value outside the alphabet")
            if lw.level != low:
                raise error(f"word set {s} claims level {lw.level}, not its lowest first rank")
            # counting suffices: with distinct words and first ranks from the
            # level to nq - 1, nq - level singles are all of them, and child
            # counts that sum to the number of longer words place each in the
            # leading run of its prefix's successors, so every rank is below nq
            if n1 != nq - lw.level:
                raise error(f"word set {s} misses a single-symbol word")
            if nk != size - n1:
                raise error(f"word set {s} is not prefix-closed over most probable successors")
        for s, lw in enumerate(sets):
            _check_feeding(s, lw.kvals, self.levels, error)
        # a block's first codeword is read with a zero window, in chapter 0
        if self.levels[0]:
            raise error(f"chapter 0 has level {self.levels[0]}, but every block starts there")

    # -- statistics -----------------------------------------------------------

    def _finalize(self, dist: SymbolDistribution) -> None:
        """Store the training ABR; the one parse chain this builds gives both values."""
        if not self.empty_quotient:
            self.quotient_bits = self.k / self.mean_parse_length(dist)
        self.abr = _abr(self, dist, self.block_n, self.quotient_bits)

    def _coding_probs_for(self, dist: SymbolDistribution) -> np.ndarray:
        """Parser-visible quotient probabilities under an arbitrary distribution."""
        qp = dist.quotient_probs(self.shift)
        probs = np.array([qp[v] for v in self.alphabet.values], dtype=np.float64)
        # escaped mass is parsed as the placeholder (rank 0)
        probs[0] += 1.0 - probs.sum()
        return probs

    def escape_mass(self, dist: SymbolDistribution) -> float:
        qp = dist.quotient_probs(self.shift)
        kept = sum(float(qp[v]) for v in self.alphabet.values)
        return max(0.0, 1.0 - kept)

    def _chain(self, dist: SymbolDistribution) -> "_ParseChain":
        """The parse chain under ``dist``; every call builds a new one."""
        if self.empty_quotient:
            raise BuildError("empty-quotient dictionary does not parse")
        return _ParseChain(self, self._coding_probs_for(dist))

    def chapter_stationary(self, dist: SymbolDistribution) -> np.ndarray:
        """Long-run probability of parsing in each chapter."""
        if self.empty_quotient:
            return np.ones(1)
        chain = self._chain(dist)
        chapters = [c for c, _ in chain.states]
        return np.bincount(chapters, weights=chain.stationary(), minlength=self.n_chapters)

    def mean_parse_length(self, dist: SymbolDistribution) -> float:
        chain = self._chain(dist)
        return float(chain.stationary() @ chain.length_exp)

    def emission_probs(self, c: int, dist: SymbolDistribution) -> np.ndarray:
        """Per-word emission probabilities of chapter ``c`` under its own level."""
        return self._chain(dist).emission_probs(c, self.levels[c])


def _check_feeding(s: int, kvals: np.ndarray, levels: tuple, error: type[Exception]) -> None:
    """Raise ``error`` if word set ``s`` can trap the walk, naming the lowest
    chapter it traps.  The words at offsets v, v + 2^O, ... feed chapter v;
    after a word with k children, longest match lets rank k come next, which
    no word of chapter v starts with when k is below its level."""
    chapters = np.arange(len(kvals)) & (len(levels) - 1)
    trapped = chapters[kvals < np.array(levels)[chapters]]
    if len(trapped):
        v = int(trapped.min())
        raise error(
            f"unsafe word set {s}: a word with fewer than {levels[v]} children feeds chapter {v}"
        )


def _validate_block_n(block_n: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``block_n`` fits the u32 of a set file or container header."""
    if not 1 <= block_n <= 0xFFFFFFFF:
        raise error(f"block size {block_n} is not in [1, 2^32 - 1]")


def _validate_ko(k: int, o: int, error: type[Exception] = BuildError) -> None:
    """Raise ``error`` unless (K, O) is a geometry the builders and set files allow."""
    if k < 1 or o < 0 or o > k or k + o > MAX_CODE_BITS:
        raise error(
            f"need 1 <= K, 0 <= O <= K, K+O <= {MAX_CODE_BITS}; got K={k}, O={o}"
        )


# ---------------------------------------------------------------------------
# exact parse chain
#
# Parsing a memoryless quotient stream with these dictionaries is Markov in
# the pair (chapter, exclusion): after a word with child count k is emitted,
# longest-match guarantees the next quotient's rank is >= k, which can exceed
# the entered chapter's own level.  Tracking the pair keeps the predicted
# mean parse length exact rather than a chapter-marginal approximation.


class _ParseChain:
    def __init__(self, dct: MarlinDictionary, coding: np.ndarray):
        self.dct = dct
        self.coding = coding
        nq = len(coding)
        omask = dct.n_chapters - 1

        cum = np.concatenate([[0.0], np.cumsum(coding)])
        suffix = float(cum[-1]) - cum  # suffix[e] = total prob at ranks >= e

        # per word set: first rank, emit weight, capped child count and
        # length of every word in codeword-offset order
        per_set = []
        for lw in dct.word_sets:
            kv = lw.kvals
            r1 = lw.ranks[lw.offsets[:-1]]
            # P(source continues with word[1:]), multiplied rank by rank from
            # the left (the reduce takes row after row); depth d of a word
            # shorter than d + 1 multiplies by 1.0
            depth = np.ones((int(lw.lengths.max()), len(kv)))
            depth.T[np.arange(len(depth)) < lw.lengths[:, None]] = coding[lw.ranks]
            base = np.multiply.reduce(depth[1:], axis=0) * (1.0 - cum[np.minimum(kv, nq)])
            # a word with every extension present is never emitted (its emit
            # weight is zero); cap its exclusion state to keep rows defined
            per_set.append((r1, base, np.minimum(kv, nq - 1), lw.lengths))
        # per word set, for emission_probs
        self.first_ranks_and_weights = [(r1, base) for r1, base, *_ in per_set]

        evals = np.flatnonzero(np.bincount(np.concatenate([[0]] + [kv for _, _, kv, _ in per_set])))
        # the states are the (chapter, exclusion) pairs at or above the
        # chapter's level, chapter-major; index[c, j] numbers (c, evals[j])
        live = evals >= np.array(dct.levels)[:, None]
        index = np.where(live, np.cumsum(live).reshape(live.shape) - 1, -1)
        chapters, cols = np.nonzero(live)
        state_e = evals[cols]
        self.states = states = list(zip(chapters.tolist(), state_e.tolist()))
        ns = len(states)
        set_of = np.array(dct.chapter_sets, dtype=np.intp)[chapters]

        T = np.zeros((ns, ns))
        length_exp = np.zeros(ns)
        # rows depend on the word set and the exclusion level only; identical
        # chapters share them
        for s, (r1, base, kv, lengths) in enumerate(per_set):
            # on capped counts the rule leaves every word a state to lead to
            _check_feeding(s, kv, dct.levels, BuildError)
            targets = index[np.arange(len(kv)) & omask, np.searchsorted(evals, kv)]
            # weights summed in word order per (first rank, target) cell and
            # per first rank, then over first ranks >= e for every row e; only
            # the states some word leads to get a column
            hit = np.flatnonzero(np.bincount(targets, minlength=ns))
            cells = np.ravel_multi_index((r1, np.searchsorted(hit, targets)), (nq + 1, len(hit)))
            weights = (coding[r1] * base, base)
            sums = [np.bincount(cells, w, (nq + 1) * len(hit)).reshape(nq + 1, -1) for w in weights]
            sums += [np.bincount(r1, w * lengths, nq + 1) for w in weights]
            m, m_u, mlen, mlen_u = (np.flip(np.cumsum(np.flip(a, 0), axis=0), 0) for a in sums)
            rows = np.flatnonzero(set_of == s)
            e = state_e[rows]
            seen = suffix[e] > 0
            # a state whose admissible ranks all have probability zero reads
            # them as equally likely
            z = np.where(seen, suffix[e], nq - e)
            T[np.ix_(rows, hit)] = np.where(seen[:, None], m[e], m_u[e]) / z[:, None]
            length_exp[rows] = np.where(seen, mlen[e], mlen_u[e]) / z
        if not np.isfinite(T).all():
            raise BuildError("parse chain produced non-finite transition rows")
        self.T = T
        self.length_exp = length_exp

    def stationary(self) -> np.ndarray:
        ns = len(self.states)
        pi = np.full(ns, 1.0 / ns)
        # averaging step keeps the same fixed point but cannot oscillate on
        # periodic chains
        for _ in range(_STATIONARY_CAP):
            nxt = 0.5 * (pi + pi @ self.T)
            delta = float(np.abs(nxt - pi).sum())
            pi = nxt
            if delta < _STATIONARY_TOL:
                return pi / pi.sum()
        raise BuildError(
            f"stationary distribution did not converge; residual {delta:.3e}"
        )

    def emission_probs(self, c: int, e: int) -> np.ndarray:
        """Emission probability of each word of chapter ``c`` at exclusion ``e``."""
        r1, base = self.first_ranks_and_weights[self.dct.chapter_sets[c]]
        z = float(self.coding[e:].sum())
        root = self.coding[r1] / z if z > 0 else np.full(len(r1), 1.0 / (len(self.coding) - e))
        return np.where(r1 >= e, root * base, 0.0)


# ---------------------------------------------------------------------------
# efficiency estimates


def _escape_bits(loc_width: int) -> float:
    """Bits one escape stores: its byte value and a ``loc_width``-byte location."""
    return 8.0 * (1 + loc_width)


def _abr(
    dct: MarlinDictionary, dist: SymbolDistribution, block_n: int, quotient_bits: float
) -> float:
    """ABR = quotient bits + S + escape bits, the one statement of the model."""
    return quotient_bits + dct.shift + dct.escape_mass(dist) * _escape_bits(loc_bytes(block_n))


def _eta(h: float, abr: float) -> float:
    """eta = H / ABR; defined as 1.0 for the zero-bit degenerate case."""
    return 1.0 if abr == 0.0 else h / abr


def abr_estimate(
    dct: MarlinDictionary, dist: SymbolDistribution, block_n: int | None = None
) -> float:
    """Modeled average bit rate (bits/symbol) of ``dct`` on ``dist``.

    Quotient cost applies to all symbols (escapes parse as the placeholder);
    each escape additionally stores a location/value pair.  The 2-byte block
    header is excluded.
    """
    block_n = block_n if block_n is not None else dct.block_n
    qbits = 0.0 if dct.empty_quotient else dct.k / dct.mean_parse_length(dist)
    return _abr(dct, dist, block_n, qbits)


def efficiency(dct: MarlinDictionary, dist: SymbolDistribution, block_n: int | None = None) -> float:
    """eta = H(X) / ABR(X); defined as 1.0 for the zero-bit degenerate case."""
    return _eta(dist.entropy(), abr_estimate(dct, dist, block_n))


def _eta_ceiling(h: float, alphabet: QuotientAlphabet, esc_bits: float) -> float:
    """Upper bound on eta for every dictionary over ``alphabet``.

    A dictionary is a lossless code for the quotient stream with escapes
    parsed as the placeholder, so its quotient bits are at least that
    stream's entropy: ABR >= S + H(coding) + escape mass * ``esc_bits``.
    """
    return _eta(
        h, alphabet.shift + entropy(alphabet.coding_probs) + alphabet.p_escape * esc_bits
    )


def shift_efficiency_bound(
    dist: SymbolDistribution,
    shift: int,
    block_n: int = 4096,
    thresholds: tuple[float, ...] = THRESHOLD_GRID,
) -> float:
    """Upper bound on eta for every dictionary at ``shift`` and ``thresholds``.

    The highest bound among the search's :func:`_candidates` at ``shift``,
    escapes priced as :func:`abr_estimate` prices them for ``block_n``; 0.0
    when no threshold leaves a quotient.  With ``thresholds=(0.0,)`` nothing is
    escaped and the bound is H(X) / (S + H(quotient)), reminders stored
    verbatim.  The default grid can lie slightly above that: an escaped
    quotient rarer than about 2^-(8 * (1 + location bytes)) is modelled
    below its information.
    """
    candidates, _ = _candidates(dist, (shift,), thresholds, block_n)
    return max((c[0] for c in candidates), default=0.0)


# ---------------------------------------------------------------------------
# search


def _candidates(
    dist: SymbolDistribution, shifts: range | tuple, thresholds: tuple[float, ...], block_n: int
) -> tuple[list[tuple], dict[tuple[int, int], str]]:
    """``(bound, shift, threshold, position, alphabet)`` for each distinct
    alphabet a shift's thresholds give, from the first threshold giving it,
    with its :func:`_eta_ceiling`; and the error of each (shift, threshold)
    position that leaves no quotient, keyed by that position."""
    h, esc_bits = dist.entropy(), _escape_bits(loc_bytes(block_n))
    errors: dict[tuple[int, int], str] = {}
    candidates = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for i, shift in enumerate(dict.fromkeys(shifts)):
        for j, threshold in enumerate(thresholds):
            try:
                alphabet = split_alphabet(dist, shift, threshold)
            except BuildError as exc:
                errors[i, j] = f"S={shift} thr={threshold:g}: {exc}"
                continue
            sig = (shift, alphabet.values)
            if sig not in seen:
                seen.add(sig)
                bound = _eta_ceiling(h, alphabet, esc_bits)
                candidates.append((bound, shift, threshold, (i, j), alphabet))
    return candidates, errors


#: eta and its bound are rounded along different paths; a candidate is
#: skipped only when its bound falls short by more than this
_PRUNE_SLACK = 1e-12


def best_dictionary_for(
    dist: SymbolDistribution,
    k: int,
    o: int,
    block_n: int = 4096,
    shifts: range | tuple = SHIFT_RANGE,
    thresholds: tuple[float, ...] = THRESHOLD_GRID,
) -> MarlinDictionary:
    """Search (S, threshold) and return the dictionary maximizing H(X)/ABR.

    Ties prefer the smaller shift, then the smaller threshold.  Thresholds
    that give a shift the same alphabet are one candidate, the first of
    them (:func:`_candidates`).  Candidates are built in decreasing order
    of an upper bound on their eta (:func:`_eta_ceiling`, from the alphabet
    alone), and the search stops at the first whose bound is below the best
    eta found so far.  No later candidate could win, so the result is that of building
    every candidate.  A ``block_n`` that a set file cannot store as a u32
    raises ``ValueError`` before any build.
    """
    _validate_block_n(block_n)
    _validate_ko(k, o)
    h = dist.entropy()
    # errors are keyed by (shift, threshold) position, joined in the caller's order
    candidates, errors = _candidates(dist, shifts, thresholds, block_n)
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    best: tuple[float, int, float] | None = None
    best_dct: MarlinDictionary | None = None
    for bound, shift, threshold, pos, alphabet in candidates:
        if best is not None and bound + _PRUNE_SLACK < -best[0]:
            break
        try:
            dct = MarlinDictionary.from_alphabet(dist, k, o, alphabet, block_n=block_n)
        except BuildError as exc:
            errors[pos] = f"S={shift} thr={threshold:g}: {exc}"
            continue
        key = (-_eta(h, dct.abr), shift, threshold)
        if best is None or key < best:
            best = key
            best_dct = dct
    if best_dct is None:
        failures = [errors[pos] for pos in sorted(errors)]
        raise BuildError(
            "no (S, threshold) candidate could be built: " + "; ".join(failures[:4])
        )
    best_dct.search_threshold = best[2]
    return best_dct


# ---------------------------------------------------------------------------
# dictionary sets


RAW_INDEX = 255  # reserved: block stored verbatim
MAX_SET_SIZE = 255


def _validate_set_size(n: int, error: type[Exception] = BuildError) -> None:
    """Raise ``error`` unless ``n`` dictionaries, indexed below ``RAW_INDEX``, make a set."""
    if n < 1:
        raise error("a dictionary set must contain at least one dictionary")
    if n > MAX_SET_SIZE:
        raise error(
            f"at most {MAX_SET_SIZE} dictionaries fit (index {RAW_INDEX} is "
            "the raw-block sentinel)"
        )


@dataclass
class DictionarySet:
    """An ordered collection of dictionaries sharing (K, O).

    ``dictionaries`` is stored as a tuple, so the tables compiled from it
    (the digest, the selection costs) cannot go stale.
    """

    dictionaries: tuple[MarlinDictionary, ...]

    def __post_init__(self):
        self.dictionaries = tuple(self.dictionaries)
        _validate_set_size(len(self.dictionaries))
        k, o = self.dictionaries[0].k, self.dictionaries[0].o
        if any(d.k != k or d.o != o for d in self.dictionaries):
            raise BuildError("all dictionaries in a set must share (K, O)")

    @property
    def k(self) -> int:
        return self.dictionaries[0].k

    @property
    def o(self) -> int:
        return self.dictionaries[0].o

    def __len__(self) -> int:
        return len(self.dictionaries)

    def __getitem__(self, i: int) -> MarlinDictionary:
        return self.dictionaries[i]

    @cached_property
    def digest(self) -> bytes:
        """The set's identity in containers, computed on first use."""
        from .format import dictset_digest

        return dictset_digest(self)

    @cached_property
    def _cost_rows(self) -> dict[int, np.ndarray]:
        """Per-byte bit costs, one row per dictionary, for each escape-location
        width, compiled together on first selection: S plus the quotient's
        -log2 coding probability over the dictionary's trained coding
        efficiency (0 for an empty quotient), and for an escaped byte S plus
        its escape's bits and those of rank 0, the placeholder it is parsed as.
        """
        byte_bits, placeholder_bits = [], []
        for dct in self.dictionaries:
            qbits = np.zeros(1)
            if not dct.empty_quotient:
                coding = dct.alphabet.coding_probs
                hq = entropy(coding)
                eta_q = min(1.0, hq / dct.quotient_bits) if dct.quotient_bits > 0 else 1.0
                with np.errstate(divide="ignore"):
                    qbits = np.where(coding > 0, -np.log2(np.maximum(coding, 1e-300)), 64.0)
                qbits = np.minimum(qbits / max(eta_q, 1e-9), 64.0)
            byte_bits.append(qbits[dct.alphabet.rank_lut])
            placeholder_bits.append(qbits[:1])
        shift = np.array([float(d.shift) for d in self.dictionaries])[:, None]
        escaped = [d.alphabet.rank_lut < 0 for d in self.dictionaries]
        placeholder = np.array(placeholder_bits)
        return {
            width: shift + np.where(escaped, _escape_bits(width) + placeholder, byte_bits)
            for width in (1, 2, 4)
        }

    def quick_select(self, counts: np.ndarray, block_n: int) -> int:
        """Fast first-order selection from raw byte counts: the dictionary
        whose cost row for ``block_n``'s escape width prices the counts
        lowest, the first on a tie."""
        return int((self._cost_rows[loc_bytes(block_n)] @ counts).argmin())


def default_set_config() -> dict:
    """The documented default dictionary-set grid."""
    lap = [round(0.02 * i, 2) for i in range(1, 50)]  # 0.02 .. 0.98
    poi = [round(0.10 * i, 2) for i in range(1, 10)]  # 0.10 .. 0.90
    return {
        "grid": [("laplacian", f) for f in lap] + [("poisson", f) for f in poi],
        "k": 8,
        "o": 4,
        "block_n": 4096,
    }


def build_dictionary_set(config: dict | None = None) -> DictionarySet:
    """Build one best dictionary per grid point; deterministic for a config.

    ``config`` overrides keys of :func:`default_set_config`; any other key
    raises ``ValueError`` before any build.
    """
    cfg, config = default_set_config(), config or {}
    unknown = sorted(map(repr, set(config) - set(cfg)))
    if unknown:
        raise ValueError(f"unknown dictionary-set config keys: {', '.join(unknown)}")
    cfg.update(config)
    _validate_set_size(len(cfg["grid"]))
    # every grid point is checked before the first build
    dists = [make_distribution(SyntheticFamily(f, x)) for f, x in cfg["grid"]]
    return DictionarySet(
        [best_dictionary_for(d, cfg["k"], cfg["o"], block_n=cfg["block_n"]) for d in dists]
    )
