"""Differential oracle for the dictionary builder.

The library grows a chapter only when the layout check reaches its
exclusion level, and it builds (S, threshold) candidates in decreasing order
of an efficiency bound taken from each candidate's alphabet, stopping at the
first whose bound cannot beat the best dictionary found so far.  This file
keeps the eager chapter loop and the exhaustive (S, threshold) search as the
reference, asserts that both build byte-identical dictionary sets and that
every candidate's efficiency stays within its own bound, and counts the
candidates the pruned search builds.  The eager loop checks a layout by
Hall's condition, counted level by level, against the library's one fit
rule, which fills next-chapter values run by run.  The reference grows and lays out
chapters with scalar copies of the library's ``grow_chapter`` and
``assign_codewords``: a heap of numpy-scalar priorities filled one push at a
time, and a layout that scans every word for every slot value.
"""

import heapq
from bisect import bisect_left

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ricemarlin.dictionary as D
from ricemarlin import (
    BuildError,
    DictionarySet,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    best_dictionary_for,
    efficiency,
    make_distribution,
    save_dictset,
    shift_efficiency_bound,
)
from ricemarlin.dictionary import Growth, _conditional_roots, split_alphabet
from ricemarlin.source import point_mass, uniform

from conftest import excluded

FRACTIONS = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
SOURCES = [(fam, f) for fam in ("laplacian", "poisson", "exponential") for f in FRACTIONS]


def oracle_grow_chapter(coding: np.ndarray, level: int, size: int) -> Growth:
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
    roots = _conditional_roots(coding, level)
    symbols = [bytes((r,)) for r in range(nq)]
    words = symbols[level:]
    raws: list[float] = [float(roots[r - level]) for r in range(level, nq)]
    kvals: list[int] = [0] * len(words)
    parents: list[int] = [-1] * len(words)

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for i in range(len(words)):
        heapq.heappush(heap, (-raws[i] * coding[0], seq, i, 0))
        seq += 1
    while len(words) < size:
        _, _, parent, child = heapq.heappop(heap)
        new_word = words[parent] + symbols[child]
        new_raw = raws[parent] * float(coding[child])
        kvals[parent] += 1
        if kvals[parent] < nq:
            heapq.heappush(
                heap, (-raws[parent] * coding[kvals[parent]], seq, parent, kvals[parent])
            )
            seq += 1
        words.append(new_word)
        raws.append(new_raw)
        kvals.append(0)
        parents.append(parent)
        heapq.heappush(heap, (-new_raw * coding[0], seq, len(words) - 1, 0))
        seq += 1
    return Growth(words, kvals, raws, parents)


def oracle_assign_codewords(growth: Growth, levels: list[int], k: int, o: int) -> list[int]:
    """Assign each word of a grown set a codeword offset within its chapter's range.

    Offset low O bits select the next chapter; a word may only feed chapters
    whose exclusion level its child count covers.  Slot groups are filled from
    the highest exclusion level downward, preferring words with the largest
    child counts, then the most probable; overflow demotes words to lower
    slots (level 0 always fits).  Returns word indices in codeword-offset order.
    """
    words, kvals, raws, *_ = growth
    cap = 1 << (k - o)
    order = sorted(range(len(words)), key=lambda i: (-kvals[i], -raws[i], words[i]))
    used = [False] * len(order)
    layout: list[int] = [-1] * (1 << k)
    for v in sorted(range(1 << o), key=lambda v: (-levels[v], -v)):
        took = 0
        for i in order:
            if used[i] or kvals[i] < levels[v]:
                continue
            layout[v + (took << o)] = i
            used[i] = True
            took += 1
            if took == cap:
                break
        if took < cap:
            raise BuildError(
                f"cannot place {cap} words on next-chapter value {v} "
                f"(exclusion level {levels[v]})"
            )
    return layout


def hall_violation(sorted_kvals: list[int], levels: list[int], k: int, o: int) -> int | None:
    """The lowest level in ``levels`` at which the Hall condition fails, or None.

    The condition: words needing low exclusion levels fit the slots offering
    them.  ``sorted_kvals`` are a word set's child counts in ascending order.
    """
    cap = 1 << (k - o)
    for level in sorted(set(levels)):
        if level == 0:
            continue
        short = bisect_left(sorted_kvals, level)  # words with k < level
        roomy = cap * sum(1 for v in levels if v < level)
        if short > roomy:
            return level
    return None


def _eager_assignable(kvals, levels, k, o):
    return hall_violation(sorted(kvals), levels, k, o) is None


def eager_from_alphabet(dist, k, o, alphabet, block_n=4096):
    """The builder before lazy growth: every level in use is grown up front."""
    nq = len(alphabet)
    if nq == 1:
        dct = MarlinDictionary(
            k, o, alphabet, (), (), source_id=dist.source_id, block_n=block_n,
        )
        dct._finalize(dist)
        return dct
    if nq >= (1 << k):
        raise BuildError(f"{nq} quotients need a dictionary larger than 2^{k} words")
    coding = alphabet.coding_probs
    levels = [min(c, nq - 1) for c in range(1 << o)]
    grown = {}
    while True:
        for lvl in set(levels):
            if lvl not in grown:
                grown[lvl] = oracle_grow_chapter(coding, lvl, 1 << k)
        if all(_eager_assignable(grown[lvl].kvals, levels, k, o) for lvl in set(levels)):
            break
        top = max(levels)
        levels[max(i for i, v in enumerate(levels) if v == top)] = top - 1
    in_use = sorted(set(levels))
    word_sets = tuple(D.link_word_lists(in_use, [
        [grown[lvl].words[i] for i in oracle_assign_codewords(grown[lvl], levels, k, o)]
        for lvl in in_use
    ]))
    dct = MarlinDictionary(
        k, o, alphabet, word_sets, tuple(in_use.index(lvl) for lvl in levels),
        source_id=dist.source_id, block_n=block_n,
    )
    dct._finalize(dist)
    return dct


def exhaustive_best(dist, k, o, block_n=4096, shifts=D.SHIFT_RANGE,
                    thresholds=D.THRESHOLD_GRID):
    """The search before pruning: every (S, threshold) in order.

    Returns the winner and ``(shift, threshold, eta)`` for every candidate
    built.
    """
    best = best_dct = None
    errors, candidates, seen = [], [], set()
    for shift in shifts:
        for threshold in thresholds:
            try:
                alphabet = split_alphabet(dist, shift, threshold)
            except BuildError as exc:
                errors.append(f"S={shift} thr={threshold:g}: {exc}")
                continue
            if (shift, excluded(alphabet)) in seen:
                continue
            seen.add((shift, excluded(alphabet)))
            try:
                dct = eager_from_alphabet(dist, k, o, alphabet, block_n=block_n)
            except BuildError as exc:
                errors.append(f"S={shift} thr={threshold:g}: {exc}")
                continue
            dct.search_threshold = threshold
            eta = efficiency(dct, dist, block_n)
            candidates.append((shift, threshold, eta))
            key = (-eta, shift, threshold)
            if best is None or key < best:
                best, best_dct = key, dct
    if best_dct is None:
        raise BuildError(
            "no (S, threshold) candidate could be built: " + "; ".join(errors[:4])
        )
    return best_dct, candidates


def _set_bytes(dicts):
    return save_dictset(DictionarySet(list(dicts)))


def _check_point(dist, k, o, **search):
    """Build with both searches; every reference candidate must obey its
    shift's bound and its own: the bound at its threshold alone."""
    ref, candidates = exhaustive_best(dist, k, o, **search)
    got = best_dictionary_for(dist, k, o, **search)
    for shift, threshold, eta in candidates:
        bound = shift_efficiency_bound(dist, shift)
        assert eta <= bound + 1e-12, (dist.source_id, shift, eta, bound)
        own = shift_efficiency_bound(dist, shift, thresholds=(threshold,))
        assert eta <= own + 1e-12, (dist.source_id, shift, threshold, eta, own)
    assert (got.shift, got.search_threshold) == (ref.shift, ref.search_threshold)
    return ref, got


def test_default_geometry_sets_are_byte_identical():
    refs, gots = [], []
    for fam, frac in SOURCES:
        dist = make_distribution(SyntheticFamily(fam, frac))
        ref, got = _check_point(dist, 8, 4)
        refs.append(ref)
        gots.append(got)
    assert _set_bytes(gots) == _set_bytes(refs)


@pytest.mark.parametrize(
    "k, o, sources, shifts",
    [
        (6, 2, [("laplacian", 0.3), ("poisson", 0.5), ("exponential", 0.9)], D.SHIFT_RANGE),
        (4, 0, [("laplacian", 0.1), ("poisson", 0.7), ("exponential", 0.5)], D.SHIFT_RANGE),
        (10, 5, [("laplacian", 0.5)], (1, 2, 3)),
    ],
)
def test_other_geometries_are_byte_identical(k, o, sources, shifts):
    refs, gots = [], []
    for fam, frac in sources:
        dist = make_distribution(SyntheticFamily(fam, frac))
        ref, got = _check_point(dist, k, o, shifts=shifts)
        refs.append(ref)
        gots.append(got)
    assert _set_bytes(gots) == _set_bytes(refs)


def test_point_mass_is_byte_identical():
    dist = point_mass(3)
    ref, got = _check_point(dist, 8, 4)
    assert got.empty_quotient
    assert _set_bytes([got]) == _set_bytes([ref])


def test_winner_at_its_bound_is_found():
    # four symbols: at S=2 the quotient is one value, so that dictionary's
    # eta equals its bound, and S=0, tried first, falls short by under 0.01
    probs = np.zeros(256)
    probs[:4] = [0.42] + [0.58 / 3] * 3
    dist = SymbolDistribution(probs, source_id="four")
    ref, got = _check_point(dist, 8, 4)
    assert ref.shift == 2 and ref.empty_quotient
    other = best_dictionary_for(dist, 8, 4, shifts=(0,))
    assert 0 < efficiency(ref, dist) - efficiency(other, dist) < 0.01
    assert _set_bytes([got]) == _set_bytes([ref])


def test_failing_shifts_are_skipped_identically():
    # at K=4 a broad source has too many quotients at small shifts
    dist = make_distribution(SyntheticFamily("laplacian", 0.8))
    with pytest.raises(BuildError):
        MarlinDictionary.build(dist, 4, 0, shift=0, threshold=0.0)
    ref, got = _check_point(dist, 4, 0)
    assert ref.shift > 0
    assert _set_bytes([got]) == _set_bytes([ref])


def test_no_candidate_error_message_is_unchanged():
    dist = uniform()
    with pytest.raises(BuildError) as ref_exc:
        exhaustive_best(dist, 1, 0)
    with pytest.raises(BuildError) as got_exc:
        best_dictionary_for(dist, 1, 0)
    assert str(got_exc.value) == str(ref_exc.value)


# the five sources of the dictset-build benchmark workload
FIVE_SOURCES = [("laplacian", 0.2), ("laplacian", 0.45), ("laplacian", 0.6),
                ("laplacian", 0.9), ("poisson", 0.3)]


@pytest.mark.parametrize("sources, most", [
    pytest.param(FIVE_SOURCES, 85, id="five-sources"),
    pytest.param([("laplacian", 0.3)], 10, id="laplacian-0.3"),
])
def test_pruned_search_builds_few_candidates(monkeypatch, sources, most):
    # building every candidate whose shift's bound can win builds 123 and 18;
    # the exhaustive search builds 180 and 35
    built = []
    from_alphabet = MarlinDictionary.from_alphabet.__func__

    def counting(cls, *args, **kwargs):
        dct = from_alphabet(cls, *args, **kwargs)
        built.append(dct)
        return dct

    monkeypatch.setattr(MarlinDictionary, "from_alphabet", classmethod(counting))
    for fam, frac in sources:
        best_dictionary_for(make_distribution(SyntheticFamily(fam, frac)), 8, 4)
    assert len(built) <= most


def test_from_alphabet_grows_only_kept_chapters(monkeypatch):
    """Each level is grown once, and only when the layout check reaches it.

    A level can be grown and then demoted away entirely, when its own check
    keeps failing; every other grown level is kept.
    """
    calls = []
    grow = D.grow_chapter

    def counting(coding, level, size):
        calls.append(level)
        return grow(coding, level, size)

    monkeypatch.setattr(D, "grow_chapter", counting)
    grown = kept = checked = 0
    for fam, frac in SOURCES:
        dist = make_distribution(SyntheticFamily(fam, frac))
        for shift in D.SHIFT_RANGE:
            alphabet = split_alphabet(dist, shift, 2.0**-12)
            if not 1 < len(alphabet) < 256:
                continue
            calls.clear()
            dct = MarlinDictionary.from_alphabet(dist, 8, 4, alphabet)
            assert len(calls) == len(set(calls))
            kept_levels = {lw.level for lw in dct.word_sets}
            assert kept_levels <= set(calls)
            assert all(lvl > max(dct.levels) for lvl in set(calls) - kept_levels)
            grown += len(calls)
            kept += len(dct.word_sets)
            checked += 1
    assert checked > 50
    # growing every level in use before each check grows about 4x as many
    assert grown <= 1.05 * kept


def test_plain_shift_bound_can_be_exceeded():
    # escaping quotients rarer than about 2^-24 is modelled below their
    # information, so only the bound that prices escapes as the model does holds
    dist = make_distribution(SyntheticFamily("poisson", 0.02))
    _, candidates = exhaustive_best(dist, 8, 4, shifts=(2,))
    top = max(eta for *_, eta in candidates)
    assert top > shift_efficiency_bound(dist, 2, thresholds=(0.0,))
    assert top <= shift_efficiency_bound(dist, 2) + 1e-12


# Coding vectors with exact ties: dyadic values multiply exactly, so equal
# products reached in different orders tie bit for bit, and repeated values
# tie outright; a zero tail leaves ranks that no word may extend by.
TIE_VALUES = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.3, 0.2, 0.1, 0.05)


@st.composite
def _growths(draw):
    nq = draw(st.integers(2, 24))
    coding = np.array(sorted(
        draw(st.lists(st.sampled_from(TIE_VALUES), min_size=nq, max_size=nq)), reverse=True
    ))
    coding[nq - draw(st.integers(0, nq - 1)):] = 0.0
    k = draw(st.integers(1, 9))
    o = draw(st.integers(0, k))
    level = draw(st.integers(0, nq - 1))
    # levels as the builder starts them, or drawn freely
    levels = draw(st.one_of(
        st.just([min(c, nq - 1) for c in range(1 << o)]),
        st.lists(st.integers(0, min(nq - 1, 3)), min_size=1 << o, max_size=1 << o),
    ))
    return coding, level, k, o, levels, draw(st.booleans())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BuildError as exc:
        return str(exc)


# 400 draws take about 3 s
@hypothesis.seed(2018)
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_growths())
def test_grow_and_assign_match_scalar_copies(draw):
    coding, level, k, o, levels, demote = draw
    got = _outcome(D.grow_chapter, coding, level, 1 << k)
    want = _outcome(oracle_grow_chapter, coding, level, 1 << k)
    assert got == want  # every Growth field, or the same error message
    if not isinstance(want, Growth):
        return
    # demoted as the eager builder demotes, the levels fit this set; as
    # drawn, they may not
    while demote and not _eager_assignable(want.kvals, levels, k, o):
        top = max(levels)
        levels[max(i for i, v in enumerate(levels) if v == top)] = top - 1
    assert _outcome(D.assign_codewords, got, levels, k, o) == _outcome(
        oracle_assign_codewords, want, levels, k, o)


@st.composite
def _fit_draws(draw):
    k = draw(st.integers(1, 7))
    o = draw(st.integers(0, k))
    top = draw(st.integers(0, 6))
    kvals = draw(st.lists(st.integers(0, top), min_size=1 << k, max_size=1 << k))
    levels = draw(st.lists(st.integers(0, top), min_size=1 << o, max_size=1 << o))
    return kvals, levels, k, o


# 600 draws take about 2 s
@hypothesis.seed(2018)
@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_fit_draws())
def test_fit_rule_fails_where_hall_fails(draw):
    # the fill order is the scalar layout's, and its last misfit sits at the
    # lowest level whose slots the scalar Hall count overfills
    kvals, levels, k, o = draw
    fill, misfits = D._misfits(sorted(kvals, reverse=True), levels, k, o)
    assert fill == sorted(range(1 << o), key=lambda v: (-levels[v], -v))
    lowest = levels[misfits[-1]] if misfits else None
    assert lowest == hall_violation(sorted(kvals), levels, k, o)
