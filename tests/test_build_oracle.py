"""Differential oracle for the dictionary builder.

The library grows a chapter only when the layout check reaches its
exclusion level, and it skips shifts whose efficiency bound cannot beat the
best dictionary found so far.  This file keeps the eager chapter loop and
the exhaustive (S, threshold) search as the reference, and asserts that both
build byte-identical dictionary sets.
"""

from bisect import bisect_left

import numpy as np
import pytest

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
from ricemarlin.dictionary import split_alphabet
from ricemarlin.source import point_mass, uniform

from conftest import excluded

FRACTIONS = (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98)
SOURCES = [(fam, f) for fam in ("laplacian", "poisson", "exponential") for f in FRACTIONS]


def _eager_assignable(kvals, levels, k, o):
    cap = 1 << (k - o)
    ks = sorted(kvals)
    for level in sorted(set(levels)):
        if level == 0:
            continue
        if bisect_left(ks, level) > cap * sum(1 for v in levels if v < level):
            return False
    return True


def eager_from_alphabet(dist, k, o, alphabet, block_n=4096, source_id=None):
    """The builder before lazy growth: every level in use is grown up front."""
    nq = len(alphabet)
    source_id = source_id if source_id is not None else dist.source_id
    if nq == 1:
        dct = MarlinDictionary(
            k, o, alphabet, (), (), source_id=source_id, block_n=block_n,
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
                grown[lvl] = D.grow_chapter(coding, lvl, 1 << k)
        if all(_eager_assignable(grown[lvl].kvals, levels, k, o) for lvl in set(levels)):
            break
        top = max(levels)
        levels[max(i for i, v in enumerate(levels) if v == top)] = top - 1
    in_use = sorted(set(levels))
    word_sets = tuple(D.link_word_lists(in_use, [
        [grown[lvl].words[i] for i in D.assign_codewords(grown[lvl], levels, k, o)]
        for lvl in in_use
    ]))
    dct = MarlinDictionary(
        k, o, alphabet, word_sets, tuple(in_use.index(lvl) for lvl in levels),
        source_id=source_id, block_n=block_n,
    )
    dct._finalize(dist)
    return dct


def exhaustive_best(dist, k, o, block_n=4096, shifts=D.SHIFT_RANGE,
                    thresholds=D.THRESHOLD_GRID):
    """The search before pruning: every (S, threshold) in order.

    Returns the winner and ``(shift, eta)`` for every candidate built.
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
            candidates.append((shift, eta))
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
    """Build with both searches; every reference candidate must obey its bound."""
    ref, candidates = exhaustive_best(dist, k, o, **search)
    got = best_dictionary_for(dist, k, o, **search)
    for shift, eta in candidates:
        bound = shift_efficiency_bound(dist, shift)
        assert eta <= bound + 1e-12, (dist.source_id, shift, eta, bound)
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
    top = max(eta for _, eta in candidates)
    assert top > shift_efficiency_bound(dist, 2, thresholds=(0.0,))
    assert top <= shift_efficiency_bound(dist, 2) + 1e-12
