import hashlib

import numpy as np
import pytest

from conftest import (
    A, B, C, D, WORKED_CHAPTER_0, WORKED_CHAPTER_1, abcd_distribution, chapter_words,
    codewords, excluded, max_word_len, select, skewed_distribution, unsafe_copy, words_of,
)
from ricemarlin import (
    BuildError,
    EncoderMatrix,
    EntropyTargetError,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    abr_estimate,
    best_dictionary_for,
    build_dictionary_set,
    efficiency,
    make_distribution,
    save_dictset,
    shift_efficiency_bound,
)
import ricemarlin.dictionary as rd
from ricemarlin.dictionary import DictionarySet, assign_codewords, grow_chapter, split_alphabet
from ricemarlin.source import point_mass, uniform


# ---------------------------------------------------------------------------
# split_alphabet


def test_split_quotient_arithmetic():
    # 119 = 14 * 8 + 7
    assert 119 >> 3 == 14 and 119 & 7 == 7
    dist = uniform()
    alpha = split_alphabet(dist, shift=3, threshold=0.0)
    assert len(alpha) == 32
    assert (119 >> 3) in alpha.values


def test_split_zero_shift_zero_threshold_is_identity():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    alpha = split_alphabet(dist, shift=0, threshold=0.0)
    assert len(alpha) == 256
    assert excluded(alpha) == frozenset()
    assert alpha.values[0] == 0  # most probable residual


def test_split_threshold_excludes_rare_quotients():
    p = np.zeros(256)
    p[0], p[1], p[255] = 0.9, 0.099, 0.001
    dist = SymbolDistribution(p)
    alpha = split_alphabet(dist, shift=0, threshold=0.01)
    # the rare support symbol is escaped; the zero-probability tail follows
    # the same sub-threshold rule and carries no escape mass
    assert 255 in excluded(alpha)
    assert 0 not in excluded(alpha) and 1 not in excluded(alpha)
    assert alpha.p_escape == pytest.approx(0.001, abs=1e-12)
    assert alpha.values[0] == 0
    assert alpha.values == (0, 1)


def test_split_probabilities_account_for_everything():
    dist = make_distribution(SyntheticFamily("laplacian", 0.4))
    for shift in (0, 2, 5):
        alpha = split_alphabet(dist, shift, threshold=2**-8)
        assert float(alpha.probs.sum()) + alpha.p_escape == pytest.approx(1.0, abs=1e-9)


def test_split_rejects_total_exclusion():
    with pytest.raises(BuildError):
        split_alphabet(uniform(), shift=0, threshold=0.5)


def test_split_validates_arguments():
    with pytest.raises(ValueError):
        split_alphabet(uniform(), shift=9, threshold=0.0)
    with pytest.raises(ValueError):
        split_alphabet(uniform(), shift=0, threshold=1.0)


# ---------------------------------------------------------------------------
# grow_chapter


def test_grow_greedy_trace_at_level_zero(abcd_dist):
    alpha = split_alphabet(abcd_dist, 0, 2**-16)
    words = set(map(tuple, grow_chapter(alpha.coding_probs, 0, 8).words))
    # the four singles plus the highest-probability extensions of the rule:
    # aa (.49), aaa (.343), aaaa (.2401), aaaaa (.16807) all beat ba (.105)
    assert words == {
        (A,), (B,), (C,), (D,),
        (A, A), (A, A, A), (A, A, A, A), (A, A, A, A, A),
    }


def test_grow_excluding_top_symbol(abcd_dist):
    alpha = split_alphabet(abcd_dist, 0, 2**-16)
    words = list(map(tuple, grow_chapter(alpha.coding_probs, 1, 8).words))
    assert len(words) == 8
    assert len(set(words)) == 8
    assert all(w[0] >= 1 for w in words)  # nothing starts with 'a'
    for single in ((B,), (C,), (D,)):
        assert single in words


def test_grow_no_room_to_grow():
    p = np.zeros(256)
    p[0], p[1] = 0.6, 0.4
    alpha = split_alphabet(SymbolDistribution(p), 0, 2**-16)
    assert set(map(tuple, grow_chapter(alpha.coding_probs, 0, 2).words)) == {(0,), (1,)}


def test_grow_rejects_bad_sizes(abcd_dist):
    alpha = split_alphabet(abcd_dist, 0, 2**-16)
    with pytest.raises(BuildError):
        grow_chapter(alpha.coding_probs, 4, 8)  # no admissible quotients
    with pytest.raises(BuildError):
        grow_chapter(alpha.coding_probs, 0, 2)  # more quotients than slots


def test_grow_child_counts_are_prefixes(abcd_dist):
    alpha = split_alphabet(abcd_dist, 0, 2**-16)
    growth = grow_chapter(alpha.coding_probs, 0, 16)
    words = list(map(tuple, growth.words))
    index = set(words)
    for w, k in zip(words, growth.kvals):
        present = [r for r in range(4) if w + (r,) in index]
        assert present == list(range(k))


# ---------------------------------------------------------------------------
# assign_codewords


def test_assignment_reproduces_worked_even_odd_split(abcd_dist):
    # the worked-example chapter-0 word set: odd codewords (next chapter 1) must be
    # exactly the words with children: a, aa, aaa, b
    alpha = split_alphabet(abcd_dist, 0, 2**-16)
    words = [
        (A, A, A, A), (A,), (B, A), (A, A), (C,), (A, A, A), (D,), (B,),
    ]
    index = {w: i for i, w in enumerate(words)}
    kvals = []
    for w in words:
        k = 0
        while w + (k,) in index:
            k += 1
        kvals.append(k)
    raws = []
    probs = alpha.coding_probs
    for w in words:
        raw = probs[w[0]]
        for r in w[1:]:
            raw *= probs[r]
        raws.append(float(raw))
    layout = assign_codewords((list(map(bytes, words)), kvals, raws), levels=[0, 1], k=3, o=1)
    by_offset = [words[i] for i in layout]
    odd = {by_offset[i] for i in range(1, 8, 2)}
    even = {by_offset[i] for i in range(0, 8, 2)}
    assert odd == {(A,), (A, A), (A, A, A), (B,)}
    assert even == {(A, A, A, A), (B, A), (C,), (D,)}
    # and the exact reference codeword order
    assert by_offset == [
        (A, A, A, A), (A,), (B, A), (A, A), (C,), (A, A, A), (D,), (B,),
    ]


def test_assignment_all_leaf_words_need_level_zero_slots():
    words = [(0,), (1,), (2,), (3,)]
    growth = (list(map(bytes, words)), [0, 0, 0, 0], [0.4, 0.3, 0.2, 0.1])
    # every slot value at exclusion level 0: any bijection is safe
    layout = assign_codewords(growth, levels=[0, 0], k=2, o=1)
    assert sorted(layout) == [0, 1, 2, 3]
    # a level-1 slot group cannot be filled by childless words
    with pytest.raises(BuildError):
        assign_codewords(growth, levels=[0, 1], k=2, o=1)


def test_assignment_with_no_overlap_uses_single_chapter(abcd_dist):
    dct = MarlinDictionary.build(abcd_dist, k=3, o=0, shift=0, threshold=2**-16)
    assert dct.levels == (0,)
    assert all((cw & (dct.n_chapters - 1)) == 0 for cw in range(dct.n_codewords))


def test_assignment_all_leaves_forces_chapter_zero():
    # four equiprobable symbols, K=2 would not fit; use K=3 with uniform tail
    p = np.zeros(256)
    p[:4] = 0.25
    dist = SymbolDistribution(p)
    dct = MarlinDictionary.build(dist, k=3, o=1, shift=0, threshold=2**-16)
    for cw in range(dct.n_codewords):
        lvl = dct.levels[cw & (dct.n_chapters - 1)]
        words = chapter_words(dct, cw >> dct.k)
        word = words[cw & (dct.words_per_chapter - 1)]
        index = {w: i for i, w in enumerate(words)}
        k = 0
        while word + (k,) in index:
            k += 1
        assert lvl <= k


# ---------------------------------------------------------------------------
# stationary distribution and mean parse length


def test_stationary_single_chapter(abcd_dist):
    dct = MarlinDictionary.build(abcd_dist, k=3, o=0, shift=0, threshold=2**-16)
    assert np.allclose(dct.chapter_stationary(abcd_dist), [1.0])


def test_stationary_symmetric_two_chapter_fixed_point():
    # the power iteration solves pi = pi T; a symmetric chain fixes (.5, .5)
    from ricemarlin.dictionary import _ParseChain

    class Stub(_ParseChain):
        def __init__(self):
            self.T = np.array([[0.5, 0.5], [0.5, 0.5]])
            self.states = [(0, 0), (1, 0)]
            self._pi = None
            self.dct = type("D", (), {"n_chapters": 2})()
            self.length_exp = np.ones(2)

    assert np.allclose(Stub().stationary(), [0.5, 0.5], atol=1e-11)


def test_stationary_is_stochastic(abcd_dist):
    dct = MarlinDictionary.build(abcd_dist, k=3, o=1, shift=0, threshold=2**-16)
    pi = dct.chapter_stationary(abcd_dist)
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    assert (pi >= 0).all()


def test_stationary_matches_monte_carlo_toy(abcd_dist):
    dct = MarlinDictionary.build(abcd_dist, k=3, o=1, shift=0, threshold=2**-16)
    matrix = EncoderMatrix(dct)
    msg = abcd_dist.sample(10**7, seed=42)
    ranks = dct.alphabet.rank_lut[np.frombuffer(msg, np.uint8)].tolist()
    cws = codewords(dct, matrix.walk(ranks))
    mc_pi = np.bincount(cws >> dct.k, minlength=dct.n_chapters) / len(cws)
    mc_lbar = len(ranks) / len(cws)
    assert np.abs(dct.chapter_stationary(abcd_dist) - mc_pi).max() < 1e-3
    lbar = dct.mean_parse_length(abcd_dist)
    assert abs(lbar - mc_lbar) / lbar < 1e-3


def test_emission_probs_sum_to_one_and_match_definition(worked_dictionary, abcd_dist):
    dct = worked_dictionary
    probs = dct.alphabet.coding_probs
    for c in range(2):
        emit = dct.emission_probs(c, abcd_dist)
        assert emit.sum() == pytest.approx(1.0, abs=1e-9)
        # emit = raw * (1 - sum of the k most probable successors), exactly
        words = chapter_words(dct, c)
        index = {w: i for i, w in enumerate(words)}
        lvl = dct.levels[c]
        z = probs[lvl:].sum()
        for i, w in enumerate(words):
            k = 0
            while w + (k,) in index:
                k += 1
            raw = (probs[w[0]] / z) * np.prod([probs[r] for r in w[1:]])
            expected = raw * (1.0 - probs[:k].sum())
            assert emit[i] == pytest.approx(expected, abs=1e-12)


def test_chain_of_an_unsafe_dictionary_names_the_word_set(worked_dictionary, abcd_dist):
    # "aaaa", without children, feeds chapter 1 at level 1: the chain has no
    # state for where it leads
    with pytest.raises(BuildError, match="unsafe word set 0: .* feeds chapter 1$"):
        efficiency(unsafe_copy(worked_dictionary), abcd_dist)


def test_check_and_chain_name_the_same_unsafe_chapter():
    # levels (0, 1, 1, 0): swapping offsets 0 <-> 2 and 4 <-> 5 of word set 0
    # puts childless words at offsets 2 and 5, which feed chapters 2 and 1.
    # Both checks name the lowest, chapter 1; the chain named the chapter of
    # the first such word, 2
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=6, o=2, shift=3, threshold=2**-10)
    assert dct.levels == (0, 1, 1, 0)
    first, *rest = dct.word_sets
    words = [bytes(w) for w in words_of(first)]
    words[0], words[2], words[4], words[5] = words[2], words[0], words[5], words[4]
    assert first.kvals[[0, 4]].tolist() == [0, 0]
    (swapped,) = rd.link_word_lists([first.level], [words])
    unsafe = MarlinDictionary(dct.k, dct.o, dct.alphabet, (swapped, *rest), dct.chapter_sets)
    named = "^unsafe word set 0: a word with fewer than 1 children feeds chapter 1$"
    with pytest.raises(BuildError, match=named):
        unsafe.check(BuildError)
    with pytest.raises(BuildError, match=named):
        efficiency(unsafe, dist)


# ---------------------------------------------------------------------------
# ABR estimate and efficiency


def test_abr_point_mass_is_k_over_longest_chain():
    dct = MarlinDictionary.build(point_mass(0), k=12, o=0, shift=0, threshold=2**-16)
    # one quotient short of 2^12 singles: the chain reaches length 3841... but
    # with every zero-probability quotient excluded only 'a' chains remain
    assert len(dct.alphabet) == 1 or dct.empty_quotient


def test_abr_point_mass_with_explicit_alphabet():
    # keep all 256 quotients via threshold 0 at K=9 (2^9 > 256)
    dct = MarlinDictionary.build(point_mass(0), k=9, o=0, shift=0, threshold=0.0)
    max_len = max_word_len(dct)
    assert max_len == (1 << 9) - 256 + 1
    abr = abr_estimate(dct, point_mass(0), 4096)
    assert abr == pytest.approx(9 / max_len, abs=1e-12)


def test_abr_full_shift_is_eight():
    dct = MarlinDictionary.build(uniform(), k=8, o=4, shift=8, threshold=0.0)
    assert dct.empty_quotient
    assert abr_estimate(dct, uniform(), 4096) == pytest.approx(8.0, abs=1e-12)


def test_abr_reference_efficiency_point():
    # reference curve value 93.5321% at 4096 words, shift 0, half-entropy source
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = best_dictionary_for(dist, 12, 0, shifts=(0,))
    eta = efficiency(dct, dist, 4096)
    assert abs(eta - 0.935321) < 0.025


def test_abr_never_below_shift_floor():
    for fam, frac in [("laplacian", 0.3), ("poisson", 0.6)]:
        dist = make_distribution(SyntheticFamily(fam, frac))
        for shift in (0, 2, 4):
            dct = MarlinDictionary.build(dist, k=8, o=2, shift=shift, threshold=2**-10)
            assert abr_estimate(dct, dist, 4096) >= shift


def test_efficiency_respects_shift_bound():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    for shift in (0, 1, 2, 3):
        dct = MarlinDictionary.build(dist, k=8, o=4, shift=shift, threshold=2**-12)
        eta = efficiency(dct, dist, 4096)
        assert eta <= shift_efficiency_bound(dist, shift) + 1e-9


def test_stored_abr_is_the_abr_estimate(grid_distributions, grid_set):
    """The builder stores the ABR and quotient bits that the model computes.

    Both are written to set files, so they are compared exactly.
    """
    lap = make_distribution(SyntheticFamily("laplacian", 0.5))
    pairs = list(zip(grid_set.dictionaries, grid_distributions.values())) + [
        (MarlinDictionary.build(lap, 8, 4, shift=2, threshold=2**-10, block_n=256), lap),
        (MarlinDictionary.build(uniform(), 8, 4, shift=8, threshold=0.0), uniform()),
    ]
    for dct, dist in pairs:
        assert dct.abr == abr_estimate(dct, dist, dct.block_n)
        if dct.empty_quotient:
            assert dct.quotient_bits == 0.0
        else:
            assert dct.quotient_bits == dct.k / dct.mean_parse_length(dist)
    assert pairs[-1][0].empty_quotient


# ---------------------------------------------------------------------------
# shift efficiency bound


def test_shift_bound_zero_shift_is_unity():
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    assert shift_efficiency_bound(dist, 0) == pytest.approx(1.0, abs=1e-12)


def test_shift_bound_point_mass():
    assert shift_efficiency_bound(point_mass(3), 1) == 0.0
    assert shift_efficiency_bound(point_mass(3), 0) == 1.0  # degenerate 0/0


def test_shift_bound_matches_reference_values():
    # reference bound values for the half-entropy two-sided residual source
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    reference = {1: 0.995, 2: 0.976, 3: 0.917, 4: 0.796, 5: 0.669}
    for shift, target in reference.items():
        assert abs(shift_efficiency_bound(dist, shift) - target) < 0.010


# ---------------------------------------------------------------------------
# best_dictionary_for


def test_best_dictionary_uniform_source_needs_large_shift():
    dct = best_dictionary_for(uniform(), 8, 4)
    assert dct.shift >= 4


def test_best_dictionary_point_mass_prefers_zero_shift():
    dct = best_dictionary_for(point_mass(0), 8, 4)
    assert dct.shift == 0
    assert abr_estimate(dct, point_mass(0), 4096) < 0.1


def test_best_dictionary_high_entropy_takes_nonzero_shift():
    dist = make_distribution(SyntheticFamily("laplacian", 0.95))
    dct = best_dictionary_for(dist, 8, 4)
    assert dct.shift >= 1


def test_best_dictionary_validates_parameters():
    with pytest.raises(BuildError):
        best_dictionary_for(uniform(), 8, 9)


_BUILDERS = {
    "search": lambda n: best_dictionary_for(uniform(), 8, 4, block_n=n),
    "build": lambda n: MarlinDictionary.build(
        make_distribution(SyntheticFamily("laplacian", 0.5)), k=8, o=4, shift=2,
        threshold=2**-10, block_n=n,
    ),
    "from_tables": lambda n: MarlinDictionary.from_tables(
        3, 1, split_alphabet(abcd_distribution(), 0, 2**-16),
        [WORKED_CHAPTER_0, WORKED_CHAPTER_1], block_n=n,
    ),
}


@pytest.mark.parametrize("builder, block_n", [
    *(pytest.param("search", n, id=str(n)) for n in (-5, 0, 1 << 32)),
    *(pytest.param(b, n, id=f"{b}-{n}")
      for b in ("build", "from_tables") for n in (-5, 0, 1 << 32, 1 << 33)),
])
def test_best_dictionary_rejects_block_sizes_a_set_cannot_store(monkeypatch, builder, block_n):
    # a set file stores block_n as a u32; every builder checks it before any
    # candidate is bounded or any chapter is grown
    monkeypatch.setattr(rd, "shift_efficiency_bound", lambda *args: pytest.fail("searched"))
    monkeypatch.setattr(rd, "grow_chapter", lambda *args: pytest.fail("grown"))
    with pytest.raises(ValueError, match=rf"block size {block_n} is not in \[1, 2\^32 - 1\]"):
        _BUILDERS[builder](block_n)


def test_each_candidate_builds_one_parse_chain(monkeypatch):
    """The search ranks candidates by their stored ABR: one chain each."""
    owners, built = [], []

    class CountingChain(rd._ParseChain):
        def __init__(self, dct, coding):
            owners.append(dct)
            super().__init__(dct, coding)

    from_alphabet = rd.MarlinDictionary.from_alphabet.__func__

    def recording(cls, *args, **kwargs):
        dct = from_alphabet(cls, *args, **kwargs)
        built.append(dct)
        return dct

    monkeypatch.setattr(rd, "_ParseChain", CountingChain)
    monkeypatch.setattr(rd.MarlinDictionary, "from_alphabet", classmethod(recording))
    for fam, frac in [("laplacian", 0.3), ("poisson", 0.6)]:
        best_dictionary_for(make_distribution(SyntheticFamily(fam, frac)), 8, 4)
    parsed = [dct for dct in built if len(dct.alphabet) > 1]
    assert len(parsed) >= 20
    assert sorted(map(id, owners)) == sorted(map(id, parsed))


# ---------------------------------------------------------------------------
# dictionary sets and selection


def test_build_set_counts_grid_points():
    grid = [("laplacian", round(0.05 * i, 2)) for i in range(1, 20)]
    dset = build_dictionary_set({"grid": grid, "k": 8, "o": 2, "block_n": 4096})
    assert len(dset) == 19


def test_five_source_set_bytes_are_pinned():
    """The set the benchmark's dictset-build workload builds, pinned by sha256.

    Its dictionaries sit at shifts 0, 1, 2 and 5.  The digest was taken on
    x86-64 Linux with numpy 2.4; a change to the builder that keeps its
    output must keep it.
    """
    grid = [("laplacian", 0.2), ("laplacian", 0.45), ("laplacian", 0.6),
            ("laplacian", 0.9), ("poisson", 0.3)]
    dset = build_dictionary_set({"grid": grid, "k": 8, "o": 4, "block_n": 4096})
    assert sorted({dct.shift for dct in dset.dictionaries}) == [0, 1, 2, 5]
    assert hashlib.sha256(save_dictset(dset)).hexdigest() == (
        "19d9e9e8c752ab93a3f02b6d31da00f2f10a3d00b866f03b1b6f9f2eca2f1375"
    )


def test_default_set_config_quality(default_set):
    from ricemarlin import default_set_config, load_dictset, save_dictset
    from ricemarlin.source import SyntheticFamily as SF

    cfg = default_set_config()
    assert len(cfg["grid"]) == 58  # 49 laplacian + 9 poisson fractions
    dset = default_set  # build_dictionary_set() builds the default config
    assert len(dset) == 58
    for (family, fraction), dct in zip(cfg["grid"], dset.dictionaries):
        if not 0.15 <= fraction <= 0.95:
            continue
        dist = make_distribution(SF(family, fraction))
        assert efficiency(dct, dist, 4096) >= 0.90, (family, fraction)
    # the full set survives persistence
    loaded = load_dictset(save_dictset(dset))
    assert len(loaded) == 58


def test_build_set_rejects_empty_grid(monkeypatch):
    monkeypatch.setattr(rd, "best_dictionary_for", lambda *args, **kw: pytest.fail("built"))
    with pytest.raises(BuildError, match="^a dictionary set must contain at least one dictionary$"):
        build_dictionary_set({"grid": []})


def test_build_set_rejects_unknown_config_keys(monkeypatch):
    # "K" is not "k": without the check it silently built a K = 8 set
    monkeypatch.setattr(rd, "best_dictionary_for", lambda *args, **kw: pytest.fail("built"))
    for config, named in (({"grid": [("laplacian", 0.5)], "K": 12}, "'K'"),
                          ({"k": 8, "blocks": 4096, "O": 2}, "'O', 'blocks'")):
        with pytest.raises(ValueError, match=f"unknown dictionary-set config keys: {named}$"):
            build_dictionary_set(config)


@pytest.mark.parametrize("k,o", [(30, 0), (21, 4), (8, 9)])
def test_from_alphabet_checks_geometry_before_growing(abcd_dist, monkeypatch, k, o):
    # these asked for 2^30-, 2^21- and 256-word chapters before the check
    monkeypatch.setattr(rd, "grow_chapter", lambda *args: pytest.fail("grew a chapter"))
    alphabet = split_alphabet(abcd_dist, 0, 2**-16)
    with pytest.raises(BuildError, match=f"got K={k}, O={o}$"):
        MarlinDictionary.from_alphabet(abcd_dist, k, o, alphabet)
    with pytest.raises(BuildError, match=f"got K={k}, O={o}$"):
        MarlinDictionary.build(abcd_dist, k, o, shift=0, threshold=2**-16)


@pytest.mark.parametrize("grid,error", [
    ([("laplacian", 0.3), ("laplacian", 0.5), ("exponential", 1.5)], ValueError),
    ([("laplacian", 0.3), ("poisson", 0.999)], EntropyTargetError),
])
def test_build_set_checks_every_grid_point_before_building(monkeypatch, grid, error):
    monkeypatch.setattr(rd, "best_dictionary_for", lambda *args, **kw: pytest.fail("built"))
    with pytest.raises(error):
        build_dictionary_set({"grid": grid})


def test_build_set_rejects_oversized_grid(monkeypatch):
    monkeypatch.setattr(rd, "best_dictionary_for", lambda *args, **kw: pytest.fail("built"))
    grid = [("laplacian", 0.5)] * 256
    with pytest.raises(BuildError, match=r"^at most 255 dictionaries fit \(index 255 is the raw"):
        build_dictionary_set({"grid": grid})


def test_set_requires_shared_parameters(abcd_dist):
    d1 = MarlinDictionary.build(abcd_dist, k=3, o=1, shift=0, threshold=2**-16)
    d2 = MarlinDictionary.build(abcd_dist, k=4, o=1, shift=0, threshold=2**-16)
    with pytest.raises(BuildError):
        DictionarySet([d1, d2])


@pytest.fixture(scope="module")
def small_set():
    grid = [("laplacian", f) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    return build_dictionary_set({"grid": grid, "k": 8, "o": 4, "block_n": 4096})


def test_select_training_distribution_wins(small_set):
    for i, frac in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
        dist = make_distribution(SyntheticFamily("laplacian", frac))
        chosen = select(small_set, dist, 4096)
        assert abr_estimate(small_set[chosen], dist, 4096) <= abr_estimate(
            small_set[i], dist, 4096
        ) + 1e-12


def test_select_point_mass_takes_lowest_entropy(small_set):
    assert select(small_set, skewed_distribution(0.999), 4096) == 0


def test_select_uniform_takes_largest_shift(small_set):
    chosen = select(small_set, uniform(), 4096)
    max_shift = max(d.shift for d in small_set.dictionaries)
    assert small_set[chosen].shift == max_shift


def test_quick_select_agrees_with_exact_on_training_data(small_set):
    for frac in (0.1, 0.5, 0.9):
        dist = make_distribution(SyntheticFamily("laplacian", frac))
        counts = np.bincount(
            np.frombuffer(dist.sample(4096, seed=8), np.uint8), minlength=256
        )
        qi = small_set.quick_select(counts, 4096)
        ei = select(small_set, SymbolDistribution(counts / counts.sum()), 4096)
        # the screen may pick a neighbor; its modeled cost must stay close
        hist = SymbolDistribution(counts / counts.sum())
        assert abr_estimate(small_set[qi], hist, 4096) <= abr_estimate(
            small_set[ei], hist, 4096
        ) * 1.06 + 1e-9


# ---------------------------------------------------------------------------
# structural invariants


@pytest.mark.parametrize(
    "fam,frac,k,o,shift",
    [
        ("laplacian", 0.25, 8, 4, 0),
        ("laplacian", 0.5, 8, 4, 1),
        ("poisson", 0.5, 8, 2, 2),
        ("exponential", 0.7, 10, 2, 3),
    ],
)
def test_structural_invariants(fam, frac, k, o, shift):
    dist = make_distribution(SyntheticFamily(fam, frac))
    dct = MarlinDictionary.build(dist, k=k, o=o, shift=shift, threshold=2**-10)
    # codeword bijectivity: every codeword maps to a word, chapters contiguous
    seen_words: set = set()
    for c in range(dct.n_chapters):
        words = chapter_words(dct, c)
        assert len(words) == dct.words_per_chapter
        assert len(set(words)) == len(words)  # distinct within a chapter
        lvl = dct.levels[c]
        for r in range(lvl, len(dct.alphabet)):
            assert (r,) in set(words)  # parseability under exclusion
        index = {w: i for i, w in enumerate(words)}
        for off, w in enumerate(words):
            nxt = off & (dct.n_chapters - 1)
            kw = 0
            while w + (kw,) in index:
                kw += 1
            assert dct.levels[nxt] <= kw  # safety cap
    # emission probabilities sum to one per chapter
    for c in range(dct.n_chapters):
        assert dct.emission_probs(c, dist).sum() == pytest.approx(1.0, abs=1e-9)


def test_overlapped_twelve_bit_parameterization():
    # the prior-generation baseline: 12 consumed bits with 4 bits of overlap
    from ricemarlin import decode_block, encode_block

    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = MarlinDictionary.build(dist, k=12, o=4, shift=0, threshold=2**-8)
    assert dct.n_codewords == 1 << 16
    assert max(dct.levels) >= 1  # overlap carries exclusion information
    msg = dist.sample(20000, seed=6)
    blk = encode_block(dct, msg)
    assert decode_block(DictionarySet([dct]), blk) == msg
    # a single unsearched (S, threshold) point still lands near the curve
    assert efficiency(dct, dist, 4096) > 0.85


def test_build_is_deterministic(abcd_dist):
    d1 = MarlinDictionary.build(abcd_dist, k=3, o=1, shift=0, threshold=2**-16)
    d2 = MarlinDictionary.build(abcd_dist, k=3, o=1, shift=0, threshold=2**-16)
    assert d1.levels == d2.levels
    for c in range(d1.n_chapters):
        assert chapter_words(d1, c) == chapter_words(d2, c)


# ---------------------------------------------------------------------------
# quick_select cost tables


def _scalar_cost_matrix(dset: DictionarySet, block_n: int) -> np.ndarray:
    """The original per-byte loop, kept as the oracle for the numpy tables."""
    from ricemarlin.bitpack import loc_bytes
    from ricemarlin.dictionary import ALPHABET_SIZE, entropy

    rows = []
    esc_bits = 8.0 * (1 + loc_bytes(block_n))
    for dct in dset.dictionaries:
        cost = np.full(ALPHABET_SIZE, float(dct.shift))
        if dct.empty_quotient:
            excl = np.array([b in excluded(dct.alphabet) for b in range(ALPHABET_SIZE)])
            cost[excl] += esc_bits
            rows.append(cost)
            continue
        coding = dct.alphabet.coding_probs
        hq = entropy(coding)
        eta_q = min(1.0, hq / dct.quotient_bits) if dct.quotient_bits > 0 else 1.0
        with np.errstate(divide="ignore"):
            qbits = np.where(coding > 0, -np.log2(np.maximum(coding, 1e-300)), 64.0)
        qbits = np.minimum(qbits / max(eta_q, 1e-9), 64.0)
        rank_lut = dct.alphabet.rank_lut
        for b in range(ALPHABET_SIZE):
            r = rank_lut[b]
            if r < 0:
                cost[b] += esc_bits + qbits[0]
            else:
                cost[b] += qbits[r]
        rows.append(cost)
    return np.array(rows)


# one representative block size per escape-location width (1, 2 and 4 bytes)
WIDTH_SIZES = {1: 256, 2: 4096, 4: 65537}
MIXED_SIZES = [4096, 100, 4096, 3000, 64, 256, 257, 65536, 65537]


@pytest.fixture(scope="module")
def table_set(small_set):
    """small_set plus both kinds of empty-quotient row (with and without
    escapes) and one at S = 0, where a nonzero quotient cost would show."""
    lap = make_distribution(SyntheticFamily("laplacian", 0.3))
    escaping = MarlinDictionary.build(lap, k=8, o=4, shift=4, threshold=0.5)
    plain = MarlinDictionary.build(uniform(), k=8, o=4, shift=8, threshold=0.0)
    point = MarlinDictionary.build(point_mass(7), 8, 4, shift=0, threshold=2**-16)
    assert escaping.empty_quotient and excluded(escaping.alphabet)
    assert plain.empty_quotient and not excluded(plain.alphabet)
    assert point.empty_quotient and point.shift == 0
    return DictionarySet(list(small_set.dictionaries) + [escaping, plain, point])


def _mixed_counts(n: int, i: int) -> np.ndarray:
    frac = (0.05, 0.3, 0.6, 0.95)[i % 4]
    data = make_distribution(SyntheticFamily("laplacian", frac)).sample(n, seed=i)
    return np.bincount(np.frombuffer(data, np.uint8), minlength=256)


@pytest.mark.parametrize("width", sorted(WIDTH_SIZES))
def test_cost_tables_match_scalar_oracle(table_set, width):
    oracle = _scalar_cost_matrix(table_set, WIDTH_SIZES[width])
    rows = table_set._cost_rows[width]
    assert np.array_equal(rows, oracle) and rows.tobytes() == oracle.tobytes()


def test_quick_select_matches_oracle_over_mixed_sizes(table_set):
    dset = DictionarySet(list(table_set.dictionaries))
    oracles = {n: _scalar_cost_matrix(dset, n) for n in set(MIXED_SIZES)}
    for i, n in enumerate(MIXED_SIZES * 3):
        counts = _mixed_counts(n, i)
        assert dset.quick_select(counts, n) == int(np.argmin(oracles[n] @ counts))


def test_quick_select_builds_one_table_per_width(table_set):
    dset = DictionarySet(list(table_set.dictionaries))
    assert "_cost_rows" not in vars(dset)  # nothing is compiled before a selection
    counts = {n: _mixed_counts(n, i) for i, n in enumerate(MIXED_SIZES)}
    dset.quick_select(counts[100], 100)
    rows = vars(dset)["_cost_rows"]
    assert sorted(rows) == [1, 2, 4]
    for i in range(200):
        n = MIXED_SIZES[i % len(MIXED_SIZES)]
        dset.quick_select(counts[n], n)
    assert vars(dset)["_cost_rows"] is rows
