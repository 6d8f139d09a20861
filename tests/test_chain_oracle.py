"""Differential test: the parse chain built from word-set arrays against a tuple-driven build.

``OracleChain`` is the earlier constructor of ``_ParseChain`` kept as the
reference: it reads each word set as tuples, finds every word's tail
probability through a dict keyed by its prefix, sums the weights with
``np.add.at`` and fills the transition matrix state by state.  The
library's chain must give exactly the same states, transition matrix and
expected parse lengths, so the ABR a built dictionary stores does not move
by a bit.  On random built dictionaries, a set file holding each one must
also load and save back to the same bytes.
"""

import hypothesis
import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ricemarlin import DictionarySet, MarlinDictionary, load_dictset, save_dictset
from ricemarlin.dictionary import _ParseChain
from ricemarlin.errors import BuildError, EntropyTargetError
from ricemarlin.source import FAMILIES

from conftest import (
    THRESHOLDS, _built, _geometries, _with_edge_draws, max_word_len, words_of,
)


def _word_tails(words, coding):
    """P(source continues with w[1:]) per word, via the prefix tree."""
    tails = {}
    for w in sorted(words, key=len):
        tails[w] = 1.0 if len(w) == 1 else tails[w[:-1]] * float(coding[w[-1]])
    return tails


class OracleChain:
    def __init__(self, dct: MarlinDictionary, coding: np.ndarray):
        nq = len(coding)
        omask = dct.n_chapters - 1
        cum = np.concatenate([[0.0], np.cumsum(coding)])
        suffix = float(cum[-1]) - cum
        per_set = []
        evals = {0}
        for lw in dct.word_sets:
            words, kv = words_of(lw), np.array(lw.kvals)
            tails = _word_tails(words, coding)
            kv_state = np.minimum(kv, nq - 1)
            evals.update(int(x) for x in kv_state)
            r1 = np.array([w[0] for w in words])
            base = np.array([tails[w] for w in words]) * (1.0 - cum[np.minimum(kv, nq)])
            lengths = np.array([len(w) for w in words], dtype=np.float64)
            slots = np.arange(len(words)) & omask
            per_set.append((r1, base, kv_state, lengths, slots))
        self.first_ranks_and_weights = [(r1, base) for r1, base, *_ in per_set]
        self.evals = sorted(evals)
        self.states = states = [
            (c, e) for c, lvl in enumerate(dct.levels) for e in self.evals if e >= lvl
        ]
        sidx = {s: i for i, s in enumerate(states)}
        ns = len(states)
        T = np.zeros((ns, ns))
        length_exp = np.zeros(ns)
        rows = []
        for r1, base, kv, lengths, slots in per_set:
            targets = np.array([sidx[(int(v), int(kw))] for v, kw in zip(slots, kv)])
            m = np.zeros((nq + 1, ns))
            mlen = np.zeros(nq + 1)
            w_first = coding[r1] * base
            np.add.at(m, (r1, targets), w_first)
            np.add.at(mlen, r1, w_first * lengths)
            m_u = np.zeros((nq + 1, ns))
            mlen_u = np.zeros(nq + 1)
            np.add.at(m_u, (r1, targets), base)
            np.add.at(mlen_u, r1, base * lengths)
            rows.append((
                np.flip(np.cumsum(np.flip(m, 0), axis=0), 0),
                np.flip(np.cumsum(np.flip(mlen))),
                np.flip(np.cumsum(np.flip(m_u, 0), axis=0), 0),
                np.flip(np.cumsum(np.flip(mlen_u))),
            ))
        for si, (c, e) in enumerate(states):
            msuf, msuf_len, msuf_u, msuf_ulen = rows[dct.chapter_sets[c]]
            if suffix[e] > 0:
                T[si] = msuf[e] / suffix[e]
                length_exp[si] = msuf_len[e] / suffix[e]
            else:
                T[si] = msuf_u[e] / (nq - e)
                length_exp[si] = msuf_ulen[e] / (nq - e)
        self.T = T
        self.length_exp = length_exp


def assert_same_chain(dct: MarlinDictionary) -> None:
    coding = dct.alphabet.coding_probs
    got, want = _ParseChain(dct, coding), OracleChain(dct, coding)
    # chapter 0's level is 0, so its states list every exclusion value
    assert got.states == want.states
    assert np.array_equal(got.T, want.T)
    assert np.array_equal(got.length_exp, want.length_exp)
    for (r1, base), (want_r1, want_base) in zip(
        got.first_ranks_and_weights, want.first_ranks_and_weights
    ):
        assert np.array_equal(r1, want_r1) and np.array_equal(base, want_base)


def _coded(dset):
    return [dct for dct in dset.dictionaries if not dct.empty_quotient]


def test_chain_matches_oracle_on_grid_set(grid_set):
    loaded = load_dictset(save_dictset(grid_set))
    for dct in _coded(grid_set) + _coded(loaded):
        assert_same_chain(dct)


def test_chain_matches_oracle_on_long_words(long_word_set):
    # words up to 237 ranks: the tails are products of up to 236 factors
    assert max(map(max_word_len, long_word_set.dictionaries)) == 237
    for dct in long_word_set.dictionaries:
        assert_same_chain(dct)


def test_chain_matches_oracle_on_worked_example(worked_dictionary):
    assert_same_chain(worked_dictionary)


# The walk oracle's random built dictionaries, K <= 11 and O <= 4: 300
# examples take about 5 s.  Dictionaries that code no quotients have no
# chain but still go through the set file.
@hypothesis.seed(2018)
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@_with_edge_draws()
@given(
    ko=_geometries(),
    family=st.sampled_from(FAMILIES),
    fraction=st.floats(0.02, 0.98),
    shift=st.integers(0, 7),
    threshold=st.sampled_from(THRESHOLDS),
)
def test_chain_and_set_file_match_on_random_dictionaries(ko, family, fraction, shift, threshold):
    try:
        dct = _built(ko, family, fraction, shift, threshold)
    except (BuildError, EntropyTargetError):
        dct = None
    assume(dct is not None)
    if not dct.empty_quotient:
        assert_same_chain(dct)
    data = save_dictset(DictionarySet([dct]))
    assert save_dictset(load_dictset(data)) == data
