"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from conftest import GRID_SIZES, A, B, C, chapter_words
from ricemarlin import (
    DecoderTable,
    EncoderMatrix,
    MarlinDictionary,
    SymbolDistribution,
    SyntheticFamily,
    best_dictionary_for,
    build_dictionary_set,
    compress_bytes,
    decode_quotients,
    decompress_bytes,
    make_distribution,
    pack_reminders,
    shift_efficiency_bound,
)
from ricemarlin.bench import measured_bits_per_symbol, speed_bench
from ricemarlin.source import uniform

def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS: {text}")


def test_criterion_1_roundtrip_exactness(grid_distributions, grid_set):
    start = time.perf_counter()
    checked = 0
    for (fam, frac), dist in grid_distributions.items():
        for i, n in enumerate(GRID_SIZES):
            data = dist.sample(n, seed=1000 + i)
            assert decompress_bytes(compress_bytes(data, grid_set), grid_set) == data
            checked += 1
    rng = np.random.default_rng(2024)
    dists = list(grid_distributions.values())
    for i in range(10_000):
        n = int(rng.integers(0, 600))
        kind = i % 3
        if kind == 0:
            data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        elif kind == 1:
            data = dists[i % len(dists)].sample(n, seed=i)
        else:
            data = bytes([int(rng.integers(0, 256))]) * n
        assert decompress_bytes(compress_bytes(data, grid_set), grid_set) == data
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"round-trip sweep took {elapsed:.1f}s"
    _report(1, f"{checked} grid and fuzz messages round-tripped in {elapsed:.1f}s")


def test_criterion_2_worked_decoding_example(worked_dictionary):
    table = DecoderTable(worked_dictionary)
    stream = bytes([0b10100110, 0b10000000])  # units 101 001 101, zero window
    out = decode_quotients(table, stream, 6)
    assert list(out) == [A, A, A, B, A, C]  # "aaabac"
    _report(2, 'reference bitstream 101001101 decodes to "aaabac"')


def test_criterion_3_reminder_packing():
    assert pack_reminders(bytes(range(8)), 3) == bytes([0x05, 0x39, 0x77])
    _report(3, "bytes 0..7 at S=3 pack to 05 39 77")


def test_criterion_4_split_identity():
    for s in range(9):
        for x in range(256):
            q, r = x >> s, x & ((1 << s) - 1)
            assert (q << s) | r == x
    _report(4, "(q << S) | r == x for all 256 x 9 pairs")


@pytest.fixture(scope="module")
def half_entropy():
    return make_distribution(SyntheticFamily("laplacian", 0.5))


@pytest.fixture(scope="module")
def half_entropy_sample(half_entropy):
    return half_entropy.sample(8 << 20, seed=777)


def test_criterion_5_efficiency_regression(half_entropy, half_entropy_sample):
    start = time.perf_counter()
    h = half_entropy.entropy()
    d4096 = best_dictionary_for(half_entropy, k=12, o=0, shifts=(0,))
    eta_4096 = h / measured_bits_per_symbol(d4096, half_entropy_sample)
    assert eta_4096 >= 0.910, f"4096-word shift-0 efficiency {eta_4096:.4f}"
    d256 = best_dictionary_for(half_entropy, k=8, o=0, shifts=(2,))
    eta_256 = h / measured_bits_per_symbol(d256, half_entropy_sample)
    assert eta_256 >= 0.885, f"256-word shift-2 efficiency {eta_256:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"regression took {elapsed:.1f}s"
    _report(
        5,
        f"measured eta: 4096w/S0 {eta_4096:.4f} (>=0.910), "
        f"256w/S2 {eta_256:.4f} (>=0.885), {elapsed:.1f}s",
    )


def test_criterion_6_shift_bound(half_entropy, grid_distributions, grid_set):
    reference = {1: 0.995, 2: 0.976, 3: 0.917, 4: 0.796, 5: 0.669}
    for s, target in reference.items():
        got = shift_efficiency_bound(half_entropy, s)
        assert abs(got - target) <= 0.010, f"S={s}: bound {got:.4f} vs {target}"
    # every built dictionary stays below its own shift bound when measured
    worst = 0.0
    for (fam, frac), dist in list(grid_distributions.items())[::4]:
        dct = grid_set[list(grid_distributions).index((fam, frac))]
        sample = dist.sample(1 << 20, seed=31)
        eta = dist.entropy() / measured_bits_per_symbol(dct, sample)
        bound = shift_efficiency_bound(dist, dct.shift)
        worst = max(worst, eta - bound)
        assert eta <= bound + 0.005, f"{fam} {frac}: eta {eta:.4f} > bound {bound:.4f}"
    _report(
        6,
        f"reference bounds matched within 1 point; worst measured overshoot "
        f"{worst * 100:+.3f} points (cap +0.5)",
    )


def test_criterion_7_combined_efficiency():
    start = time.perf_counter()
    results = []
    for fam in ("laplacian", "poisson"):
        for frac in (0.25, 0.5, 0.75):
            dist = make_distribution(SyntheticFamily(fam, frac))
            dct = best_dictionary_for(dist, 8, 4, block_n=4096)
            sample = dist.sample(4 << 20, seed=55)
            eta = dist.entropy() / measured_bits_per_symbol(dct, sample)
            results.append((fam, frac, eta))
            assert eta >= 0.92, f"{fam} {frac}: measured eta {eta:.4f} < 0.92"
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"combined study took {elapsed:.1f}s"
    summary = ", ".join(f"{f[:3]}{x}={e:.3f}" for f, x, e in results)
    _report(7, f"K=8/O=4 search: {summary} ({elapsed:.1f}s)")


def test_criterion_8_structural_invariants(grid_distributions, grid_set):
    # bijectivity, parseability, safety, emission sums, stochastic stationary
    for idx, ((fam, frac), dist) in enumerate(grid_distributions.items()):
        if idx % 5:
            continue
        dct = grid_set[idx]
        if dct.empty_quotient:
            continue
        nq = len(dct.alphabet)
        for c in range(dct.n_chapters):
            words = chapter_words(dct, c)
            assert len(set(words)) == dct.words_per_chapter
            index = {w: i for i, w in enumerate(words)}
            lvl = dct.levels[c]
            for r in range(lvl, nq):
                assert (r,) in index
            for off, w in enumerate(words):
                kw = 0
                while w + (kw,) in index:
                    kw += 1
                assert dct.levels[off & (dct.n_chapters - 1)] <= kw
            emit = dct.emission_probs(c, dist)
            assert emit.sum() == pytest.approx(1.0, abs=1e-9)
        pi = dct.chapter_stationary(dist)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9) and (pi >= 0).all()
    # toy-scale Monte-Carlo agreement for the mean parse length
    p = np.zeros(256)
    p[:4] = (0.7, 0.15, 0.1, 0.05)
    toy_dist = SymbolDistribution(p)
    worst_rel = 0.0
    for k, o in ((3, 1), (3, 0), (2, 1)):
        if (1 << k) <= 4 and k == 2:
            pq = np.zeros(256)
            pq[:3] = (0.6, 0.25, 0.15)
            d_dist = SymbolDistribution(pq)
        else:
            d_dist = toy_dist
        dct = MarlinDictionary.build(d_dist, k=k, o=o, shift=0, threshold=2**-16)
        matrix = EncoderMatrix(dct)
        msg = d_dist.sample(10**7, seed=4242)
        ranks = dct.alphabet.rank_lut[np.frombuffer(msg, np.uint8)].tolist()
        n_words = len(matrix.walk(ranks))
        mc = len(ranks) / n_words
        model = dct.mean_parse_length(d_dist)
        rel = abs(model - mc) / model
        worst_rel = max(worst_rel, rel)
        assert rel < 1e-3, f"K={k} O={o}: model {model:.6f} vs MC {mc:.6f}"
    _report(8, f"invariants hold; worst toy MC gap {worst_rel:.2e} (cap 1e-3)")


def test_criterion_9_raw_fallback():
    low_set = build_dictionary_set(
        {"grid": [("laplacian", f) for f in (0.1, 0.2, 0.3)], "k": 8, "o": 4}
    )
    rng = np.random.default_rng(99)
    data = rng.integers(0, 256, 64 * 4096, dtype=np.uint8).tobytes()
    comp = compress_bytes(data, low_set, block_size=4096)
    # every block stored raw: 4-byte length + sentinel byte + payload
    header_len = 64
    expected = header_len + 64 * (4 + 1 + 4096)
    assert len(comp) == expected, f"{len(comp)} != {expected}"
    assert decompress_bytes(comp, low_set) == data
    _report(9, "uniform blocks under a low-entropy set expand by exactly "
               "1 byte per block plus framing")


def test_criterion_10_speed_inequality(half_entropy):
    corpus = half_entropy.sample(64 << 20, seed=12345)
    grid = [("laplacian", f) for f in (0.3, 0.5, 0.7)]
    dset = build_dictionary_set({"grid": grid, "k": 8, "o": 4})
    start = time.perf_counter()
    report = speed_bench(corpus, dset, block_size=4096, runs=5)
    elapsed = time.perf_counter() - start
    assert report.decode_mib_s > report.encode_mib_s, (
        f"decode {report.decode_mib_s:.1f} MiB/s not above "
        f"encode {report.encode_mib_s:.1f} MiB/s"
    )
    assert elapsed < 300, f"benchmark took {elapsed:.1f}s"
    assert report.ratio >= 8.0 / 4.4, f"ratio {report.ratio:.3f}"
    _report(
        10,
        f"decode {report.decode_mib_s:.0f} MiB/s > encode "
        f"{report.encode_mib_s:.1f} MiB/s, ratio {report.ratio:.3f}, "
        f"{elapsed:.0f}s for warm-up + 5 runs each",
    )
