import hashlib

import pytest

from ricemarlin import SyntheticFamily, build_dictionary_set, make_distribution
from ricemarlin.bench import (
    measured_bits_per_symbol,
    rows_to_csv,
    speed_bench,
    synthetic_study,
)


@pytest.fixture(scope="module")
def lap_set():
    grid = [("laplacian", f) for f in (0.2, 0.5, 0.8)]
    return build_dictionary_set({"grid": grid, "k": 8, "o": 4, "block_n": 4096})


def test_measured_close_to_predicted():
    from ricemarlin import abr_estimate, best_dictionary_for

    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    dct = best_dictionary_for(dist, 8, 4)
    sample = dist.sample(1 << 20, seed=123)
    measured = measured_bits_per_symbol(dct, sample)
    predicted = abr_estimate(dct, dist, 4096)
    h = dist.entropy()
    # efficiency gap below one percentage point at the 1 MiB scale
    assert abs(h / measured - h / predicted) <= 0.010


def test_synthetic_study_rows_and_determinism():
    rows = synthetic_study(
        families=["laplacian"], fractions=[0.5], sizes=[256], shifts=[0, 2],
        sample_bytes=1 << 18,
    )
    assert [r.shift for r in rows] == [0, 2]
    for r in rows:
        assert r.measured_eta <= r.shift_bound + 0.005
        assert 0 < r.predicted_eta <= 1
    again = synthetic_study(
        families=["laplacian"], fractions=[0.5], sizes=[256], shifts=[0, 2],
        sample_bytes=1 << 18,
    )
    assert rows_to_csv(rows) == rows_to_csv(again)


def test_synthetic_study_skips_unreachable_targets():
    rows = synthetic_study(
        families=["poisson"], fractions=[0.995], sizes=[256], shifts=[0],
        sample_bytes=1 << 16,
    )
    assert rows == []


@pytest.mark.parametrize("sizes", [dict(sample_bytes=0), dict(block_n=0), dict(block_n=-1)])
def test_synthetic_study_rejects_empty_samples_and_blocks(sizes, monkeypatch):
    import ricemarlin.bench

    def no_build(*args, **kwargs):
        raise AssertionError("built a dictionary")

    monkeypatch.setattr(ricemarlin.bench, "best_dictionary_for", no_build)
    with pytest.raises(ValueError, match="need sample_bytes, block_n >= 1"):
        synthetic_study(families=["laplacian"], fractions=[0.5], sizes=[256], shifts=[0], **sizes)


def test_speed_bench_reports_and_ratio(lap_set):
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    corpus = dist.sample(1 << 20, seed=77)
    report = speed_bench(corpus, lap_set, runs=1)
    assert report.ratio > 1.5
    assert report.encode_mib_s > 0 and report.decode_mib_s > 0
    assert "ratio" in report.summary()


def test_speed_bench_rejects_empty(lap_set):
    with pytest.raises(ValueError):
        speed_bench(b"", lap_set)


@pytest.mark.parametrize("runs", [0, -1])
def test_speed_bench_rejects_fewer_than_one_run(lap_set, runs):
    # a plain ValueError, not the StatisticsError of a median over no runs
    with pytest.raises(ValueError, match="runs must be at least 1") as exc:
        speed_bench(b"abc", lap_set, runs=runs)
    assert type(exc.value) is ValueError


def test_synthetic_study_builds_only_the_search_parse_chains(monkeypatch):
    # predicted eta reads the stored ABR instead of building another chain
    from ricemarlin import best_dictionary_for
    from ricemarlin import dictionary as rd

    chains = []

    class CountingChain(rd._ParseChain):
        def __init__(self, dct, coding):
            chains.append(dct)
            super().__init__(dct, coding)

    monkeypatch.setattr(rd, "_ParseChain", CountingChain)
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    for shift in (0, 2):
        best_dictionary_for(dist, 8, 0, shifts=(shift,))
    alone = len(chains)
    chains.clear()
    rows = synthetic_study(["laplacian"], [0.5], [256], [0, 2], sample_bytes=1 << 14)
    assert len(rows) == 2 and len(chains) == alone > 0


def test_synthetic_study_reports_the_step_table():
    # deterministic columns only: m is the largest step count under the cap,
    # byte keys are used exactly when every key fits a byte, and the table
    # holds classes * nq**m entries of the narrowest width
    from ricemarlin.encoder import STEP_TABLE_CAP

    rows = synthetic_study(
        families=["laplacian"], fractions=[0.1, 0.5], sizes=[256], shifts=[0, 2, 4, 8],
        sample_bytes=1 << 14,
    )
    header, *lines = [line.split(",") for line in rows_to_csv(rows).splitlines()]
    assert header[-5:] == ["alphabet_size", "classes", "m", "byte_keys", "step_table_bytes"]
    kinds = set()
    for r, line in zip(rows, lines):
        if r.shift == 8:  # one quotient: nothing to walk, the columns stay blank
            assert (r.alphabet_size, r.classes, r.m, r.byte_keys) == (None,) * 4
            assert line[-5:] == [""] * 5
            continue
        nq, classes, m = r.alphabet_size, r.classes, r.m
        assert classes * nq**m <= STEP_TABLE_CAP < classes * nq ** (m + 1)
        assert r.byte_keys == (nq**m <= 256)
        assert r.step_table_bytes == classes * nq**m * (1 if classes <= 256 else 2)
        assert line[-5:] == [str(nq), str(classes), str(m), str(int(r.byte_keys)),
                             str(r.step_table_bytes)]
        kinds.add(r.byte_keys)
    assert kinds == {True, False} and len(lines) == 8
    # the whole table, byte for byte: headers, formats and blank cells
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == "3fc44c93591c1ed2c8df1afac2ac86c94cfdbf4405e5e4876440777407ad23bb"
