import csv

import numpy as np
import pytest

from ricemarlin import SyntheticFamily, make_distribution
from ricemarlin.cli import EXIT_CORRUPT, EXIT_FAILURE, EXIT_OK, main
from ricemarlin.format import HEADER_SIZE
from ricemarlin.image import read_pgm, write_pgm

from test_format import SET_FILE_MUTATIONS, _signed, edited_set_file, small_laplacian_dictionary


@pytest.fixture(scope="module")
def set_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("sets") / "small.rmds"
    rc = main(
        [
            "build-dictset", "--out", str(path),
            "--k", "8", "--o", "4",
            "--laplacian", "0.02,0.2,0.5,0.8",
        ]
    )
    assert rc == EXIT_OK
    return path


@pytest.mark.parametrize("block_size", ["-5", "0", "4294967296"])
def test_build_dictset_rejects_block_sizes_a_set_cannot_store(tmp_path, capsys, block_size):
    # the set file stores the block size as a u32; checked before any build
    out = tmp_path / "x.rmds"
    rc = main(["build-dictset", "--out", str(out), "--block-size", block_size])
    assert rc == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: block size {block_size} is not in [1, 2^32 - 1]")
    assert "Traceback" not in err and not out.exists()


def test_build_dictset_checks_every_fraction_before_building(tmp_path, capsys, monkeypatch):
    # a bad last fraction used to fail only after every earlier build
    from ricemarlin import dictionary as rd

    monkeypatch.setattr(rd, "best_dictionary_for", lambda *args, **kw: pytest.fail("built"))
    out = tmp_path / "x.rmds"
    argv = ["build-dictset", "--out", str(out), "--laplacian", "0.3", "--exponential", "1.5"]
    assert main(argv) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: target_entropy_fraction must be in (0, 1)")
    assert not out.exists()


def test_build_dictset_rejects_bad_overlap(tmp_path, capsys):
    rc = main(
        ["build-dictset", "--out", str(tmp_path / "x"), "--k", "8", "--o", "9",
         "--laplacian", "0.5"]
    )
    assert rc == EXIT_FAILURE
    assert "O" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-dictset", "bench-synthetic"])
@pytest.mark.parametrize("fractions", ["0.1:0.9:0", "0.9:0.1:-0.1"])
def test_fraction_range_step_must_be_positive(tmp_path, capsys, command, fractions):
    out = tmp_path / "out"
    if command == "build-dictset":
        argv = [command, "--out", str(out), "--laplacian", fractions]
    else:
        argv = [command, "--fractions", fractions, "--csv", str(out)]
    assert main(argv) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("error: range step must be positive")
    assert not out.exists()


@pytest.mark.parametrize("command", ["build-dictset", "bench-synthetic"])
@pytest.mark.parametrize("fractions, message", [
    ("0:inf:0.5", "are not all finite"),
    ("nan:0.9:0.1", "are not all finite"),
    ("0.5,nan", "are not all finite"),
    ("0.9:0.1:0.1", "holds no values"),  # reversed: empty, not the default grid
    ("0:1:0.001", "hold more than 255 values"),
    ("1e20:1e21:1", "hold more than 255 values"),  # a step the sum cannot take
    ("0.1:0.9", "'0.1:0.9' is not start:stop:step"),
    ("0.1:0.9:0.1:0.2", "'0.1:0.9:0.1:0.2' is not start:stop:step"),
])
def test_fractions_are_finite_and_fit_a_set(tmp_path, capsys, command, fractions, message):
    out = tmp_path / "out"
    if command == "build-dictset":
        argv = [command, "--out", str(out), "--laplacian", fractions]
    else:
        argv = [command, "--fractions", fractions, "--csv", str(out)]
    assert main(argv) == EXIT_FAILURE
    assert message in capsys.readouterr().err
    assert not out.exists()

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["compress"])  # missing required arguments
    assert exc.value.code == 2


def test_compress_decompress_roundtrip(tmp_path, set_path):
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    data = dist.sample(50_000, seed=5)
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    comp = tmp_path / "input.rm"
    out = tmp_path / "restored.bin"
    assert main(["compress", str(src), str(comp), "--set", str(set_path)]) == EXIT_OK
    assert main(["decompress", str(comp), str(out), "--set", str(set_path)]) == EXIT_OK
    assert out.read_bytes() == data
    assert comp.stat().st_size < len(data)


def test_decompress_corrupt_container_exit_code(tmp_path, set_path):
    src = tmp_path / "x.bin"
    src.write_bytes(b"\x00" * 10000)
    comp = tmp_path / "x.rm"
    main(["compress", str(src), str(comp), "--set", str(set_path)])
    blob = bytearray(comp.read_bytes())
    blob = blob[: len(blob) - 5]
    comp.write_bytes(bytes(blob))
    rc = main(["decompress", str(comp), str(tmp_path / "y"), "--set", str(set_path)])
    assert rc == EXIT_CORRUPT


@pytest.mark.parametrize("damage", ["zero-block-size", "appended-junk", "cut-in-block-1"])
def test_decompress_bad_container_exits_corrupt(tmp_path, set_path, capsys, damage):
    src = tmp_path / "x.bin"
    src.write_bytes(bytes(range(256)) * 20)
    comp = tmp_path / "x.rm"
    assert main(["compress", str(src), str(comp), "--set", str(set_path)]) == EXIT_OK
    blob = bytearray(comp.read_bytes())
    named = ""
    if damage == "zero-block-size":
        blob[8:12] = bytes(4)  # the header's little-endian uint32 block size
    elif damage == "appended-junk":
        blob += b"junk"
    else:  # block 1 starts after block 0's length field and payload
        at = HEADER_SIZE + 4 + int.from_bytes(blob[HEADER_SIZE : HEADER_SIZE + 4], "little")
        del blob[at + 6 :]
        named = f"block 1 at offset {at}: "
    comp.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = main(["decompress", str(comp), str(tmp_path / "y"), "--set", str(set_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_CORRUPT
    assert err.startswith("error: " + named)
    assert "Traceback" not in err


def test_decompress_wrong_set_exit_code(tmp_path, set_path):
    other = tmp_path / "other.rmds"
    assert main(
        ["build-dictset", "--out", str(other), "--laplacian", "0.3"]
    ) == EXIT_OK
    src = tmp_path / "z.bin"
    src.write_bytes(b"\x01" * 5000)
    comp = tmp_path / "z.rm"
    main(["compress", str(src), str(comp), "--set", str(set_path)])
    rc = main(["decompress", str(comp), str(tmp_path / "w"), "--set", str(other)])
    assert rc == EXIT_CORRUPT


def test_decompress_with_a_set_of_no_dictionaries_exits_corrupt(tmp_path, set_path, capsys):
    # the file's digest and CRC verify; only the loader's count check rejects it
    src = tmp_path / "e.bin"
    src.write_bytes(b"\x03" * 3000)
    comp = tmp_path / "e.rm"
    assert main(["compress", str(src), str(comp), "--set", str(set_path)]) == EXIT_OK
    bad = tmp_path / "empty.rmds"
    bad.write_bytes(_signed(8, 4, []))
    capsys.readouterr()
    rc = main(["decompress", str(comp), str(tmp_path / "e.out"), "--set", str(bad)])
    assert rc == EXIT_CORRUPT
    err = capsys.readouterr().err
    assert err == "error: a dictionary set must contain at least one dictionary\n"
    assert not (tmp_path / "e.out").exists()


@pytest.mark.parametrize("keep", [10, 600])
def test_compress_truncated_set_exits_corrupt(tmp_path, set_path, capsys, keep):
    bad = tmp_path / "truncated.rmds"
    bad.write_bytes(set_path.read_bytes()[:keep])
    src = tmp_path / "t.bin"
    src.write_bytes(b"\x02" * 3000)
    rc = main(["compress", str(src), str(tmp_path / "t.rm"), "--set", str(bad)])
    assert rc == EXIT_CORRUPT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_compress_with_version_1_set_exits_corrupt(tmp_path, set_path, capsys):
    old = bytearray(set_path.read_bytes())
    old[4] = 1  # the version byte
    bad = tmp_path / "v1.rmds"
    bad.write_bytes(bytes(old))
    src = tmp_path / "v.bin"
    src.write_bytes(b"\x02" * 3000)
    rc = main(["compress", str(src), str(tmp_path / "v.rm"), "--set", str(bad)])
    assert rc == EXIT_CORRUPT
    err = capsys.readouterr().err
    assert err == "error: unsupported dictionary-set version 1\n"


def test_compress_with_invalid_set_exits_corrupt(tmp_path, capsys):
    # the digest verifies, so only the loader's validity check rejects it
    bad = tmp_path / "out-of-range.rmds"
    dct = small_laplacian_dictionary()
    bad.write_bytes(edited_set_file(dct, SET_FILE_MUTATIONS["value-out-of-range"]))
    src = tmp_path / "v.bin"
    src.write_bytes(make_distribution(SyntheticFamily("laplacian", 0.5)).sample(3000, seed=7))
    rc = main(["compress", str(src), str(tmp_path / "v.rm"), "--set", str(bad)])
    assert rc == EXIT_CORRUPT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_compress_block_size_beyond_the_header_fails_cleanly(tmp_path, set_path, capsys):
    src = tmp_path / "b.bin"
    src.write_bytes(b"\x03" * 3000)
    comp = tmp_path / "b.rm"
    argv = ["compress", str(src), str(comp), "--set", str(set_path)]
    rc = main(argv + ["--block-size", "5000000000"])
    assert rc == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not comp.exists()


def test_compress_image_with_another_block_size_fails_cleanly(tmp_path, set_path, capsys):
    # an image is coded in its 64x64 grid, so its block size is 4096
    src = tmp_path / "img.pgm"
    src.write_bytes(write_pgm(np.zeros((70, 130), dtype=np.uint8)))
    comp = tmp_path / "img.rm"
    argv = ["compress", str(src), str(comp), "--set", str(set_path), "--image"]
    assert main(argv + ["--block-size", "8192"]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "block size is 4096" in err
    assert not comp.exists()


def test_image_mode_roundtrip(tmp_path, set_path):
    rng = np.random.default_rng(3)
    base = np.add.outer(
        np.linspace(0, 200, 150).astype(np.uint8),
        np.linspace(0, 40, 201).astype(np.uint8),
    ) + rng.integers(0, 4, (150, 201), dtype=np.uint8)
    src = tmp_path / "img.pgm"
    src.write_bytes(write_pgm(base))
    comp = tmp_path / "img.rm"
    out = tmp_path / "img_restored.pgm"
    assert main(
        ["compress", str(src), str(comp), "--set", str(set_path), "--image"]
    ) == EXIT_OK
    assert main(["decompress", str(comp), str(out), "--set", str(set_path)]) == EXIT_OK
    assert np.array_equal(read_pgm(out.read_bytes()), base)
    assert comp.stat().st_size < src.stat().st_size / 2


@pytest.mark.parametrize(
    "header", [b"P5\n-3 4\n255\n", b"P5\n-1 -1\n255\n", b"P5\n2 2\n0\n",
               b"P5\n1_0 1\n255\n", b"P5\n1 +2\n255\n", b"P5\n0 0 255"],
    ids=["negative-width", "both-negative", "maxval-0", "underscore", "plus-sign",
         "no-whitespace-after-maxval"],
)
def test_compress_image_with_hostile_header_exits_corrupt(tmp_path, set_path, capsys, header):
    src = tmp_path / "img.pgm"
    src.write_bytes(header + bytes(20))
    comp = tmp_path / "img.rm"
    rc = main(["compress", str(src), str(comp), "--set", str(set_path), "--image"])
    assert rc == EXIT_CORRUPT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not comp.exists()


def test_compress_all_zero_file_ratio(tmp_path, set_path):
    src = tmp_path / "zeros.bin"
    src.write_bytes(bytes(1 << 20))
    comp = tmp_path / "zeros.rm"
    assert main(["compress", str(src), str(comp), "--set", str(set_path)]) == EXIT_OK
    assert (1 << 20) / comp.stat().st_size > 50


def test_compress_random_file_bounded_expansion(tmp_path, set_path):
    rng = np.random.default_rng(12)
    src = tmp_path / "noise.bin"
    src.write_bytes(rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes())
    comp = tmp_path / "noise.rm"
    out = tmp_path / "noise.out"
    assert main(["compress", str(src), str(comp), "--set", str(set_path)]) == EXIT_OK
    assert (1 << 20) / comp.stat().st_size >= 0.99
    assert main(["decompress", str(comp), str(out), "--set", str(set_path)]) == EXIT_OK
    assert out.read_bytes() == src.read_bytes()


def test_bench_synthetic_csv(tmp_path, set_path):
    csv_path = tmp_path / "rows.csv"
    rc = main(
        [
            "bench-synthetic", "--families", "laplacian",
            "--fractions", "0.5", "--sizes", "256", "--shifts", "0,2",
            "--sample-mib", "1", "--csv", str(csv_path),
        ]
    )
    assert rc == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 3


@pytest.mark.parametrize("sizes, o, got", [("16", "5", "K=4, O=5"), ("0", "0", "K=-1, O=0")])
def test_bench_synthetic_rejects_invalid_geometry(tmp_path, capsys, sizes, o, got):
    # checked before any build: no rows, no header, exit 1 with the geometry
    out = tmp_path / "rows.csv"
    rc = main(["bench-synthetic", "--families", "laplacian", "--fractions", "0.5",
               "--sizes", sizes, "--o", o, "--shifts", "0", "--csv", str(out)])
    assert rc == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need 1 <= K") and got in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("size_flag", ["--sample-mib", "--block-size"])
def test_bench_synthetic_rejects_empty_samples_and_blocks(tmp_path, capsys, size_flag):
    # checked before any build, as the geometry is
    out = tmp_path / "rows.csv"
    rc = main(["bench-synthetic", "--families", "laplacian", "--fractions", "0.5",
               "--sizes", "256", "--shifts", "0", size_flag, "0", "--csv", str(out)])
    assert rc == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: need sample_bytes, block_n >= 1")
    assert captured.out == "" and not out.exists()


def test_bench_speed_csv(tmp_path, set_path):
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(make_distribution(SyntheticFamily("laplacian", 0.5)).sample(1 << 16, seed=2))
    out = tmp_path / "speed.csv"
    rc = main(["bench-speed", str(corpus), "--set", str(set_path), "--runs", "1",
               "--csv", str(out)])
    assert rc == EXIT_OK
    with out.open(newline="") as f:
        (row,) = csv.DictReader(f)
    assert list(row) == [
        "original_bytes", "compressed_bytes", "ratio", "encode_mib_s", "decode_mib_s"]
    assert int(row["original_bytes"]) == 1 << 16
    size = int(row["compressed_bytes"])
    assert 0 < size < 1 << 16
    assert float(row["ratio"]) == pytest.approx((1 << 16) / size, abs=1e-6)
    assert float(row["encode_mib_s"]) > 0 and float(row["decode_mib_s"]) > 0


def test_bench_speed_smoke(tmp_path, set_path, capsys):
    dist = make_distribution(SyntheticFamily("laplacian", 0.5))
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(dist.sample(1 << 20, seed=1))
    rc = main(
        ["bench-speed", str(corpus), "--set", str(set_path), "--runs", "1"]
    )
    assert rc == EXIT_OK
    assert "decode" in capsys.readouterr().out


def test_bench_speed_empty_corpus(tmp_path, set_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    rc = main(["bench-speed", str(empty), "--set", str(set_path)])
    assert rc == EXIT_FAILURE


def test_build_dictset_prints_eta_from_the_stored_abr(tmp_path, capsys, monkeypatch):
    # the printed eta reads each dictionary's stored ABR: the command builds
    # exactly the parse chains of the set build itself
    from ricemarlin import build_dictionary_set, default_set_config
    from ricemarlin import dictionary as rd

    chains = []

    class CountingChain(rd._ParseChain):
        def __init__(self, dct, coding):
            chains.append(dct)
            super().__init__(dct, coding)

    monkeypatch.setattr(rd, "_ParseChain", CountingChain)
    cfg = default_set_config()
    cfg["grid"] = [("laplacian", 0.3), ("poisson", 0.6)]
    build_dictionary_set(cfg)
    alone = len(chains)
    chains.clear()
    argv = ["build-dictset", "--out", str(tmp_path / "two.rmds"),
            "--laplacian", "0.3", "--poisson", "0.6"]
    assert main(argv) == EXIT_OK
    assert len(chains) == alone > 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[1] for row in rows] == ["laplacian:0.3", "poisson:0.6"]
