"""Command-line front end.

Subcommands: build-dictset, compress, decompress, bench-synthetic,
bench-speed.  Exit codes: 0 success, 1 operational failure, 2 usage error
(argparse), 3 corrupt or incompatible input.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .dictionary import MAX_SET_SIZE
from .errors import CorruptBlockError, FormatError, RiceMarlinError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3


def _parse_fractions(text: str) -> list[float]:
    """Comma list ("0.25,0.5") or range ("0.1:0.9:0.1") of 1 to
    ``MAX_SET_SIZE`` finite values."""
    values = [float(x) for x in text.split(":" if ":" in text else ",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"fractions {text!r} are not all finite")
    if ":" in text:
        if len(values) != 3:
            raise ValueError(f"fraction range {text!r} is not start:stop:step")
        start, stop, step = values
        if not step > 0:
            raise ValueError("range step must be positive")
        values = []
        f = start
        # one value past the cap is enough to reject the range
        while f <= stop + 1e-9 and len(values) <= MAX_SET_SIZE:
            values.append(round(f, 6))
            f += step
    if not values:
        raise ValueError(f"fraction range {text!r} holds no values")
    if len(values) > MAX_SET_SIZE:
        raise ValueError(f"fractions {text!r} hold more than {MAX_SET_SIZE} values")
    return values


def _cmd_build_dictset(args) -> int:
    from .dictionary import _eta, build_dictionary_set, default_set_config
    from .format import save_dictset
    from .source import SyntheticFamily, make_distribution

    cfg = default_set_config()
    cfg["k"], cfg["o"], cfg["block_n"] = args.k, args.o, args.block_size
    grid: list[tuple[str, float]] = []
    if args.laplacian:
        grid += [("laplacian", f) for f in _parse_fractions(args.laplacian)]
    if args.poisson:
        grid += [("poisson", f) for f in _parse_fractions(args.poisson)]
    if args.exponential:
        grid += [("exponential", f) for f in _parse_fractions(args.exponential)]
    if grid:
        cfg["grid"] = grid
    dset = build_dictionary_set(cfg)
    Path(args.out).write_bytes(save_dictset(dset))
    print(f"wrote {len(dset)} dictionaries to {args.out}")
    print("idx  source            S  threshold  eta")
    for i, (source, dct) in enumerate(zip(cfg["grid"], dset.dictionaries)):
        dist = make_distribution(SyntheticFamily(*source))
        eta = _eta(dist.entropy(), dct.abr)  # the ABR the build stored on this source
        print(
            f"{i:3d}  {dct.source_id:<16s}  {dct.shift}  "
            f"{dct.search_threshold:9.3g}  {eta:6.4f}"
        )
    return EXIT_OK


def _load_set(path: str):
    from .format import load_dictset

    return load_dictset(Path(path).read_bytes())


def _cmd_compress(args) -> int:
    from .format import FLAG_IMAGE, compress_bytes
    from .image import read_pgm, residual_transform

    dset = _load_set(args.set)
    data = Path(args.input).read_bytes()
    if args.image:
        img = read_pgm(data)
        h, w = img.shape
        payload = residual_transform(img)
        out = compress_bytes(
            payload, dset, args.block_size, flags=FLAG_IMAGE, width=w, height=h
        )
    else:
        out = compress_bytes(data, dset, args.block_size)
    Path(args.output).write_bytes(out)
    ratio = len(data) / len(out) if out else 0.0
    print(f"{len(data)} -> {len(out)} bytes (ratio {ratio:.4f})")
    return EXIT_OK


def _cmd_decompress(args) -> int:
    from .format import FLAG_IMAGE, ContainerHeader, decompress_bytes
    from .image import residual_inverse, write_pgm

    dset = _load_set(args.set)
    buf = Path(args.input).read_bytes()
    header = ContainerHeader.unpack(buf)
    data = decompress_bytes(buf, dset)
    if header.flags & FLAG_IMAGE:
        img = residual_inverse(data, header.width, header.height)
        Path(args.output).write_bytes(write_pgm(img))
    else:
        Path(args.output).write_bytes(data)
    print(f"{len(buf)} -> {len(data)} bytes")
    return EXIT_OK


def _cmd_bench_synthetic(args) -> int:
    from .bench import rows_to_csv, synthetic_study

    rows = synthetic_study(
        families=args.families.split(","),
        fractions=_parse_fractions(args.fractions),
        sizes=[int(s) for s in args.sizes.split(",")],
        shifts=[int(s) for s in args.shifts.split(",")],
        o=args.o,
        sample_bytes=args.sample_mib << 20,
        block_n=args.block_size,
        seed=args.seed,
    )
    text = rows_to_csv(rows)
    if args.csv:
        Path(args.csv).write_text(text)
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench_speed(args) -> int:
    from .bench import speed_bench

    dset = _load_set(args.set)
    corpus = b"".join(Path(p).read_bytes() for p in args.corpus)
    report = speed_bench(corpus, dset, args.block_size, runs=args.runs)
    print(report.summary())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ricemarlin",
        description="Variable-to-fixed entropy codec with Rice-style bit "
        "splitting and escape-coded rare symbols.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-dictset", help="build and save a dictionary set")
    b.add_argument("--out", required=True)
    b.add_argument("--k", type=int, default=8)
    b.add_argument("--o", type=int, default=4)
    b.add_argument("--block-size", type=int, default=4096)
    b.add_argument("--laplacian", help="fractions, e.g. 0.02:0.98:0.02")
    b.add_argument("--poisson", help="fractions, e.g. 0.1:0.9:0.1")
    b.add_argument("--exponential", help="fractions list or range")
    b.set_defaults(fn=_cmd_build_dictset)

    c = sub.add_parser("compress", help="compress a file into a container")
    c.add_argument("input")
    c.add_argument("output")
    c.add_argument("--set", required=True, help="dictionary-set file")
    c.add_argument("--block-size", type=int, default=4096)
    c.add_argument("--image", action="store_true", help="treat input as PGM")
    c.set_defaults(fn=_cmd_compress)

    d = sub.add_parser("decompress", help="restore a compressed container")
    d.add_argument("input")
    d.add_argument("output")
    d.add_argument("--set", required=True)
    d.set_defaults(fn=_cmd_decompress)

    s = sub.add_parser("bench-synthetic", help="efficiency study as CSV")
    s.add_argument("--families", default="laplacian,poisson")
    s.add_argument("--fractions", default="0.1:0.9:0.1")
    s.add_argument("--sizes", default="4096")
    s.add_argument("--shifts", default="0,1,2,3,4,5")
    s.add_argument("--o", type=int, default=0)
    s.add_argument("--sample-mib", type=int, default=16)
    s.add_argument("--block-size", type=int, default=4096)
    s.add_argument("--seed", type=int, default=12345)
    s.add_argument("--csv")
    s.set_defaults(fn=_cmd_bench_synthetic)

    v = sub.add_parser("bench-speed", help="throughput benchmark over files")
    v.add_argument("corpus", nargs="+")
    v.add_argument("--set", required=True)
    v.add_argument("--block-size", type=int, default=4096)
    v.add_argument("--runs", type=int, default=5)
    v.add_argument("--csv")
    v.set_defaults(fn=_cmd_bench_speed)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CorruptBlockError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (RiceMarlinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
