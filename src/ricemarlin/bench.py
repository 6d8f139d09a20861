"""Synthetic efficiency studies and throughput benchmarks."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, fields
from statistics import median

from .dictionary import (
    DictionarySet,
    MarlinDictionary,
    _eta,
    _validate_ko,
    best_dictionary_for,
    shift_efficiency_bound,
)
from .encoder import encode_block
from .errors import BuildError, EntropyTargetError
from .format import compress_bytes, decompress_bytes
from .source import SymbolDistribution, SyntheticFamily, make_distribution


def measured_bits_per_symbol(dct: MarlinDictionary, sample: bytes, block_n: int = 4096) -> float:
    """Actual compressed bits per symbol, excluding per-block headers."""
    total_bits = 0
    for pos in range(0, len(sample), block_n):
        chunk = sample[pos : pos + block_n]
        block = encode_block(dct, chunk)
        total_bits += 8 * (block.serialized_size() - (1 if block.is_raw else 2))
    return total_bits / len(sample)


def _column(name: str, fmt: str = "{}", **kwargs):
    """A :class:`SyntheticRow` field: CSV column ``name`` in ``fmt``, blank if ``None``."""
    return field(metadata={"csv": name, "fmt": fmt}, **kwargs)


@dataclass
class SyntheticRow:
    """A row of :func:`synthetic_study`; its fields are the CSV's columns, in order."""

    family: str = _column("family")
    fraction: float = _column("entropy_fraction", "{:g}")
    size: int = _column("dict_size")
    shift: int = _column("shift")
    threshold: float = _column("threshold", "{:g}")
    entropy: float = _column("entropy_bits", "{:.6f}")
    predicted_eta: float = _column("predicted_efficiency", "{:.6f}")
    measured_eta: float = _column("measured_efficiency", "{:.6f}")
    shift_bound: float = _column("shift_bound", "{:.6f}")
    # the encoder's step table, None for an empty-quotient dictionary: fewer
    # quotients and classes raise m under STEP_TABLE_CAP
    alphabet_size: int | None = _column("alphabet_size", default=None)
    classes: int | None = _column("classes", default=None)
    m: int | None = _column("m", default=None)
    byte_keys: bool | None = _column("byte_keys", "{:d}", default=None)
    step_table_bytes: int | None = _column("step_table_bytes", default=None)


def _step_table_columns(dct: MarlinDictionary) -> dict:
    if dct.empty_quotient:
        return {}
    mat = dct.matrix
    return dict(
        alphabet_size=len(dct.alphabet),
        classes=mat.n_classes,
        m=mat.m,
        byte_keys=mat.byte_keys,
        step_table_bytes=sum(memoryview(row).nbytes for row in mat.rows),
    )


def synthetic_study(
    families: list[str],
    fractions: list[float],
    sizes: list[int],
    shifts: list[int],
    o: int = 0,
    sample_bytes: int = 16 << 20,
    block_n: int = 4096,
    seed: int = 12345,
) -> list[SyntheticRow]:
    """Predicted and measured efficiency per (family, fraction, size, shift).

    ``sizes`` are dictionary word counts (powers of two); each maps to
    K = log2(size) with the given overlap.  An invalid (K, O) raises
    ``BuildError``, and an empty sample or block ``ValueError``, before any
    build; unreachable entropy targets and unbuildable candidates are skipped.
    """
    if sample_bytes < 1 or block_n < 1:
        raise ValueError(f"need sample_bytes, block_n >= 1; got {sample_bytes}, {block_n}")
    ks = [int(size).bit_length() - 1 for size in sizes]
    for size, k in zip(sizes, ks):
        _validate_ko(k, o)
        if 1 << k != size:
            raise ValueError(f"dictionary size {size} is not a power of two")
    rows = []
    for family in families:
        for fraction in fractions:
            try:
                dist = make_distribution(SyntheticFamily(family, fraction))
            except EntropyTargetError:
                continue
            sample = dist.sample(sample_bytes, seed=seed)
            for size, k in zip(sizes, ks):
                for shift in shifts:
                    try:
                        dct = best_dictionary_for(dist, k, o, block_n=block_n, shifts=(shift,))
                    except BuildError:
                        continue
                    measured = measured_bits_per_symbol(dct, sample, block_n)
                    h = dist.entropy()
                    rows.append(
                        SyntheticRow(
                            family=family,
                            fraction=fraction,
                            size=size,
                            shift=shift,
                            threshold=dct.search_threshold,
                            entropy=h,
                            predicted_eta=_eta(h, dct.abr),
                            measured_eta=h / measured if measured > 0 else 1.0,
                            shift_bound=shift_efficiency_bound(dist, shift, block_n),
                            **_step_table_columns(dct),
                        )
                    )
    return rows


def rows_to_csv(rows: list[SyntheticRow]) -> str:
    columns = fields(SyntheticRow)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([c.metadata["csv"] for c in columns])
    for r in rows:
        cells = ((c.metadata["fmt"], getattr(r, c.name)) for c in columns)
        w.writerow(["" if v is None else fmt.format(v) for fmt, v in cells])
    return buf.getvalue()


@dataclass
class BenchReport:
    original_bytes: int
    compressed_bytes: int
    encode_mib_s: float
    decode_mib_s: float

    @property
    def ratio(self) -> float:
        return self.original_bytes / self.compressed_bytes

    def summary(self) -> str:
        return (
            f"ratio {self.ratio:.4f}  "
            f"encode {self.encode_mib_s:.2f} MiB/s  "
            f"decode {self.decode_mib_s:.2f} MiB/s"
        )

    def to_csv(self) -> str:
        """A header line and one row of the report."""
        return (
            "original_bytes,compressed_bytes,ratio,encode_mib_s,decode_mib_s\n"
            f"{self.original_bytes},{self.compressed_bytes},{self.ratio:.6f},"
            f"{self.encode_mib_s:.3f},{self.decode_mib_s:.3f}\n"
        )


def speed_bench(
    corpus: bytes,
    dset: DictionarySet,
    block_size: int = 4096,
    runs: int = 5,
) -> BenchReport:
    """Warm-up pass plus ``runs`` timed passes; reports median throughput."""
    if len(corpus) == 0:
        raise ValueError("benchmark corpus is empty")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    mib = len(corpus) / (1 << 20)
    compressed = compress_bytes(corpus, dset, block_size)
    enc_times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        compress_bytes(corpus, dset, block_size)
        enc_times.append(time.perf_counter() - t0)
    out = decompress_bytes(compressed, dset)  # warm-up and correctness check
    if out != corpus:
        raise BuildError("benchmark round trip failed")
    dec_times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        decompress_bytes(compressed, dset)
        dec_times.append(time.perf_counter() - t0)
    return BenchReport(
        original_bytes=len(corpus),
        compressed_bytes=len(compressed),
        encode_mib_s=mib / median(enc_times),
        decode_mib_s=mib / median(dec_times),
    )
