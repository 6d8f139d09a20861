"""Benchmark of the ricemarlin codec, end to end and layer by layer.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload bulk-mixed --seed 1 --seconds 10 --trace 0

Workloads: bulk-mixed, small-messages, image-pgm, dictset-build (see
perfbench/README.md).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, per-layer self times and counts with
``--trace 1``.  Each run is one single-threaded process.
"""

import os

# single-threaded by design; must be set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, require  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_build" / "perfbench"
MODULES = ("dictionary", "encoder", "decoder", "format", "image", "source")
WORKLOADS = ("bulk-mixed", "small-messages", "image-pgm", "dictset-build")

SETUP_REPEATS = 3  # codec set-ups per run; setup_s is their median
BUILD_REPEATS = 5  # dictionary builds per codec run; build_s is their median
DIST_REPEATS = 15  # training-distribution set-ups per dictset-build run
BUILD_CODING_PASSES = 4  # timed passes with each set dictset-build builds
MIN_SAMPLES = 200  # per-item timings per run, so a p95 has 10 samples beyond it
MIN_PASSES = 3  # per-item medians need at least three timed passes
CALIBRATION_INTERVAL_S = 0.05  # at most this long between two calibration loops
CALIBRATION_WINDOW = 3  # loops whose median scales a short timing
ENTROPY_CHECK_MIN = 4096  # items shorter than this skip the entropy-floor check

END_TO_END_UNITS = {
    "encode_mib_s": "MiB/s", "decode_mib_s": "MiB/s", "ratio": "x",
    "encode_p50_ms": "ms", "decode_p50_ms": "ms",
    "encode_p95_ms": "ms", "decode_p95_ms": "ms",
    "setup_s": "s", "peak_rss_mib": "MiB", "build_s": "s", "eta_mean": "ratio",
}
SECTION_COUNTS = ("format.quotient_bytes", "format.reminder_bytes",
                  "format.escape_bytes", "format.framing_bytes", "format.raw_blocks")

clock = time.perf_counter


def load_program() -> SimpleNamespace:
    """Import ricemarlin from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ricemarlin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ricemarlin sources under {src}")
    sys.path.insert(0, str(src))
    program = SimpleNamespace(
        **{name: importlib.import_module(f"ricemarlin.{name}") for name in MODULES}
    )
    origin = Path(program.format.__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"perfbench: ricemarlin was imported from {origin}, not from {src}")
    return program


def default_set_bytes(program) -> bytes:
    """The documented default set, built once per version of the sources.

    The cache key hashes src/ricemarlin/*.py, so a change to the builder or
    to the set format never reads a stale copy.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ricemarlin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    path = CACHE / f"default-{digest.hexdigest()[:16]}.rmds"
    if not path.is_file():
        data = program.format.save_dictset(program.dictionary.build_dictionary_set())
        CACHE.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    return path.read_bytes()


class Speed:
    """A calibration loop interleaved with the work: the machine-speed reference.

    On a shared 2-vCPU host the speed of one process swings by a fifth or
    more from one second to the next.  Every timing is multiplied by REF_S
    over the loop's time measured next to it, which gives the figures of a
    reference machine on which the loop takes REF_S.  The loop walks a
    32 KiB transition table in pure Python, a small copy of the encoder's
    walk that stays in cache.  Timed in one-second windows on that host, its
    time moved one for one with encode, decode and build times (log-log
    slope 1.0), where a register-only arithmetic loop and a 1 MiB table
    moved by a half more or a quarter less than they did.
    """

    REF_S = 0.002

    def __init__(self):
        rng = np.random.default_rng(20181114)
        table = (rng.integers(0, 128, 128 * 64) << 7) | rng.integers(0, 2, 128 * 64)
        self._cells = array("i", table.astype(np.int32).tobytes())
        self._steps = rng.integers(0, 64, 10_000).tolist()
        self.loops: list[float] = []
        self._last = -math.inf

    def loop(self) -> float:
        """Time the fixed loop once."""
        cells, base, out = self._cells, 0, []
        t0 = clock()
        for r in self._steps:
            cell = cells[base | r]
            if cell & 1:
                out.append(base)
            base = cell >> 1
        elapsed = clock() - t0
        self.loops.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Scale for a short timing that starts now.

        Loops when the last loop is older than CALIBRATION_INTERVAL_S and
        takes the median of the last CALIBRATION_WINDOW loops.
        """
        if clock() - self._last >= CALIBRATION_INTERVAL_S:
            self.loop()
            self._last = clock()
        return self.REF_S / statistics.median(self.loops[-CALIBRATION_WINDOW:])

    def time(self, fn, *args):
        """(result, raw s, scaled s) of one long step.

        The scale is the median of three loops before and three after.
        """
        loops = [self.loop() for _ in range(3)]
        t0 = clock()
        result = fn(*args)
        raw = clock() - t0
        loops += [self.loop() for _ in range(3)]
        self._last = clock()
        return result, raw, raw * self.REF_S / statistics.median(loops)


class Tally:
    """Operations attempted and failed, and the check failures seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, fn, *args, **kwargs):
        """One operation of the program; an exception marks it failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def check(self, fn, *args):
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.problems.append(str(exc))
            return None


# ---------------------------------------------------------------------------
# operations and their checks


def encode(program, ds, item):
    """One container for one item; images go through the residual transform."""
    fmt = program.format
    if item.image is None:
        return fmt.compress_bytes(item.data, ds)
    h, w = item.image.shape
    residuals = program.image.residual_transform(item.image)
    return fmt.compress_bytes(residuals, ds, flags=fmt.FLAG_IMAGE, width=w, height=h)


def decode(program, ds, blob, item):
    """The item back from its container; images as pixels."""
    out = program.format.decompress_bytes(blob, ds)
    if item.image is None:
        return out
    h, w = item.image.shape
    return program.image.residual_inverse(out, w, h)


def same_output(item, out) -> bool:
    if item.image is None:
        return out == item.data
    return isinstance(out, np.ndarray) and np.array_equal(out, item.image)


def verify(item, blob, out) -> list[bytes]:
    """Checks of one encoded and decoded item; returns the block payloads."""
    require(isinstance(blob, bytes), f"{item.name}: no container")
    payloads = checks.container_blocks(blob, item.n, item.sizes)
    require(same_output(item, out), f"{item.name}: decoded output differs from the original")
    if item.image is not None:
        require(checks.block_residuals(item.image) == item.data,
                f"{item.name}: residuals of the image differ from the sampled field")
    if item.n >= ENTROPY_CHECK_MIN:
        checks.check_entropy_floor(checks.coded_bits(payloads), item.n, item.h,
                                   item.sigma, item.name)
    return payloads


def self_test(item, blob, out) -> list[str]:
    """Corrupt one byte of each kind of output; every corruption must fail verify."""
    if item.image is None:
        bad_out = bytearray(out)
        bad_out[len(bad_out) // 2] ^= 1
        bad_out = bytes(bad_out)
    else:
        bad_out = out.copy()
        bad_out.flat[bad_out.size // 2] ^= 1
    bad_size = bytearray(blob)
    bad_size[12] ^= 1  # low byte of the header's total size
    cases = {
        "decoded output": (blob, bad_out),
        "container header": (bytes(bad_size), out),
        "container tail": (blob + b"\0", out),
    }
    missed = []
    for what, (b, o) in cases.items():
        try:
            verify(item, b, o)
        except CheckFailed:
            continue
        missed.append(f"self-test: a corrupted {what} passed the checks")
    return missed


def verify_pass(program, tally, ds, items, blobs, outs) -> tuple[float, float]:
    """Full checks of one pass; returns (ratio, eta over all items)."""
    bits = info = 0.0
    for item, blob, out in zip(items, blobs, outs):
        payloads = tally.check(verify, item, blob, out)
        if payloads is None:
            continue
        if item.image is not None:
            tally.check(require, tally.run(program.format.decompress_bytes, blob, ds) == item.data,
                        f"{item.name}: the container does not hold the sampled residuals")
        bits += checks.coded_bits(payloads)
        info += item.n * item.h
    tally.problems += self_test(items[0], blobs[0], outs[0])
    ratio = sum(item.n for item in items) / sum(len(b or b"") for b in blobs)
    return ratio, info / bits if bits else 0.0


def set_etas(ds, grid, probs) -> list[float]:
    """H/ABR of each built dictionary on its own training source, checked."""
    require(ds is not None and len(ds) == len(grid), "the built set has the wrong size")
    etas = []
    for dct, spec in zip(ds.dictionaries, grid):
        h, _ = checks.entropy_bits(probs[spec])
        eta = h / dct.abr
        checks.check_eta(eta, h, probs[spec], dct.shift, f"{spec[0]}:{spec[1]:g}")
        etas.append(eta)
    return etas


# ---------------------------------------------------------------------------
# passes


def codec_pass(program, tally, ds, items, speed=None):
    """Encode every item, then decode every container.

    Returns the containers, the outputs and, per item, (encode s, decode s,
    encode scale, decode scale), each scale taken by Speed just before.
    """
    gc.collect()  # no garbage of earlier steps is collected inside a timed call
    blobs, outs, enc, dec = [], [], [], []
    for item in items:
        scale = speed.factor() if speed is not None else 1.0
        t0 = clock()
        blobs.append(tally.run(encode, program, ds, item))
        enc.append((clock() - t0, scale))
    for item, blob in zip(items, blobs):
        scale = speed.factor() if speed is not None else 1.0
        t0 = clock()
        outs.append(tally.run(decode, program, ds, blob, item))
        dec.append((clock() - t0, scale))
    return blobs, outs, [(te, td, se, sd) for (te, se), (td, sd) in zip(enc, dec)]


def check_repeat(tally, items, ref_blobs, blobs, outs) -> None:
    """A repeated pass must give the same containers and exact round trips."""
    for item, ref, blob, out in zip(items, ref_blobs, blobs, outs):
        if blob != ref:
            tally.problems.append(f"{item.name}: container differs between passes")
        elif not same_output(item, out):
            tally.problems.append(f"{item.name}: decoded output differs from the original")


class Timings:
    """Per-item encode/decode times over the timed passes of one run."""

    def __init__(self, items):
        self.items = items
        self.times = np.zeros((0, len(items), 4))  # pass, item, codec_pass row

    def add(self, times) -> None:
        """Add the rows of one pass."""
        self.times = np.concatenate([self.times, np.asarray(times)[None]])

    def passes(self) -> int:
        return len(self.times)

    def metrics(self, scaled: bool = True) -> dict[str, float]:
        """MiB/s from per-item median times; p50/p95 over every sample."""
        mib = sum(item.n for item in self.items) / 2**20
        out = {}
        for kind, column in (("encode", 0), ("decode", 1)):
            t = self.times[:, :, column] * (self.times[:, :, column + 2] if scaled else 1.0)
            out[f"{kind}_mib_s"] = mib / float(np.median(t, axis=0).sum())
            out[f"{kind}_p50_ms"] = float(np.percentile(t, 50)) * 1e3
            out[f"{kind}_p95_ms"] = float(np.percentile(t, 95)) * 1e3
        return out


def min_passes(items) -> int:
    return max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(items)))


def section_bytes(program, ds, items, blobs) -> dict[str, int]:
    """Bytes per block section, by re-parsing the containers with parse_block."""
    counts = dict.fromkeys(SECTION_COUNTS, 0)
    for item, blob in zip(items, blobs):
        payloads = checks.container_blocks(blob, item.n, item.sizes)
        counts["format.framing_bytes"] += checks.HEADER.size + 4 * len(payloads)
        for payload, n in zip(payloads, item.sizes):
            block = program.format.parse_block(payload, n, ds)
            if block.is_raw:
                counts["format.raw_blocks"] += 1
                counts["format.framing_bytes"] += 1
                continue
            body = len(payload) - 2
            counts["format.framing_bytes"] += 2
            counts["format.quotient_bytes"] += len(block.quotient_stream)
            counts["format.reminder_bytes"] += len(block.reminders)
            counts["format.escape_bytes"] += (
                body - len(block.quotient_stream) - len(block.reminders))
    return counts


# ---------------------------------------------------------------------------
# workloads
#
# A workload has a set-up (timed as setup_s), rounds of timed passes that
# encode and decode every item once, and the set its rounds code with.
# Durations are kept raw and scaled by Speed; the scaled ones are reported.


class Samples:
    """Durations of one kind of long step, raw and scaled."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, raw: float, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)


class CodecWorkload:
    """bulk-mixed, small-messages and image-pgm: a loaded default set codes items."""

    def __init__(self, program, tally, speed, name, seed):
        self.program, self.tally, self.speed = program, tally, speed
        self.items = workloads.CODEC_INPUTS[name](program, seed)
        self.build_grid = [workloads.CODEC_BUILD_SOURCE]
        self.build_probs = workloads.distributions(program, self.build_grid)
        self.set_bytes = default_set_bytes(program)
        self.ds = None
        self.setups, self.builds = Samples(), Samples()
        self.timings = Timings(self.items)

    def build(self) -> None:
        """Build one dictionary, as a user adapting the codec to a source would."""
        self.builds.add(*self.speed.time(
            build_set, self.program, self.tally, self.build_grid, self.build_probs)[1:])

    def setup(self):
        """load_dictset plus one warm-up pass, so lazy table builds land here.

        Its time is the load plus every encode and decode of the pass, each
        scaled by the loop next to it; the loops themselves are not counted.
        """
        self.ds = None
        gc.collect()  # frees the previous set, so peak RSS counts one
        self.ds, raw, scaled = self.speed.time(
            self.tally.run, self.program.format.load_dictset, self.set_bytes)
        times = np.asarray(codec_pass(self.program, self.tally, self.ds, self.items, self.speed)[2])
        self.setups.add(raw + times[:, :2].sum(),
                        scaled + (times[:, :2] * times[:, 2:]).sum())
        return self.ds

    def traced_setup(self):
        self.build()
        return self.setup()

    def round(self, ds, speed=None):
        """One pass; returns [(containers, outputs, times)]."""
        return [codec_pass(self.program, self.tally, ds, self.items, speed)]

    def coding_set(self, ds):
        return ds

    def measure(self, seconds) -> dict[str, float]:
        for _ in range(BUILD_REPEATS):
            self.build()
        for _ in range(SETUP_REPEATS):
            self.setup()
        ds = self.ds
        ((ref_blobs, ref_outs, _),) = self.round(ds)
        ratio, eta = verify_pass(self.program, self.tally, ds, self.items, ref_blobs, ref_outs)
        repeat_rounds(self, ds, ref_blobs, seconds)
        return {"ratio": ratio, "eta_mean": eta}


class DictsetBuild:
    """dictset-build: build a small set, save and reload it, code with it."""

    def __init__(self, program, tally, speed, name, seed):
        self.program, self.tally, self.speed = program, tally, speed
        self.grid = workloads.BUILD_GRID
        self.probs = workloads.distributions(program, self.grid)
        self.items = workloads.build_messages(self.probs, seed)
        self.saved = self.loaded = None
        self.etas: list[float] = []
        self.setups, self.builds = Samples(), Samples()
        self.timings = Timings(self.items)

    def setup(self):
        """Making the training distributions."""
        probs = self.tally.run(workloads.distributions, self.program, self.grid)
        if probs is None or any(not np.array_equal(probs[s], self.probs[s]) for s in self.grid):
            self.tally.problems.append("training distributions differ between set-ups")

    traced_setup = setup

    def round(self, _state=None, speed=None):
        """Build, save -> load -> save, warm up, then the timed coding passes."""
        program, tally = self.program, self.tally
        (built, self.etas), *durations = self.speed.time(
            build_set, program, tally, self.grid, self.probs)
        self.builds.add(*durations)
        data = tally.run(program.format.save_dictset, built)
        self.loaded = tally.run(program.format.load_dictset, data)
        again = tally.run(program.format.save_dictset, self.loaded)
        if data is None or data != again:
            tally.problems.append("save -> load -> save changed the set bytes")
        if self.saved is None:
            self.saved = data
        elif data != self.saved:
            tally.problems.append("the built set differs between rounds")
        codec_pass(program, tally, self.loaded, self.items)
        return [codec_pass(program, tally, self.loaded, self.items, speed)
                for _ in range(BUILD_CODING_PASSES)]

    def coding_set(self, _state):
        return self.loaded

    def measure(self, seconds) -> dict[str, float]:
        for _ in range(DIST_REPEATS):
            self.setups.add(*self.speed.time(self.setup)[1:])
        passes = self.round(speed=self.speed)
        ref_blobs, ref_outs, _ = passes[0]
        for blobs, outs, times in passes:
            check_repeat(self.tally, self.items, ref_blobs, blobs, outs)
            self.timings.add(times)
        ratio, _ = verify_pass(self.program, self.tally, self.loaded, self.items,
                               ref_blobs, ref_outs)
        eta = statistics.fmean(self.etas) if self.etas else 0.0
        repeat_rounds(self, None, ref_blobs, seconds)
        return {"ratio": ratio, "eta_mean": eta}


def build_set(program, tally, grid, probs):
    """Build a set from ``grid``; returns (set, checked etas)."""
    ds = tally.run(program.dictionary.build_dictionary_set, {"grid": grid})
    return ds, tally.check(set_etas, ds, grid, probs) or []


def repeat_rounds(workload, state, ref_blobs, seconds) -> None:
    """Whole rounds until ``seconds`` have passed and enough samples exist."""
    start = clock()
    while workload.timings.passes() < min_passes(workload.items) or clock() - start < seconds:
        for blobs, outs, times in workload.round(state, workload.speed):
            check_repeat(workload.tally, workload.items, ref_blobs, blobs, outs)
            workload.timings.add(times)


def measure(workload, seconds) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics, and the timed ones again without speed scaling."""
    metrics = workload.measure(seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reported = {**metrics, **workload.timings.metrics(True), "peak_rss_mib": rss}
    unscaled = workload.timings.metrics(False)
    for name, samples in (("setup_s", workload.setups), ("build_s", workload.builds)):
        reported[name] = statistics.median(samples.scaled)
        unscaled[name] = statistics.median(samples.raw)
    return reported, unscaled


def measure_traced(program, workload, seconds) -> dict[str, float]:
    """Per-layer self times and counts for one set-up plus one round.

    Traced and untraced rounds alternate; their outputs must be identical
    and the ratio of their median round times is the tracing overhead.
    """
    tally, speed = workload.tally, workload.speed
    tracer = Tracer(program)
    state = workload.setup()
    ref_blobs, ref_outs, _ = workload.round(state)[0]
    ref_set = workload.coding_set(state)
    verify_pass(program, tally, ref_set, workload.items, ref_blobs, ref_outs)
    tracer.install()
    try:
        traced_state = workload.traced_setup()
    finally:
        tracer.uninstall()
    setup_self, setup_counts = tracer.take()
    plain, traced = Samples(), Samples()
    start = clock()
    while len(traced.raw) < 2 or clock() - start < seconds:
        for samples, on in ((plain, False), (traced, True)):
            if on:
                tracer.install()
            try:
                passes, *durations = speed.time(workload.round, traced_state if on else state)
            finally:
                tracer.uninstall()
            samples.add(*durations)
            for blobs, outs, _ in passes:
                check_repeat(tally, workload.items, ref_blobs, blobs, outs)
    round_self, round_counts = tracer.take()
    rounds = len(traced.raw)
    metrics = {f"{name}_s": setup_self[name] + round_self[name] / rounds for name in setup_self}
    metrics.update({name: setup_counts[name] + round_counts[name] / rounds
                    for name in setup_counts})
    metrics.update(section_bytes(program, ref_set, workload.items, ref_blobs))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced.scaled) / statistics.median(plain.scaled) - 1.0)
    return metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "%" if metric.endswith("_pct") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    tally, speed = Tally(), Speed()
    kind = DictsetBuild if args.workload == "dictset-build" else CodecWorkload
    workload = kind(program, tally, speed, args.workload, args.seed)
    if args.trace:
        metrics = measure_traced(program, workload, args.seconds)
    else:
        metrics, raw = measure(workload, args.seconds)
        print("unscaled " + " ".join(f"{k}={v:.6g}" for k, v in sorted(raw.items())))
    print(f"calibration_ms median={statistics.median(speed.loops) * 1e3:.4f} "
          f"loops={len(speed.loops)}")
    for problem in tally.problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
