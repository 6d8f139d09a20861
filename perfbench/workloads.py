"""Seeded inputs of the four workloads.

Every workload keeps the same make-up on every seed (the same sources, sizes
and item counts); the seed only draws the symbols, the order and the size
jitter, so figures from different seeds measure the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import entropy_bits, file_block_sizes, image_block_sizes

FAMILIES = ("laplacian", "poisson", "exponential")
FRACTIONS = (0.15, 0.3, 0.5, 0.7, 0.85)
SOURCES = [(family, fraction) for family in FAMILIES for fraction in FRACTIONS]

SEGMENT = 64 << 10
BULK_COPIES = 2  # 15 sources x 2 + incompressible + low-entropy = 2 MiB
SMALL_COUNT = 210  # a multiple of the 15 sources
SMALL_SIZES = (64, 16 << 10)
IMAGE_SHAPES = [  # (width, height); no side is a multiple of 64
    (97, 251), (150, 150), (200, 75), (130, 190), (257, 66),
    (70, 70), (180, 110), (115, 140), (220, 90), (83, 160),
]
IMAGE_FRACTIONS = (0.25, 0.35, 0.45, 0.55)
#: grid of dictset-build; its dictionaries land at shifts 0, 1, 2 and 5
BUILD_GRID = [
    ("laplacian", 0.2), ("laplacian", 0.45), ("laplacian", 0.6),
    ("laplacian", 0.9), ("poisson", 0.3),
]
BUILD_MESSAGES = 24  # 4096-byte messages per grid source
#: the source of the one-dictionary build the codec workloads time as build_s
CODEC_BUILD_SOURCE = ("laplacian", 0.3)

_WORKLOAD_KEYS = {"bulk-mixed": 1, "small-messages": 2, "image-pgm": 3, "dictset-build": 4}


@dataclass
class Item:
    """One message or image: what is compressed and how to check it."""

    name: str
    data: bytes  # the bytes given to compress_bytes (residuals for images)
    sizes: list[int]  # original block sizes, by the documented rule
    h: float  # source entropy, bits per symbol
    sigma: float  # standard deviation of -log2 p(X)
    image: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.data)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_KEYS[workload]])


def sample(probs: np.ndarray, n: int, rng: np.random.Generator) -> bytes:
    """n i.i.d. bytes by inverse CDF."""
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf / cdf[-1], rng.random(n), side="right")
    return np.minimum(idx, 255).astype(np.uint8).tobytes()


def distributions(program, specs) -> dict[tuple[str, float], np.ndarray]:
    return {
        spec: program.source.make_distribution(program.source.SyntheticFamily(*spec)).probs
        for spec in specs
    }


def _item(name: str, data: bytes, probs: np.ndarray) -> Item:
    h, sigma = entropy_bits(probs)
    return Item(name, data, file_block_sizes(len(data)), h, sigma)


def bulk_mixed(program, seed: int) -> list[Item]:
    """64 KiB segments of one 2 MiB file, in a seeded order."""
    rng = rng_for("bulk-mixed", seed)
    probs = distributions(program, SOURCES + [("laplacian", 0.02)])
    specs = SOURCES * BULK_COPIES + [("laplacian", 0.02), ("uniform", 1.0)]
    items = []
    for i in rng.permutation(len(specs)):
        spec = specs[i]
        p = np.full(256, 1 / 256) if spec[0] == "uniform" else probs[spec]
        items.append(_item(f"{spec[0]}:{spec[1]:g}", sample(p, SEGMENT, rng), p))
    return items


def small_messages(program, seed: int) -> list[Item]:
    """Log-uniform sizes, one per stratum; every source gets one size per band.

    The sizes are cut into bands of len(SOURCES) consecutive strata and each
    band deals one size to every source, so the byte share of each source,
    and with it the ratio, hardly moves between seeds.
    """
    rng = rng_for("small-messages", seed)
    probs = distributions(program, SOURCES)
    lo, hi = np.log(SMALL_SIZES[0]), np.log(SMALL_SIZES[1])
    strata = (np.arange(SMALL_COUNT) + rng.random(SMALL_COUNT)) / SMALL_COUNT
    sizes = np.rint(np.exp(lo + strata * (hi - lo))).astype(int)
    specs = [SOURCES[i] for _ in range(SMALL_COUNT // len(SOURCES))
             for i in rng.permutation(len(SOURCES))]
    messages = [
        _item(f"{fam}:{frac:g}/{n}", sample(probs[(fam, frac)], int(n), rng), probs[(fam, frac)])
        for n, (fam, frac) in zip(sizes, specs)
    ]
    return [messages[i] for i in rng.permutation(SMALL_COUNT)]


def image_pgm(program, seed: int) -> list[Item]:
    """Images rebuilt by residual_inverse from seeded laplacian residual fields."""
    rng = rng_for("image-pgm", seed)
    probs = distributions(program, [("laplacian", f) for f in IMAGE_FRACTIONS])
    items = []
    for i, (w, h) in enumerate(IMAGE_SHAPES):
        frac = IMAGE_FRACTIONS[i % len(IMAGE_FRACTIONS)]
        p = probs[("laplacian", frac)]
        field = sample(p, w * h, rng)
        img = program.image.residual_inverse(field, w, h)
        hbits, sigma = entropy_bits(p)
        items.append(Item(f"{w}x{h}:{frac:g}", field, image_block_sizes(w, h), hbits, sigma, img))
    return items


def build_messages(probs: dict, seed: int) -> list[Item]:
    """4096-byte messages drawn from each training source of dictset-build."""
    rng = rng_for("dictset-build", seed)
    return [
        _item(f"{fam}:{frac:g}", sample(probs[(fam, frac)], 4096, rng), probs[(fam, frac)])
        for fam, frac in BUILD_GRID
        for _ in range(BUILD_MESSAGES)
    ]


CODEC_INPUTS = {
    "bulk-mixed": bulk_mixed,
    "small-messages": small_messages,
    "image-pgm": image_pgm,
}
