"""Probability models over 8-bit symbols.

Provides parametric families tuned to a target entropy, empirical
histograms of byte messages, and reproducible sampling.  All symbols are
bytes, so every distribution is a length-256 probability vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EntropyTargetError

ALPHABET_SIZE = 256

#: Families accepted by :func:`make_distribution`.
FAMILIES = ("laplacian", "poisson", "exponential")

# PRNG used by sample(): numpy PCG64 behind np.random.Generator, inverse-CDF
# via searchsorted over Generator.random doubles.  Recorded so corpora can be
# regenerated bit-exactly by other implementations.
SAMPLER_ID = "pcg64-inverse-cdf"

_REL_TOL = 1e-3  # entropy must land within 0.1% of the requested target


def entropy(probs: np.ndarray) -> float:
    """Shannon entropy in bits/symbol, with 0*log(0) = 0."""
    p = np.asarray(probs, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _validate_shift(shift: int, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``shift`` is a reminder width S in [0, 8]."""
    if not 0 <= shift <= 8:
        raise error(f"shift {shift} is not in [0, 8]")


@dataclass(frozen=True)
class SymbolDistribution:
    """An immutable probability vector over the 256 byte symbols."""

    probs: np.ndarray
    source_id: str = "custom"

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (ALPHABET_SIZE,):
            raise ValueError(f"need {ALPHABET_SIZE} probabilities, got shape {p.shape}")
        if (p < 0).any():
            raise ValueError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1 within 1e-9")
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def entropy(self) -> float:
        """Entropy of the distribution in bits/symbol (0..8)."""
        return entropy(self.probs)

    def sample(self, n: int, seed: int) -> bytes:
        """Draw ``n`` i.i.d. symbols; identical (dist, n, seed) gives identical bytes."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return b""
        rng = np.random.Generator(np.random.PCG64(seed))
        cdf = np.cumsum(self.probs)
        cdf[-1] = 1.0
        u = rng.random(n)
        return np.searchsorted(cdf, u, side="right").astype(np.uint8).tobytes()

    def quotient_probs(self, shift: int) -> np.ndarray:
        """Marginal distribution of ``x >> shift`` (length 256 >> shift)."""
        _validate_shift(shift)
        if shift == 0:
            return np.array(self.probs)
        return self.probs.reshape(ALPHABET_SIZE >> shift, 1 << shift).sum(axis=1)


def empirical_histogram(message: bytes) -> SymbolDistribution:
    """Normalized byte-frequency vector of a non-empty message."""
    if len(message) == 0:
        raise ValueError("cannot build a histogram from an empty message")
    counts = np.bincount(np.frombuffer(message, dtype=np.uint8), minlength=ALPHABET_SIZE)
    return SymbolDistribution(counts / counts.sum(), source_id="empirical")


def _laplacian_probs(b: float) -> np.ndarray:
    # Prediction residuals stored mod 256: mass decays with the magnitude of
    # the signed (two's complement) reading of each byte.
    x = np.arange(ALPHABET_SIZE)
    mag = np.where(x < 128, x, 256 - x).astype(np.float64)
    p = np.exp(-mag / b)
    return p / p.sum()


def _exponential_probs(b: float) -> np.ndarray:
    p = np.exp(-np.arange(ALPHABET_SIZE, dtype=np.float64) / b)
    return p / p.sum()


def _poisson_probs(lam: float) -> np.ndarray:
    # Poisson folded mod 256.  For small rates this is numerically identical
    # to truncating to [0, 255]; for large rates the fold lets the family
    # reach high entropies instead of collapsing onto symbol 255.
    hi = max(512, int(lam + 12 * math.sqrt(lam) + 16))
    k = np.arange(hi, dtype=np.float64)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(k[1:]))])
    logp = k * math.log(lam) - lam - log_fact
    logp -= logp.max()
    p = np.exp(logp)
    pad = (-len(p)) % ALPHABET_SIZE
    if pad:
        p = np.concatenate([p, np.zeros(pad)])
    folded = p.reshape(-1, ALPHABET_SIZE).sum(axis=0)
    return folded / folded.sum()


_FAMILY_CURVES = {
    "laplacian": (_laplacian_probs, 1e-4, 1e7),
    "exponential": (_exponential_probs, 1e-4, 1e7),
    "poisson": (_poisson_probs, 1e-6, 5000.0),
}


@dataclass(frozen=True)
class SyntheticFamily:
    """A parametric family pinned to a fraction of the 8-bit entropy budget."""

    family: str
    target_entropy_fraction: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if not 0.0 < self.target_entropy_fraction < 1.0:
            raise ValueError("target_entropy_fraction must be in (0, 1)")


def achievable_entropy_range(family: str) -> tuple[float, float]:
    """(min, max) entropy in bits reachable by the family's parameter bracket."""
    fn, lo, hi = _FAMILY_CURVES[family]
    return entropy(fn(lo)), entropy(fn(hi))


def make_distribution(spec: SyntheticFamily) -> SymbolDistribution:
    """Tune the family parameter so entropy lands within 0.1% of the target.

    The parameter is found by bisection; monotonicity of entropy over the
    bracket is checked numerically as the search narrows.
    """
    target = 8.0 * spec.target_entropy_fraction
    fn, lo, hi = _FAMILY_CURVES[spec.family]
    e_lo, e_hi = entropy(fn(lo)), entropy(fn(hi))
    if not e_lo <= target <= e_hi:
        raise EntropyTargetError(
            f"{spec.family} cannot reach {target:.4f} bits "
            f"(fraction {spec.target_entropy_fraction}); achievable range is "
            f"[{e_lo:.4f}, {e_hi:.4f}] bits"
        )
    param, best_err = math.sqrt(lo * hi), float("inf")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        e_mid = entropy(fn(mid))
        if not e_lo - 1e-12 <= e_mid <= e_hi + 1e-12:
            raise EntropyTargetError(
                f"{spec.family} entropy is not monotone over the bracket at {mid!r}"
            )
        if abs(e_mid - target) < best_err:
            param, best_err = mid, abs(e_mid - target)
        if e_mid < target:
            lo, e_lo = mid, e_mid
        else:
            hi, e_hi = mid, e_mid
        if best_err <= _REL_TOL * target / 4:
            break
    dist = SymbolDistribution(
        fn(param), source_id=f"{spec.family}:{spec.target_entropy_fraction:g}"
    )
    if abs(dist.entropy() - target) > _REL_TOL * target:
        raise EntropyTargetError(
            f"{spec.family} search stalled at {dist.entropy():.6f} bits "
            f"for target {target:.6f}"
        )
    return dist


def point_mass(symbol: int) -> SymbolDistribution:
    """Degenerate distribution concentrated on one byte symbol."""
    p = np.zeros(ALPHABET_SIZE)
    p[symbol] = 1.0
    return SymbolDistribution(p, source_id=f"point:{symbol}")


def uniform() -> SymbolDistribution:
    """Maximum-entropy distribution over all 256 symbols."""
    return SymbolDistribution(np.full(ALPHABET_SIZE, 1.0 / ALPHABET_SIZE), source_id="uniform")
