"""Correctness checks computed apart from the program.

Container framing, block sizes, residuals and entropies are computed here from
the documented wire format and from first principles, not by calling the
codec, so a fault in the codec cannot hide itself.
"""

from __future__ import annotations

import math
import struct

import numpy as np

#: the documented RMC1 container header: magic, version, flags, K, O,
#: block size, total size, width, height, set digest, block count
HEADER = struct.Struct("<4sBBBBIQII32sI")
RAW_INDEX = 255
IMAGE_EDGE = 64


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def entropy_bits(probs: np.ndarray) -> tuple[float, float]:
    """Entropy of a byte distribution and the standard deviation of -log2 p(X)."""
    p = np.asarray(probs, dtype=np.float64)
    p = p[p > 0]
    info = -np.log2(p)
    h = float((p * info).sum())
    return h, math.sqrt(max(0.0, float((p * info * info).sum()) - h * h))


def quotient_entropy(probs: np.ndarray, shift: int) -> float:
    """Entropy of ``x >> shift`` for a byte distribution."""
    if shift >= 8:
        return 0.0
    return entropy_bits(np.asarray(probs).reshape(256 >> shift, 1 << shift).sum(axis=1))[0]


def file_block_sizes(n: int, block_size: int = 4096) -> list[int]:
    full, rest = divmod(n, block_size)
    return [block_size] * full + ([rest] if rest else [])


def image_block_sizes(width: int, height: int) -> list[int]:
    return [
        min(IMAGE_EDGE, width - x0) * min(IMAGE_EDGE, height - y0)
        for y0 in range(0, height, IMAGE_EDGE)
        for x0 in range(0, width, IMAGE_EDGE)
    ]


def block_residuals(img: np.ndarray) -> bytes:
    """Above-pixel residuals mod 256 per 64x64 block, blocks in raster order.

    Inside a block every pixel is predicted by the one above it, the first
    row by its left neighbour, and the block origin by nothing.
    """
    h, w = img.shape
    out = []
    for y0 in range(0, h, IMAGE_EDGE):
        for x0 in range(0, w, IMAGE_EDGE):
            blk = img[y0 : y0 + IMAGE_EDGE, x0 : x0 + IMAGE_EDGE].astype(np.int16)
            res = blk.copy()
            res[1:] = np.diff(blk, axis=0)
            res[0, 1:] = np.diff(blk[0])
            out.append((res % 256).astype(np.uint8).tobytes())
    return b"".join(out)


def container_blocks(container: bytes, n: int, sizes: list[int]) -> list[bytes]:
    """Block payloads of a container, checked against the documented framing.

    The header must name ``n`` original bytes and ``len(sizes)`` blocks, the
    length-prefixed blocks must fill the container exactly, and the container
    may not exceed the raw-fallback size header + sum(4 + 1 + n_b).
    """
    limit = HEADER.size + sum(4 + 1 + b for b in sizes)
    require(len(container) <= limit,
            f"container of {len(container)} bytes exceeds the raw-fallback limit {limit}")
    require(len(container) >= HEADER.size, "container shorter than its header")
    magic, _, _, _, _, _, total, _, _, _, count = HEADER.unpack_from(container, 0)
    require(magic == b"RMC1", f"bad container magic {magic!r}")
    require(total == n, f"header names {total} original bytes, expected {n}")
    require(count == len(sizes), f"header names {count} blocks, expected {len(sizes)}")
    payloads = []
    pos = HEADER.size
    for size in sizes:
        require(pos + 4 <= len(container), "container ends inside a block length")
        (length,) = struct.unpack_from("<I", container, pos)
        payload = container[pos + 4 : pos + 4 + length]
        require(len(payload) == length and length >= 1, "container ends inside a block")
        if payload[0] == RAW_INDEX:
            require(length == 1 + size, "raw block length differs from its original size")
        payloads.append(payload)
        pos += 4 + length
    require(pos == len(container), f"{len(container) - pos} bytes follow the last block")
    return payloads


def coded_bits(payloads: list[bytes]) -> int:
    """Bits of the block bodies, without the #D/#U bytes of each block."""
    return sum(8 * (len(p) - (1 if p[0] == RAW_INDEX else 2)) for p in payloads)


def entropy_floor(n: int, h: float, sigma: float) -> float:
    """Lowest bit count a lossless code may reach on an i.i.d. sample.

    Ideal code lengths -log2 P(x) of n i.i.d. symbols concentrate around n*H
    with standard deviation sigma*sqrt(n), and a one-to-one code beats them by
    m bits with probability below 2**-m.  Four deviations plus 64 + log2(n)
    bits is the stated tolerance.
    """
    return n * h - 4.0 * sigma * math.sqrt(n) - 64.0 - math.log2(n)


def check_entropy_floor(bits: int, n: int, h: float, sigma: float, what: str) -> None:
    floor = entropy_floor(n, h, sigma)
    require(bits >= floor,
            f"{what}: {bits / n:.4f} bits/symbol is below the source entropy "
            f"{h:.4f} beyond tolerance ({floor / n:.4f})")


def check_eta(eta: float, h: float, probs: np.ndarray, shift: int, what: str) -> None:
    """eta = H/ABR may not exceed 1 nor the shift bound H / (S + H(X >> S))."""
    denom = shift + quotient_entropy(probs, shift)
    bound = 1.0 if denom == 0.0 else h / denom
    require(eta <= 1.0 + 1e-9, f"{what}: eta {eta:.6f} exceeds 1")
    require(eta <= bound + 1e-9, f"{what}: eta {eta:.6f} exceeds the shift-{shift} bound {bound:.6f}")
