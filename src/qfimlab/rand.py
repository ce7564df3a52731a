"""Seeded Philox substreams, a bounded task map, and random operators and states.

Every sampler takes a ``numpy.random.Generator``. Experiment and verify code
keys its randomness by a single integer seed and the task's coordinates: one
Philox4x64-10 counter-based stream per task, so sampled objects are
reproducible across runs and worker counts. :func:`subkey_rng` wraps one such
stream in a ``Generator``; :func:`subkey_uniform` evaluates the uniform draws
of many streams at once in plain ``uint64`` arithmetic, bit for bit the same,
without importing ``numpy.random``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .linalg import dag

# Each coordinate index of a subkey lies in [0, SUBKEY_RANGE): a 20-bit field.
SUBKEY_RANGE = 2**20


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; the package-wide reproducibility anchor."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _packed(indices: Sequence[int]) -> int:
    """Second word of a task's Philox4x64 key ``[seed, packed]``.

    ``packed`` stacks up to three coordinate indices in 20-bit fields (most
    significant first). This fixed layout is part of the reproducibility
    contract.
    """
    if len(indices) > 3:
        raise ValueError("at most three coordinate indices fit in the subkey")
    packed = 0
    for idx in indices:
        if not 0 <= idx < SUBKEY_RANGE:
            raise ValueError(f"coordinate index {idx} outside [0, 2^20)")
        packed = (packed << 20) | idx
    return packed


def subkey_rng(seed: int, *indices: int) -> np.random.Generator:
    """Philox stream for one task, keyed by the base seed and coordinates."""
    key = np.array([seed, _packed(indices)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11),
# one per word pair: rounds multiply counter words 0 and 2 and add key words 0 and 1.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    mid_a, mid_b = a_lo * b_hi, a_hi * b_lo
    carry = ((a_lo * b_lo >> _SHIFT32) + (mid_a & _LOW32) + (mid_b & _LOW32)) >> _SHIFT32
    return a_hi * b_hi + (mid_a >> _SHIFT32) + (mid_b >> _SHIFT32) + carry, a * b


def subkey_uniform(
    seed: int, coords: Sequence[Sequence[int]], low: float, high: float, size: int
) -> np.ndarray:
    """Row ``t`` is ``subkey_rng(seed, *coords[t]).uniform(low, high, size)``, bit for bit.

    Philox is counter based: block ``b`` of a stream is ten rounds applied to
    the counter ``(b, 0, 0, 0)`` under the stream's key, and numpy's
    generator reads blocks ``1, 2, ...`` four words at a time. So every block
    of every stream comes from one vectorized evaluation, and each word ``x``
    becomes ``low + (high - low) * ((x >> 11) * 2^-53)`` as in
    ``Generator.uniform``.
    """
    packed = np.array([_packed(c) for c in coords], dtype=np.uint64)
    key = np.stack(np.broadcast_arrays(np.array(seed, dtype=np.uint64), packed))[:, :, None]
    blocks = -(-size // 4)
    # counter words (0, 2) and (1, 3), each pair shaped (2, stream, block)
    even = np.zeros((2, 1, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros((2, 1, 1), dtype=np.uint64)
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    words = np.stack([even, odd], axis=-1).transpose(1, 2, 0, 3).reshape(len(packed), 4 * blocks)
    return low + (high - low) * ((words[:, :size] >> np.uint64(11)) * 2.0**-53)


def map_tasks(fn: Callable, args: Sequence, workers: int | None) -> list:
    """Run tasks (optionally in threads); results keep submission order."""
    if workers is None or workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ThreadPoolExecutor  # loaded only when tasks run on threads

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


def random_hermitian(d: int, rng: np.random.Generator, traceless: bool = False) -> np.ndarray:
    """GUE-style Hermitian matrix with entries of O(1) magnitude."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + dag(a)) / 2
    if traceless:
        h -= np.trace(h) / d * np.eye(d)
    return h


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_statevector(d: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return psi / np.linalg.norm(psi)


def random_density_matrix(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Density matrix from a normalized Wishart factor of the given rank."""
    if rank is None:
        rank = d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ dag(g)
    return rho / np.trace(rho).real
