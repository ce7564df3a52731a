"""Seeded Philox substreams, a bounded task map, and random operators and states.

Every sampler takes a ``numpy.random.Generator``. Experiment and verify code
builds its generators with :func:`subkey_rng`, one Philox counter-based
stream per task keyed by a single integer seed and the task's coordinates,
so sampled objects are reproducible across runs and worker counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .linalg import dag

# Each coordinate index of a subkey lies in [0, SUBKEY_RANGE): a 20-bit field.
SUBKEY_RANGE = 2**20


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based Philox generator; the package-wide reproducibility anchor."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def subkey_rng(seed: int, *indices: int) -> np.random.Generator:
    """Philox stream for one task, keyed by the base seed and coordinates.

    The Philox4x64 key is ``[seed, packed]`` where ``packed`` stacks up to
    three coordinate indices in 20-bit fields (most significant first). This
    fixed layout is part of the reproducibility contract.
    """
    if len(indices) > 3:
        raise ValueError("at most three coordinate indices fit in the subkey")
    packed = 0
    for idx in indices:
        if not 0 <= idx < SUBKEY_RANGE:
            raise ValueError(f"coordinate index {idx} outside [0, 2^20)")
        packed = (packed << 20) | idx
    key = np.array([seed, packed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def map_tasks(fn: Callable, args: Sequence, workers: int | None) -> list:
    """Run tasks (optionally in threads); results keep submission order."""
    if workers is None or workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
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
