"""Test oracles: checks and reference formulas that the library itself never calls.

- :func:`is_hermitian`, :func:`is_unitary`: max-entry checks within the
  library's ``TAU_HERM`` and ``TAU_UNIT``;
- :func:`check_density_matrix`: Hermiticity, unit trace and positive
  semidefiniteness, by an eigendecomposition;
- :func:`frobenius_inner`: ``Tr[a† b]``;
- :func:`herm_exp`: ``exp(-i theta h)`` through a fresh eigendecomposition;
- :func:`identity_channel`: the one-term Pauli channel that leaves every state;
- :func:`load_matrices`: rows of the folded pass from general matrices (the
  pass itself enters state vectors only);
- :func:`sector_blocks`: the symmetry-sector blocks of a complex matrix, from
  the character table itself (the folded pass reads out real pairs instead);
- :func:`trace_distance`: ``(1/2) ||rho - sigma||_1``.
"""

import numpy as np

from qfimlab.channels import PauliChannel, PauliString
from qfimlab.exceptions import DimensionMismatchError
from qfimlab.linalg import TAU_HERM, TAU_PSD, TAU_TRACE, TAU_UNIT, check_hermitian, dag, hermitian_eig


def is_hermitian(a: np.ndarray) -> bool:
    """Max-entry check of ``A == A†`` to within ``TAU_HERM``."""
    return bool(np.max(np.abs(a - a.conj().T)) <= TAU_HERM)


def is_unitary(a: np.ndarray) -> bool:
    """Max-entry check of ``A†A == I`` to within ``TAU_UNIT``."""
    d = a.shape[0]
    return bool(np.max(np.abs(a.conj().T @ a - np.eye(d))) <= TAU_UNIT)


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate Hermiticity, unit trace, and positive semidefiniteness.

    Raises ``NotHermitianError`` or ``ValueError`` on violation (eigenvalues
    down to ``-TAU_PSD`` pass).
    """
    check_hermitian(rho, "density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TAU_TRACE:
        raise ValueError(f"density matrix trace {tr} deviates from 1 by more than {TAU_TRACE:.1e}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if min_eig < -TAU_PSD:
        raise ValueError(f"density matrix has eigenvalue {min_eig:.3e} below -{TAU_PSD:.1e}")


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Frobenius (Hilbert-Schmidt) inner product ``Tr[a† b]``."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def herm_exp(h: np.ndarray, theta: float) -> np.ndarray:
    """Unitary ``exp(-i * theta * h)`` for Hermitian ``h``, via eigendecomposition."""
    values, vectors = hermitian_eig(h)
    return (vectors * np.exp(-1j * theta * values)) @ dag(vectors)


def identity_channel(n_qubits: int) -> PauliChannel:
    return PauliChannel([(PauliString.identity(n_qubits), 1.0)])


def load_matrices(frames, mats: np.ndarray) -> None:
    """Load a ``(k, d, d)`` stack of P-symmetric Hermitian matrices as rows
    ``0..k-1`` of ``frames``, a ``circuits._WalshFrames``, in frame ``ek``:
    ``A[k, e] = rho[k, k ^ e]`` for ``k < d/2`` and the columns the frames
    keep, stored as ``Re A + Im A``."""
    frames.enter(np.zeros(mats.shape[:2], dtype=complex))  # fresh buffers, frame ek
    xor = frames._tables.xor
    a = mats[:, np.arange(len(xor))[:, None], xor]
    np.add(a.real, a.imag, out=frames._rows(len(mats)))


def sector_blocks(sectors, x: np.ndarray) -> list[np.ndarray]:
    """One ``(count, k, k)`` block stack per sector of ``sectors``, a
    ``circuits._Sectors``, from the complex ``(count, size)`` entries
    ``x[:, (r R + r') |G| + u] = A[r, act[r', u]]``: the sums
    ``sum_u conj(chi(u)) A[r, u r'] / sqrt(|S_r| |S_r'|)``, one product with
    the ``(|G|, |G|)`` table ``conj(chi(u))``, ``u = P^s R^(g t)``,
    ``chi = (c, q)`` and ``chi(u) = (-1)^(c s) exp(2 pi i q t / count)``.
    """
    width = sectors.act.shape[1]
    count = width // 2
    s, t = np.divmod(np.arange(width), count)
    turn = (2 * np.outer(t, t) + count * np.outer(s, s)) % width
    x = np.array(x, dtype=complex).reshape(len(x), len(sectors.reps), len(sectors.reps), width)
    if sectors._scale is not None:
        x *= sectors._scale
    sums = (x.reshape(-1, width) @ np.exp(-1j * np.pi * turn / count)).reshape(len(x), -1)
    rows = np.empty((len(x), sectors.block_size), dtype=complex)
    sectors.write(sums, rows)
    return sectors.stacks(rows)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``(1/2) ||rho - sigma||_1``."""
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"state shapes differ: {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    evals = np.linalg.eigvalsh((diff + dag(diff)) / 2)
    return 0.5 * float(np.sum(np.abs(evals)))
