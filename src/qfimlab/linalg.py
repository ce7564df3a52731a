"""Dense complex linear algebra for qubit registers.

Operators and states are plain ``numpy.ndarray`` complex matrices of shape
``(d, d)`` with ``d = 2**n``. Qubit 0 is the leftmost tensor factor, i.e. the
most significant bit of the computational-basis index. All functions are pure
and never mutate their inputs, so values can be shared freely across threads.

Hermitian eigendecompositions are delegated to LAPACK via
``numpy.linalg.eigh`` (ascending eigenvalues, orthonormal columns), which is
deterministic for identical input on a fixed build.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import DimensionMismatchError, NotHermitianError

# Numerical tolerances (double-precision headroom at d <= 1024).
TAU_HERM = 1e-9
TAU_UNIT = 1e-9
TAU_TRACE = 1e-9
TAU_PSD = 1e-9
# Spectral floor: eigenvalue pairs below this are treated as zero.
TAU_SPEC = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET_0 = np.array([1, 0], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and the matrix of column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more square matrices, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def n_qubits_of(mat: np.ndarray) -> int:
    """Number of qubits of a square matrix whose side is a power of two."""
    d = mat.shape[0]
    if mat.ndim != 2 or mat.shape[1] != d:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    n = d.bit_length() - 1
    if 2**n != d:
        raise DimensionMismatchError(f"matrix side {d} is not a power of two")
    return n


def check_hermitian(a: np.ndarray, name: str = "matrix") -> None:
    """Raise ``NotHermitianError`` when ``A`` differs from ``A†`` by more than ``TAU_HERM``."""
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > TAU_HERM:
        raise NotHermitianError(f"{name} deviates from Hermiticity by {dev:.3e} (> {TAU_HERM:.1e})")


def check_generator(g: np.ndarray, d: int, name: str) -> None:
    """Raise unless the gate generator ``g`` has shape ``(d, d)`` (else
    ``DimensionMismatchError``), and is Hermitian and traceless within
    ``TAU_HERM`` and ``TAU_TRACE``."""
    if g.shape != (d, d):
        raise DimensionMismatchError(f"{name} has shape {g.shape}, expected {(d, d)}")
    check_hermitian(g, name)
    if abs(np.trace(g)) > TAU_TRACE:
        raise ValueError(f"{name} has trace {np.trace(g):.3e}, expected traceless")


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is validated against ``TAU_HERM`` and symmetrized before the
    solve, so roundoff-level asymmetry cannot leak into the spectrum.
    """
    check_hermitian(a)
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2)
    return EigenDecomposition(values, vectors)


# herm_exp_from_eig, partial_trace and insert_qubit (with permute_qubits, which it calls)
# have no library caller. They stay only because perfbench/tracer.py lists them in TIMED,
# which tests/test_package.py::test_benchmark_hooks_resolve resolves; they move to
# tests/oracles.py with the benchmark change that drops them (ROADMAP item 8).
def herm_exp_from_eig(eig: EigenDecomposition, theta: float | np.ndarray) -> np.ndarray:
    """Unitary ``exp(-i theta h)`` from the eigendecomposition of a Hermitian ``h``;
    a ``(k,)`` array of angles gives the ``(k, d, d)`` stack of unitaries."""
    phases = np.exp(np.multiply.outer(-1j * theta, eig.values))
    return (eig.vectors * phases[..., None, :]) @ eig.vectors.conj().T


def partial_trace(rho: np.ndarray, drop: Sequence[int]) -> np.ndarray:
    """Trace out the qubits listed in ``drop`` (0-based), keeping the rest in order."""
    n = n_qubits_of(rho)
    drop = sorted(set(int(q) for q in drop))
    if drop and (drop[0] < 0 or drop[-1] >= n):
        raise IndexError(f"qubit indices {drop} out of range for {n} qubits")
    t = rho.reshape((2,) * (2 * n))
    n_cur = n
    for q in reversed(drop):
        t = np.trace(t, axis1=q, axis2=q + n_cur)
        n_cur -= 1
    d_out = 2**n_cur
    return t.reshape(d_out, d_out)


def permute_qubits(mat: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: output qubit ``i`` is input qubit ``perm[i]``."""
    n = n_qubits_of(mat)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    t = mat.reshape((2,) * (2 * n))
    axes = perm + [p + n for p in perm]
    return t.transpose(axes).reshape(mat.shape)


def insert_qubit(mat: np.ndarray, position: int, op2: np.ndarray) -> np.ndarray:
    """Tensor a single-qubit operator into ``mat`` so it sits at ``position``."""
    n = n_qubits_of(mat)
    if not 0 <= position <= n:
        raise IndexError(f"insert position {position} out of range for {n} qubits")
    full = np.kron(op2, mat)  # new qubit is factor 0
    perm = list(range(1, position + 1)) + [0] + list(range(position + 1, n + 1))
    return permute_qubits(full, perm)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def purity(rho: np.ndarray) -> float | np.ndarray:
    """``Tr[rho^2]`` of a Hermitian ``(d, d)`` matrix, or the ``(k,)`` purities of a
    ``(k, d, d)`` stack, as a float64 array of its own; each row is the
    ``vdot`` of its flattened entries."""
    f = rho.reshape(-1, rho.shape[-1] ** 2)
    out = (f.conj()[:, None, :] @ f[:, :, None])[:, 0, 0].real
    return float(out[0]) if rho.ndim == 2 else out.copy()
