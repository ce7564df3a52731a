"""Quantum Fisher information matrices, spectra, ranks, and state distances.

The mixed-state QFIM is assembled from the matrix-element form

    F_ij = sum_{mu,nu : r_mu + r_nu > 0}
           2 Re[ <r_mu| d_i rho |r_nu> <r_nu| d_j rho |r_mu> ] / (r_mu + r_nu),

with the pair restriction implemented as a spectral floor: pairs whose
eigenvalue sum falls below ``TAU_SPEC`` contribute nothing. Derivatives are
expected to be exact (see ``circuits``); finite differences would pollute
rank decisions near the tolerance.

One kernel, :func:`_block_qfim`, assembles every mixed-state QFIM from
float64 ``(M + 1, k, k)`` blocks in the one-real form ``Re A + Im A``, the
state's block in row 0 and the derivatives' after it: ``eigh`` of row 0,
the other rows made complex, changed to its eigenbasis and written back in
groups of ``max(1, d^2 // k^2)`` (``d`` the sum of the block sizes), and one
real Gram product per block. :func:`qfim_mixed` and the closed form pass
one block of size ``d`` after the state's Hermiticity check, the folded
path one per sector; :func:`folded_bytes` states that path's memory.

:func:`qfim_of_circuit` is the one way to the QFIM of a circuit, and its
input picks one of three routes:

- a state vector through a noiseless or globally depolarized circuit: the
  noisy output is ``x |psi><psi| + (1-x) I/d`` with ``x = (1-p)^(M+1)``, so
  the QFIM is the Fubini-Study QFIM of the noiseless output, scaled by
  ``x^2 / (x + 2 (1-x)/d)``: 1 at ``p = 0``, 0 at ``p = 1``. Its ``M + 1``
  state vectors come from ``circuits.statevector_derivatives``, which runs
  them in each gate kernel's eigenframe, a gate being one phase product
  there; no ``d x d`` array is formed.
- a state vector that ``circuits.parity_folds`` accepts (``psi[::-1] ==
  +-psi`` through a circuit and noise that commute with the spin flip): the
  folded pass (``circuits.parity_folded_sectors``) from ``psi psi†``, with
  no ``d x d`` array, assembled as one Gram product per sector block.
- everything else, every density matrix included: the dense pass
  (``circuits.evolve_with_derivatives``), then :func:`qfim_mixed` on the
  ``d x d`` output; any other state vector runs as ``psi psi†``.

So passing ``psi psi†`` gives the dense reference for either fast route.

A ``(K, M)`` theta gives a list of K reports, each equal bit for bit to the
call with its row: the state-vector route runs one batched pass of
``K (M + 1)`` vectors, one batched Gram product and one
:func:`report_from_matrix` call on the ``(K, M, M)`` stack, whose
``eigvalsh`` takes every row at once; the folded and dense routes run one
row at a time.

Numerical rank counts eigenvalues above ``tau_abs + tau_rel * lambda_max``;
both knobs are explicit on every report because the small-noise regime makes
this threshold the central reproducibility parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import GlobalDepolarizing
from .circuits import (
    NoisyCircuit,
    _folded_sectors,
    evolve_with_derivatives,
    fold_bytes,
    fold_plan,
    hermitian_blocks,
    parity_folds,
    statevector_derivatives,
)
from .exceptions import DimensionMismatchError
from .linalg import TAU_SPEC, check_hermitian, dag, hermitian_eig

TAU_RANK_ABS = 1e-12
TAU_RANK_REL = 1e-10


@dataclass(frozen=True)
class QfimReport:
    """A QFIM with its spectrum and tolerance-based rank.

    ``eigenvalues`` are sorted descending. ``rank`` counts eigenvalues above
    ``tau_abs + tau_rel * max(eigenvalues)``; for a single-state dataset it
    is also the capacity count D1, and :func:`effective_dim_d1` gives D1 at
    any other threshold.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    tau_abs: float
    tau_rel: float


def report_from_matrix(
    matrix: np.ndarray,
    tau_abs: float = TAU_RANK_ABS,
    tau_rel: float = TAU_RANK_REL,
) -> QfimReport | list[QfimReport]:
    """Symmetrize, diagonalize, and attach the spectrum and rank to a QFIM.

    A ``(K, M, M)`` stack is symmetrized and diagonalized in one call each
    and gives the list of K reports, each equal bit for bit to the call
    with its matrix.
    """
    matrix = np.asarray(matrix, dtype=float)
    matrix = (matrix + matrix.swapaxes(-1, -2)) / 2
    eigs = np.linalg.eigvalsh(matrix)[..., ::-1]
    lam_max = np.max(eigs, axis=-1, initial=0.0)
    ranks = np.sum(eigs > tau_abs + tau_rel * lam_max[..., None], axis=-1)
    if matrix.ndim == 2:
        return QfimReport(matrix, eigs, int(ranks), tau_abs, tau_rel)
    return [QfimReport(m, e, int(r), tau_abs, tau_rel) for m, e, r in zip(matrix, eigs, ranks)]


def effective_dim_d1(report: QfimReport, epsilon: float | None = None) -> int:
    """Capacity count: eigenvalues above ``epsilon`` (rank threshold if omitted)."""
    if epsilon is None:
        return report.rank
    return int(np.sum(report.eigenvalues > float(epsilon)))


def qfim_pure(
    state: np.ndarray,
    derivs: Sequence[np.ndarray],
    tau_abs: float = TAU_RANK_ABS,
    tau_rel: float = TAU_RANK_REL,
) -> QfimReport:
    """Fubini-Study QFIM of a normalized state vector.

    ``F_ij = 4 Re[<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>]``.
    """
    dpsi = np.asarray(derivs, dtype=complex).reshape(len(derivs), len(state))
    return report_from_matrix(_fubini_study(state[None], dpsi[None])[0], tau_abs, tau_rel)


def _fubini_study(states: np.ndarray, derivs: np.ndarray) -> np.ndarray:
    """The ``(K, M, M)`` matrices of :func:`qfim_pure` for ``(K, d)`` states and
    their ``(K, M, d)`` derivatives, as one Gram product ``F = 4 Re(Y Y^H)`` per row.

    Rows are ``Y_i = d_i psi - psi <psi|d_i psi>``; the product runs on the
    real view of ``Y``. Every state's norm is checked.
    """
    nrm = np.linalg.norm(states, axis=-1)
    off = np.abs(nrm - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"state norm {nrm[off][0]} deviates from 1 beyond 1e-9")
    overlap = np.matmul(derivs, states.conj()[..., None])  # <psi|d_i psi>, one column per row
    y = overlap * states[:, None, :]
    flat = np.subtract(derivs, y, out=y).view(float)
    return 4.0 * (flat @ flat.swapaxes(-1, -2))


def _mixed_weights(evals: np.ndarray, x: float, shift: float) -> np.ndarray:
    """``2 x^2 / (x (r_mu + r_nu) + shift)``, and 0 for pairs below the spectral floor."""
    denom = x * (evals[:, None] + evals[None, :]) + shift
    safe = np.where(denom > TAU_SPEC, denom, 1.0)
    return np.where(denom > TAU_SPEC, 2.0 * x * x / safe, 0.0)


def _block_qfim(blocks: Sequence[np.ndarray], x: float = 1.0, shift: float = 0.0) -> np.ndarray:
    """``F = sum over blocks of Re Tr(Y_i Y_j)``, ``Y_i = sqrt(w) * V† d_i V``.

    Each float64 ``(M + 1, k, k)`` block holds Hermitian ``A`` as ``Re A + Im A``
    (``circuits.hermitian_blocks``): a state block in row 0, with eigenvalues ``r``
    and eigenvectors ``V``, then derivative blocks, overwritten with the ``Y_i`` in
    that form; ``w`` is :func:`_mixed_weights`, ``2 / (r_mu + r_nu)`` at the
    defaults. As ``Re Y`` is symmetric and ``Im Y`` antisymmetric, the dot product
    of two one-real rows is ``Re Tr(Y_i Y_j)``."""
    d = sum(len(block[0]) for block in blocks)
    return sum(_block_gram(block, d, x, shift) for block in blocks)


def _row_group(k: int, d: int) -> int:
    """How many rows of a ``k``-wide block :func:`_block_gram` makes complex at once: one ``d x d`` matrix's worth."""
    return max(1, d * d // (k * k))


def _block_gram(block: np.ndarray, d: int, x: float, shift: float) -> np.ndarray:
    """One block's term of :func:`_block_qfim`: row 0 made complex for its eigenbasis
    (Hermitian by construction), then each :func:`_row_group` of the other rows made
    complex, changed to that basis, weighted and written back in one-real form."""
    evals, vecs = np.linalg.eigh(hermitian_blocks(block[0]))
    y, k = block[1:], len(vecs)
    vh, root, step = dag(vecs), np.sqrt(_mixed_weights(evals, x, shift)), _row_group(k, d)
    for rows in np.split(y, range(step, len(y), step)):
        a = hermitian_blocks(rows)
        np.matmul(vh @ a, vecs, out=a)
        a *= root
        np.add(a.real, a.imag, out=rows)
    flat = y.reshape(len(y), k * k)
    return flat @ flat.T


def folded_bytes(n: int, g: int, rows: int) -> int:
    """Most bytes the folded route holds, ``rows = M + 1``, rotation step ``g``: the pass
    (``circuits.fold_bytes``), then the largest sector's two complex row groups and ``eigh``."""
    k, d = max(fold_plan(n, g)[2]), 2**n
    return sum(fold_bytes(n, g, rows)) + (32 * min(rows - 1, _row_group(k, d)) + 48) * k * k


def _one_real(rho: np.ndarray, derivs: Sequence[np.ndarray]) -> np.ndarray:
    """``rho`` and its derivatives as one block of :func:`_block_qfim`, whose form
    holds Hermitian matrices only: ``rho`` is checked first (``TAU_HERM``)."""
    check_hermitian(np.asarray(rho))
    block = np.empty((len(derivs) + 1, *np.shape(rho)))
    for row, a in zip(block, (rho, *derivs)):
        np.add(np.real(a), np.imag(a), out=row)
    return block


def qfim_mixed(
    rho: np.ndarray,
    derivs: Sequence[np.ndarray],
    tau_abs: float = TAU_RANK_ABS,
    tau_rel: float = TAU_RANK_REL,
) -> QfimReport:
    """Mixed-state QFIM from the eigenbasis matrix-element form."""
    return report_from_matrix(_block_qfim([_one_real(rho, derivs)]), tau_abs, tau_rel)


def _global_depol_survival(p: float, n_gates: int) -> float:
    """``x = (1-p)^(M+1)``: the weight of the noiseless state after the M+1
    global depolarizing slots, which commute with every gate."""
    return (1.0 - p) ** (n_gates + 1)


def qfim_of_circuit(
    circuit: NoisyCircuit,
    theta: np.ndarray,
    state: np.ndarray,
    tau_abs: float = TAU_RANK_ABS,
    tau_rel: float = TAU_RANK_REL,
) -> QfimReport | list[QfimReport]:
    """QFIM of the output of ``circuit`` at ``theta`` on the input ``state``.

    ``state`` is a state vector or a density matrix, and with the circuit's
    noise it picks the route (see the module docstring); every route gives
    the same matrix up to roundoff, and a density matrix always runs the
    dense pass. A ``(K, M)`` theta gives the list of K reports, each equal
    bit for bit to the call with its row.
    """
    theta = np.asarray(theta, dtype=float)
    noise = circuit.noise
    if state.ndim == 1 and (noise is None or isinstance(noise, GlobalDepolarizing)):
        x = _global_depol_survival(0.0 if noise is None else noise.p, circuit.n_params)
        scale = x * x / (x + 2.0 * (1.0 - x) / circuit.dim)
        noiseless = circuit.with_uniform_noise(None)
        states, derivs = statevector_derivatives(noiseless, np.atleast_2d(theta), state)
        reports = report_from_matrix(scale * _fubini_study(states, derivs), tau_abs, tau_rel)
        return reports if theta.ndim == 2 else reports[0]
    if theta.ndim == 2:
        return [qfim_of_circuit(circuit, row, state, tau_abs, tau_rel) for row in theta]
    if parity_folds(circuit, state):
        return report_from_matrix(_block_qfim(_folded_sectors(circuit, theta, state)), tau_abs, tau_rel)
    if state.ndim == 1:
        state = np.outer(state, state.conj())
    out, derivs = evolve_with_derivatives(circuit, theta, state)
    return qfim_mixed(out, derivs, tau_abs, tau_rel)


def noisy_qfim_closed_form_global_depol(
    rho_noiseless: np.ndarray,
    derivs_noiseless: Sequence[np.ndarray],
    p: float,
    n_gates: int,
) -> np.ndarray:
    """Closed-form QFIM under uniform global depolarizing slots.

    With ``x = (1-p)^(M+1)``, the noisy state keeps the noiseless eigenbasis,
    shifts eigenvalue pairs to ``x (r_mu + r_nu) + 2 (1-x)/d`` and scales
    derivative matrix elements by ``x``:

        F~_ij = sum 2 x^2 Re[<r_mu|d_i rho|r_nu><r_nu|d_j rho|r_mu>]
                / (x (r_mu + r_nu) + 2 (1-x)/d).

    Returns the raw matrix; wrap with :func:`report_from_matrix` if needed.
    """
    x = _global_depol_survival(p, n_gates)
    return _block_qfim([_one_real(rho_noiseless, derivs_noiseless)], x, 2.0 * (1.0 - x) / len(rho_noiseless))


# ---------------------------------------------------------------------------
# Distances and entropies
# ---------------------------------------------------------------------------


def _check_pair(rho: np.ndarray, sigma: np.ndarray) -> None:
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"state shapes differ: {rho.shape} vs {sigma.shape}")


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``, clipped to [0, 1]."""
    _check_pair(rho, sigma)
    evals, vecs = hermitian_eig(rho)
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ dag(vecs)
    inner = sqrt_rho @ sigma @ sqrt_rho
    inner_evals = np.linalg.eigvalsh((inner + dag(inner)) / 2)
    root_sum = float(np.sum(np.sqrt(np.clip(inner_evals, 0.0, None))))
    return min(root_sum**2, 1.0)


def bures_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``2 (1 - sqrt(fidelity))``."""
    return 2.0 * (1.0 - np.sqrt(uhlmann_fidelity(rho, sigma)))


def relative_entropy_to_mixed(rho: np.ndarray) -> float:
    """``S(rho || I/d) = Tr[rho ln rho] + ln d`` in nats.

    Eigenvalues below the spectral floor contribute zero (x ln x -> 0).
    """
    d = rho.shape[0]
    evals = np.linalg.eigvalsh((rho + dag(rho)) / 2)
    pos = evals[evals > TAU_SPEC]
    return float(np.sum(pos * np.log(pos)) + np.log(d))
