"""Quantum channels: unital Pauli mixtures, depolarizing noise, composition.

All channels act linearly on arbitrary square matrices (not only density
matrices), which is what derivative propagation and superoperator
materialization require. Channels are immutable after construction and safe
to apply concurrently.

Each channel class implements one batched kernel, ``_apply_batch``, that
overwrites a ``(k, d, d)`` complex stack with the channel applied to every
matrix in it, using a same-shape scratch buffer instead of allocating.
Circuit propagation calls it directly on buffers it owns, and
:meth:`Channel.apply`, the checked entry point for other callers, wraps a
single matrix in a stack of one and returns a new array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import DimensionMismatchError, TooLargeError
from .linalg import I2, X, Z, dag, kron, n_qubits_of

# Dense d^2 x d^2 materialization is a desk-scale diagnostic only.
SUPEROP_MAX_QUBITS = 5

_XZ_SINGLE = {(0, 0): I2, (1, 0): X, (0, 1): Z, (1, 1): X @ Z}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator written as X^alpha Z^beta.

    ``alpha`` and ``beta`` are bit vectors; qubit ``j`` carries the factor
    ``X**alpha[j] @ Z**beta[j]``. The all-zero string is the identity.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta must have equal length")
        if any(b not in (0, 1) for b in self.alpha + self.beta):
            raise ValueError("alpha and beta entries must be bits")
        object.__setattr__(self, "alpha", tuple(int(b) for b in self.alpha))
        object.__setattr__(self, "beta", tuple(int(b) for b in self.beta))

    @property
    def n_qubits(self) -> int:
        return len(self.alpha)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls((0,) * n_qubits, (0,) * n_qubits)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, kind: str) -> "PauliString":
        """One nontrivial factor (``"X"``, ``"Y"``, or ``"Z"``) on ``qubit``."""
        a, b = [0] * n_qubits, [0] * n_qubits
        if kind in ("X", "Y"):
            a[qubit] = 1
        if kind in ("Z", "Y"):
            b[qubit] = 1
        if kind not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli kind {kind!r}")
        return cls(tuple(a), tuple(b))

    def materialize(self) -> np.ndarray:
        """Dense matrix of the string (Y appears as XZ = -iY, a global phase)."""
        return kron(*(_XZ_SINGLE[(a, b)] for a, b in zip(self.alpha, self.beta)))


def _pauli_action(s: PauliString, p: float) -> tuple[tuple[int, ...], float | np.ndarray]:
    """Flipped tensor axes and weight ``p s_k s_l`` of ``rho -> p P rho P†``.

    The weight is a scalar when ``beta`` is zero, else an array of shape
    ``(2,) * 2n`` that broadcasts against a matrix viewed as a tensor.
    """
    n = s.n_qubits
    axes = tuple(j for j in range(n) if s.alpha[j])
    axes += tuple(n + j for j in axes)
    if not any(s.beta):
        return axes, p
    signs = kron(*(np.array([1.0, -1.0 if b else 1.0]) for b in s.beta)).real
    return axes, (p * np.outer(signs, signs)).reshape((2,) * (2 * n))


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v)) % 2


class Channel:
    """Base class: a completely positive trace-preserving linear map."""

    n_qubits: int

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Apply the channel's linear extension to a square matrix.

        Returns a new array; ``mat`` is never modified.
        """
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"channel on {self.n_qubits} qubits cannot act on shape {mat.shape}"
            )
        stack = np.array(mat, dtype=complex)[None]
        self._apply_batch(stack, np.empty_like(stack))
        return stack[0]

    def _apply_batch(self, stack: np.ndarray, scratch: np.ndarray) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class UnitaryChannel(Channel):
    """Conjugation ``rho -> U rho U†``."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", n_qubits_of(self.u))

    def _apply_batch(self, stack: np.ndarray, scratch: np.ndarray) -> None:
        np.matmul(self.u, stack, out=scratch)
        np.matmul(scratch, dag(self.u), out=stack)


class PauliChannel(Channel):
    """Random-Pauli mixture ``rho -> sum_k p_k P_k rho P_k†`` (unital).

    ``terms`` is a sparse list of ``(PauliString, probability)`` pairs. The
    probabilities must be nonnegative and sum to 1 within 1e-12; they are
    renormalized to machine precision at construction.

    Each string acts as an index permutation with signs:
    ``(P rho P†)_kl = s_k s_l rho_{k^alpha, l^alpha}`` with
    ``s_k = (-1)^(beta . k)``, i.e. a flip of the qubit axes where ``alpha``
    is set, times a sign pattern where ``beta`` is set.
    """

    def __init__(self, terms: Sequence[tuple[PauliString, float]]):
        if not terms:
            raise ValueError("a Pauli channel needs at least one term")
        n = terms[0][0].n_qubits
        if any(s.n_qubits != n for s, _ in terms):
            raise DimensionMismatchError("all Pauli strings must act on the same qubit count")
        probs = np.array([float(p) for _, p in terms])
        if np.any(probs < 0):
            raise ValueError("Pauli-channel probabilities must be nonnegative")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"Pauli-channel probabilities sum to {total}, expected 1")
        self.n_qubits = n
        self.terms: tuple[tuple[PauliString, float], ...] = tuple(
            (s, float(p) / total) for (s, _), p in zip(terms, probs)
        )
        self._actions = tuple(_pauli_action(s, p) for s, p in self.terms)

    def _apply_batch(self, stack: np.ndarray, scratch: np.ndarray) -> None:
        np.copyto(scratch, stack)
        stack.fill(0.0)
        shape = (len(stack),) + (2,) * (2 * self.n_qubits)
        out, src = stack.reshape(shape), scratch.reshape(shape)
        # each term's product is one stack-sized temporary: Pauli channels run
        # at toy and verify sizes only, since no Ising experiment accepts them
        for axes, weight in self._actions:
            out += weight * (np.flip(src, tuple(a + 1 for a in axes)) if axes else src)

    def transfer_coefficient(self, target: PauliString) -> float:
        """Eigenvalue of the channel on the Pauli operator ``target``.

        Unital Pauli channels are diagonal in the Pauli basis:
        ``N(P) = c * P`` with ``c = sum_k (+-1) p_k`` where the sign tracks
        whether ``P_k`` commutes or anticommutes with ``target``.
        """
        if target.n_qubits != self.n_qubits:
            raise DimensionMismatchError("target string qubit count does not match channel")
        c = 0.0
        for s, p in self.terms:
            sign = -1.0 if (_dot(target.alpha, s.beta) + _dot(s.alpha, target.beta)) % 2 else 1.0
            c += sign * p
        return c


@dataclass(frozen=True)
class GlobalDepolarizing(Channel):
    """``rho -> (1-p) rho + p Tr[rho] I/d``."""

    n_qubits: int
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"depolarizing probability {self.p} outside [0, 1]")

    def _apply_batch(self, stack: np.ndarray, scratch: np.ndarray) -> None:
        d = self.dim
        shift = self.p * (np.trace(stack, axis1=1, axis2=2) / d)
        stack *= 1.0 - self.p
        stack.reshape(len(stack), d * d)[:, :: d + 1] += shift[:, None]


@dataclass(frozen=True)
class LocalDepolarizing(Channel):
    """Per-qubit depolarizing noise, applied qubit by qubit.

    Qubit ``j`` undergoes ``rho -> (1-p_j) rho + p_j I_j/2 (x) Tr_j[rho]``
    (the partial-trace form, equivalent to the 4-term Kraus mixture). Split
    into 2x2 blocks ``B_ab`` by the row bit ``a`` and column bit ``b`` of
    qubit ``j``, this scales ``B_01`` and ``B_10`` by ``1-p_j`` and moves
    ``p_j/2 (B_11 - B_00)`` from ``B_11`` to ``B_00``. The batched kernel
    does the scaling for all qubits at once, as an elementwise product with
    the coherence mask ``(x)_j [[1, 1-p_j], [1-p_j, 1]]`` (built on first
    use), and the moves in place on a reshaped view of the whole stack.

    The parity-folded circuit pass never calls the kernel: it applies the
    channel in the Pauli frame, where it is diagonal (see
    :func:`~qfimlab.circuits.parity_folded_sectors`).
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if any(not 0.0 <= p <= 1.0 for p in probs):
            raise ValueError(f"depolarizing probabilities {probs} outside [0, 1]")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "n_qubits", len(probs))

    @classmethod
    def uniform(cls, n_qubits: int, p: float) -> "LocalDepolarizing":
        return cls((float(p),) * n_qubits)

    @cached_property
    def _coherence(self) -> np.ndarray:
        coherence = np.ones((1, 1))
        for p in self.probs:
            coherence = np.kron(coherence, [[1.0, 1.0 - p], [1.0 - p, 1.0]])
        return coherence

    def _apply_batch(self, stack: np.ndarray, scratch: np.ndarray) -> None:
        n, k = self.n_qubits, len(stack)
        stack *= self._coherence
        flat = scratch.reshape(-1)
        for j, p in enumerate(self.probs):
            if p == 0.0:
                continue
            lo, hi = 2**j, 2 ** (n - j - 1)
            # split axes only: a view of any stack, contiguous or not
            t = stack.reshape(k, lo, 2, hi, lo, 2, hi)
            moved = flat[: k * self.dim**2 // 4].reshape(k, lo, hi, lo, hi)
            np.subtract(t[:, :, 1, :, :, 1], t[:, :, 0, :, :, 0], out=moved)
            moved *= p / 2.0
            t[:, :, 0, :, :, 0] += moved
            t[:, :, 1, :, :, 1] -= moved


class CompositeChannel(Channel):
    """Ordered concatenation; ``steps[0]`` acts first."""

    def __init__(self, steps: Sequence[Channel]):
        if not steps:
            raise ValueError("a composite channel needs at least one step")
        n = steps[0].n_qubits
        if any(ch.n_qubits != n for ch in steps):
            raise DimensionMismatchError("all composed channels must share the qubit count")
        self.n_qubits = n
        flat: list[Channel] = []
        for ch in steps:
            if isinstance(ch, CompositeChannel):
                flat.extend(ch.steps)
            else:
                flat.append(ch)
        self.steps: tuple[Channel, ...] = tuple(flat)

    def _apply_batch(self, stack: np.ndarray, scratch: np.ndarray) -> None:
        for ch in self.steps:
            ch._apply_batch(stack, scratch)


def bit_flip(p: float, n_qubits: int = 1, qubit: int = 0) -> PauliChannel:
    """Bit-flip channel ``rho -> (1-p) rho + p X rho X`` on one qubit."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bit-flip probability {p} outside [0, 1]")
    return PauliChannel(
        [
            (PauliString.identity(n_qubits), 1.0 - p),
            (PauliString.single(n_qubits, qubit, "X"), p),
        ]
    )


def compose(outer: Channel, inner: Channel) -> CompositeChannel:
    """Channel equal to ``outer`` after ``inner``: ``rho -> outer(inner(rho))``."""
    if outer.n_qubits != inner.n_qubits:
        raise DimensionMismatchError("composed channels must share the qubit count")
    return CompositeChannel([inner, outer])


def effective_global_depol(probs: Sequence[float], n_qubits: int) -> GlobalDepolarizing:
    """Single global-depolarizing channel equivalent to a stack of them.

    A sequence of global depolarizing channels with probabilities ``p_m``
    (interleaved with arbitrary unitaries) retains the coherent part with
    weight ``prod_m (1 - p_m)``.
    """
    probs = [float(p) for p in probs]
    if not probs:
        raise ValueError("need at least one probability")
    if any(not 0.0 < p <= 1.0 for p in probs):
        raise ValueError(f"probabilities {probs} outside (0, 1]")
    retained = 1.0
    for p in probs:
        retained *= 1.0 - p
    return GlobalDepolarizing(n_qubits, 1.0 - retained)


def decompose_local_depol(
    probs: Sequence[float],
) -> tuple[LocalDepolarizing, LocalDepolarizing]:
    """Split qubit-dependent depolarizing noise into uniform and residual parts.

    With ``q = min_j p_j``, a per-qubit depolarizing channel with probability
    ``p_j`` equals a uniform channel at ``q`` composed with a residual one at
    ``tau_j = (p_j - q) / (1 - q)``; the two commute. Returns
    ``(uniform, residual)``.
    """
    probs = [float(p) for p in probs]
    if any(not 0.0 < p < 1.0 for p in probs):
        raise ValueError(f"probabilities {probs} outside (0, 1)")
    q = min(probs)
    taus = tuple((p - q) / (1.0 - q) for p in probs)
    return LocalDepolarizing.uniform(len(probs), q), LocalDepolarizing(taus)


def _vec(mat: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return mat.T.reshape(-1)


def superoperator(ch: Channel) -> np.ndarray:
    """Dense d^2 x d^2 matrix of the channel under column stacking.

    Satisfies ``vec(ch.apply(rho)) == S @ vec(rho)``. One batched call
    applies the channel to the stack of basis matrices, row ``k + d l``
    holding ``|k><l|``; the stack and its scratch take ``2 16 d^4`` bytes,
    32 MiB at ``SUPEROP_MAX_QUBITS``, where the cap sits because the output
    has ``16**n`` entries.
    """
    if ch.n_qubits > SUPEROP_MAX_QUBITS:
        raise TooLargeError(f"superoperator capped at {SUPEROP_MAX_QUBITS} qubits, got {ch.n_qubits}")
    d = ch.dim
    cols = np.arange(d * d)
    stack = np.zeros((d * d, d, d), dtype=complex)
    stack[cols, cols % d, cols // d] = 1.0
    ch._apply_batch(stack, np.empty_like(stack))
    # column k + d l is vec of row k + d l: S[a + d b, r] = stack[r, a, b]
    return stack.transpose(0, 2, 1).reshape(d * d, d * d).T


def choi_matrix(ch: Channel) -> np.ndarray:
    """Unnormalized Choi matrix ``sum_kl |k><l| (x) ch(|k><l|)`` (trace d).

    A reindexing of :func:`superoperator`: ``S[a + d b, k + d l]`` is the
    Choi entry ``C[k d + a, l d + b]``.
    """
    d = ch.dim
    s = superoperator(ch)
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


@dataclass(frozen=True)
class CptpReport:
    """Outcome of :func:`verify_cptp`."""

    trace_preserving: bool
    tp_deviation: float
    completely_positive: bool
    choi_min_eigenvalue: float
    unital: bool
    unitality_deviation: float

    @property
    def ok(self) -> bool:
        return self.trace_preserving and self.completely_positive


def verify_cptp(ch: Channel) -> CptpReport:
    """Check trace preservation, complete positivity, and unitality.

    Trace preservation is the fixed-point test ``S† vec(I) == vec(I)`` within
    1e-10; complete positivity, a Choi matrix minimum eigenvalue of at least
    -1e-9; unitality, ``ch(I) == I`` within 1e-10.
    """
    d = ch.dim
    s = superoperator(ch)
    vec_id = _vec(np.eye(d, dtype=complex))
    tp_dev = float(np.max(np.abs(dag(s) @ vec_id - vec_id)))
    c = choi_matrix(ch)
    min_eig = float(np.linalg.eigvalsh((c + dag(c)) / 2)[0])
    unital_dev = float(np.max(np.abs(ch.apply(np.eye(d, dtype=complex)) - np.eye(d))))
    return CptpReport(
        trace_preserving=tp_dev <= 1e-10,
        tp_deviation=tp_dev,
        completely_positive=min_eig >= -1e-9,
        choi_min_eigenvalue=min_eig,
        unital=unital_dev <= 1e-10,
        unitality_deviation=unital_dev,
    )
