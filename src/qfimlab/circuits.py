"""Parametrized circuits with interleaved noise, and their exact derivatives.

A circuit is a sequence of gates ``exp(-i theta_m H_m)`` drawn from a fixed
generator set, with one noise channel applied in ``M + 1`` slots: before each
of the ``M`` gates and once after the last. A ``None`` channel means "no
noise" and is skipped, so such a circuit runs the identical operation
sequence as a noiseless one.

Each gate is one kernel: declared where the structure is known (as in
:func:`hva_tfim`), or picked by :func:`build_circuit` for a matrix generator
(diagonal if it is exactly diagonal, dense otherwise). A kernel is an
eigenframe ``F`` of its generator and the spectrum ``lambda`` there
(:class:`_VectorFrame`); no gate forms a ``d x d`` unitary:

- :class:`DiagonalKernel` (e.g. ``sum_j Z_j Z_{j+1}``): ``F`` is the
  computational basis, and a frame change costs nothing;
- :class:`ProductKernel` (the same single-qubit term on every qubit, e.g.
  ``sum_j X_j``): ``F = W^(x)n``, ``W`` the eigenvectors of the term, with
  rows kept transposed over the two half registers; a frame change is two
  half-register matmuls with shared factors (real ones on the float view
  when ``W`` is real);
- :class:`DenseKernel` (anything else): ``F = V``, the generator's
  eigenbasis; a frame change is one product with ``V``.

On a density stack a gate is ``F (Phi ⊙ F† rho F) F†`` with
``Phi_ab = exp(-i theta (lambda_a - lambda_b))``: the frame changes are
right products of the whole flat ``(k d, d)`` stack, so BLAS is not called
once per matrix. On state vectors a gate is one product with
``exp(-i theta lambda)`` in the frame and ``H`` one product with
``lambda``.

Batch axis: :func:`evolve` and :func:`statevector_derivatives` take a
``(K, M)`` theta and :meth:`NoisyCircuit.gate_step` a ``(k,)`` array of
angles; every row equals its single call bit for bit. The statevector pass
always runs a batch, an ``(M,)`` theta being a batch of one: its rows stay
in the frame of the last gate's kernel, so a gate builds one ``(K, d)``
phase table and no per-sample factor or unitary, and every frame change
runs each row through its own matmul calls, with factors that all rows
share.

Derivatives of the output state are computed analytically in forward mode.
Differentiating gate ``i`` inserts the commutator ``-i [H_i, .]`` right after
that gate; :func:`evolve_with_derivatives` carries the state and all M
derivatives as rows of one ``(M + 1, d, d)`` stack, seeds row ``m + 1`` with
``-i [H_m, rho_m]``, i.e. ``-i (lambda_a - lambda_b) ⊙ F† rho_m F``, in the
same kernel call as gate ``m``, and sends the live rows through every later
slot and gate at once. The stack and one scratch buffer take
``2 (M + 1) 16 d^2`` bytes. The central finite difference ``derivative_fd``
exists as an independent test oracle only.

Parity folding. With ``P = X^(x)n``, when every gate kernel commutes with
``P`` exactly (a diagonal ``h`` equal to its own reverse, or a product term
that commutes with ``X``), the noise is ``None`` or local depolarizing, and
the input is a state vector with ``psi[::-1] == +-psi`` exactly, every state
and derivative of the pass from ``psi psi†`` is P-symmetric and Hermitian
(:func:`parity_folds`). The vector is the pass's only input: its checks take
``O(d)``, no ``d x d`` array is formed, and the pass gathers only the
entries it stores (:meth:`_WalshFrames.enter`).
:func:`parity_folded_sectors` then carries only the top half rows, in
Walsh-Hadamard frames (:class:`_WalshFrames`), and since each entry there
has a partner entry that holds its conjugate, it stores one real per entry,
``Re A + Im A``. Each noise slot is one elementwise product, each gate and
derivative seed a rotation of every entry with its partner, and the only
matmuls are the real Hadamard transforms between frames. It also keeps one
entry per orbit of the cyclic qubit rotation ``R^g`` that the diagonal
generators, the noise channel and the vector respect exactly
(:func:`_rotation_step`): ``g = 1`` for the Ising ring under uniform noise,
which shrinks every transform and product 6.4x at n = 8, and ``g = n``, the
plain fold, when nothing but the identity holds. Its rows live in one
buffer of at most ``(M + 1) 8 d^2 / 2`` bytes, each in a slot of its own,
and every transform, relayout and gate works through a scratch of whole
rows no larger than :data:`SCRATCH_BYTES` (:func:`fold_bytes`); its index
tables, which depend on ``(n, g)`` only, are built once per pair
(:func:`_fold_tables`). It reads each row out into its own slot as one block
per sector of the group ``<R^g> x <P>`` (:class:`_Sectors`), about
``d / (2n/g)`` wide and still one real per entry, so each sector's stack is
a row-strided view of the buffer, with no ``(M + 1, d/2, d)`` array in
between; each stack becomes complex (:func:`hermitian_blocks`) only when it
is assembled. The Ising ansatz on ``|+>^n`` under local depolarizing noise
folds; the toy model, dense generators, Pauli, global-depolarizing and
composite channels, vectors with no parity and every density matrix do
not, and :func:`evolve_with_derivatives` is always the dense pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .channels import Channel, LocalDepolarizing, PauliString
from .dla import PauliSum
from .exceptions import DimensionMismatchError
from .linalg import (
    KET_PLUS,
    X,
    Y,
    Z,
    EigenDecomposition,
    check_generator,
    check_hermitian,
    dag,
    hermitian_eig,
    kron,
)

# The folded pass enters a state vector's rows in groups whose complex
# temporaries take at most this many bytes (one row at least).
ENTRY_BYTES = 2**20

# The folded pass runs each Walsh transform, relayout and gate partner gather
# on groups of whole rows through one scratch array of at most this many bytes
# (one row at least): the Ising ring's M = 40 rows go in one group up to n = 9,
# and from n = 10 the scratch is smaller than the buffer it serves.
SCRATCH_BYTES = 2**23


def fold_bytes(rows: int, stride: int, sums: int) -> tuple[int, int, int]:
    """The arrays of a folded pass over ``rows`` rows of ``stride`` float64
    entries, whose read-out forms ``sums`` character sums per row, in bytes:
    the buffer; the scratch, of whole rows, at most :data:`SCRATCH_BYTES` but
    one row at least and no more rows than the buffer; and one row's read-out
    pairs and sums, which are allocated after the scratch is freed.
    :class:`_WalshFrames` allocates these, and the parse-time memory check
    charges them, and the assembly after them."""
    row = 8 * stride
    return rows * row, min(rows, max(1, SCRATCH_BYTES // row)) * row, 24 * sums


class _VectorFrame:
    """How a gate kernel acts: in its generator's eigenframe ``F``, where ``H``
    is the real diagonal ``lambda``.

    On state vectors the gate is one product with ``exp(-i theta lambda)`` and
    the derivative seed ``-i H psi`` one product with ``-i lambda``. ``frame``
    names the frame: ``None``, the computational basis, for a diagonal
    kernel, and the kernel itself otherwise, whose :meth:`enter` and
    :meth:`leave` write a stack of ``(..., d)`` rows into ``out``, in the
    frame or back in the computational basis, and may overwrite the rows.
    Each row is changed by its own matmul calls, so a batch row equals its
    single call bit for bit.

    On density matrices the gate is :meth:`conjugate`, for which a framed
    kernel supplies ``_right``, its right product of a flat ``(k d, d)``
    stack with ``F``, ``F*``, ``F^T`` or ``F†``.
    """

    @property
    def frame(self) -> _VectorFrame | None:
        return self

    def _set_spectrum(self, lam: np.ndarray) -> None:
        """``lam`` in the frame's layout, kept as its distinct values and their
        index, so a gate takes one ``exp`` per distinct value and batch row."""
        levels, index = np.unique(lam, return_inverse=True)
        self._minus_i_levels, self._index = -1j * levels, index.reshape(-1)
        self._lambda = lam.reshape(-1)
        self._minus_i_lambda = -1j * self._lambda

    def turn(self, rows: np.ndarray, theta: float | np.ndarray) -> None:
        """``rows <- exp(-i theta lambda) rows`` in the frame, in place; a ``(K,)``
        ``theta`` gives the rows of axis ``-2`` their own angle."""
        phases = np.multiply.outer(theta, self._minus_i_levels)
        rows *= np.take(np.exp(phases, out=phases), self._index, axis=-1)

    def seed(self, row: np.ndarray, out: np.ndarray) -> None:
        """``out <- -i lambda row`` in the frame: the derivative seed ``-i H psi``."""
        np.multiply(row, self._minus_i_lambda, out=out)

    def conjugate(
        self, stack: np.ndarray, theta: float | np.ndarray, scratch: np.ndarray, seed: bool = False
    ) -> None:
        """``stack <- U stack U†`` in place, for a contiguous ``(k, d, d)`` stack;
        a ``(k,)`` ``theta`` gives row ``r`` its own angle. With ``seed`` the
        last row is not conjugated but set to the derivative seed
        ``-i [H, U rho U†]`` of the conjugated row 0.

        No unitary is built: ``U rho U† = F (Phi ⊙ F† rho F) F†`` with
        ``Phi_ab = exp(-i theta (lambda_a - lambda_b))``, and the seed is
        ``-i (lambda_a - lambda_b) ⊙ F† U rho U† F`` in the frame. A framed
        kernel enters it by right products of the live rows with ``F`` and
        ``F*``, with a row-transposed copy between them, so the frame holds
        ``(F† rho F)^T``, and leaves it with every row by ``F^T`` and ``F†``
        the same way. A batch row equals its single call bit for bit only if
        the BLAS ``gemm`` gives each row of a product the same result
        whatever the number of rows, which OpenBLAS 0.3.31 does and not every
        BLAS promises.
        """
        live, d = len(stack) - seed, stack.shape[-1]
        phase = np.exp(np.multiply.outer(-1j * theta, self._lambda)).reshape(-1, d)
        rows, turn = stack, -1j
        if self.frame is not None:
            self._right(stack[:live], scratch[:live], 0)  # rho F
            stack[:live] = scratch[:live].swapaxes(1, 2)
            self._right(stack[:live], scratch[:live], 1)  # (F† rho F)^T
            # the frame holds the transpose: Phi^T, and the seed's difference turned around
            rows, turn, phase = scratch, 1j, phase.conj()
        rows[:live] *= phase[:, :, None] * phase.conj()[:, None, :]
        if seed:
            np.multiply(rows[0], turn * np.subtract.outer(self._lambda, self._lambda), out=rows[-1])
        if self.frame is not None:
            self._right(scratch, stack, 2)  # (F (Phi ⊙ F† rho F))^T
            scratch[:] = stack.swapaxes(1, 2)
            self._right(scratch, stack, 3)


class DiagonalKernel(_VectorFrame):
    """Gate kernel of a diagonal generator ``diag(h)``; its frame is the
    computational basis, so a gate multiplies ``rho`` elementwise by
    ``phi phi^H`` with ``phi = exp(-i theta h)``.

    Commutes with ``P = X^(x)n`` when ``h`` is its own reverse.
    """

    frame = None

    def __init__(self, h: np.ndarray):
        self.h = np.asarray(h, dtype=float)
        self.parity_symmetric = bool(np.array_equal(self.h, self.h[::-1]))
        self._set_spectrum(self.h)


class ProductKernel(_VectorFrame):
    """Gate kernel of ``H = sum_j a_j``: one 2x2 term ``a`` on every qubit.

    Its frame is ``F = W^(x)n``, ``W`` the eigenvectors of ``a``, stored
    transposed: a row ``y``, read as a ``(d_a, d_b)`` matrix ``Y`` over the
    two halves, is kept as ``(W_a† Y W_b^*)^T``, a ``(d_b, d_a)`` matrix, with
    ``W_a`` and ``W_b`` the half-register powers of ``W``. A frame change is
    a matmul with one half's factor, a transposed copy into the other buffer
    and a matmul with the other half's factor, each factor acting on the
    leading axis, so that when ``W`` is real (``a`` real, such as the Ising
    field ``X``, whose ``W`` is Walsh-Hadamard) both are real matmuls on the
    float view, with no ``kron(W, I_2)`` padding. A product with ``F`` costs
    ``d (dim W_a + dim W_b)`` per row instead of ``d^2``. Commutes with
    ``P = X^(x)n`` when ``a`` commutes with ``X`` exactly, i.e.
    ``a = a00 I + a01 X``; the parity-folded pass then reads ``a01`` only.
    """

    def __init__(self, a: np.ndarray, n_qubits: int):
        eig = hermitian_eig(a)
        self.a = a
        self.parity_symmetric = bool(a[0, 0] == a[1, 1] and a[0, 1] == a[1, 0])
        w_a, w_b = (_kron_power(eig.vectors, k) for k in (n_qubits // 2, n_qubits - n_qubits // 2))
        if not np.any(eig.vectors.imag):
            w_a, w_b = w_a.real, w_b.real
        # (first, second) factor of the right product with F, F* (into the frame), F^T and
        # F† (out of it); C-ordered, as the transposed views of dag() made each change
        # about 20% slower at n=6
        factors = ((w_a.T, w_b.T), (dag(w_a), dag(w_b)), (w_b, w_a), (w_b.conj(), w_a.conj()))
        self._rights = tuple(tuple(map(np.ascontiguousarray, f)) for f in factors)
        self._set_spectrum(_spectrum_power(eig.values, n_qubits).reshape(len(w_a), len(w_b)).T)

    def _right(self, rows: np.ndarray, out: np.ndarray, which: int) -> None:
        _change_halves(rows, out, *self._rights[which])

    def enter(self, rows: np.ndarray, out: np.ndarray) -> None:
        """``out <- W_b† (W_a† Y)^T`` per row ``Y``; ``rows`` is overwritten."""
        self._right(rows, out, 1)

    def leave(self, rows: np.ndarray, out: np.ndarray) -> None:
        """``out <- W_a (W_b Z)^T`` per frame row ``Z``; ``rows`` is overwritten."""
        self._right(rows, out, 2)


def _change_halves(rows: np.ndarray, out: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
    """``out <- second (first R)^T`` for each row of ``rows``, read as a ``(p, q)``
    matrix ``R`` (``p = len(first)``), using ``rows`` as scratch.

    Each factor acts on the leading axis of a row, so a real factor is a real
    matmul on the float view of the complex rows.
    """
    p, q = len(first), len(second)
    x, y = (rows.view(float), out.view(float)) if first.dtype == float else (rows, out)
    np.matmul(first, x.reshape(-1, p, x.shape[-1] // p), out=y.reshape(-1, p, x.shape[-1] // p))
    np.copyto(rows.reshape(-1, q, p), out.reshape(-1, p, q).swapaxes(1, 2))
    np.matmul(second, x.reshape(-1, q, x.shape[-1] // q), out=y.reshape(-1, q, x.shape[-1] // q))


class DenseKernel(_VectorFrame):
    """Gate kernel of an unstructured generator, via its eigendecomposition.

    Its frame is the eigenbasis ``V``: a frame change of a state vector is
    one product of every row with ``V^*`` (in) or ``V^T`` (out), and one of a
    density stack a product of the whole flat stack with ``V`` or ``V^T``.
    """

    parity_symmetric = False

    def __init__(self, eig: EigenDecomposition):
        self.eig = eig
        v = eig.vectors
        self._rights = (v, v.conj(), v.T, v.conj().T)
        self._set_spectrum(eig.values)

    def _right(self, rows: np.ndarray, out: np.ndarray, which: int) -> None:
        d = rows.shape[-1]
        np.matmul(rows.reshape(-1, d), self._rights[which], out=out.reshape(-1, d))

    def enter(self, rows: np.ndarray, out: np.ndarray) -> None:
        """``out <- V† y`` for every row ``y``."""
        np.matmul(rows[..., None, :], self._rights[1], out=out[..., None, :])

    def leave(self, rows: np.ndarray, out: np.ndarray) -> None:
        """``out <- V z`` for every frame row ``z``."""
        np.matmul(rows[..., None, :], self._rights[2], out=out[..., None, :])


GateKernel = DiagonalKernel | ProductKernel | DenseKernel


def _kron_power(u: np.ndarray, n: int) -> np.ndarray:
    return kron(*([u] * n)) if n else np.ones((1, 1), dtype=complex)


def _spectrum_power(values: np.ndarray, n: int) -> np.ndarray:
    """Spectrum of ``sum_j a_j`` on ``n`` qubits in the basis ``W^(x)n``: the sum
    of the eigenvalue of ``a`` that each qubit's bit picks."""
    spec = np.zeros(1)
    for _ in range(n):
        spec = np.add.outer(spec, values).ravel()
    return spec


def gate_kernel(h: np.ndarray) -> GateKernel:
    """The gate kernel of a validated Hermitian traceless matrix generator:
    diagonal when every nonzero entry is on the diagonal, dense otherwise."""
    if np.count_nonzero(h) == np.count_nonzero(np.diagonal(h)):
        return DiagonalKernel(np.diagonal(h).real)
    return DenseKernel(hermitian_eig(h))


@dataclass(frozen=True, eq=False)
class NoisyCircuit:
    """Gate list over a set of gate kernels, with one noise channel in M+1 slots.

    Fields:
        n_qubits: register size.
        layers: kernel index for each of the M gates, in application order
            (``ValueError`` if one is out of range).
        kernels: one gate kernel per generator, declared, or chosen by
            :func:`gate_kernel` for a matrix in :func:`build_circuit`.
        noise: the :class:`~qfimlab.channels.Channel` applied before each
            gate and once after the last, or ``None`` for no noise.
    """

    n_qubits: int
    layers: tuple[int, ...]
    kernels: tuple[GateKernel, ...]
    noise: Channel | None = None

    def __post_init__(self):
        if any(not 0 <= i < len(self.kernels) for i in self.layers):
            raise ValueError(f"layer indices {self.layers} outside generator set of size {len(self.kernels)}")

    @property
    def n_params(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def with_uniform_noise(self, channel: Channel | None) -> "NoisyCircuit":
        """Copy with the same channel in every one of the M+1 slots.

        The copy shares the gate kernels of this circuit.
        """
        if channel is not None and channel.n_qubits != self.n_qubits:
            raise DimensionMismatchError(
                f"noise channel on {channel.n_qubits} qubits in a {self.n_qubits}-qubit circuit"
            )
        return replace(self, noise=channel)

    def gate_step(self, m: int, angle: float | np.ndarray, mat: np.ndarray) -> np.ndarray:
        """``U mat U†`` for gate ``m`` at an arbitrary ``angle``, as a new array.

        ``mat`` is ``(d, d)``, or a ``(k, d, d)`` stack with one float or a
        ``(k,)`` array of angles, for any kernel. Runs the same kernel step
        as evolution, without its derivative seed; ``mat`` is not modified.
        """
        if not 0 <= m < self.n_params:
            raise IndexError(f"gate index {m} out of range for M={self.n_params}")
        if mat.shape[-2:] != (self.dim, self.dim) or mat.ndim not in (2, 3):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match circuit dimension {self.dim}"
            )
        stack = np.array(mat, dtype=complex).reshape(-1, self.dim, self.dim)
        angle = np.asarray(angle, dtype=float)
        if angle.shape not in ((), stack.shape[:1]):
            raise ValueError(f"angle has shape {angle.shape}, expected () or {stack.shape[:1]}")
        self.kernels[self.layers[m]].conjugate(stack, angle, np.empty_like(stack))
        return stack.reshape(mat.shape)


def build_circuit(n_qubits, generators, layers) -> NoisyCircuit:
    """Validate matrix generators and assemble a noiseless :class:`NoisyCircuit`.

    Generators must pass :func:`~qfimlab.linalg.check_generator`; each gets
    the kernel :func:`gate_kernel` picks. Add noise with
    :meth:`NoisyCircuit.with_uniform_noise`.
    """
    gens = [np.asarray(g, dtype=complex) for g in generators]
    for k, g in enumerate(gens):
        check_generator(g, 2**n_qubits, f"generator {k}")
    return NoisyCircuit(n_qubits, tuple(int(i) for i in layers), tuple(gate_kernel(g) for g in gens))


def _check_args(
    circuit: NoisyCircuit, theta: np.ndarray, state: np.ndarray, ndim: int, batched: bool = False
) -> np.ndarray:
    """Check that ``state`` has shape ``(d,) * ndim``; return ``theta`` as ``(M,)``
    floats, or also as ``(K, M)`` floats when ``batched``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (circuit.n_params,) or theta.ndim > 1 + batched:
        shapes = "(M,) or (K, M)" if batched else "(M,)"
        raise ValueError(f"theta has shape {theta.shape}, expected {shapes} with M={circuit.n_params}")
    if state.shape != (circuit.dim,) * ndim:
        raise DimensionMismatchError(
            f"state shape {state.shape} does not match circuit dimension {circuit.dim}"
        )
    return theta


def evolve(circuit: NoisyCircuit, theta: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Output state ``N_{M+1} ∘ C^M_{θ_M} ∘ N_M ∘ ... ∘ C^1_{θ_1} ∘ N_1 (rho)``.

    A ``(K, M)`` theta gives the ``(K, d, d)`` outputs in one pass over a
    stack of K copies of ``rho``; row ``r`` equals the call with ``theta[r]``
    bit for bit, whatever the gate kernels.
    """
    theta = _check_args(circuit, theta, rho, 2, batched=True)
    # order="C": a copy of the broadcast view keeps its strides otherwise
    stack = np.array(np.broadcast_to(rho, theta.shape[:-1] + rho.shape), complex, order="C", ndmin=3)
    scratch = np.empty_like(stack)
    angles = theta.T  # row m: gate m's angle, or its K angles
    for m in range(circuit.n_params + 1):
        if circuit.noise is not None:
            circuit.noise._apply_batch(stack, scratch)
        if m < circuit.n_params:
            circuit.kernels[circuit.layers[m]].conjugate(stack, angles[m], scratch)
    return stack if theta.ndim == 2 else stack[0]


def evolve_with_derivatives(
    circuit: NoisyCircuit, theta: np.ndarray, rho: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Output state together with its analytic derivatives in all M parameters.

    Forward mode: one ``(M + 1, d, d)`` stack holds the state in row 0 and
    ``d/d theta_m`` in row ``m + 1``. Right after gate ``m``, row ``m + 1``
    is seeded with ``-i [H_m, rho_m]`` of the post-gate state, in gate ``m``'s
    own kernel call (:meth:`_VectorFrame.conjugate`); every later slot and
    gate then acts on rows ``0..m + 1`` at once, in place. No gate
    unitary or intermediate state is stored: the memory is the stack plus
    one scratch buffer of the same size, ``2 (M + 1) 16 d^2`` bytes.

    The returned arrays are rows of that stack: they share no memory with
    ``rho`` or with each other.
    """
    theta = _check_args(circuit, theta, rho, 2)
    stack = np.empty((circuit.n_params + 1, circuit.dim, circuit.dim), dtype=complex)
    scratch = np.empty_like(stack)
    stack[0] = rho
    for m in range(circuit.n_params + 1):
        # the pass owns both buffers and with_uniform_noise checked the qubit count
        if circuit.noise is not None:
            circuit.noise._apply_batch(stack[: m + 1], scratch[: m + 1])
        if m < circuit.n_params:
            circuit.kernels[circuit.layers[m]].conjugate(stack[: m + 2], theta[m], scratch[: m + 2], seed=True)
    return stack[0], list(stack[1:])


def parity_folds(circuit: NoisyCircuit, state: np.ndarray) -> bool:
    """Whether the pass from the state vector ``state`` can run on the top
    half rows only; a density matrix never does.

    With ``P = X^(x)n``, this holds when every gate kernel commutes with
    ``P`` (see the kernels' ``parity_symmetric``), the noise is ``None`` or
    :class:`~qfimlab.channels.LocalDepolarizing` (covariant under Pauli
    conjugation), and ``P psi == +-psi``, i.e. ``psi[::-1]`` equal to
    ``psi`` or to ``-psi`` exactly. The vector runs as ``psi psi†``, whose
    entries ``psi[k] conj(psi[l])`` are then P-symmetric exactly and
    Hermitian to roundoff, so the test takes ``O(d)``. Every state and
    derivative of the pass is P-symmetric and Hermitian too, so its bottom
    half rows are its top half reversed, and the pass holds one real per
    entry (see :class:`_WalshFrames`).
    """
    if state.shape != (circuit.dim,) or not (
        all(k.parity_symmetric for k in circuit.kernels)
        and (circuit.noise is None or isinstance(circuit.noise, LocalDepolarizing))
    ):
        return False
    flipped = state[::-1]
    return np.array_equal(flipped, state) or np.array_equal(flipped, -state)


def parity_folded_sectors(circuit: NoisyCircuit, theta: np.ndarray, state: np.ndarray) -> list[np.ndarray]:
    """:func:`evolve_with_derivatives` from ``psi psi†``, for a circuit and
    state vector ``psi`` that :func:`parity_folds` accepts, read out as one
    complex ``(M + 1, k, k)`` stack per sector of ``G = <R^g> x <P>`` (see
    :class:`_Sectors`), with no ``d x d`` array formed: row 0 is the output
    state's block, row ``m + 1`` that of ``d/d theta_m``. The block sizes
    ``k`` sum to ``d``.

    The rows travel in the frames of :class:`_WalshFrames`, one real per
    entry and one entry per orbit of the qubit rotation ``R^g`` of
    :func:`_rotation_step`, in one buffer of ``M + 1`` slots of
    ``max(|E| d/2, |B| d)`` float64 entries (``(M + 1) d^2 / 2`` at
    ``g = n``); the read-out writes each row's blocks, one real per entry,
    into that row's own slot, so each stack is a row-strided view of the
    buffer, made complex by :func:`hermitian_blocks`. Raises ``ValueError``
    when :func:`parity_folds` rejects the input.
    """
    if not parity_folds(circuit, state):
        raise ValueError("the circuit or input does not commute with the parity X^n, or the input is not a state vector")
    return [hermitian_blocks(r) for r in _folded_sectors(circuit, theta, state)]


def _folded_sectors(circuit: NoisyCircuit, theta: np.ndarray, state: np.ndarray) -> list[np.ndarray]:
    """The sector stacks of :func:`parity_folded_sectors` in the pass's one-real
    form ``Re A + Im A``, views of one buffer, for an input that
    :func:`parity_folds` has accepted."""
    theta = _check_args(circuit, theta, state, 1)
    frames = _WalshFrames(circuit, state, circuit.n_params + 1)
    frames.enter(state[None])
    for m in range(circuit.n_params + 1):
        if circuit.noise is not None:
            frames.depolarize(m + 1, circuit.noise)
        if m < circuit.n_params:
            frames.gate(m + 1, circuit.kernels[circuit.layers[m]], theta[m])
    return frames.sectors(circuit.n_params + 1)


def _rotate(x: np.ndarray, t: int | np.ndarray, n: int) -> np.ndarray:
    """``R^t x``: the ``n`` bits of ``x`` turned so that qubit ``q``'s bit moves
    to qubit ``q + t mod n`` (qubit 0 is the bit worth ``2^(n-1)``)."""
    t = np.asarray(t) % n
    return ((x >> t) | (x << (n - t))) & (2**n - 1)


def _rotation_step(circuit: NoisyCircuit, state: np.ndarray) -> int:
    """Smallest divisor ``g`` of ``n`` such that the folded pass commutes with ``R^g``.

    That holds when, exactly, every diagonal generator has
    ``h[R^g x] == h[x]``, the noise channel has ``p_j == p_(j+g mod n)``, and
    the state vector has ``psi[R^g x] == c psi[x]`` for one ``c`` in
    ``{1, -1, i, -i}`` (a product by ``c`` is exact, and ``psi psi†`` is then
    invariant). A product gate is always invariant. The Ising ring with
    uniform noise on ``|+>^n`` gives ``g = 1``; ``g = n``, the identity,
    always holds.
    """
    n, d = circuit.n_qubits, circuit.dim
    diagonals = [k.h for k in circuit.kernels if isinstance(k, DiagonalKernel)]
    p = () if circuit.noise is None else circuit.noise.probs
    for g in range(1, n):
        if n % g == 0:
            turn = _rotate(np.arange(d), g, n)
            if (
                all(np.array_equal(h[turn], h) for h in diagonals)
                and p[g:] + p[:g] == p
                and any(np.array_equal(state[turn], c * state) for c in (1, -1, 1j, -1j))
            ):
                return g
    return n


def _orbits(x: np.ndarray, g: int, n: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """For each ``x``, the least ``R^(g t) x & mask`` over its orbit under ``R^g``,
    and the ``t`` that reaches it."""
    keys = np.stack([_rotate(x, g * t, n) & mask for t in range(n // g)])
    turn = np.argmin(keys, axis=0)
    return keys[turn, np.arange(len(x))], turn


def _hadamard(bits: int) -> np.ndarray:
    """Orthonormal Walsh-Hadamard matrix on ``bits`` bits, ``(-1)^popcount(i & j) / sqrt(2^bits)``."""
    i = np.arange(2**bits)
    return np.where(np.bitwise_count(i[:, None] & i) & 1, -1.0, 1.0) / np.sqrt(2.0) ** bits


class _Sectors:
    """The symmetry sectors of ``G = <R^g> x <P>``, ``|G| = 2n/g``, on ``n`` qubits.

    ``u = P^s R^(g t)`` sends the basis state ``x`` to ``R^(g t) x ^ s (d-1)``.
    Each orbit of G is kept by its least member ``r < d/2``, the
    representative (``R`` of them), and each character
    ``chi(u) = (-1)^(c s) exp(2 pi i q t g/n)`` labels one sector. A
    representative whose stabilizer ``S_r`` the character fixes gives the
    unit vector ``|r, chi> = sum_u conj(chi(u)) |u r> / sqrt(|G| |S_r|)``, and
    these ``d`` vectors are an orthonormal basis. A matrix ``A`` that commutes
    with G is block diagonal in it, with

        ``A_chi[r, r'] = sum_u conj(chi(u)) A[r, u r'] / sqrt(|S_r| |S_r'|)``

    (Sandvik, arXiv 1101.3281, sec. 4). :meth:`sums` takes the entries
    ``A[r, u r']`` at ``r = reps``, ``u r' = act[r', u]`` as the real pairs of
    the folded pass and applies one product with the real ``(2|G|, |G|)``
    table ``(Re conj(chi(u)); Im conj(chi(u)))``, which gives each block in
    the pass's one-real form (see :func:`hermitian_blocks`). At ``g = n``
    this is ``{1, P}``: the representatives are all ``k < d/2`` and the two
    sectors are the blocks of the basis ``|k> +- |d-1-k>``.
    """

    def __init__(self, n: int, g: int):
        d, count = 2**n, n // g
        turned = _rotate(np.arange(d), g * np.arange(count)[:, None], n)
        images = np.concatenate([turned, turned ^ (d - 1)])  # row u = s count + t
        # numpy 2.4's np.unique without return_inverse imports numpy.ma, ~10 ms on first use
        self.reps = np.unique(images.min(axis=0), return_inverse=True)[0]
        self.act = images[:, self.reps].T
        stab = self.act == self.reps[:, None]
        # chi(u) = exp(i pi turn / count), u = s count + t and chi = c count + q
        s, t = np.divmod(np.arange(2 * count), count)
        turn = (2 * np.outer(t, t) + count * np.outer(s, s)) % (2 * count)
        fixed = stab.astype(int) @ (turn != 0) == 0  # (R, |G|): chi is 1 on S_r
        chars = np.exp(-1j * np.pi * turn / count)
        # Re S + Im S of a sum S = sum_u c_u A_u from the pairs (r, r_p) = (Re A + Im A,
        # Re A - Im A) of each entry A and its conjugate: sum_u Re c_u r_u + Im c_u r_p,u
        width = len(chars)
        self._pairs = np.concatenate([chars.real, chars.imag])
        order = np.sqrt(stab.sum(axis=1))
        # 1 / sqrt(|S_r| |S_r'|), or None when every stabilizer is trivial (always at g = n)
        self._scale = None if np.all(order == 1.0) else (1.0 / np.outer(order, order))[:, :, None]
        reps = len(self.reps)
        self.size = reps * reps * width
        # each sector's block size, and where its block's entries sit among the sums
        self.sizes, take = [], []
        for chi in range(width):
            sel = np.flatnonzero(fixed[:, chi])
            if len(sel):
                self.sizes.append(len(sel))
                take.append(((sel[:, None] * reps + sel) * width + chi).reshape(-1))
        self._take = np.concatenate(take)
        self.block_size = len(self._take)

    def sums(self, x: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """``S = sum_u conj(chi(u)) A[r, u r'] / sqrt(|S_r| |S_r'|)`` at
        ``(r R + r') |G| + chi``, as the ``(count, size)`` reals ``Re S + Im S``
        in ``spare``: the one-real form of the pass, since the sector blocks
        are Hermitian and the entry at ``(r', r)`` holds ``conj(S)``.

        ``x`` holds, per row, the folded pass's real pairs: ``r`` of the entry
        ``A[r, u r']`` at ``(r R + r') 2|G| + u`` and ``r`` of the entry that
        holds its conjugate ``|G|`` after it. ``spare`` is float64 with
        ``x.size / 2`` entries or more; ``x`` is scaled in place.
        """
        count, reps = len(x), len(self.reps)
        if self._scale is not None:
            x.reshape(count, reps, reps, -1)[:] *= self._scale
        y = spare[: x.size // 2].reshape(-1, self._pairs.shape[1])
        np.matmul(x.reshape(-1, len(self._pairs)), self._pairs, out=y)
        return y.reshape(count, -1)

    def stacks(self, rows: np.ndarray) -> list[np.ndarray]:
        """One ``(count, k, k)`` stack per sector, as views of the ``(count, w)``
        ``rows`` (``w >= block_size``) that :meth:`write` filled: row ``i`` of a
        stack is that sector's block in row ``i``."""
        ends = np.cumsum([0, *(k * k for k in self.sizes)])
        return [rows[:, a:b].reshape(len(rows), k, k) for a, b, k in zip(ends, ends[1:], self.sizes)]

    def write(self, sums: np.ndarray, rows: np.ndarray) -> None:
        """Every sector's block of each row of :meth:`sums`, side by side at the
        start of that row of ``rows``, with one ``take``."""
        np.take(sums, self._take, axis=1, out=rows[:, : self.block_size], mode="clip")


def hermitian_blocks(r: np.ndarray) -> np.ndarray:
    """The complex Hermitian ``(count, k, k)`` stack ``A`` whose one-real form is
    ``r = Re A + Im A`` (so ``r^T = Re A - Im A``):
    ``A = (r + r^T) / 2 + i (r - r^T) / 2``."""
    a = np.empty(r.shape, dtype=complex)
    np.add(r, r.swapaxes(-1, -2), out=a.real)
    np.subtract(r, r.swapaxes(-1, -2), out=a.imag)
    a *= 0.5
    return a


class _FoldTables:
    """The index maps, Walsh factors and sectors of a parity-folded pass on
    ``n`` qubits that keeps one entry per orbit of ``R^g``; they depend on
    ``(n, g)`` alone, and :func:`_fold_tables` builds them once per pair. The
    layouts are those of :class:`_WalshFrames`; every map is a flat index
    into one row.
    """

    def __init__(self, n: int, g: int):
        d = 2**n
        h = d // 2
        e, k = np.arange(d), np.arange(h)
        e_rep, e_turn = _orbits(e, g, n, d - 1)
        cols, col = np.unique(e_rep, return_inverse=True)  # col: the column of e's orbit
        full = k | (np.bitwise_count(k) & 1).astype(k.dtype) << (n - 1)  # b of each b'
        b_rep, b_turn = _orbits(full, g, n, h - 1)
        b_rows, b_row = np.unique(b_rep, return_inverse=True)
        self.n, self.b = n, full[b_rows]
        self.xor = k[:, None] ^ cols
        # A_F[r, e] = A_K[(R^(g t_e) b_r)', col_e] and A_K[b', c] = A_F[r_b', R^(g t_b') E_c];
        # at g = n the two layouts coincide and a relayout is the identity. A row sits at
        # the start of a slot of `stride` entries in either layout (layout F fills it: as
        # many rotation orbits have even weight as odd, or more), and the relayout and
        # partner maps run over a whole slot, their tails reading entry 0, so that
        # np.take, which copies a strided source or target whole, gathers whole slots
        self.stride = max(h * len(cols), len(self.b) * d)

        def slot(m: np.ndarray) -> np.ndarray:
            return np.pad(m.reshape(-1), (0, self.stride - m.size))

        self.relayout = g < n and {
            1: slot((_rotate(self.b[:, None], g * e_turn, n) & (h - 1)) * len(cols) + col),
            -1: slot(b_row[:, None] * d + _rotate(cols, g * b_turn[:, None], n)),
        }
        # where each row keeps the conjugate of an entry: A_K[k ^ e, e] of A_K[k, e] in
        # frame ek, read at its complement past d/2, and A_F[b, f ^ b] of A_F[b, f] in fb
        conj_row = np.where(self.xor < h, self.xor, self.xor ^ (d - 1))
        self.partners = (
            slot(conj_row * len(cols) + np.arange(len(cols))),
            slot(np.arange(len(self.b))[:, None] * d + (e ^ self.b[:, None])),
        )
        # s = sum_j b_j (-1)^f_j in frame fb, as an index into its levels -n..n
        s = np.bitwise_count(self.b)[:, None].astype(np.intp) - 2 * np.bitwise_count(self.b[:, None] & e)
        self.s_levels, self.s_index = np.r_[0 : n + 1, -n:0].astype(float), (s % (2 * n + 1)).reshape(-1)
        self.walsh = (
            (_hadamard((n - 1) // 2), _hadamard(n - 1 - (n - 1) // 2)),
            (_hadamard(n // 2), _hadamard(n - n // 2)),
        )
        self.shapes = ((h, len(cols)), (len(self.b), d))
        self.sectors = sec = _Sectors(n, g)
        # layout K keeps top[r, u r'] at A[R^(g t) r, rep(e)] for e = r ^ u r' and the
        # turn R^(g t) that takes e to its representative, a turned row at or past d/2
        # read at its complement (P-symmetry): the pair of A[r, u r'] is that entry at
        # (r R + r') 2|G| + u and its conjugate's entry |G| after it
        e_of = sec.reps[:, None, None] ^ sec.act
        turned = _rotate(sec.reps[:, None, None], g * e_turn[e_of], n)
        mine = np.where(turned < h, turned, turned ^ (d - 1)) * len(cols) + col[e_of]
        mine = mine.reshape(-1, sec.act.shape[1])
        self.gather = np.concatenate([mine, self.partners[0][mine]], axis=1).reshape(-1)

    def decay(self, probs: tuple[float, ...]) -> np.ndarray:
        """``prod_j (1 - p_j)^(b_j or e_j)`` for every entry of layout F."""
        union = self.b[:, None] | np.arange(2**self.n)
        out = np.ones(union.shape)
        for j, p in enumerate(probs):
            out *= np.where(union >> (self.n - 1 - j) & 1, 1.0 - p, 1.0)
        return out


# a spectrum's points share (n, g), so one set of tables serves all of them
_fold_tables = functools.lru_cache(maxsize=1)(_FoldTables)


class _WalshFrames:
    """The frames and layouts of a parity-folded pass, with its buffers.

    Row ``k < d/2`` of a P-symmetric matrix is stored as ``A[k, e] = rho[k, k ^ e]``
    (frame ``ek``). An orthonormal Walsh-Hadamard transform over the
    ``n - 1`` stored bits ``b'`` of ``k`` gives frame ``eb``, and one over the
    ``n`` bits of ``e`` then gives frame ``fb``. ``A[b', e]`` is the weight of
    the Pauli string with X part ``e`` and Z part ``b``, where the full ``b``
    has ``b_0 = parity(b')`` (P-symmetry cancels odd ``|b|``).

    Every row of the pass (the state and every derivative) is Hermitian, so
    each entry ``A`` has a partner entry that holds ``conj(A)``: ``A[k ^ e, e]``
    in frame ``ek`` (read at its complement when ``k ^ e >= d/2``), ``A`` itself
    up to sign in ``eb``, and ``A[b, f ^ b]`` in ``fb``. Each entry is
    therefore stored as one real, ``r = Re A + Im A``; its partner's ``r_p``
    is ``Re A - Im A``. Every transform and relayout is real-linear, so it
    runs on ``r`` unchanged, and a phase ``A <- e^(i psi) A`` whose partner
    takes ``e^(-i psi)`` is the pair rotation ``r <- cos psi r + sin psi r_p``.
    With ``psi = theta w``:

    - a diagonal gate has ``w = h_(k^e) - h_k`` in ``ek``, with seed
      ``-i (h_k - h_(k^e)) A``, i.e. ``w r_p``;
    - local depolarizing is ``r *= prod_j (1 - p_j)^(b_j or e_j)`` in ``eb``;
    - a product gate with ``a = a00 I + a01 X`` has ``w = 2 a01 s`` in ``fb``,
      with seed ``2i a01 s A``, i.e. ``w r_p``, where
      ``s = sum_j b_j (-1)^f_j``.

    A gate is one gather of the partners and three in-place products and
    sums, with ``cos`` and ``sin`` taken on the distinct values of ``w``.

    Every matrix of the pass is invariant under the qubit rotation ``R^g`` of
    :func:`_rotation_step`, and so is each frame, since ``popcount(b & e)``
    and Pauli weights do not change under it. The rows therefore keep one
    entry per orbit, in two layouts:

    - layout K (frames ``ek`` and ``eb``): all ``d/2`` rows, and one column
      per orbit of ``e``, the set ``E``;
    - layout F (frames ``eb`` and ``fb``): one row per orbit of the full
      ``b``, the set ``B`` (kept by its ``b'``), and all ``d`` columns.

    The frames run ``ek -k- eb(K) -relayout- eb(F) -e- fb``. A relayout is one
    flat gather, ``A[b, e] = A[R^(g t) b, R^(g t) e]`` with ``R^(g t)`` the
    turn that takes ``e`` (or ``b``) to its orbit's representative. At
    ``g = n`` every orbit is one point, ``|E| = d`` and ``|B| = d/2``, and
    both layouts are the whole ``(d/2, d)`` row. The index maps, partner
    tables and Walsh factors depend on ``(n, g)`` only (:class:`_FoldTables`).

    A transform is two real matmuls with half-register factors. The rows
    live in one float64 buffer of ``rows`` slots, each of
    ``max(|E| d/2, |B| d)`` entries (``d^2 / 2`` at ``g = n``), which
    :meth:`enter` allocates; a row sits at the start of its slot in either
    layout, so no layout change moves it. Each noise slot or gate runs on
    groups of whole rows through one scratch array (:func:`fold_bytes`),
    each group taken through every frame change and then the operation
    before the next (:meth:`move`): a transform's first product goes into
    the scratch and its second back, a relayout gathers the slots into the
    scratch or back, a gate gathers the partners into whichever of the two
    the rows are not in, and the operation writes its result into the
    slots, so no group is copied back. The one exit from layout K,
    :meth:`sectors`, frees the scratch and reads the rows out one at a
    time: it gathers the pairs ``(r, r_p)`` of ``A[r, u r']`` for the
    representatives of :class:`_Sectors`, forms their character sums, and
    writes every sector's block of that row, in the same one-real form,
    into the row's own slot.
    """

    def __init__(self, circuit: NoisyCircuit, state: np.ndarray, rows: int):
        t = self._tables = _fold_tables(circuit.n_qubits, _rotation_step(circuit, state))
        self._decay = None if circuit.noise is None else t.decay(circuit.noise.probs)
        # per kernel: its frame, the distinct values of w, the index of each entry's value
        # and the partner map of the frame
        self._phases = {}
        for kernel in circuit.kernels:
            if isinstance(kernel, DiagonalKernel):
                w = kernel.h[t.xor] - kernel.h[: len(t.xor), None]
                levels, index = np.unique(w, return_inverse=True)
                self._phases[kernel] = (0, levels, index.reshape(-1), t.partners[0])
            else:
                levels = 2.0 * kernel.a[0, 1].real * t.s_levels
                self._phases[kernel] = (3, levels, t.s_index, t.partners[1])
        self.frame, self._buf, self._scratch = 0, None, None
        self._bytes = fold_bytes(rows, t.stride, t.sectors.size)

    def _rows(self, count: int) -> np.ndarray:
        """The first ``count`` rows in the current layout, each at the start of its slot."""
        r, c = self._tables.shapes[self.frame >= 2]
        return self._buf[:count, : r * c].reshape(count, r, c)

    def _groups(self, count: int) -> list[slice]:
        """Rows ``0..count-1`` in groups whose slots fit the scratch."""
        step = len(self._scratch) // self._tables.stride
        return [slice(i, min(i + step, count)) for i in range(0, count, step)]

    def enter(self, states: np.ndarray) -> None:
        """Load rows ``0..k-1``, frame ``ek``, from a ``(k, d)`` stack of state
        vectors with ``P psi = +-psi``, as their ``psi psi†``.

        Each row is gathered through the column table ``xor``:
        ``A[k, e] = psi[k] conj(psi[k ^ e])``, the very product that
        ``np.outer(psi, psi.conj())`` holds there, in groups of rows whose
        complex temporaries take at most :data:`ENTRY_BYTES`. The scratch is
        allocated once they are freed.
        """
        t, (buffer, scratch, _) = self._tables, self._bytes
        self.frame, self._scratch = 0, None
        self._buf = np.empty(buffer // 8).reshape(-1, t.stride)
        step = max(1, ENTRY_BYTES // (32 * t.xor.shape[1]))
        for row, psi in zip(self._rows(len(states)), states):
            conj = psi.conj()
            for i in range(0, len(row), step):
                k = slice(i, min(i + step, len(row)))
                a = psi[k, None] * conj[t.xor[k]]
                np.add(a.real, a.imag, out=row[k])
        self._scratch = np.empty(scratch // 8)

    def sectors(self, count: int) -> list[np.ndarray]:
        """Rows ``0..count-1`` as one ``(count, k, k)`` block stack per sector of
        :class:`_Sectors`, each block in the pass's one-real form
        ``Re A + Im A`` (:func:`hermitian_blocks` makes it complex); the rows
        are spent.

        The scratch is freed first. Each row's pairs are then gathered and its
        sums formed in temporaries of one row, and all of its sector blocks
        written with one ``take`` into the row's own slot, which
        ``sum k^2`` fits (``d^2 / 2`` at ``g = n``): every stack is a
        row-strided view of the buffer, which lives as long as they do.
        """
        self.move(count, 0)
        t, sec = self._tables, self._tables.sectors
        src, slots = self._rows(count).reshape(count, -1), self._buf[:count]
        self._buf = self._scratch = None
        pairs, sums = np.empty((1, 2 * sec.size)), np.empty(sec.size)
        for row, slot in zip(src, slots):
            np.take(row, t.gather, out=pairs[0], mode="clip")
            sec.write(sec.sums(pairs, sums), slot[None])
        return sec.stacks(slots)

    def move(self, count: int, frame: int, finish=None) -> None:
        """Bring rows ``0..count-1`` into ``frame`` (0 ``ek``, 1 ``eb(K)``,
        2 ``eb(F)``, 3 ``fb``), then apply ``finish`` to them.

        Each group of rows goes the whole way before the next: every
        relayout gathers its slots into the scratch or back, and each
        transform's first product goes across and its second back, so the
        rows end in the slots or in the scratch. ``finish(here, there, slots)``
        gets the group's ``(k, stride)`` rows where they are, the other
        ``(k, stride)`` array and the slots, and leaves the result in the
        slots; by default the rows are copied back there.
        """
        t, edges = self._tables, []
        while self.frame != frame:
            step = 1 if frame > self.frame else -1
            edges.append((min(self.frame, self.frame + step), step))  # 0: the bits of k, 1: relayout, 2: the bits of e
            self.frame += step
        for part in self._groups(count):
            slots = here = self._buf[part]
            there = self._scratch[: here.size].reshape(here.shape)
            for edge, step in edges:
                if edge == 1:
                    if t.relayout:
                        np.take(here, t.relayout[step], axis=1, out=there, mode="clip")
                        here, there = there, here
                    continue
                (r, c), (a, b) = t.shapes[edge // 2], t.walsh[edge // 2]
                k, x, y = len(here), here[:, : r * c], there[:, : r * c]
                if edge == 0:
                    np.matmul(a, x.reshape(k, len(a), -1), out=y.reshape(k, len(a), -1))
                    np.matmul(b, y.reshape(k, len(a), len(b), c), out=x.reshape(k, len(a), len(b), c))
                else:
                    np.matmul(x.reshape(-1, len(b)), b, out=y.reshape(-1, len(b)))
                    np.matmul(a, y.reshape(k, r, len(a), len(b)), out=x.reshape(k, r, len(a), len(b)))
            if finish is not None:
                finish(here, there, slots)
            elif here is not slots:
                slots[:] = here

    def depolarize(self, count: int, channel: LocalDepolarizing) -> None:
        """Apply ``channel``, the circuit's noise, whose decay table :meth:`__init__` built,
        to rows ``0..count-1``, in frame ``eb(F)``."""
        decay = self._decay.reshape(-1)

        def finish(here, there, slots):
            np.multiply(here[:, : len(decay)], decay, out=slots[:, : len(decay)])

        self.move(count, 2, finish)

    def gate(self, count: int, kernel: GateKernel, theta: float) -> None:
        """Conjugate rows ``0..count-1`` by the gate, then write its seed
        ``-i [H, row 0]`` into row ``count``."""
        frame, levels, index, partner = self._phases[kernel]
        angles = theta * levels
        cos, sin = np.take(np.cos(angles), index), np.take(np.sin(angles), index)
        w = len(index)

        def finish(here, there, slots):
            np.take(here, partner, axis=1, out=there, mode="clip")
            live, pair = here[:, :w], there[:, :w]
            live *= cos
            pair *= sin
            np.add(live, pair, out=slots[:, :w])

        self.move(count, frame, finish)
        seed = self._buf[count]
        np.take(self._buf[0], partner, out=seed, mode="clip")
        seed[:w] *= np.take(levels, index)


def derivative_fd(
    circuit: NoisyCircuit,
    theta: np.ndarray,
    rho: np.ndarray,
    i: int,
    h: float = 1e-5,
) -> np.ndarray:
    """Central finite difference ``(rho(theta + h e_i) - rho(theta - h e_i)) / 2h``."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    theta = np.asarray(theta, dtype=float)
    up = theta.copy()
    up[i] += h
    down = theta.copy()
    down[i] -= h
    return (evolve(circuit, up, rho) - evolve(circuit, down, rho)) / (2.0 * h)


def loss_linear(
    circuit: NoisyCircuit, theta: np.ndarray, rho: np.ndarray, obs: np.ndarray
) -> float:
    """Linear loss ``Tr[rho_out O]`` for a Hermitian observable ``O``."""
    check_hermitian(obs, "observable")
    out = evolve(circuit, theta, rho)
    return float(np.trace(out @ obs).real)


def bloch_coords(rho: np.ndarray) -> tuple[float, float, float] | tuple[np.ndarray, ...]:
    """Single-qubit Bloch vector ``(Tr[rho X], Tr[rho Y], Tr[rho Z])``; on a
    ``(k, 2, 2)`` stack, the three ``(k,)`` arrays of the rows' coordinates.

    The traces are read off the matrix entries: ``Re Tr[rho X] = Re(rho01 +
    rho10)``, ``Re Tr[rho Y] = Im(rho10 - rho01)`` and ``Re Tr[rho Z] =
    Re(rho00 - rho11)``. These are the sums that ``Tr[rho P]`` of the matrix
    product rounds, bit for bit, down to the sign of a zero.
    """
    if rho.shape[-2:] != (2, 2) or rho.ndim not in (2, 3):
        raise DimensionMismatchError(f"Bloch coordinates need 2x2 states, got {rho.shape}")
    s = rho.reshape(-1, 2, 2)
    a, b = s[:, 0, 1], s[:, 1, 0]
    coords = (a.real + b.real, b.imag - a.imag, s[:, 0, 0].real - s[:, 1, 1].real)
    return tuple(float(c[0]) for c in coords) if rho.ndim == 2 else coords


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def toy_model() -> tuple[NoisyCircuit, np.ndarray]:
    """Single-qubit four-rotation circuit and its full-rank input state.

    Gates in application order are exp(-i th Z/2), exp(-i th X/2),
    exp(-i th Z/2), exp(-i th X/2), from :data:`TOY_GENERATORS`; the input
    is 0.9 |+><+| + 0.1 I/2. The circuit is noiseless.
    """
    circuit = build_circuit(1, TOY_GENERATORS, [0, 1, 0, 1])
    plus = np.outer(KET_PLUS, KET_PLUS.conj())
    rho = 0.9 * plus + 0.1 * np.eye(2) / 2
    return circuit, rho


# The toy model's generators and the three parameter points of its analysis.
TOY_GENERATORS = (Z / 2, X / 2)
TOY_THETAS = {
    "theta1": np.array([0.0, 0.0, 0.0, 0.0]),
    "theta2": np.array([np.pi / 2, 0.0, 0.0, 0.0]),
    "theta3": np.array([np.pi / 2, np.pi / 4, np.pi / 4, np.pi / 4]),
}


def hva_tfim_pauli_generators(n_qubits: int) -> tuple[PauliSum, PauliSum]:
    """Transverse-field Ising generators with periodic boundary, as Pauli sums.

    ``H0 = sum_i Z_i Z_{i+1}`` (indices mod n, so n = 2 double-counts the
    single bond) and ``H1 = sum_i X_i``. Lie closure runs on this form at
    any n.
    """
    if n_qubits < 2:
        raise ValueError("the Ising ansatz needs at least 2 qubits")
    zero = (0,) * n_qubits
    bonds = [
        (1.0, PauliString(zero, tuple(int(q in (i, (i + 1) % n_qubits)) for q in range(n_qubits))))
        for i in range(n_qubits)
    ]
    fields = [(1.0, PauliString.single(n_qubits, i, "X")) for i in range(n_qubits)]
    return PauliSum.from_terms(bonds), PauliSum.from_terms(fields)


def hva_tfim_generators(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hva_tfim_pauli_generators` as dense ``2^n x 2^n`` matrices (test oracles)."""
    return tuple(g.materialize() for g in hva_tfim_pauli_generators(n_qubits))


def hva_tfim(n_qubits: int, n_layers: int) -> NoisyCircuit:
    """Alternating-operator ansatz: L repetitions of (H0 gate, H1 gate), M = 2L; the
    kernels are declared: ``H0``'s diagonal from its Pauli sum, ``H1`` the product of ``X``."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    h0 = hva_tfim_pauli_generators(n_qubits)[0].diagonal().real
    return NoisyCircuit(n_qubits, (0, 1) * n_layers, (DiagonalKernel(h0), ProductKernel(X, n_qubits)))


def plus_state_vector(n_qubits: int) -> np.ndarray:
    """``|+> ^ (x) n``, the default input for the Ising ansatz."""
    return kron(*([KET_PLUS.reshape(2, 1)] * n_qubits)).reshape(-1)


def plus_state_density(n_qubits: int) -> np.ndarray:
    """``|+><+| ^ (x) n``, the outer product of :func:`plus_state_vector`."""
    psi = plus_state_vector(n_qubits)
    return np.outer(psi, psi.conj())


def hva_parity_sector_generators(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Ising-ansatz generators restricted to the parity-even half-space.

    Both generators commute with the spin-flip parity ``X^(x)n``, and the
    default input ``|+>^(x)n`` is a +1 parity eigenstate, so the circuit
    never leaves the 2^(n-1)-dimensional even sector. The Lie closure of
    these restricted generators is the algebra that actually moves the
    reference state; for even n its dimension is 3n/2, whereas the closure
    of the unrestricted matrices is larger (it also counts directions that
    act only on the odd sector or annihilate the reference state).
    """
    par = kron(*([X] * n_qubits))
    evals, vecs = np.linalg.eigh(par)
    v_even = vecs[:, evals > 0.5]

    def restrict(h):
        # restriction keeps Hermiticity; re-zero the trace against roundoff
        g = dag(v_even) @ h @ v_even
        g = (g + dag(g)) / 2
        return g - np.trace(g) / len(g) * np.eye(len(g))

    return tuple(restrict(h) for h in hva_tfim_generators(n_qubits))


# ---------------------------------------------------------------------------
# Statevector path (noiseless circuits only), used by the pure-state QFIM
# ---------------------------------------------------------------------------


def statevector_derivatives(
    circuit: NoisyCircuit, theta: np.ndarray, psi: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray] | np.ndarray]:
    """Final state vector and its exact parameter derivatives.

    ``d|psi>/d theta_i`` inserts ``-i H_i`` after gate ``i`` and applies the
    remaining gates; as in :func:`evolve_with_derivatives`, the state and the
    pending derivatives travel forward as one stack, through the gate kernels.

    The rows run in the eigenframe of the last gate's kernel (see
    :class:`_VectorFrame`) and change frame only when the next gate's kernel
    has another: a gate is then one product with ``exp(-i theta_k lambda)``
    per batch row, and its seed ``-i lambda`` times row 0. No gate unitary
    and no ``H v`` product is formed.

    The pass always runs a batch: a ``(K, M)`` theta carries an
    ``(M + 1, K, d)`` stack, in which rows ``0..m`` are contiguous, and a
    spare array of the same size, ``2 16 (M + 1) K d`` bytes, and returns the
    ``(K, d)`` states and ``(K, M, d)`` derivatives as views of the one the
    rows end in, row ``k`` equal bit for bit to the call with ``theta[k]``;
    the other is freed on return. An ``(M,)`` theta is a batch of one,
    returned as the state and a list of M derivatives.
    """
    if circuit.noise is not None:
        raise ValueError("statevector evolution requires a noiseless circuit")
    theta = _check_args(circuit, theta, psi, 1, batched=True)
    thetas = np.atleast_2d(theta)
    stack = np.empty((circuit.n_params + 1, len(thetas), circuit.dim), dtype=complex)
    spare = np.empty_like(stack)
    stack[0] = psi
    frame = None  # the kernel whose frame the rows are in; None: the computational basis
    for m, angles in enumerate(thetas.T):
        kernel = circuit.kernels[circuit.layers[m]]
        if kernel.frame is not frame:
            if frame is not None:
                frame.leave(stack[: m + 1], spare[: m + 1])
                stack, spare = spare, stack
            if kernel.frame is not None:
                kernel.enter(stack[: m + 1], spare[: m + 1])
                stack, spare = spare, stack
            frame = kernel.frame
        kernel.turn(stack[: m + 1], angles)
        kernel.seed(stack[0], stack[m + 1])
    if frame is not None:
        frame.leave(stack, spare)
        stack = spare
    if theta.ndim == 1:
        return stack[0, 0], list(stack[1:, 0])
    return stack[0], stack[1:].swapaxes(0, 1)
