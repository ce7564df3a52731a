"""Structured gate kernels, batched channels, forward-mode stacks, Gram QFIM.

Each fast kernel is checked against the dense or loop form it replaced,
which is kept here as the oracle.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import herm_exp, load_matrices, sector_blocks

import qfimlab
from qfimlab import circuits
from qfimlab.channels import (
    CompositeChannel,
    GlobalDepolarizing,
    LocalDepolarizing,
    PauliChannel,
    PauliString,
    UnitaryChannel,
    bit_flip,
    superoperator,
)
from qfimlab.circuits import (
    DenseKernel,
    DiagonalKernel,
    NoisyCircuit,
    ProductKernel,
    _fold_tables,
    _folded_sectors,
    _FoldTables,
    _rotate,
    _rotation_step,
    _Sectors,
    _WalshFrames,
    bloch_coords,
    build_circuit,
    evolve,
    evolve_with_derivatives,
    fold_bytes,
    fold_plan,
    gate_kernel,
    hermitian_blocks,
    hva_tfim,
    hva_tfim_generators,
    parity_folded_sectors,
    parity_folds,
    plus_state_density,
    plus_state_vector,
    statevector_derivatives,
    toy_model,
)
from qfimlab.exceptions import NotHermitianError
from qfimlab.experiments import RUNNERS, parse_config
from qfimlab.linalg import (
    I2,
    TAU_HERM,
    X,
    Z,
    dag,
    herm_exp_from_eig,
    insert_qubit,
    kron,
    partial_trace,
    purity,
)
from qfimlab.qfim import TAU_RANK_ABS, noisy_qfim_closed_form_global_depol, qfim_mixed, qfim_of_circuit
from qfimlab.rand import random_density_matrix, random_hermitian, random_unitary


def random_matrix(d, rng):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_stack(k, d, rng):
    return rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))


def embed_single_qubit(a, qubit, n):
    """``a`` on ``qubit`` of an ``n``-qubit register, the identity elsewhere."""
    return kron(*(a if q == qubit else I2 for q in range(n)))


def uniform_sum(a, n):
    return sum(embed_single_qubit(a, j, n) for j in range(n))


def kernel_of(h, n):
    return build_circuit(n, [h], [0]).kernels[0]


def picked(h):
    """A traceless copy of ``h`` and the kernel ``build_circuit`` picks for it."""
    h = h - np.trace(h) / len(h) * np.eye(len(h))
    return h, kernel_of(h, int(np.log2(len(h))))


def declared(a, n):
    """``sum_j a_j`` on ``n`` qubits and its declared product kernel."""
    return uniform_sum(a, n), ProductKernel(a, n)


class TestGateKernels:
    @pytest.mark.parametrize(
        "make, kind",
        [
            (lambda rng: picked(hva_tfim_generators(3)[0]), DiagonalKernel),
            (lambda rng: picked(np.diag(rng.normal(size=8)).astype(complex)), DiagonalKernel),
            (lambda rng: declared(X, 3), ProductKernel),
            (lambda rng: declared(random_hermitian(2, rng, traceless=True), 3), ProductKernel),
            (lambda rng: picked(random_hermitian(8, rng, traceless=True)), DenseKernel),
            (lambda rng: picked(embed_single_qubit(X, 0, 3) + embed_single_qubit(Z, 2, 3)), DenseKernel),
        ],
    )
    def test_kernel_matches_dense_conjugation(self, rng, make, kind):
        h, kernel = make(rng)
        assert isinstance(kernel, kind)
        stack = random_stack(3, 8, rng)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        one_gate = NoisyCircuit(3, (0,), (kernel,))
        for theta in (0.0, 0.37, -2.9):
            u = herm_exp(h, theta)
            got = stack.copy()
            kernel.conjugate(got, theta, np.empty_like(got))
            assert np.max(np.abs(got - u @ stack @ dag(u))) <= 1e-12
            # on vectors: the state U psi and its derivative -i H U psi
            state, (deriv,) = statevector_derivatives(one_gate, [theta], psi)
            assert np.max(np.abs(state - u @ psi)) <= 1e-12
            assert np.max(np.abs(deriv + 1j * h @ u @ psi)) <= 1e-12
        # the seed row of a zero-angle gate: -i [H, rho]
        rho = random_matrix(8, rng)
        pair = np.stack([rho, np.empty_like(rho)])
        kernel.conjugate(pair, 0.0, np.empty_like(pair), seed=True)
        assert np.max(np.abs(pair[1] + 1j * (h @ rho - rho @ h))) <= 1e-12

    def test_diagonal_shifted_generator_is_diagonal(self, rng):
        h = np.diag(rng.normal(size=4)).astype(complex)
        assert isinstance(kernel_of(h - np.trace(h) / 4 * np.eye(4), 2), DiagonalKernel)

    def test_different_single_qubit_terms_fall_back_to_dense(self, rng):
        n = 3
        terms = [random_hermitian(2, rng, traceless=True) for _ in range(n)]
        h = sum(embed_single_qubit(a, j, n) for j, a in enumerate(terms))
        assert isinstance(kernel_of(h, n), DenseKernel)
        nearly = uniform_sum(X, n) + 1e-6 * embed_single_qubit(Z, 1, n)
        assert isinstance(kernel_of(nearly, n), DenseKernel)

    def test_single_qubit_x_is_dense_and_tfim_is_structured(self):
        assert isinstance(kernel_of(X / 2, 1), DenseKernel)
        assert isinstance(kernel_of(Z / 2, 1), DiagonalKernel)
        # a matrix is never read as a product; the Ising ansatz declares one
        assert isinstance(kernel_of(uniform_sum(X, 4), 4), DenseKernel)
        kinds = [type(k) for k in hva_tfim(4, 1).kernels]
        assert kinds == [DiagonalKernel, ProductKernel]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_generator_seed_matches_the_dense_product(self, rng, n):
        # a one-gate statevector_derivatives with one angle per batch row returns
        # U psi and its derivative -i H U psi
        d = 2**n
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        thetas = np.concatenate([[[0.0]], rng.uniform(-np.pi, np.pi, (4, 1))])
        # the Ising diagonal has zeros at even n
        diags = [np.diag(rng.normal(size=d)).astype(complex)] + ([hva_tfim_generators(n)[0]] if n >= 2 else [])
        made = [picked(h) for h in (*diags, random_hermitian(d, rng, traceless=True))]
        made += [declared(a, n) for a in (X, random_hermitian(2, rng, traceless=True))]
        for h, kernel in made:
            states, derivs = statevector_derivatives(NoisyCircuit(n, (0,), (kernel,)), thetas, psi)
            want = np.stack([herm_exp(h, t) @ psi for t in thetas[:, 0]])
            assert np.max(np.abs(states - want)) <= 1e-13 * np.max(np.abs(want))
            want = -1j * (h @ want.T).T
            assert np.max(np.abs(derivs[:, 0] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: picked(hva_tfim_generators(3)[0]),
            lambda rng: declared(random_hermitian(2, rng, traceless=True), 3),
            lambda rng: picked(random_hermitian(8, rng, traceless=True)),
        ],
        ids=["diagonal", "product", "dense"],
    )
    def test_one_angle_per_batch_row_equals_each_single_call(self, rng, make):
        _, kernel = make(rng)
        circ = NoisyCircuit(3, (0, 0, 0), (kernel,))
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        thetas = rng.uniform(-np.pi, np.pi, (4, 3))
        states, derivs = statevector_derivatives(circ, thetas, psi)
        for k in range(4):
            state, deriv = statevector_derivatives(circ, thetas[k], psi)
            np.testing.assert_array_equal(states[k], state)
            np.testing.assert_array_equal(derivs[k], np.stack(deriv))

    def test_odd_register_product_split(self, rng):
        a = random_hermitian(2, rng, traceless=True)
        for n in (2, 3, 5):
            h, kernel = declared(a, n)
            rho = random_matrix(2**n, rng)
            u = herm_exp(h, 1.3)
            got = rho[None].copy()
            kernel.conjugate(got, 1.3, np.empty_like(got))
            assert np.max(np.abs(got[0] - u @ rho @ dag(u))) <= 1e-12

    def test_gate_step_matches_dense_and_keeps_input(self, rng):
        h0, h1 = hva_tfim_generators(3)
        gens = [h0, h1, random_hermitian(8, rng, traceless=True)]
        circ = NoisyCircuit(3, (0, 1, 2), (*hva_tfim(3, 1).kernels, gate_kernel(gens[2])))
        rho = random_density_matrix(8, rng)
        before = rho.copy()
        for m, h in enumerate(gens):
            u = herm_exp(h, 0.8)
            out = circ.gate_step(m, 0.8, rho)
            assert np.max(np.abs(out - u @ rho @ dag(u))) <= 1e-12
            assert not np.shares_memory(out, rho)
        np.testing.assert_array_equal(rho, before)
        with pytest.raises(IndexError):
            circ.gate_step(3, 0.1, rho)


def partial_trace_depol(probs, mat):
    """The partial-trace form the batched local-depolarizing kernel replaced."""
    out = mat
    for j, p in enumerate(probs):
        out = (1.0 - p) * out + p * insert_qubit(partial_trace(out, [j]), j, I2 / 2)
    return out


def superop_of(fn, d):
    s = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[k, l] = 1.0
            s[:, k + d * l] = fn(basis).T.reshape(-1)
    return s


def pauli_oracle(ch, mat):
    return sum(p * (s.materialize() @ mat @ dag(s.materialize())) for s, p in ch.terms)


class TestBatchedChannels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_local_depol_matches_partial_trace_superoperator(self, rng, n):
        probs = tuple(float(p) for p in rng.uniform(0.0, 0.9, n))
        probs = (0.0,) + probs[1:] if n > 1 else probs
        ch = LocalDepolarizing(probs)
        oracle = superop_of(lambda m: partial_trace_depol(probs, m), 2**n)
        assert np.max(np.abs(superoperator(ch) - oracle)) <= 1e-14
        mat = random_matrix(2**n, rng)
        assert np.max(np.abs(ch.apply(mat) - partial_trace_depol(probs, mat))) <= 1e-13

    def test_pauli_channel_matches_materialized_strings(self, rng):
        for n in (1, 2, 3):
            strings = [PauliString(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
                       for _ in range(4)]
            w = rng.uniform(0.0, 0.2, 4)
            ch = PauliChannel([(PauliString.identity(n), 1 - w.sum())] + list(zip(strings, w)))
            mat = random_matrix(2**n, rng)
            assert np.max(np.abs(ch.apply(mat) - pauli_oracle(ch, mat))) <= 1e-13

    def test_every_channel_class_batch_equals_apply(self, rng):
        n, d = 2, 4
        pauli = PauliChannel([
            (PauliString.identity(n), 0.6),
            (PauliString.single(n, 1, "Y"), 0.25),
            (PauliString((1, 0), (1, 1)), 0.15),
        ])
        channels = [
            UnitaryChannel(random_unitary(d, rng)),
            pauli,
            bit_flip(0.3, n, 1),
            GlobalDepolarizing(n, 0.2),
            LocalDepolarizing((0.1, 0.45)),
            CompositeChannel([pauli, LocalDepolarizing((0.3, 0.0)), GlobalDepolarizing(n, 0.1)]),
        ]
        stack = random_stack(5, d, rng)
        for ch in channels:
            expected = np.stack([ch.apply(m) for m in stack])
            got = stack.copy()
            ch._apply_batch(got, np.empty_like(got))
            assert np.max(np.abs(got - expected)) <= 1e-14, type(ch).__name__

    def test_apply_never_mutates_or_returns_input(self, rng):
        mat = random_matrix(4, rng)
        before = mat.copy()
        for ch in (PauliChannel([(PauliString.identity(2), 1.0)]), LocalDepolarizing((0.0, 0.0)),
                   GlobalDepolarizing(2, 0.0), LocalDepolarizing((0.2, 0.3))):
            out = ch.apply(mat)
            assert not np.shares_memory(out, mat)
            np.testing.assert_array_equal(mat, before)



class TestForwardModeDerivatives:
    def test_full_pass_contract(self, rng):
        gens = [random_hermitian(4, rng, traceless=True), *hva_tfim_generators(2)]
        circ = build_circuit(2, gens, [0, 1, 2, 0, 2]).with_uniform_noise(
            LocalDepolarizing((0.05, 0.2))
        )
        theta = rng.uniform(0, 2 * np.pi, 5)
        rho = random_density_matrix(4, rng)
        before = rho.copy()
        out, derivs = evolve_with_derivatives(circ, theta, rho)
        np.testing.assert_array_equal(rho, before)
        assert len(derivs) == circ.n_params
        arrays = [out, *derivs]
        for a in range(len(arrays)):
            assert not np.shares_memory(arrays[a], rho)
            for b in range(a + 1, len(arrays)):
                assert not np.shares_memory(arrays[a], arrays[b])

        # the stack and its scratch buffer, 2 (M + 1) matrices, plus a few temporaries
        big = hva_tfim(6, 5).with_uniform_noise(LocalDepolarizing.uniform(6, 0.05))
        m, d = big.n_params, big.dim
        theta, rho = rng.uniform(0, 2 * np.pi, m), plus_state_density(6)
        tracemalloc.start()
        try:
            evolve_with_derivatives(big, theta, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * d * d * (2 * (m + 1) + 8)


def random_p_symmetric(d, rng):
    mat = random_matrix(d, rng)
    return mat + mat[::-1, ::-1]


def sector_rows(blocks):
    """A list of ``(count, k, k)`` sector blocks as one ``(count, sum k^2)`` array."""
    return np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)


def dense_sector_rows(stack, n, g):
    """:func:`sector_rows` of a ``(count, d, d)`` stack of matrices that commute
    with ``<R^g> x <P>``; equal blocks mean equal matrices."""
    sectors = _Sectors(n, g)
    x = stack[:, sectors.reps[:, None, None], sectors.act].reshape(len(stack), -1)
    return sector_rows(sector_blocks(sectors, x))


def random_p_symmetric_vector(d, rng, sign=1):
    """A random normalized ``psi`` with ``psi[::-1] == sign * psi`` exactly."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = psi + sign * psi[::-1]
    return psi / np.linalg.norm(psi)


def assert_fold_matches_dense(circ, theta, psi):
    """Folded sector blocks to 1e-13 and the folded QFIM to 1e-12 relative, against
    the dense pass from ``psi psi†``."""
    assert parity_folds(circ, psi)
    out, derivs = evolve_with_derivatives(circ, theta, np.outer(psi, psi.conj()))
    got = sector_rows(parity_folded_sectors(circ, theta, psi))
    want = dense_sector_rows(np.stack([out, *derivs]), circ.n_qubits, _rotation_step(circ, psi))
    assert np.max(np.abs(got - want)) <= 1e-13
    folded, expected = qfim_of_circuit(circ, theta, psi).matrix, qfim_mixed(out, derivs).matrix
    assert np.max(np.abs(folded - expected)) <= 1e-12 * np.max(np.abs(expected))


def turned(mat, t, n):
    """``mat`` with every qubit q moved to q + t mod n, on both sides."""
    axes = list(np.roll(np.arange(n), t))
    return mat.reshape((2,) * 2 * n).transpose(axes + [n + a for a in axes]).reshape(mat.shape)


def ring_with_one_bond(n, weight):
    zz = [embed_single_qubit(Z, j, n) @ embed_single_qubit(Z, (j + 1) % n, n) for j in range(n)]
    zz[0] = weight * zz[0]
    return NoisyCircuit(n, (0, 1) * 3, (gate_kernel(sum(zz)), ProductKernel(X, n)))


class TestParityFold:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_frame_operations_match_dense_kernels(self, rng, n):
        d, k = 2**n, 3
        mats = np.stack([random_p_symmetric(d, rng) for _ in range(k)])
        # the frames hold Hermitian rows: M = H1 + i H2 goes through as its two parts
        parts = ((mats + mats.conj().swapaxes(1, 2)) / 2, (mats - mats.conj().swapaxes(1, 2)) / 2j)
        probs = rng.uniform(0.1, 1.0, n)
        probs[-1] = 0.0
        ch = LocalDepolarizing(tuple(probs))
        circ = hva_tfim(n, 1).with_uniform_noise(ch)
        odd = random_p_symmetric_vector(d, rng, sign=-1)
        frames = _WalshFrames(circ, odd, k + 1)
        g = _rotation_step(circ, odd)
        assert g == n  # a random P-odd vector respects no rotation: the sectors are the parity blocks

        def through_frames(op, count):
            # rows 0..k-1 hold a part in frame ek, row k takes a seed
            blocks = []
            for part in parts:
                load_matrices(frames, part)
                op()
                blocks.append(sector_rows([hermitian_blocks(r) for r in frames.sectors(count)]))
            return blocks[0] + 1j * blocks[1]

        for kernel in circ.kernels:
            assert kernel.parity_symmetric
            got = through_frames(lambda: frames.gate(k, kernel, 0.73), k + 1)
            full = np.concatenate([mats, np.empty((1, d, d), dtype=complex)])
            kernel.conjugate(full, 0.73, np.empty_like(full), seed=True)
            assert np.max(np.abs(got - dense_sector_rows(full, n, g))) <= 1e-12
        got = through_frames(lambda: frames.depolarize(k, ch), k)
        full = mats.copy()
        ch._apply_batch(full, np.empty_like(full))
        assert np.max(np.abs(got - dense_sector_rows(full, n, g))) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_frame_pass_matches_dense_pass_beyond_the_ising_ring(self, rng, n):
        # all-to-all ZZ (zero at n = 1) and a scaled field, on random P-even and P-odd vectors
        d = 2**n
        zz = [embed_single_qubit(Z, i, n) @ embed_single_qubit(Z, j, n) for i in range(n) for j in range(i)]
        kernels = (gate_kernel(sum(zz, np.zeros((d, d), dtype=complex))), ProductKernel(0.37 * X, n))
        circ = NoisyCircuit(n, (0, 1, 1, 0, 1, 0) if n >= 2 else (0, 0), kernels)
        probs = rng.uniform(0.0, 0.3, n)
        probs[0] = 0.0
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        for noise in (None, LocalDepolarizing(tuple(probs)), LocalDepolarizing.uniform(n, 0.05)):
            for sign in (1, -1):
                assert_fold_matches_dense(circ.with_uniform_noise(noise), theta, random_p_symmetric_vector(d, rng, sign))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_folded_qfim_matches_dense(self, rng, n):
        probs = rng.uniform(0.0, 0.3, n)
        zero, one = rng.choice(n, 2, replace=False)
        probs[zero], probs[one] = 0.0, 1.0
        circ = hva_tfim(n, 3).with_uniform_noise(LocalDepolarizing(tuple(probs)))
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        assert_fold_matches_dense(circ, theta, plus_state_vector(n))

    def test_folded_pass_holds_half_the_memory(self, rng):
        # the folded pass's stack of M + 1 rotation orbits and its scratch, plus
        # a few d x d temporaries: at most the (M + 1, d/2, d) top rows and scratch
        circ = hva_tfim(6, 5).with_uniform_noise(LocalDepolarizing.uniform(6, 0.05))
        m, d = circ.n_params, circ.dim
        theta, psi = rng.uniform(0, 2 * np.pi, m), plus_state_vector(6)
        tracemalloc.start()
        try:
            parity_folded_sectors(circ, theta, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * d * d * ((m + 1) + 4)

    def test_fallbacks_take_the_dense_path(self, rng):
        # each circuit, channel or input alone keeps a vector that folds otherwise
        # out of the fold; the dense pass is checked on the matching matrix
        n = 3
        tfim, plus = hva_tfim(n, 2), plus_state_vector(n)
        zero = np.zeros(8, dtype=complex)
        zero[0] = 1.0
        pauli = PauliChannel([(PauliString.identity(n), 0.9), (PauliString.single(n, 1, "Y"), 0.1)])
        dense_gen = build_circuit(n, [random_hermitian(8, rng, traceless=True)], [0, 0])
        local = LocalDepolarizing.uniform(n, 0.1)
        assert parity_folds(tfim.with_uniform_noise(local), plus)
        toy, toy_rho = toy_model()
        cases = [
            (toy, plus_state_vector(1), toy_rho),
            (tfim.with_uniform_noise(pauli), plus, None),
            (tfim.with_uniform_noise(GlobalDepolarizing(n, 0.1)), plus, None),
            (tfim.with_uniform_noise(local), zero, None),
            (dense_gen.with_uniform_noise(local), plus, None),
        ]
        for circ, psi, rho in cases:
            assert not parity_folds(circ, psi)
            theta = rng.uniform(0, 2 * np.pi, circ.n_params)
            with pytest.raises(ValueError, match="parity"):
                parity_folded_sectors(circ, theta, psi)
            rho = np.outer(psi, psi.conj()) if rho is None else rho
            expected = qfim_mixed(*evolve_with_derivatives(circ, theta, rho)).matrix
            np.testing.assert_array_equal(qfim_of_circuit(circ, theta, rho).matrix, expected)

    # one entry per orbit of the qubit rotation R^g that circuit, noise and input respect
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_uniform_noise_on_the_ring_folds_every_rotation(self, rng, n):
        circ = hva_tfim(n, 3).with_uniform_noise(LocalDepolarizing.uniform(n, 0.07))
        psi, theta = plus_state_vector(n), rng.uniform(0, 2 * np.pi, circ.n_params)
        assert _rotation_step(circ, psi) == 1
        assert_fold_matches_dense(circ, theta, psi)
        # a real-valued input takes the same pass
        got = sector_rows(parity_folded_sectors(circ, theta, psi.real))
        np.testing.assert_array_equal(got, sector_rows(parity_folded_sectors(circ, theta, psi)))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_alternating_noise_folds_every_second_rotation(self, rng, n):
        circ = hva_tfim(n, 3).with_uniform_noise(LocalDepolarizing((0.02, 0.11) * (n // 2)))
        psi = plus_state_vector(n)
        assert _rotation_step(circ, psi) == 2
        assert_fold_matches_dense(circ, rng.uniform(0, 2 * np.pi, circ.n_params), psi)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rotation_averaged_input_beyond_the_ring(self, rng, n):
        # all-to-all ZZ and a scaled field; integer entries keep the average exactly invariant
        d = 2**n
        zz = [embed_single_qubit(Z, i, n) @ embed_single_qubit(Z, j, n) for i in range(n) for j in range(i)]
        circ = NoisyCircuit(n, (0, 1, 1, 0, 1, 0), (gate_kernel(sum(zz)), ProductKernel(0.37 * X, n)))
        a = rng.integers(-3, 4, d) + 1j * rng.integers(-3, 4, d)
        a = a + a[::-1]
        total = sum(a[_rotate(np.arange(d), t, n)] for t in range(n))
        psi = total / np.linalg.norm(total)
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        for noise in (None, LocalDepolarizing.uniform(n, 0.05)):
            noisy = circ.with_uniform_noise(noise)
            assert _rotation_step(noisy, psi) == 1
            assert_fold_matches_dense(noisy, theta, psi)

    def test_broken_symmetries_fold_no_rotation(self, rng):
        n = 6
        tfim, plus = hva_tfim(n, 3), plus_state_vector(n)
        uniform = LocalDepolarizing.uniform(n, 0.05)
        cases = [
            (tfim.with_uniform_noise(LocalDepolarizing(tuple(rng.uniform(0, 0.2, n)))), plus),
            (ring_with_one_bond(n, 1.5).with_uniform_noise(uniform), plus),
            (tfim.with_uniform_noise(uniform), random_p_symmetric_vector(2**n, rng)),
        ]
        for circ, psi in cases:
            assert _rotation_step(circ, psi) == n
            assert_fold_matches_dense(circ, rng.uniform(0, 2 * np.pi, circ.n_params), psi)
        assert _rotation_step(ring_with_one_bond(n, 1.0).with_uniform_noise(uniform), plus) == 1

    def test_non_hermitian_input_takes_the_dense_path(self, rng):
        # a P-symmetric matrix runs the dense pass: its assembly takes an input
        # just off Hermiticity and refuses one far off
        n, d = 3, 8
        circ = hva_tfim(n, 2).with_uniform_noise(LocalDepolarizing.uniform(n, 0.1))
        sigma = random_density_matrix(d, rng)
        rho = (sigma + sigma[::-1, ::-1]) / 2
        skew = random_p_symmetric(d, rng)
        skew = skew - dag(skew)
        skew /= np.max(np.abs(skew - dag(skew)))  # P-symmetric, deviates from Hermiticity by 1
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        mixed = rho + 1.2 * TAU_HERM * skew
        expected = qfim_mixed(*evolve_with_derivatives(circ, theta, mixed)).matrix
        np.testing.assert_array_equal(qfim_of_circuit(circ, theta, mixed).matrix, expected)
        with pytest.raises(NotHermitianError):
            qfim_of_circuit(circ, theta, rho + 1e-3 * skew)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_density_entry_is_the_dense_reference(self, rng, monkeypatch, n):
        # a vector with P psi = +-psi runs the folded pass, and its psi psi† the
        # dense pass, bit for bit: the two agree to roundoff
        d = 2**n
        ghz = np.zeros(d, dtype=complex)
        ghz[0], ghz[-1] = 1 / np.sqrt(2), -1 / np.sqrt(2)  # P psi = -psi
        sym = random_p_symmetric_vector(d, rng)
        entered, folded = [], circuits._folded_sectors
        monkeypatch.setattr(qfimlab.qfim, "_folded_sectors", lambda *a: entered.append(a[2].shape) or folded(*a))
        uniform, per_qubit = LocalDepolarizing.uniform(n, 0.05), LocalDepolarizing(tuple(rng.uniform(0, 0.2, n)))
        for noise in (uniform, per_qubit):
            circ = hva_tfim(n, 3).with_uniform_noise(noise)
            theta = rng.uniform(0, 2 * np.pi, circ.n_params)
            # a random P-symmetric vector turns with no rotation, except at n = 2,
            # where P-symmetry makes it symmetric under the swap R too
            for psi, g in ((plus_state_vector(n), 1), (ghz, 1), (sym, 1 if n == 2 else n)):
                rho = np.outer(psi, psi.conj())
                assert parity_folds(circ, psi) and not parity_folds(circ, rho)
                assert _rotation_step(circ, psi) == (g if noise is uniform else n)
                entered.clear()
                got, dense = qfim_of_circuit(circ, theta, psi), qfim_of_circuit(circ, theta, rho)
                assert entered == [(d,)]
                expected = qfim_mixed(*evolve_with_derivatives(circ, theta, rho))
                np.testing.assert_array_equal(dense.matrix, expected.matrix)
                np.testing.assert_array_equal(dense.eigenvalues, expected.eigenvalues)
                # the floor covers the GHZ state at n = 2, whose QFIM is zero up to roundoff
                scale = max(float(np.max(np.abs(dense.matrix))), TAU_RANK_ABS)
                assert np.max(np.abs(got.matrix - dense.matrix)) <= 1e-12 * scale
                assert got.rank == dense.rank

    def test_vector_without_parity_takes_the_dense_path(self, rng, monkeypatch):
        n, d = 4, 16
        circ = hva_tfim(n, 2).with_uniform_noise(LocalDepolarizing.uniform(n, 0.05))
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        monkeypatch.setattr(qfimlab.qfim, "_folded_sectors", lambda *a: pytest.fail("the folded pass ran"))
        random = rng.normal(size=d) + 1j * rng.normal(size=d)
        random /= np.linalg.norm(random)
        near = (random + random[::-1]) / np.linalg.norm(random + random[::-1])
        near[3] = np.nextafter(near[3].real, np.inf) + 1j * near[3].imag  # one ulp off P-symmetry
        for psi in (random, near):
            assert not parity_folds(circ, psi)
            out, derivs = evolve_with_derivatives(circ, theta, np.outer(psi, psi.conj()))
            expected = qfim_mixed(out, derivs).matrix
            got = qfim_of_circuit(circ, theta, psi).matrix
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
            with pytest.raises(ValueError, match="parity"):
                parity_folded_sectors(circ, theta, psi)

    def test_product_term_off_parity_by_one_ulp_takes_the_dense_path(self, rng, monkeypatch):
        # a product term commutes with X only when it does exactly
        n = 4
        a = np.array([[np.nextafter(0.5, 1.0), 1.0], [1.0, 0.5]], dtype=complex)
        kernels = (hva_tfim(n, 1).kernels[0], ProductKernel(a, n))
        circ = NoisyCircuit(n, (0, 1) * 2, kernels).with_uniform_noise(LocalDepolarizing.uniform(n, 0.05))
        assert not circ.kernels[1].parity_symmetric
        monkeypatch.setattr(qfimlab.qfim, "_folded_sectors", lambda *a: pytest.fail("the folded pass ran"))
        psi, theta = plus_state_vector(n), rng.uniform(0, 2 * np.pi, circ.n_params)
        assert not parity_folds(circ, psi)
        expected = qfim_mixed(*evolve_with_derivatives(circ, theta, np.outer(psi, psi.conj()))).matrix
        np.testing.assert_array_equal(qfim_of_circuit(circ, theta, psi).matrix, expected)

    def test_vector_turned_by_i_keeps_every_rotation(self, rng):
        # psi[R x] = i psi[x] and P psi = -psi leave psi psi† invariant under R: the
        # vector keeps g = 1, since a product by i is exact (the entries of psi psi†
        # need not turn exactly, as each is rounded once)
        n, d = 4, 16
        psi = np.zeros(d, dtype=complex)
        for x, w in zip((0b0001, 0b0011), rng.normal(size=2) + 1j * rng.normal(size=2)):
            for _ in range(4):
                psi[x], psi[x ^ (d - 1)] = w, -w
                x, w = int(_rotate(np.array(x), 1, n)), 1j * w
        psi /= np.linalg.norm(psi)
        np.testing.assert_array_equal(psi[_rotate(np.arange(d), 1, n)], 1j * psi)
        circ = hva_tfim(n, 3).with_uniform_noise(LocalDepolarizing.uniform(n, 0.05))
        assert parity_folds(circ, psi)
        assert _rotation_step(circ, psi) == 1
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        got = sector_rows(parity_folded_sectors(circ, theta, psi))
        out, derivs = evolve_with_derivatives(circ, theta, np.outer(psi, psi.conj()))
        assert np.max(np.abs(got - dense_sector_rows(np.stack([out, *derivs]), n, 1))) <= 1e-13
        expected = qfim_mixed(out, derivs).matrix
        got = qfim_of_circuit(circ, theta, psi).matrix
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_spectrum_points_share_one_set_of_fold_tables(self, monkeypatch):
        # the index maps and Walsh factors depend on (n, g) alone: three noisy
        # points build them once, and give the blocks of a run that rebuilds them
        config = parse_config(
            {
                "experiment": "spectrum",
                "circuit": {"name": "hva_tfim", "n": 4, "L": 2},
                "noise": {"model": "local_depolarizing", "p": 0.0},
                "sweep": {"p": [1e-3, 0.02, 0.3]},
            }
        )

        def run(clear):
            seen = []

            def folded(*args):
                if clear:
                    _fold_tables.cache_clear()
                blocks = circuits._folded_sectors(*args)
                seen.append([b.copy() for b in blocks])
                return blocks

            monkeypatch.setattr(qfimlab.qfim, "_folded_sectors", folded)
            return RUNNERS["spectrum"](config), seen

        _fold_tables.cache_clear()
        text, shared = run(clear=False)
        info = _fold_tables.cache_info()
        assert (info.misses, info.hits, len(shared)) == (1, 2, 3)
        again, rebuilt = run(clear=True)
        assert again == text
        for got, want in zip(shared, rebuilt):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


class TestSectors:
    """Blocks of the rotation x parity group ``G = <R^g> x <P>`` that the folded QFIM uses."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_blocks_keep_the_spectrum_of_an_invariant_matrix(self, rng, n):
        d = 2**n
        for g in sorted({1, 2, n} & {g for g in range(1, n + 1) if n % g == 0}):
            # the average of a random Hermitian matrix over G commutes with G
            a = random_hermitian(d, rng)
            total = sum(turned(a, t, n) for t in range(0, n, g))
            mat = (total + total[::-1, ::-1]) / (2 * n // g)
            sectors = _Sectors(n, g)
            x = mat[sectors.reps[:, None, None], sectors.act].reshape(1, -1)
            blocks = sector_blocks(sectors, x)
            assert sum(len(b[0]) for b in blocks) == d
            for b in blocks:
                assert np.max(np.abs(b[0] - dag(b[0]))) <= 1e-12
            spectra = np.sort(np.concatenate([np.linalg.eigvalsh(b[0]) for b in blocks]))
            assert np.max(np.abs(spectra - np.linalg.eigvalsh(mat))) <= 1e-12

    @pytest.mark.parametrize("n, g", [(3, 3), (4, 1), (4, 2), (5, 1), (6, 1), (6, 3)])
    def test_blocks_are_the_matrix_in_the_symmetry_adapted_basis(self, rng, n, g):
        # |r, chi> = sum_u conj(chi(u)) |u r> / sqrt(|G| |S_r|), u = P^s R^(g t),
        # chi(u) = (-1)^(c s) exp(2 pi i q t / (n/g)), built here from the bits
        d, count = 2**n, n // g

        def image(x, s, t):
            bits = [(x >> (n - 1 - q)) & 1 for q in range(n)]
            moved = [bits[(q - g * t) % n] for q in range(n)]
            return sum(b << (n - 1 - q) for q, b in enumerate(moved)) ^ (s * (d - 1))

        group = [(s, t) for s in range(2) for t in range(count)]
        perms = [np.array([image(x, s, t) for x in range(d)]) for s, t in group]
        reps = sorted({min(p[x] for p in perms) for x in range(d)})
        a = random_hermitian(d, rng)
        mat = np.zeros((d, d), dtype=complex)
        for p in perms:
            mat[np.ix_(p, p)] += a / len(group)
        sectors = []
        for c, q in ((c, q) for c in range(2) for q in range(count)):
            chi = np.array([(-1) ** (c * s) * np.exp(2j * np.pi * q * t / count) for s, t in group])
            cols = []
            for r in reps:
                stab = [u for u, p in enumerate(perms) if p[r] == r]
                if np.allclose(chi[stab], 1.0):
                    v = np.zeros(d, dtype=complex)
                    for u, p in enumerate(perms):
                        v[p[r]] += chi[u].conj() / np.sqrt(len(group) * len(stab))
                    cols.append(v)
            if cols:
                sectors.append(np.stack(cols, axis=1))
        v = np.concatenate(sectors, axis=1)
        assert v.shape == (d, d)
        assert np.max(np.abs(dag(v) @ v - np.eye(d))) <= 1e-14
        got = _Sectors(n, g)
        np.testing.assert_array_equal(got.reps, reps)
        x = mat[got.reps[:, None, None], got.act].reshape(1, -1)
        blocks = sector_blocks(got, x)
        assert [len(b[0]) for b in blocks] == [vc.shape[1] for vc in sectors]
        for b, vc in zip(blocks, sectors):
            assert np.max(np.abs(b[0] - dag(vc) @ mat @ vc)) <= 1e-14

    @pytest.mark.parametrize("n, x", [(2, 0b01), (4, 0b0101), (6, 0b010101)])
    def test_states_that_p_times_a_rotation_fixes(self, n, x):
        # R x is the complement of x, so P R fixes it; the projector onto x's
        # orbit then has trace 1 in the |G| / |S_x| = |orbit| sectors that keep x
        d, sectors = 2**n, _Sectors(n, 1)
        row = np.flatnonzero(sectors.reps == x)[0]
        assert np.any(sectors.act[row, n:] == x)
        orbit = np.unique(sectors.act[row])
        mat = np.zeros((d, d), dtype=complex)
        mat[orbit, orbit] = 1.0
        x_in = mat[sectors.reps[:, None, None], sectors.act].reshape(1, -1)
        traces = [np.trace(b[0]).real for b in sector_blocks(sectors, x_in)]
        assert sum(t > 0.5 for t in traces) == len(orbit) < 2 * n
        assert np.allclose(sorted(traces)[-len(orbit):], 1.0, atol=1e-14)
        assert sum(traces) == pytest.approx(len(orbit), abs=1e-13)

    def test_sector_blocks_fit_in_one_buffer_row(self):
        # the read-out writes each row's sector blocks into that row's own slot; the
        # slot, orbit count and sector sizes that fold_plan counts are those of the tables
        for n in range(1, 11):
            for g in (g for g in range(1, n + 1) if n % g == 0):
                tables = _FoldTables(n, g)
                assert tables.stride == max(r * c for r, c in tables.shapes), (n, g)
                assert tables.sectors.block_size <= tables.stride, (n, g)
                assert fold_plan(n, g) == (tables.stride, len(tables.sectors.reps), tables.sectors.sizes), (n, g)

    def test_at_no_rotation_the_sectors_are_the_two_parity_blocks(self, rng):
        n, d, h = 4, 16, 8
        mat = random_p_symmetric(d, rng)
        sectors = _Sectors(n, n)
        x = mat[sectors.reps[:, None, None], sectors.act].reshape(1, -1)
        even, odd = sector_blocks(sectors, x)
        np.testing.assert_array_equal(sectors.reps, np.arange(h))
        np.testing.assert_allclose(even[0], mat[:h, :h] + mat[:h, h:][:, ::-1], atol=1e-14)
        np.testing.assert_allclose(odd[0], mat[:h, :h] - mat[:h, h:][:, ::-1], atol=1e-14)

    def test_folded_qfim_holds_less_than_the_top_rows(self, rng):
        # the (M + 1, d/2, d) top rows are never formed: the pass keeps rotation
        # orbits and the assembly reads its blocks straight from them
        circ = hva_tfim(8, 5).with_uniform_noise(LocalDepolarizing.uniform(8, 0.05))
        m, d = circ.n_params, circ.dim
        theta, psi = rng.uniform(0, 2 * np.pi, m), plus_state_vector(8)
        assert _rotation_step(circ, psi) == 1
        qfim_of_circuit(circ, theta, psi)
        tracemalloc.start()
        try:
            qfim_of_circuit(circ, theta, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (m + 1) * (d // 2) * d

    def test_folded_qfim_checks_its_input_once(self, rng, monkeypatch):
        circ = hva_tfim(4, 2).with_uniform_noise(LocalDepolarizing.uniform(4, 0.05))
        calls = []
        monkeypatch.setattr(qfimlab.qfim, "parity_folds", lambda *a: calls.append(a[1].shape) or parity_folds(*a))
        qfim_of_circuit(circ, rng.uniform(0, 2 * np.pi, circ.n_params), plus_state_vector(4))
        assert calls == [(16,)]
        # a density matrix runs the dense pass, and a vector that does not fold
        # is not checked again as its psi psi†
        calls.clear()
        qfim_of_circuit(circ, rng.uniform(0, 2 * np.pi, circ.n_params), plus_state_density(4))
        qfim_of_circuit(circ, rng.uniform(0, 2 * np.pi, circ.n_params), np.eye(16)[0])
        assert calls == [(16, 16), (16,)]

    def test_rotation_step_forms_no_dense_copy(self):
        n = 10
        circ = hva_tfim(n, 1).with_uniform_noise(LocalDepolarizing.uniform(n, 0.05))
        tracemalloc.start()
        try:
            assert _rotation_step(circ, plus_state_vector(n)) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * circ.dim**2 / 8  # an eighth of one d x d complex matrix

    def test_folded_qfim_from_a_vector_forms_no_dense_matrix(self, rng):
        # psi psi† alone would take 16 MiB at n = 10; the fold tables are built
        # by a first call, as every later point of a spectrum finds them
        n = 10
        circ = hva_tfim(n, 1).with_uniform_noise(LocalDepolarizing.uniform(n, 0.05))
        theta, psi = rng.uniform(0, 2 * np.pi, circ.n_params), plus_state_vector(n)
        qfim_of_circuit(circ, theta, psi)
        tracemalloc.start()
        try:
            qfim_of_circuit(circ, theta, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n, layers", [(8, 10), (10, 20)])
    def test_read_out_holds_no_more_than_the_pass(self, rng, n, layers):
        # the rows live in one buffer, the pass works through a scratch of whole rows,
        # the read-out writes each row's sector blocks, one real per entry, into its
        # own slot through one row's pairs and sums, and the assembly makes one row
        # group complex at a time
        circ = hva_tfim(n, layers).with_uniform_noise(LocalDepolarizing.uniform(n, 1e-3))
        theta, psi = rng.uniform(0, 2 * np.pi, circ.n_params), plus_state_vector(n)
        qfim_of_circuit(circ, theta, psi)
        tracemalloc.start()
        try:
            qfim_of_circuit(circ, theta, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tables, rows = _fold_tables(n, 1), circ.n_params + 1
        buffer, scratch, readout, _ = fold_bytes(n, 1, rows)
        block = rows * max(tables.sectors.sizes) ** 2 * 16
        assert peak <= buffer + scratch + readout + block

    def test_pass_and_read_out_hold_one_buffer(self, rng):
        # at n = 10 the scratch is smaller than the buffer, and neither the pass nor
        # the read-out holds a second array of the buffer's size
        n = 10
        circ = hva_tfim(n, 20).with_uniform_noise(LocalDepolarizing.uniform(n, 1e-3))
        theta, psi = rng.uniform(0, 2 * np.pi, circ.n_params), plus_state_vector(n)
        _folded_sectors(circ, theta, psi)
        buffer, scratch, _, _ = fold_bytes(n, 1, circ.n_params + 1)
        assert scratch < buffer
        tracemalloc.start()
        try:
            stacks = _folded_sectors(circ, theta, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * buffer
        # every sector stack is a view of the one buffer
        assert all(s.base is stacks[0].base for s in stacks) and stacks[0].base.nbytes == buffer

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("scratch_rows", [1, 3])
    def test_scratch_groups_give_the_one_group_stacks_bit_for_bit(self, rng, monkeypatch, n, scratch_rows):
        tfim, psi = hva_tfim(n, 3), plus_state_vector(n)
        theta = rng.uniform(0, 2 * np.pi, tfim.n_params)
        rows = tfim.n_params + 1
        for noise, g in ((LocalDepolarizing.uniform(n, 0.02), 1), (LocalDepolarizing(tuple(rng.uniform(0, 0.1, n))), n)):
            circ = tfim.with_uniform_noise(noise)
            assert _rotation_step(circ, psi) == g
            tables = _fold_tables(n, g)
            buffer, scratch, _, _ = fold_bytes(n, g, rows)
            assert scratch == buffer  # every row in one group
            whole = _folded_sectors(circ, theta, psi)
            monkeypatch.setattr(circuits, "SCRATCH_BYTES", scratch_rows * 8 * tables.stride)
            assert fold_bytes(n, g, rows)[1] == scratch_rows * 8 * tables.stride
            grouped = _folded_sectors(circ, theta, psi)
            monkeypatch.undo()
            assert len(grouped) == len(whole)
            for a, b in zip(grouped, whole):
                np.testing.assert_array_equal(a, b)

    def test_folded_qfim_does_not_import_numpy_ma(self):
        # numpy 2.4's np.unique imports numpy.ma unless it returns an inverse, ~10 ms
        code = (
            "import sys\n"
            "from qfimlab.channels import LocalDepolarizing\n"
            "from qfimlab.circuits import hva_tfim, parity_folds, plus_state_vector\n"
            "from qfimlab.qfim import qfim_of_circuit\n"
            "circ = hva_tfim(4, 2).with_uniform_noise(LocalDepolarizing.uniform(4, 0.05))\n"
            "psi = plus_state_vector(4)\n"
            "assert parity_folds(circ, psi)\n"
            "qfim_of_circuit(circ, [0.1, 0.2, 0.3, 0.4], psi)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(qfimlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
        ).stdout
        assert out.split() == ["False"]


def assert_rows_close(got, expected, rel):
    for g, e in zip(got, expected):
        assert np.max(np.abs(g - e)) <= rel * np.max(np.abs(e))


class TestSlotSchedule:
    """Every pass applies the circuit's channel in all M+1 slots.

    The reference is the same channel wrapped in a ``CompositeChannel``,
    which the folded pass does not take.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_merged_pass_matches_unmerged(self, rng, n):
        d = 2**n
        tfim = hva_tfim(n, 3)
        theta = rng.uniform(0, 2 * np.pi, tfim.n_params)
        plus, mixed = plus_state_vector(n), random_density_matrix(d, rng)
        for p in (1e-5, 1e-2, 0.3):
            for ch in (LocalDepolarizing.uniform(n, p), LocalDepolarizing(tuple(rng.uniform(0, p, n)))):
                circ = tfim.with_uniform_noise(ch)
                ref = tfim.with_uniform_noise(CompositeChannel([ch]))
                assert parity_folds(circ, plus) and not parity_folds(ref, plus)
                # folded path on |+>^n against the dense pass of the reference
                ref_out, ref_derivs = evolve_with_derivatives(ref, theta, np.outer(plus, plus.conj()))
                dense = dense_sector_rows(np.stack([ref_out, *ref_derivs]), n, _rotation_step(circ, plus))
                assert_rows_close(sector_rows(parity_folded_sectors(circ, theta, plus)), dense, 1e-12)
                expected = qfim_mixed(ref_out, ref_derivs).matrix
                got = qfim_of_circuit(circ, theta, plus).matrix
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
                # dense path on an input that is not P-symmetric
                out, derivs = evolve_with_derivatives(circ, theta, mixed)
                ref_out, ref_derivs = evolve_with_derivatives(ref, theta, mixed)
                assert_rows_close([out, *derivs], [ref_out, *ref_derivs], 1e-12)
                assert_rows_close([evolve(circ, theta, mixed)], [ref_out], 1e-12)
                expected = qfim_mixed(ref_out, ref_derivs).matrix
                got = qfim_mixed(out, derivs).matrix
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n, layers", [(2, 1), (4, 3)])
    def test_every_pass_runs_the_channel_in_every_slot(self, rng, monkeypatch, n, layers):
        circ = hva_tfim(n, layers).with_uniform_noise(LocalDepolarizing.uniform(n, 0.01))
        theta, mixed = rng.uniform(0, 2 * np.pi, circ.n_params), random_density_matrix(2**n, rng)
        calls = []
        apply, depolarize = LocalDepolarizing._apply_batch, _WalshFrames.depolarize
        monkeypatch.setattr(LocalDepolarizing, "_apply_batch", lambda ch, *a: calls.append(ch) or apply(ch, *a))
        monkeypatch.setattr(_WalshFrames, "depolarize", lambda f, k, ch: calls.append(ch) or depolarize(f, k, ch))
        plus = plus_state_vector(n)
        for run, rho in ((evolve, mixed), (evolve_with_derivatives, mixed), (parity_folded_sectors, plus)):
            calls.clear()
            run(circ, theta, rho)
            assert calls == [circ.noise] * (2 * layers + 1)


def toy_noise_channels():
    """One channel of every noise model the trajectory experiment accepts."""
    pauli = PauliChannel([
        (PauliString.identity(1), 0.8),
        (PauliString.single(1, 0, "Y"), 0.15),
        (PauliString.single(1, 0, "Z"), 0.05),
    ])
    local = LocalDepolarizing.uniform(1, 0.05)
    return [None, bit_flip(0.1), GlobalDepolarizing(1, 0.07), local, pauli,
            CompositeChannel([bit_flip(0.1), local])]


class TestBatchAxis:
    """A ``(K, M)`` theta runs K states as rows of one stack; each row must
    equal, bit for bit, the single-state call it replaces."""

    @pytest.mark.parametrize("noise", toy_noise_channels())
    def test_batched_evolve_equals_single_calls_on_the_toy_model(self, rng, noise):
        base, rho = toy_model()
        circ = base.with_uniform_noise(noise)
        thetas = rng.uniform(-np.pi, np.pi, (7, circ.n_params))
        got = evolve(circ, thetas, rho)
        assert got.shape == (7, 2, 2)
        np.testing.assert_array_equal(got, np.stack([evolve(circ, t, rho) for t in thetas]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_evolve_equals_single_calls_on_dense_and_diagonal_gates(self, rng, n):
        d = 2**n
        gens = [random_hermitian(d, rng, traceless=True), hva_tfim_generators(n)[0]]
        circ = build_circuit(n, gens, [0, 1, 1, 0])
        assert [type(k) for k in circ.kernels] == [DenseKernel, DiagonalKernel]
        pauli = PauliChannel([(PauliString.identity(n), 0.7), (PauliString.single(n, 1, "Y"), 0.3)])
        rho = random_density_matrix(d, rng)
        thetas = rng.uniform(-np.pi, np.pi, (5, circ.n_params))
        for noise in (None, LocalDepolarizing(tuple(rng.uniform(0, 0.2, n))), pauli):
            noisy = circ.with_uniform_noise(noise)
            expected = np.stack([evolve(noisy, t, rho) for t in thetas])
            np.testing.assert_array_equal(evolve(noisy, thetas, rho), expected)

    def test_batched_evolve_runs_the_ising_ansatz(self, rng):
        # one angle per row through the product kernel too, against dense unitaries
        circ = hva_tfim(4, 2)
        gens = hva_tfim_generators(4)
        rho = random_density_matrix(16, rng)
        thetas = rng.uniform(-np.pi, np.pi, (5, circ.n_params))
        for noise in (None, LocalDepolarizing(tuple(rng.uniform(0, 0.2, 4)))):
            noisy = circ.with_uniform_noise(noise)
            got = evolve(noisy, thetas, rho)
            np.testing.assert_array_equal(got, np.stack([evolve(noisy, t, rho) for t in thetas]))
            apply = (lambda m: m) if noise is None else noise.apply
            for row, theta in zip(got, thetas):
                want = apply(rho)
                for m, angle in enumerate(theta):
                    u = herm_exp(gens[circ.layers[m]], angle)
                    want = apply(u @ want @ dag(u))
                assert np.max(np.abs(row - want)) <= 1e-12

    def test_batched_evolve_returns_a_c_contiguous_stack(self, rng):
        # a kernel that merges axes by reshape would otherwise work on a silent copy
        toy, toy_rho = toy_model()
        gens = [random_hermitian(4, rng, traceless=True), hva_tfim_generators(2)[0]]
        circ = build_circuit(2, gens, [0, 1, 0])
        for c, rho in ((toy, toy_rho), (circ, random_density_matrix(4, rng))):
            got = evolve(c, rng.uniform(-np.pi, np.pi, (3, c.n_params)), rho)
            assert got.shape == (3, *rho.shape)
            assert got.flags.c_contiguous

    def test_gate_step_takes_one_angle_per_row(self, rng):
        circ, _ = toy_model()
        stack = np.stack([random_density_matrix(2, rng) for _ in range(6)])
        before = stack.copy()
        angles = rng.uniform(-np.pi, np.pi, 6)
        for m in range(circ.n_params):
            expected = np.stack([circ.gate_step(m, a, mat) for a, mat in zip(angles, stack)])
            np.testing.assert_array_equal(circ.gate_step(m, angles, stack), expected)
        np.testing.assert_array_equal(stack, before)

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 64])
    def test_dense_conjugate_in_the_eigenbasis_matches_the_unitary(self, rng, d):
        # per-row angles, one row, and a scalar shared by a stack, against u rho u†
        kernel = gate_kernel(random_hermitian(d, rng, traceless=True))
        assert isinstance(kernel, DenseKernel)
        hermitian = np.stack([random_density_matrix(d, rng) for _ in range(3)])
        for mats in (hermitian, random_stack(3, d, rng)):
            angles = rng.uniform(-np.pi, np.pi, 3)
            cases = ((mats, angles), (mats[:1], angles[:1]), (mats[:1], angles[0]), (mats, angles[0]))
            for rows, theta in cases:
                u = herm_exp_from_eig(kernel.eig, theta)
                want = u @ rows @ u.conj().swapaxes(-1, -2)
                got = rows.copy()
                kernel.conjugate(got, theta, np.empty_like(got))
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            # a scalar shared by the stack gives each row its single call
            got = mats.copy()
            kernel.conjugate(got, angles[0], np.empty_like(got))
            for r, mat in enumerate(mats):
                one = mat[None].copy()
                kernel.conjugate(one, angles[0], np.empty_like(one))
                np.testing.assert_array_equal(got[r], one[0])

    def test_bloch_coords_and_purity_of_a_stack_match_each_row(self, rng):
        stack = np.stack([random_density_matrix(2, rng) for _ in range(5)])
        coords = bloch_coords(stack)
        purities = purity(stack)
        # an array of its own, not a strided view that keeps a complex product alive
        assert purities.dtype == np.float64 and purities.flags.owndata and purities.flags.c_contiguous
        for r, mat in enumerate(stack):
            assert bloch_coords(mat) == tuple(c[r] for c in coords)
            assert purity(mat) == purities[r]
        big = np.stack([random_density_matrix(8, rng) for _ in range(3)])
        assert purity(big).tolist() == [purity(mat) for mat in big]

    def test_malformed_batches_are_rejected(self, rng):
        kernel = hva_tfim(3, 1).kernels[1]
        assert isinstance(kernel, ProductKernel)
        stack = random_stack(2, 8, rng)
        angles = np.array([0.1, 0.2])
        got = stack.copy()
        kernel.conjugate(got, angles, np.empty_like(got))
        for r, angle in enumerate(angles):
            one = stack[r : r + 1].copy()
            kernel.conjugate(one, angle, np.empty_like(one))
            np.testing.assert_array_equal(got[r], one[0])
        circ, rho = toy_model()
        for theta in (np.zeros((3, 5)), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="theta"):
                evolve(circ, theta, rho)
        with pytest.raises(ValueError, match="angle"):
            circ.gate_step(0, np.zeros((2, 1)), np.stack([rho, rho]))


def loop_qfim(vecs, derivs, weights):
    """The double loop the Gram kernel replaced."""
    in_basis = [dag(vecs) @ dv @ vecs for dv in derivs]
    m = len(derivs)
    f = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            f[i, j] = f[j, i] = float(np.sum(weights * (in_basis[i] * np.conj(in_basis[j])).real))
    return f


class TestGramQfim:
    def test_mixed_matches_double_loop(self, rng):
        circ = hva_tfim(3, 3).with_uniform_noise(LocalDepolarizing.uniform(3, 0.02))
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        out, derivs = evolve_with_derivatives(circ, theta, random_density_matrix(8, rng))
        evals, vecs = np.linalg.eigh((out + dag(out)) / 2)
        pair = evals[:, None] + evals[None, :]
        weights = np.where(pair > 1e-12, 2.0 / np.where(pair > 1e-12, pair, 1.0), 0.0)
        expected = loop_qfim(vecs, derivs, weights)
        got = qfim_mixed(out, derivs).matrix
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_closed_form_matches_double_loop(self, rng):
        circ = hva_tfim(2, 2)
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        out, derivs = evolve_with_derivatives(circ, theta, np.outer(psi, psi))
        p, m_gates = 0.1, circ.n_params
        x = (1 - p) ** (m_gates + 1)
        evals, vecs = np.linalg.eigh((out + dag(out)) / 2)
        denom = x * (evals[:, None] + evals[None, :]) + 2 * (1 - x) / 4
        expected = loop_qfim(vecs, derivs, 2 * x * x / denom)
        got = noisy_qfim_closed_form_global_depol(out, derivs, p, m_gates)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        np.testing.assert_array_equal(got, got.T)

    def test_dense_block_changes_basis_one_row_at_a_time(self, rng):
        # the (M + 1, d, d) block is the only stack held: its rows change basis in
        # groups of d^2 // k^2 = 1, where a product over the stack would add M more
        circ = hva_tfim(6, 10).with_uniform_noise(GlobalDepolarizing(6, 0.01))
        m, d = circ.n_params, circ.dim
        theta = rng.uniform(0, 2 * np.pi, m)
        out, derivs = evolve_with_derivatives(circ, theta, plus_state_density(6))
        tracemalloc.start()
        try:
            qfim_mixed(out, derivs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (m + 8) * 16 * d * d
