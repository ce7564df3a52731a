"""Circuit evolution, analytic derivatives, built-in models, linear loss."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import check_density_matrix, herm_exp, identity_channel

from qfimlab.channels import GlobalDepolarizing, LocalDepolarizing, bit_flip
from qfimlab.circuits import (
    TOY_GENERATORS,
    TOY_THETAS,
    DenseKernel,
    DiagonalKernel,
    NoisyCircuit,
    ProductKernel,
    bloch_coords,
    build_circuit,
    derivative_fd,
    evolve,
    evolve_with_derivatives,
    hva_parity_sector_generators,
    hva_tfim,
    hva_tfim_generators,
    loss_linear,
    plus_state_vector,
    statevector_derivatives,
    toy_model,
)
from qfimlab.exceptions import DimensionMismatchError
from qfimlab.linalg import KET_PLUS, X, Y, Z, dag, kron
from qfimlab.rand import random_density_matrix, random_hermitian


def recorded(step, calls):
    """``step``, appending itself to ``calls`` on every call."""

    def wrapper(*args):
        calls.append(step)
        return step(*args)

    return wrapper


def random_noisy_circuit(rng, n_max=3):
    n = int(rng.integers(1, n_max + 1))
    gens = [random_hermitian(2**n, rng, traceless=True) for _ in range(2)]
    m = int(rng.integers(2, 6))
    circ = build_circuit(n, gens, list(rng.integers(0, 2, m)))
    p = float(rng.uniform(0.0, 0.25))
    slot = LocalDepolarizing.uniform(n, p)
    return circ.with_uniform_noise(slot)


class TestBuildCircuit:
    def test_validates_tracelessness(self):
        with pytest.raises(ValueError, match="traceless"):
            build_circuit(1, [np.eye(2, dtype=complex)], [0])

    def test_validates_noise_qubit_count(self):
        with pytest.raises(DimensionMismatchError):
            build_circuit(1, [Z], [0]).with_uniform_noise(bit_flip(0.1, 2))

    def test_validates_layer_indices_on_every_construction(self):
        circ = hva_tfim(3, 1)
        for layers in ((0, 2), (-1,)):
            with pytest.raises(ValueError, match="layer indices"):
                NoisyCircuit(3, layers, circ.kernels)
            with pytest.raises(ValueError, match="layer indices"):
                replace(circ, layers=layers)
        with pytest.raises(ValueError, match="layer indices"):
            build_circuit(1, [Z], [1])


class TestEvolve:
    def test_zero_angles_identity_noise(self, rng):
        circ, rho = toy_model()
        out = evolve(circ, np.zeros(4), rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_toy_input_is_bit_flip_fixed_point(self):
        # at theta1 every gate is the identity, and the input state is
        # invariant under X conjugation, so noise anywhere changes nothing
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.37))
        out = evolve(noisy, TOY_THETAS["theta1"], rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_z_rotation_by_pi_flips_plus_to_minus(self):
        # hand product: Rz(pi) maps the |+> component onto |->
        circ, rho = toy_model()
        out = evolve(circ, np.array([np.pi, 0, 0, 0]), rho)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        expected = 0.9 * np.outer(minus, minus.conj()) + 0.1 * np.eye(2) / 2
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_identity_slots_bit_for_bit(self):
        circ, rho = toy_model()
        theta = TOY_THETAS["theta3"]
        bare = evolve(circ, theta, rho)
        with_none = evolve(circ.with_uniform_noise(None), theta, rho)
        with_identity = evolve(circ.with_uniform_noise(identity_channel(1)), theta, rho)
        np.testing.assert_array_equal(bare, with_none)
        np.testing.assert_array_equal(bare, with_identity)

    def test_output_is_density_matrix(self, rng):
        circ = random_noisy_circuit(rng)
        rho = random_density_matrix(circ.dim, rng)
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        check_density_matrix(evolve(circ, theta, rho))

    def test_length_mismatch(self):
        circ, rho = toy_model()
        with pytest.raises(ValueError, match="theta"):
            evolve(circ, np.zeros(3), rho)


class TestDerivative:
    def test_x_generator_vanishes_on_x_axis_state(self):
        # at theta1 the state reaching every X gate is an R_x fixed point
        circ, rho = toy_model()
        d = evolve_with_derivatives(circ, TOY_THETAS["theta1"], rho)[1][1]
        np.testing.assert_allclose(d, np.zeros((2, 2)), atol=1e-14)

    def test_single_z_rotation_on_plus(self):
        # -i[Z/2, |+><+|] has off-diagonal entries -i/2, +i/2
        circ = build_circuit(1, [Z / 2], [0])
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        d = evolve_with_derivatives(circ, np.zeros(1), plus)[1][0]
        expected = np.array([[0, -0.5j], [0.5j, 0]])
        np.testing.assert_allclose(d, expected, atol=1e-14)

    def test_commuting_generator_gives_zero(self):
        # Z rotation of a Z-diagonal state
        circ = build_circuit(1, [Z / 2], [0])
        rho = np.diag([0.8, 0.2]).astype(complex)
        np.testing.assert_allclose(evolve_with_derivatives(circ, np.array([0.3]), rho)[1][0], 0, atol=1e-14)

    def test_matches_central_difference(self, rng):
        worst = 0.0
        for _ in range(50):
            circ = random_noisy_circuit(rng)
            rho = random_density_matrix(circ.dim, rng)
            theta = rng.uniform(0, 2 * np.pi, circ.n_params)
            i = int(rng.integers(0, circ.n_params))
            d = evolve_with_derivatives(circ, theta, rho)[1][i]
            fd = derivative_fd(circ, theta, rho, i, 1e-5)
            worst = max(worst, float(np.max(np.abs(d - fd))))
        assert worst <= 1e-6

    def test_traceless_and_hermitian(self, rng):
        circ = random_noisy_circuit(rng)
        rho = random_density_matrix(circ.dim, rng)
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        _, derivs = evolve_with_derivatives(circ, theta, rho)
        for d in derivs:
            assert abs(np.trace(d)) <= 1e-10
            assert np.max(np.abs(d - d.conj().T)) <= 1e-12

    def test_fd_second_order_scaling(self, rng):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.1))
        theta = rng.uniform(0, 2 * np.pi, 4)
        d = evolve_with_derivatives(noisy, theta, rho)[1][2]
        err = {
            h: float(np.max(np.abs(derivative_fd(noisy, theta, rho, 2, h) - d)))
            for h in (1e-3, 1e-4)
        }
        ratio = err[1e-3] / err[1e-4]
        assert 50 < ratio < 200  # central difference is O(h^2)

    def test_fd_zero_at_fixed_point(self):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.2))
        fd = derivative_fd(noisy, TOY_THETAS["theta1"], rho, 1, 1e-5)
        assert np.max(np.abs(fd)) <= 1e-11


class TestToyModel:
    def test_input_spectrum(self):
        _, rho = toy_model()
        np.testing.assert_allclose(np.linalg.eigvalsh(rho), [0.05, 0.95], atol=1e-12)

    def test_four_layers_alternating(self):
        circ, _ = toy_model()
        assert circ.n_params == 4
        assert circ.layers == (0, 1, 0, 1)
        np.testing.assert_array_equal(TOY_GENERATORS[0], Z / 2)
        np.testing.assert_array_equal(TOY_GENERATORS[1], X / 2)
        assert [type(k) for k in circ.kernels] == [DiagonalKernel, DenseKernel]


class TestHvaTfim:
    def test_parameter_count(self):
        assert hva_tfim(4, 3).n_params == 6

    def test_two_qubit_coupling_doubles(self):
        h0, _ = hva_tfim_generators(2)
        np.testing.assert_allclose(h0, 2 * kron(Z, Z), atol=1e-14)

    def test_two_qubit_field_spectrum(self):
        _, h1 = hva_tfim_generators(2)
        np.testing.assert_allclose(np.linalg.eigvalsh(h1), [-2, 0, 0, 2], atol=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            hva_tfim(1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_declared_diagonal_equals_the_dense_generator_bit_for_bit(self, n):
        # n = 2 covers the doubled bond
        h = hva_tfim(n, 2).kernels[0].h
        want = np.diagonal(hva_tfim_generators(n)[0]).real
        assert h.dtype == want.dtype and h.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_declared_product_matches_the_dense_exponential(self, rng, n):
        kernel, h1 = hva_tfim(n, 1).kernels[1], hva_tfim_generators(n)[1]
        stack = random_density_matrix(2**n, rng)[None]
        for theta in (0.0, 0.61, -2.3):
            u = herm_exp(h1, theta)
            got = stack.copy()
            kernel.conjugate(got, theta, np.empty_like(got))
            assert np.max(np.abs(got[0] - u @ stack[0] @ dag(u))) <= 1e-12

    def test_build_forms_no_dense_generator(self):
        # 16 d^2 / 8 = 2 MiB at n = 10, an eighth of one dense generator
        hva_tfim(10, 20)
        tracemalloc.start()
        try:
            hva_tfim(10, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**10 / 8

    def test_sector_generators_herm_traceless(self):
        g0, g1 = hva_parity_sector_generators(4)
        assert g0.shape == (8, 8)
        assert abs(np.trace(g0)) < 1e-12 and abs(np.trace(g1)) < 1e-12
        assert np.max(np.abs(g0 - g0.conj().T)) < 1e-12


class TestLossLinear:
    def test_noiseless_limit(self, rng):
        circ, rho = toy_model()
        theta = rng.uniform(0, 2 * np.pi, 4)
        noisy = circ.with_uniform_noise(GlobalDepolarizing(1, 0.0))
        assert loss_linear(noisy, theta, rho, Z) == pytest.approx(
            loss_linear(circ, theta, rho, Z), abs=1e-14
        )

    def test_global_depol_flattening_exact(self, rng):
        circ, rho = toy_model()
        theta = rng.uniform(0, 2 * np.pi, 4)
        p = 0.13
        noisy = circ.with_uniform_noise(GlobalDepolarizing(1, p))
        l0 = loss_linear(circ, theta, rho, Z)
        l1 = loss_linear(noisy, theta, rho, Z)
        assert abs(l1 - (1 - p) ** 5 * l0) <= 1e-12

    def test_identity_observable(self, rng):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.4))
        theta = rng.uniform(0, 2 * np.pi, 4)
        assert loss_linear(noisy, theta, rho, np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_rejects_non_hermitian_observable(self):
        circ, rho = toy_model()
        with pytest.raises(Exception):
            loss_linear(circ, np.zeros(4), rho, np.array([[0, 1], [0, 0]], dtype=complex))


class TestBlochCoords:
    def test_maximally_mixed(self):
        assert bloch_coords(np.eye(2, dtype=complex) / 2) == pytest.approx((0, 0, 0))

    def test_plus_state(self):
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        assert bloch_coords(plus) == pytest.approx((1, 0, 0))

    def test_toy_input(self):
        _, rho = toy_model()
        x, y, z = bloch_coords(rho)
        assert (x, y, z) == pytest.approx((0.9, 0, 0), abs=1e-14)

    def test_norm_bound(self, rng):
        for _ in range(20):
            x, y, z = bloch_coords(random_density_matrix(2, rng))
            assert x * x + y * y + z * z <= 1 + 1e-9

    def test_dim_check(self):
        with pytest.raises(DimensionMismatchError):
            bloch_coords(np.eye(4, dtype=complex) / 4)

    @staticmethod
    def assert_traces_bit_for_bit(rho):
        """``bloch_coords(rho)`` equals ``Tr[rho P].real`` in value and in the sign of zeros."""
        for got, p in zip(bloch_coords(rho), (X, Y, Z)):
            want = np.trace(rho.reshape(-1, 2, 2) @ p, axis1=1, axis2=2).real
            got = np.atleast_1d(got)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_stacks_match_the_pauli_traces_bit_for_bit(self, rng):
        for k in (1, 7, 64):
            g = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
            self.assert_traces_bit_for_bit(g)
            self.assert_traces_bit_for_bit(g.real)
            self.assert_traces_bit_for_bit(g.real.astype(complex))
            self.assert_traces_bit_for_bit(np.stack([random_density_matrix(2, rng) for _ in range(k)]))

    def test_single_matrix_returns_floats_equal_to_the_traces(self, rng):
        rho = random_density_matrix(2, rng)
        coords = bloch_coords(rho)
        assert all(type(c) is float for c in coords)
        self.assert_traces_bit_for_bit(rho)

    def test_real_toy_input_and_trajectory_states(self):
        circuit, rho = toy_model()
        assert not np.signbit(bloch_coords(rho)[1])  # y is +0, printed as 0
        self.assert_traces_bit_for_bit(rho)
        noisy = circuit.with_uniform_noise(bit_flip(0.1, 1, qubit=0))
        ts = np.linspace(-1.0, 1.0, 21)
        for theta in TOY_THETAS.values():
            self.assert_traces_bit_for_bit(evolve(noisy, theta + ts[:, None], rho))


class TestStatevectorPath:
    def test_matches_density_evolution(self, rng):
        n = 2
        gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
        circ = build_circuit(n, gens, [0, 1, 0])
        theta = rng.uniform(0, 2 * np.pi, 3)
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1
        psi = statevector_derivatives(circ, theta, psi0)[0]
        rho = evolve(circ, theta, np.outer(psi0, psi0.conj()))
        np.testing.assert_allclose(np.outer(psi, psi.conj()), rho, atol=1e-12)

    def test_derivatives_match_density_derivatives(self, rng):
        circ = build_circuit(1, [Z / 2, X / 2], [0, 1])
        theta = rng.uniform(0, 2 * np.pi, 2)
        psi, dpsi = statevector_derivatives(circ, theta, KET_PLUS)
        for i in range(2):
            d_rho = evolve_with_derivatives(circ, theta, np.outer(KET_PLUS, KET_PLUS.conj()))[1][i]
            from_vec = np.outer(dpsi[i], psi.conj()) + np.outer(psi, dpsi[i].conj())
            np.testing.assert_allclose(from_vec, d_rho, atol=1e-12)

    @pytest.mark.parametrize("case", ["ising", "toy", "dense"])
    def test_batch_rows_equal_single_calls_bit_for_bit(self, rng, case):
        if case == "ising":
            circ, psi0 = hva_tfim(4, 3), plus_state_vector(4)
        elif case == "toy":
            circ, psi0 = toy_model()[0], KET_PLUS
        else:
            gens = [random_hermitian(8, rng, traceless=True) for _ in range(2)]
            circ, psi0 = build_circuit(3, gens, [0, 1, 1, 0]), plus_state_vector(3)
        thetas = rng.uniform(0, 2 * np.pi, (5, circ.n_params))
        states, derivs = statevector_derivatives(circ, thetas, psi0)
        assert states.shape == (5, circ.dim) and derivs.shape == (5, circ.n_params, circ.dim)
        for k, theta in enumerate(thetas):
            psi, dpsi = statevector_derivatives(circ, theta, psi0)
            np.testing.assert_array_equal(states[k], psi)
            np.testing.assert_array_equal(derivs[k], np.array(dpsi))

    @pytest.mark.parametrize(
        "n, layers, kinds, changes",
        [
            (5, (0, 1, 0, 1, 1), "dx", 4),  # odd n: halves of 2 and 3 qubits
            (4, (1, 1, 0, 0, 1), "dx", 4),  # equal neighbours share a frame
            (3, (1, 0, 1, 1, 0), "dc", 4),  # a product term with complex eigenvectors
            (3, (0, 1, 1, 0, 1), "dv", 4),  # a dense generator
            (3, (0, 1, 2, 3, 3, 2, 1, 0, 2), "dxcv", 12),
        ],
        ids=["odd-n", "repeated", "complex-w", "dense", "mixed"],
    )
    def test_frame_changes_match_the_density_pass(self, rng, n, layers, kinds, changes):
        d = 2**n
        make = {
            "d": lambda: DiagonalKernel(rng.normal(size=d)),
            "x": lambda: ProductKernel(X, n),
            "c": lambda: ProductKernel(random_hermitian(2, rng, traceless=True), n),
            "v": lambda: build_circuit(n, [random_hermitian(d, rng, traceless=True)], [0]).kernels[0],
        }
        circ = NoisyCircuit(n, layers, tuple(make[k]() for k in kinds))
        calls = []
        for kernel in circ.kernels:
            if kernel.frame is not None:
                for name in ("enter", "leave"):
                    setattr(kernel, name, recorded(getattr(kernel, name), calls))
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        thetas = rng.uniform(-np.pi, np.pi, (3, circ.n_params))
        states, derivs = statevector_derivatives(circ, thetas, psi0)
        assert len(calls) == changes
        for k, theta in enumerate(thetas):
            psi, dpsi = statevector_derivatives(circ, theta, psi0)
            np.testing.assert_array_equal(states[k], psi)
            np.testing.assert_array_equal(derivs[k], np.array(dpsi))
            out, d_rho = evolve_with_derivatives(circ, theta, np.outer(psi0, psi0.conj()))
            assert np.max(np.abs(np.outer(psi, psi.conj()) - out)) <= 1e-12
            for dv, want in zip(dpsi, d_rho):
                assert np.max(np.abs(np.outer(dv, psi.conj()) + np.outer(psi, dv.conj()) - want)) <= 1e-12

    def test_requires_noiseless(self):
        circ, _ = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.1))
        with pytest.raises(ValueError, match="noise"):
            statevector_derivatives(noisy, np.zeros(4), KET_PLUS)

    def test_checks_theta_and_state_shapes(self):
        circ = hva_tfim(3, 2)
        psi = plus_state_vector(3)
        with pytest.raises(ValueError, match="theta"):
            statevector_derivatives(circ, np.zeros(7), psi)
        with pytest.raises(DimensionMismatchError):
            statevector_derivatives(circ, np.zeros(4), psi[:4])
