"""Kernel operations: Kronecker products, eigendecompositions, partial traces."""

import numpy as np
import pytest
from oracles import check_density_matrix, frobenius_inner, herm_exp, is_hermitian, is_unitary

from qfimlab.exceptions import DimensionMismatchError, NotHermitianError
from qfimlab.linalg import (
    I2,
    KET_PLUS,
    X,
    Z,
    dag,
    hermitian_eig,
    insert_qubit,
    kron,
    partial_trace,
    permute_qubits,
    purity,
)
from qfimlab.rand import random_density_matrix, random_hermitian


def toy_input_state():
    plus = np.outer(KET_PLUS, KET_PLUS.conj())
    return 0.9 * plus + 0.1 * I2 / 2


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_x_tensor_z_pattern(self):
        # direct 4x4 expansion by hand
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        got = kron(X, Z)
        np.testing.assert_array_equal(got, expected)
        assert got[0, 2] == 1 and got[1, 3] == -1

    def test_z_tensor_z_diagonal(self):
        np.testing.assert_array_equal(np.diagonal(kron(Z, Z)), [1, -1, -1, 1])

    def test_three_factors(self):
        assert kron(I2, X, Z).shape == (8, 8)


class TestHermitianEig:
    def test_pauli_z(self):
        np.testing.assert_allclose(hermitian_eig(Z).values, [-1.0, 1.0], atol=1e-14)

    def test_pauli_x(self):
        # characteristic polynomial of [[0,1],[1,0]] gives +-1
        np.testing.assert_allclose(hermitian_eig(X).values, [-1.0, 1.0], atol=1e-14)

    def test_toy_state_spectrum(self):
        # 0.9|+><+| + 0.1 I/2 diagonalizes to 0.05, 0.95
        np.testing.assert_allclose(
            hermitian_eig(toy_input_state()).values, [0.05, 0.95], atol=1e-12
        )

    def test_reconstruction_random(self, rng):
        for n in (1, 2, 3, 4):
            a = random_hermitian(2**n, rng)
            values, vectors = hermitian_eig(a)
            recon = (vectors * values) @ dag(vectors)
            assert np.max(np.abs(recon - a)) <= 1e-10
            assert np.max(np.abs(dag(vectors) @ vectors - np.eye(2**n))) <= 1e-10

    def test_ascending_and_deterministic(self, rng):
        a = random_hermitian(8, rng)
        first = hermitian_eig(a)
        second = hermitian_eig(a.copy())
        assert np.all(np.diff(first.values) >= 0)
        np.testing.assert_array_equal(first.values, second.values)
        np.testing.assert_array_equal(first.vectors, second.vectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHermExp:
    def test_zero_angle(self, rng):
        h = random_hermitian(4, rng)
        np.testing.assert_allclose(herm_exp(h, 0.0), np.eye(4), atol=1e-12)

    def test_diagonal_generator(self):
        theta = 0.7
        expected = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
        np.testing.assert_allclose(herm_exp(Z, theta), expected, atol=1e-14)

    def test_half_x_at_pi(self):
        # Euler identity: cos(pi/2) I - i sin(pi/2) X = -iX
        np.testing.assert_allclose(herm_exp(X / 2, np.pi), -1j * X, atol=1e-14)

    def test_one_parameter_group(self, rng):
        h = random_hermitian(8, rng)
        t1, t2 = 0.31, -1.7
        lhs = herm_exp(h, t1) @ herm_exp(h, t2)
        np.testing.assert_allclose(lhs, herm_exp(h, t1 + t2), atol=1e-10)

    def test_unitary_output(self, rng):
        u = herm_exp(random_hermitian(8, rng), 2.3)
        assert is_unitary(u)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_exp(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)


class TestPartialTrace:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(np.eye(4) / 4, [0]), I2 / 2, atol=1e-15)

    def test_product_state(self):
        ket00 = np.zeros(4, dtype=complex)
        ket00[0] = 1
        rho = np.outer(ket00, ket00.conj())
        np.testing.assert_allclose(
            partial_trace(rho, [1]), np.diag([1.0, 0.0]).astype(complex), atol=1e-15
        )

    def test_bell_state(self):
        # direct 4x4 sum: tracing either qubit of |Phi+> leaves I/2
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(partial_trace(rho, [0]), I2 / 2, atol=1e-15)

    def test_preserves_trace_and_positivity(self, rng):
        for _ in range(10):
            rho = random_density_matrix(8, rng)
            red = partial_trace(rho, [1])
            assert abs(np.trace(red) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red)[0] > -1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4) / 4, [2])


class TestFrobeniusInner:
    def test_pauli_norms(self):
        assert frobenius_inner(X, X) == pytest.approx(2.0)

    def test_orthogonal_paulis(self):
        assert frobenius_inner(X, Z) == pytest.approx(0.0)

    def test_identity_vs_zz(self):
        # Tr[(I4)† Z(x)Z] = 0: traceless product
        assert frobenius_inner(np.eye(4, dtype=complex), kron(Z, Z)) == pytest.approx(0.0)

    def test_conjugate_symmetry(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert frobenius_inner(a, b) == pytest.approx(np.conj(frobenius_inner(b, a)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            frobenius_inner(X, np.eye(4))


class TestPredicatesAndHelpers:
    def test_hermitian_unitary_predicates(self):
        assert is_hermitian(X) and is_unitary(X)
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_density_matrix_validation(self, rng):
        check_density_matrix(random_density_matrix(4, rng))
        with pytest.raises(ValueError):
            check_density_matrix(2 * np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            check_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_purity(self):
        assert purity(np.eye(2, dtype=complex) / 2) == pytest.approx(0.5)

    def test_permute_and_insert(self, rng):
        a, b = random_hermitian(2, rng), random_hermitian(2, rng)
        swapped = permute_qubits(kron(a, b), [1, 0])
        np.testing.assert_allclose(swapped, kron(b, a), atol=1e-14)
        embedded = insert_qubit(a, 0, b)
        np.testing.assert_allclose(embedded, kron(b, a), atol=1e-14)
