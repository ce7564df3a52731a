"""Channels: Pauli mixtures, depolarizing noise, superoperators, CPTP checks."""

import numpy as np
import pytest
from oracles import identity_channel

from qfimlab.channels import (
    CompositeChannel,
    GlobalDepolarizing,
    LocalDepolarizing,
    PauliChannel,
    PauliString,
    UnitaryChannel,
    bit_flip,
    choi_matrix,
    compose,
    decompose_local_depol,
    effective_global_depol,
    superoperator,
    verify_cptp,
)
from qfimlab.exceptions import DimensionMismatchError, TooLargeError
from qfimlab.linalg import X, Z
from qfimlab.rand import random_density_matrix, random_unitary


def random_pauli_channel(rng, n, n_terms=3, max_weight=0.4):
    strs = [
        PauliString(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
        for _ in range(n_terms)
    ]
    w = rng.uniform(0, max_weight / n_terms, n_terms)
    return PauliChannel([(PauliString.identity(n), 1 - w.sum())] + list(zip(strs, w)))


class TestPauliString:
    def test_identity_materializes_to_identity(self):
        np.testing.assert_array_equal(PauliString.identity(2).materialize(), np.eye(4))

    def test_single_factory(self):
        np.testing.assert_array_equal(PauliString.single(1, 0, "X").materialize(), X)
        np.testing.assert_array_equal(PauliString.single(1, 0, "Z").materialize(), Z)

    def test_materialized_unitary_hermitian_up_to_phase(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            s = PauliString(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
            m = s.materialize()
            d = m.shape[0]
            np.testing.assert_allclose(m.conj().T @ m, np.eye(d), atol=1e-14)
            # m^2 = +-I, so m is Hermitian or anti-Hermitian
            sq = m @ m
            assert np.allclose(sq, np.eye(d)) or np.allclose(sq, -np.eye(d))

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            PauliString((0, 2), (0, 0))


class TestApply:
    def test_bit_flip_on_ground_state(self):
        p = 0.3
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = bit_flip(p).apply(rho)
        np.testing.assert_allclose(out, np.diag([1 - p, p]), atol=1e-15)

    def test_global_depol_fixed_point(self):
        rho = np.eye(4, dtype=complex) / 4
        out = GlobalDepolarizing(2, 0.7).apply(rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_local_depol_linear_extension_on_x(self):
        # traceless input: partial-trace form reduces to (1-p) X
        p = 0.25
        out = LocalDepolarizing.uniform(1, p).apply(X)
        np.testing.assert_allclose(out, (1 - p) * X, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bit_flip(0.1).apply(np.eye(4, dtype=complex))

    def test_trace_preserved(self, rng):
        chans = [
            bit_flip(0.2, 2, 1),
            GlobalDepolarizing(2, 0.3),
            LocalDepolarizing((0.1, 0.4)),
            random_pauli_channel(rng, 2),
        ]
        rho = random_density_matrix(4, rng)
        for ch in chans:
            assert abs(np.trace(ch.apply(rho)) - 1.0) < 1e-10


class TestTransferCoefficient:
    def test_identity_string_gives_one(self, rng):
        ch = random_pauli_channel(rng, 2)
        assert ch.transfer_coefficient(PauliString.identity(2)) == pytest.approx(1.0, abs=1e-12)

    def test_bit_flip_on_z(self):
        # two-term sum (1-p)(+1) + p(-1)
        p = 0.17
        ch = bit_flip(p)
        assert ch.transfer_coefficient(PauliString.single(1, 0, "Z")) == pytest.approx(1 - 2 * p)

    def test_bit_flip_on_x(self):
        ch = bit_flip(0.17)
        assert ch.transfer_coefficient(PauliString.single(1, 0, "X")) == pytest.approx(1.0)

    def test_diagonality_in_pauli_basis(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            ch = random_pauli_channel(rng, n)
            s = PauliString(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
            mat = s.materialize()
            c = ch.transfer_coefficient(s)
            assert abs(c) <= 1.0 + 1e-12
            assert np.max(np.abs(ch.apply(mat) - c * mat)) <= 1e-12

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            PauliChannel([(PauliString.identity(1), 0.5), (PauliString.single(1, 0, "X"), 0.4)])
        with pytest.raises(ValueError):
            PauliChannel([(PauliString.identity(1), 1.2), (PauliString.single(1, 0, "X"), -0.2)])


def _local_depolarizing(n):
    return LocalDepolarizing(tuple(0.1 * (j + 1) for j in range(n)))


def _pauli(n):
    flip = PauliString((1,) * n, tuple(j % 2 for j in range(n)))
    return PauliChannel([(PauliString.identity(n), 0.7), (flip, 0.3)])


_BASIS_CHANNELS = {
    "global_depolarizing": lambda n: GlobalDepolarizing(n, 0.4),
    "local_depolarizing": _local_depolarizing,
    "pauli": _pauli,
    "bit_flip": lambda n: bit_flip(0.2, n, qubit=n - 1),
    "unitary": lambda n: UnitaryChannel(random_unitary(2**n, np.random.default_rng(n))),
    "composite": lambda n: CompositeChannel([_local_depolarizing(n), _pauli(n)]),
}


class TestSuperoperator:
    def test_identity_channel(self):
        np.testing.assert_allclose(superoperator(identity_channel(1)), np.eye(4), atol=1e-15)

    def test_unitary_vectorization_identity(self, rng):
        u = random_unitary(4, rng)
        s = superoperator(UnitaryChannel(u))
        np.testing.assert_allclose(s, np.kron(u.conj(), u), atol=1e-14)

    def test_matches_apply_on_random_state(self, rng):
        ch = CompositeChannel([random_pauli_channel(rng, 2), GlobalDepolarizing(2, 0.2)])
        s = superoperator(ch)
        rho = random_density_matrix(4, rng)
        vec = rho.T.reshape(-1)
        out = (s @ vec).reshape(4, 4).T
        assert np.max(np.abs(out - ch.apply(rho))) <= 1e-12

    @pytest.mark.parametrize("kind,n", [(kind, n) for kind in _BASIS_CHANNELS for n in (1, 3)])
    def test_channel_on_basis_matrices(self, kind, n):
        ch = _BASIS_CHANNELS[kind](n)
        s = superoperator(ch)
        d = 2**n
        basis = np.zeros((d, d), dtype=complex)
        for k in range(d):
            for l in range(d):
                basis[k, l] = 1
                out = (s @ basis.T.reshape(-1)).reshape(d, d).T
                np.testing.assert_allclose(out, ch.apply(basis), atol=1e-15)
                basis[k, l] = 0

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            superoperator(GlobalDepolarizing(6, 0.1))


class TestCompose:
    def test_identity_neutral(self, rng):
        ch = bit_flip(0.3)
        rho = random_density_matrix(2, rng)
        out = compose(identity_channel(1), ch).apply(rho)
        np.testing.assert_allclose(out, ch.apply(rho), atol=1e-15)

    def test_two_global_depols(self):
        p = 0.2
        pair = compose(GlobalDepolarizing(1, p), GlobalDepolarizing(1, p))
        merged = GlobalDepolarizing(1, 1 - (1 - p) ** 2)
        assert np.max(np.abs(superoperator(pair) - superoperator(merged))) <= 1e-14

    def test_unitaries_compose_to_product(self, rng):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        lhs = superoperator(compose(UnitaryChannel(u), UnitaryChannel(v)))
        rhs = superoperator(UnitaryChannel(u @ v))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_order(self, rng):
        a, b = bit_flip(0.2), GlobalDepolarizing(1, 0.5)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(
            compose(a, b).apply(rho), a.apply(b.apply(rho)), atol=1e-15
        )


class TestEffectiveGlobalDepol:
    def test_single_channel(self):
        assert effective_global_depol([0.3], 2).p == pytest.approx(0.3)

    def test_uniform_stack(self):
        p, m = 0.1, 4
        eff = effective_global_depol([p] * (m + 1), 2)
        assert 1 - eff.p == pytest.approx((1 - p) ** (m + 1))

    def test_two_rates(self):
        # 0.9 * 0.8 = 0.72 retained
        eff = effective_global_depol([0.1, 0.2], 3)
        assert 1 - eff.p == pytest.approx(0.72)

    def test_range_check(self):
        with pytest.raises(ValueError):
            effective_global_depol([0.0], 1)


class TestLocalDepolDecomposition:
    def test_equal_probs_give_identity_residual(self):
        uniform, residual = decompose_local_depol([0.2, 0.2, 0.2])
        assert uniform.probs == (0.2, 0.2, 0.2)
        assert residual.probs == (0.0, 0.0, 0.0)

    def test_two_qubit_taus(self):
        # (0.3 - 0.1)/0.9
        uniform, residual = decompose_local_depol([0.1, 0.3])
        assert uniform.probs == (0.1, 0.1)
        assert residual.probs[0] == pytest.approx(0.0)
        assert residual.probs[1] == pytest.approx(0.2 / 0.9)

    def test_superoperator_equality_random(self, rng):
        for _ in range(5):
            probs = rng.uniform(0.05, 0.8, 2)
            uniform, residual = decompose_local_depol(probs)
            lhs = superoperator(compose(uniform, residual))
            rhs = superoperator(LocalDepolarizing(tuple(probs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            decompose_local_depol([0.0, 0.5])


class TestVerifyCptp:
    def test_bit_flip(self):
        report = verify_cptp(bit_flip(0.3))
        assert report.ok and report.unital

    def test_global_depol(self):
        report = verify_cptp(GlobalDepolarizing(2, 0.5))
        assert report.ok and report.unital

    def test_all_variants_cptp_unital(self, rng):
        channels = [
            UnitaryChannel(random_unitary(4, rng)),
            LocalDepolarizing((0.2, 0.35)),
            random_pauli_channel(rng, 2),
            CompositeChannel([bit_flip(0.1, 2, 0), GlobalDepolarizing(2, 0.2)]),
        ]
        for ch in channels:
            report = verify_cptp(ch)
            assert report.ok and report.unital
            assert report.tp_deviation <= 1e-10

    def test_choi_trace(self):
        ch = LocalDepolarizing((0.2, 0.3))
        assert np.trace(choi_matrix(ch)) == pytest.approx(4.0)

    def test_invalid_probabilities_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PauliChannel([(PauliString.identity(1), 0.9)])


class TestGlobalDepolCommutation:
    def test_interleaved_equals_pulled_through(self, rng):
        for _ in range(4):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            p = float(rng.uniform(0.05, 0.4))
            unitaries = [random_unitary(2**n, rng) for _ in range(m)]
            depol = GlobalDepolarizing(n, p)
            steps = [depol]
            for u in unitaries:
                steps += [UnitaryChannel(u), depol]
            lhs = superoperator(CompositeChannel(steps))
            rhs = superoperator(
                CompositeChannel(
                    [UnitaryChannel(u) for u in unitaries]
                    + [effective_global_depol([p] * (m + 1), n)]
                )
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestReversedOrderDecomposition:
    def test_residual_on_either_side_of_pauli_channel(self, rng):
        for _ in range(5):
            probs = rng.uniform(0.05, 0.6, 2)
            uniform, residual = decompose_local_depol(probs)
            pauli = random_pauli_channel(rng, 2)
            direct = superoperator(CompositeChannel([pauli, LocalDepolarizing(tuple(probs))]))
            left = superoperator(CompositeChannel([pauli, residual, uniform]))
            right = superoperator(CompositeChannel([residual, pauli, uniform]))
            assert np.max(np.abs(left - direct)) <= 1e-12
            assert np.max(np.abs(right - direct)) <= 1e-12
