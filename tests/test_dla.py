"""Lie-closure computation and algebra dimensions."""

import numpy as np
import pytest
from dla_reference import ResidualBasis
from oracles import frobenius_inner

from qfimlab.circuits import TOY_GENERATORS, hva_parity_sector_generators, hva_tfim_generators
from qfimlab.dla import PauliSum, dla_dimension, lie_closure
from qfimlab.exceptions import CapExceededError
from qfimlab.linalg import X, Y, Z, commutator
from qfimlab.rand import random_hermitian, random_unitary


class TestLieClosure:
    def test_abelian_single_generator(self):
        assert dla_dimension([Z]) == 1

    def test_toy_generators_span_su2(self):
        assert dla_dimension(TOY_GENERATORS) == 3

    def test_full_paulis(self):
        assert dla_dimension([X, Z]) == 3

    def test_basis_orthonormal_skew(self):
        basis = lie_closure([X / 2, Z / 2])
        for i, a in enumerate(basis.elements):
            assert np.max(np.abs(a + a.conj().T)) <= 1e-9
            for j, b in enumerate(basis.elements):
                expected = 1.0 if i == j else 0.0
                assert frobenius_inner(a, b).real == pytest.approx(expected, abs=1e-9)

    def test_closed_under_commutators(self):
        basis = ResidualBasis(lie_closure([X, Z]).elements)
        for a in basis.elements:
            for b in basis.elements:
                assert basis.project_residual(commutator(a, b)) <= 10 * 1e-8

    def test_order_invariance(self, rng):
        h0, h1 = hva_tfim_generators(3)
        assert dla_dimension([h0, h1]) == dla_dimension([h1, h0])

    def test_unitary_conjugation_invariance(self, rng):
        gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
        u = random_unitary(4, rng)
        conj = [u @ g @ u.conj().T for g in gens]
        conj = [(g + g.conj().T) / 2 for g in conj]
        assert dla_dimension(gens) == dla_dimension(conj)

    def test_rejects_traced_generators(self):
        with pytest.raises(ValueError, match="traceless"):
            dla_dimension([np.eye(2, dtype=complex)])

    def test_cap_exceeded_reports_partial(self, rng):
        gens = [random_hermitian(8, rng, traceless=True) for _ in range(2)]
        with pytest.raises(CapExceededError) as info:
            lie_closure(gens, max_dim=5)
        assert info.value.partial_dim == 5

    def test_generic_generators_fill_su_d(self, rng):
        gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
        assert dla_dimension(gens) == 15  # su(4)


class TestIsingAnsatzDimensions:
    @pytest.mark.parametrize("n,expected", [(2, 3), (4, 6), (6, 9)])
    def test_sector_dimension_is_three_halves_n(self, n, expected):
        assert dla_dimension(hva_parity_sector_generators(n)) == expected

    @pytest.mark.parametrize("n,expected", [(2, 4), (3, 8), (4, 11), (6, 17)])
    def test_unrestricted_matrix_closure(self, n, expected):
        # The raw n-qubit matrices close on a strictly larger algebra than
        # the parity-even block: extra directions act on the odd sector or
        # annihilate the reference state. Regression-pinned values.
        assert dla_dimension(hva_tfim_generators(n)) == expected

    def test_sector_dim_bounds_rank_related_sector(self):
        # sector algebra is contained in the unrestricted closure's image
        assert dla_dimension(hva_parity_sector_generators(4)) <= dla_dimension(
            hva_tfim_generators(4)
        )


class TestPauliExpansion:
    def test_single_pauli(self):
        coeffs = PauliSum.from_matrix(np.asarray(Y, dtype=complex), 1e-10).labels()
        assert set(coeffs) == {"Y"}
        assert coeffs["Y"] == pytest.approx(1.0)

    def test_ising_coupling(self):
        h0, _ = hva_tfim_generators(2)
        coeffs = PauliSum.from_matrix(h0, 1e-10).labels()
        assert set(coeffs) == {"ZZ"}
        assert coeffs["ZZ"] == pytest.approx(2.0)
