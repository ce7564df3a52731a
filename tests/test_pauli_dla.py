"""Lie closure over sparse Pauli sums, checked against the dense closure."""

import json
import tracemalloc

import numpy as np
import pytest

from qfimlab.channels import PauliString
from qfimlab.circuits import (
    hva_parity_sector_generators,
    hva_tfim_generators,
    hva_tfim_pauli_generators,
)
from qfimlab.dla import (
    LieBasis,
    PauliSum,
    dla_dimension,
    lie_closure,
    parity_sector_dimension,
    pauli_commutator,
)
from qfimlab.exceptions import NotHermitianError
from qfimlab.experiments import parse_config, run_dla
from qfimlab.linalg import commutator
from qfimlab.rand import random_hermitian


def _random_sum(n, k, rng):
    """k random strings (repeats allowed) with complex coefficients."""
    rows = rng.integers(0, 2, size=(k, 2 * n))
    return PauliSum.from_terms(
        (complex(*rng.normal(size=2)), PauliString(tuple(r[:n]), tuple(r[n:]))) for r in rows
    )


class TestPauliSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutator_matches_dense(self, n, rng):
        for _ in range(5):
            a, b = _random_sum(n, 8, rng), _random_sum(n, 8, rng)
            got = pauli_commutator(a, b).materialize()
            want = commutator(a.materialize(), b.materialize())
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_from_matrix_round_trip(self, n, rng):
        op = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        assert np.max(np.abs(PauliSum.from_matrix(op).materialize() - op)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_materialize_matches_pauli_strings(self, n, rng):
        s = _random_sum(n, 6, rng)
        want = sum(
            c * PauliString(tuple(r[:n]), tuple(r[n:])).materialize() for c, r in zip(s.coeffs, s.bits)
        )
        assert np.max(np.abs(s.materialize() - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_diagonal_of_a_z_sum_equals_the_materialized_diagonal_bit_for_bit(self, n, rng):
        z_only = _random_sum(n, 7, rng)
        z_only = PauliSum(z_only.bits * np.repeat([0, 1], n).astype(np.uint8), z_only.coeffs)
        got, want = z_only.diagonal(), np.diagonal(z_only.materialize())
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="Z strings"):
            PauliSum.from_terms([(1.0, PauliString.single(n, n - 1, "Y"))]).diagonal()


class TestPauliClosure:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_dense_oracle(self, n):
        full = lie_closure(hva_tfim_pauli_generators(n))
        assert full.dim == dla_dimension(hva_tfim_generators(n))
        assert parity_sector_dimension(full) == dla_dimension(hva_parity_sector_generators(n))

    def test_basis_orthonormal_and_closed(self):
        n = 4
        mats = [e.materialize() / 2 ** (n / 2) for e in lie_closure(hva_tfim_pauli_generators(n)).elements]
        gram = np.array([[np.vdot(a, b).real for b in mats] for a in mats])
        assert np.max(np.abs(gram - np.eye(len(mats)))) <= 1e-9
        dense = LieBasis(tuple(mats))
        assert max(dense.project_residual(commutator(a, b)) for a in mats for b in mats) <= 1e-7

    def test_generic_generators_match_dense(self, rng):
        gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
        assert dla_dimension([PauliSum.from_matrix(g) for g in gens]) == dla_dimension(gens) == 15

    def test_repeated_strings_add_up(self):
        # ZZ + (I - I) + (iXI - iXI) is ZZ: traceless, Hermitian, one-dimensional closure
        zz, ii, xi = [0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0]
        repeated = PauliSum(np.array([zz, ii, ii, xi, xi], dtype=np.uint8), np.array([1, 1, -1, 1j, -1j]))
        merged = PauliSum(np.array([zz], dtype=np.uint8), np.array([1.0 + 0j]))
        assert lie_closure([repeated]).dim == lie_closure([merged]).dim == 1
        # with a second generator the closures agree element by element
        x0 = PauliSum(np.array([xi], dtype=np.uint8), np.array([1.0 + 0j]))
        got, want = lie_closure([repeated, x0]), lie_closure([merged, x0])
        assert got.dim == want.dim == 3
        for a, b in zip(got.elements, want.elements):
            assert np.max(np.abs(a.materialize() - b.materialize())) <= 1e-12

    def test_rejects_bad_generators(self):
        z = PauliSum.from_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="traceless"):
            lie_closure([PauliSum.from_matrix(np.eye(2))])
        with pytest.raises(NotHermitianError):
            lie_closure([PauliSum(z.bits, 1j * z.coeffs)])
        with pytest.raises(TypeError, match="all matrices or all Pauli sums"):
            lie_closure([z, np.diag([1.0, -1.0])])

    def test_quotient_needs_parity_symmetry(self):
        z0 = PauliSum.from_terms([(1.0, PauliString.single(2, 0, "Z"))])
        x0 = PauliSum.from_terms([(1.0, PauliString.single(2, 0, "X"))])
        with pytest.raises(ValueError, match="parity"):
            parity_sector_dimension(lie_closure([z0, x0]))


class TestDlaRunnerAtScale:
    def test_n20_without_dense_arrays(self):
        cfg = parse_config({"experiment": "dla", "circuit": {"name": "hva_tfim", "n": 20, "L": 1}})
        tracemalloc.start()
        try:
            payload = json.loads(run_dla(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["dim"] == 30 and payload["dim_full_matrix"] == 59 and payload["match"]
        # one complex vector of length 2^20 alone would take 16 MiB
        assert peak < 16 * 2**20
