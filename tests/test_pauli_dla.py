"""Lie closure over sparse Pauli sums, checked against the dense closure."""

import tracemalloc

import numpy as np
import pytest

from dla_reference import ResidualBasis, all_pairs_closure, merged, pair_commutator, per_pair_closure

from qfimlab.channels import PauliString
from qfimlab.circuits import (
    TOY_GENERATORS,
    hva_parity_sector_generators,
    hva_tfim_generators,
    hva_tfim_pauli_generators,
)
from qfimlab.dla import (
    PauliSum,
    dla_dimension,
    _merged,
    lie_closure,
    parity_sector_dimension,
    pauli_commutator,
)
from qfimlab.exceptions import CapExceededError, NotHermitianError
from qfimlab.experiments import parse_config, run_dla
from qfimlab.linalg import commutator
from qfimlab.rand import random_hermitian


def _random_sum(n, k, rng):
    """k random strings (repeats allowed) with complex coefficients."""
    rows = rng.integers(0, 2, size=(k, 2 * n))
    return PauliSum.from_terms(
        (complex(*rng.normal(size=2)), PauliString(tuple(r[:n]), tuple(r[n:]))) for r in rows
    )


def _repeated_string_generators():
    """ZZ + (I - I) + (iXI - iXI), which is ZZ, then ZZ itself and XI."""
    zz, ii, xi = [0, 0, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0]
    repeated = PauliSum(np.array([zz, ii, ii, xi, xi], dtype=np.uint8), np.array([1, 1, -1, 1j, -1j]))
    one = np.array([1.0 + 0j])
    return repeated, PauliSum(np.array([zz], dtype=np.uint8), one), PauliSum(np.array([xi], dtype=np.uint8), one)


class TestPauliSum:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutator_matches_dense(self, n, rng):
        for _ in range(5):
            a, b = _random_sum(n, 8, rng), _random_sum(n, 8, rng)
            got = pauli_commutator(a, b).materialize()
            want = commutator(a.materialize(), b.materialize())
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 3, 31, 32, 33, 40])
    def test_commutator_and_merge_match_the_byte_key_reference_bit_for_bit(self, n, rng):
        # few distinct strings, so that terms repeat and cancel; n > 32 needs two key words
        pool = rng.integers(0, 2, size=(5, 2 * n)).astype(np.uint8)
        for _ in range(20):
            bits = pool[rng.integers(0, 5, size=(2, 12))]
            coeffs = rng.choice([1.0, -1.0, 1j, -1j, 0.5 - 0.25j], size=(2, 12))
            a, b = PauliSum(bits[0], coeffs[0]), PauliSum(bits[1], coeffs[1])
            for got, want in [
                (pauli_commutator(a, b), pair_commutator(a, b)),
                (_merged(a.bits, a.coeffs), merged(a.bits, a.coeffs)),
            ]:
                assert got.bits.dtype == want.bits.dtype and np.array_equal(got.bits, want.bits)
                assert got.coeffs.tobytes() == want.coeffs.tobytes()

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
        # turns bracket with the generators only, so closure under the other brackets
        # is not certified by TAU_INDEP; it is checked here
        for n in (4, 6):
            mats = [e.materialize() / 2 ** (n / 2) for e in lie_closure(hva_tfim_pauli_generators(n)).elements]
            gram = np.array([[np.vdot(a, b).real for b in mats] for a in mats])
            assert np.max(np.abs(gram - np.eye(len(mats)))) <= 1e-9
            dense = ResidualBasis(tuple(mats))
            assert max(dense.project_residual(commutator(a, b)) for a in mats for b in mats) <= 1e-7

    def test_generic_generators_match_dense(self, rng):
        gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
        assert dla_dimension([PauliSum.from_matrix(g) for g in gens]) == dla_dimension(gens) == 15

    def test_repeated_strings_add_up(self):
        repeated, zz, x0 = _repeated_string_generators()
        assert lie_closure([repeated]).dim == lie_closure([zz]).dim == 1
        # with a second generator the closures agree element by element
        got, want = lie_closure([repeated, x0]), lie_closure([zz, x0])
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


def _assert_same_elements(got, want):
    assert got.dim == want.dim
    for a, b in zip(got.elements, want.elements):
        if isinstance(b, PauliSum):
            assert np.array_equal(a.bits, b.bits) and np.array_equal(a.coeffs, b.coeffs)
        else:
            assert np.array_equal(a, b)


class TestBatchedTurnsMatchPerPairClosure:
    """Each turn brackets its element with the generators at once and screens the
    candidates against the basis as the turn began; the elements must still come out
    as the one-pair-at-a-time loop of ``dla_reference`` gives them, bit for bit."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ising_generators(self, n):
        gens = hva_tfim_pauli_generators(n)
        _assert_same_elements(lie_closure(gens), per_pair_closure(gens))

    def test_toy_generators(self):
        for gens in (TOY_GENERATORS, [PauliSum.from_matrix(g) for g in TOY_GENERATORS]):
            _assert_same_elements(lie_closure(gens), per_pair_closure(gens))

    def test_random_three_qubit_generators_fill_su8(self, rng):
        dense = [random_hermitian(8, rng, traceless=True) for _ in range(2)]
        for gens in (dense, [PauliSum.from_matrix(g) for g in dense]):
            got = lie_closure(gens)
            assert got.dim == 63
            _assert_same_elements(got, per_pair_closure(gens))

    def test_repeated_string_generators(self):
        repeated, zz, x0 = _repeated_string_generators()
        for gens in ([repeated], [repeated, x0], [x0, repeated]):
            _assert_same_elements(lie_closure(gens), per_pair_closure(gens))

    def test_keys_of_two_words(self):
        # 2n = 66 bits take two 64-bit key words
        n = 33
        gens = hva_tfim_pauli_generators(n)
        got = lie_closure(gens)
        _assert_same_elements(got, per_pair_closure(gens))
        payload = run_dla(parse_config({"experiment": "dla", "circuit": {"name": "hva_tfim", "n": n, "L": 1}}))
        assert payload["dim_full_matrix"] == got.dim == 3 * n - 1 == 98
        assert payload["dim"] == parity_sector_dimension(got) == 3 * n // 2 == 49

    def test_cap_hit_in_the_middle_of_a_turn(self):
        # at n=6 the two generators join first, and the sixth element comes from the
        # third turn's second pair: the fourth element bracketed with the second generator
        partial = []
        for closure in (lie_closure, per_pair_closure):
            with pytest.raises(CapExceededError) as info:
                closure(hva_tfim_pauli_generators(6), max_dim=5)
            partial.append(info.value.partial_dim)
        assert partial == [5, 5]

    def test_sector_dimension_is_floor_three_halves_n_through_n20(self):
        # the quotient's string key must not lose or merge strings at any size
        for n in range(2, 21):
            assert parity_sector_dimension(lie_closure(hva_tfim_pauli_generators(n))) == 3 * n // 2


def _coefficient_rows(*bases) -> list[np.ndarray]:
    """Real views of each basis's elements, one row each, over coordinates shared by all:
    the entries of dense matrices, or one column per Pauli string met in any basis."""
    if not isinstance(bases[0].elements[0], PauliSum):
        return [np.array([e.ravel() for e in basis.elements]).view(np.float64) for basis in bases]
    column: dict[bytes, int] = {}
    for e in (e for basis in bases for e in basis.elements):
        for row in e.bits:
            column.setdefault(row.tobytes(), len(column))
    out = []
    for basis in bases:
        rows = np.zeros((basis.dim, len(column)), dtype=complex)
        for k, e in enumerate(basis.elements):
            rows[k, [column[row.tobytes()] for row in e.bits]] = e.coeffs
        out.append(rows.view(np.float64))
    return out


def test_generator_turns_span_the_all_pairs_closure(rng):
    # turns bracket each element with the generators only; the closure that brackets
    # every pair must span the same algebra
    dense = [random_hermitian(8, rng, traceless=True) for _ in range(2)]
    repeated, _, x0 = _repeated_string_generators()
    for gens in [
        *(hva_tfim_pauli_generators(n) for n in range(2, 9)),
        TOY_GENERATORS,
        [PauliSum.from_matrix(g) for g in TOY_GENERATORS],
        dense,
        [PauliSum.from_matrix(g) for g in dense],
        [repeated],
        [repeated, x0],
        [x0, repeated],
    ]:
        got, want = lie_closure(gens), all_pairs_closure(gens)
        assert got.dim == want.dim
        for r, rows in [_coefficient_rows(got, want), _coefficient_rows(want, got)]:
            for _ in range(2):
                r -= (r @ rows.T) @ rows
            assert np.max(np.linalg.norm(r, axis=1)) <= 1e-10


class TestDlaRunnerAtScale:
    def test_n20_without_dense_arrays(self):
        cfg = parse_config({"experiment": "dla", "circuit": {"name": "hva_tfim", "n": 20, "L": 1}})
        tracemalloc.start()
        try:
            payload = run_dla(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["dim"] == 30 and payload["dim_full_matrix"] == 59 and payload["match"]
        # one complex vector of length 2^20 alone would take 16 MiB
        assert peak < 16 * 2**20
