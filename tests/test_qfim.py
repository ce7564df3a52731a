"""Quantum Fisher information: assembly, ranks, capacity, distances, entropy."""

import tracemalloc

import numpy as np
import pytest
from oracles import trace_distance

from qfimlab.channels import (
    CompositeChannel,
    GlobalDepolarizing,
    LocalDepolarizing,
    bit_flip,
)
from qfimlab.circuits import (
    TOY_THETAS,
    build_circuit,
    evolve,
    evolve_with_derivatives,
    hva_tfim,
    plus_state_density,
    plus_state_vector,
    statevector_derivatives,
    toy_model,
)
from qfimlab.linalg import KET_0, KET_PLUS, Z, dag
from qfimlab.qfim import (
    TAU_RANK_ABS,
    bures_distance,
    effective_dim_d1,
    noisy_qfim_closed_form_global_depol,
    qfim_mixed,
    qfim_of_circuit,
    qfim_pure,
    relative_entropy_to_mixed,
    report_from_matrix,
    uhlmann_fidelity,
)
from qfimlab.rand import random_density_matrix, random_hermitian, random_statevector


class TestQfimPure:
    def test_z_rotation_on_plus(self):
        # F = 4 Var(Z/2) = 1 on the equator
        circ = build_circuit(1, [Z / 2], [0])
        psi, dpsi = statevector_derivatives(circ, np.array([0.4]), KET_PLUS)
        report = qfim_pure(psi, dpsi)
        np.testing.assert_allclose(report.matrix, [[1.0]], atol=1e-12)

    def test_z_rotation_on_eigenstate(self):
        circ = build_circuit(1, [Z / 2], [0])
        psi, dpsi = statevector_derivatives(circ, np.array([1.1]), KET_0)
        np.testing.assert_allclose(qfim_pure(psi, dpsi).matrix, [[0.0]], atol=1e-12)

    def test_redundant_consecutive_rotations(self):
        circ = build_circuit(1, [Z / 2, Z / 2], [0, 1])
        psi, dpsi = statevector_derivatives(circ, np.array([0.3, 0.9]), KET_PLUS)
        report = qfim_pure(psi, dpsi)
        assert report.rank == 1
        np.testing.assert_allclose(report.matrix, np.ones((2, 2)), atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            qfim_pure(2.0 * KET_PLUS, [KET_PLUS])


class TestQfimMixed:
    def test_maximally_mixed_through_unitaries(self, rng):
        circ, _ = toy_model()
        rho = np.eye(2, dtype=complex) / 2
        theta = rng.uniform(0, 2 * np.pi, 4)
        report = qfim_of_circuit(circ, theta, rho)
        np.testing.assert_allclose(report.matrix, np.zeros((4, 4)), atol=1e-12)
        assert report.rank == 0

    def test_reduces_to_pure_on_rank_one_state(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            gens = [random_hermitian(2**n, rng, traceless=True) for _ in range(2)]
            m = int(rng.integers(2, 5))
            circ = build_circuit(n, gens, list(rng.integers(0, 2, m)))
            theta = rng.uniform(0, 2 * np.pi, m)
            psi0 = random_statevector(2**n, rng)
            out, ders = evolve_with_derivatives(circ, theta, np.outer(psi0, psi0.conj()))
            f_mixed = qfim_mixed(out, ders).matrix
            psi, dpsi = statevector_derivatives(circ, theta, psi0)
            f_pure = qfim_pure(psi, dpsi).matrix
            assert np.max(np.abs(f_mixed - f_pure)) <= 1e-8

    def test_symmetric_psd(self, rng):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.2))
        theta = rng.uniform(0, 2 * np.pi, 4)
        report = qfim_of_circuit(noisy, theta, rho)
        assert np.max(np.abs(report.matrix - report.matrix.T)) <= 1e-10
        assert report.eigenvalues[-1] >= -1e-9


class TestToyRankTable:
    """Ranks of the four-rotation single-qubit model at its canonical points.

    Noiseless ranks are (1, 2, 2). With uniform bit-flip slots the first two
    points keep ranks (1, 2). The third point is special: the four Bloch
    tangents at exactly (pi/2, pi/4, pi/4, pi/4) are coplanar for every
    bit-flip strength, so its noisy rank stays 2 in exact arithmetic; any
    perturbation of the point (or a generic theta) makes the noise-enabled
    third direction appear. See notes in the repository ledger.
    """

    def test_noiseless_ranks(self):
        circ, rho = toy_model()
        ranks = [qfim_of_circuit(circ, t, rho).rank for t in TOY_THETAS.values()]
        assert ranks == [1, 2, 2]

    def test_bit_flip_ranks_at_exact_points(self):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.1))
        ranks = [qfim_of_circuit(noisy, t, rho).rank for t in TOY_THETAS.values()]
        assert ranks[:2] == [1, 2]
        # exact-arithmetic degeneracy at the third point (see class docstring)
        assert ranks[2] == 2

    def test_noise_enables_third_direction_generically(self, rng):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.1))
        nudged = TOY_THETAS["theta3"] + 1e-3 * np.array([1.0, -1.0, 1.0, 1.0])
        assert qfim_of_circuit(circ, nudged, rho).rank == 2
        report = qfim_of_circuit(noisy, nudged, rho)
        assert report.rank == 3
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi, 4)
            assert qfim_of_circuit(noisy, theta, rho).rank == 3

    def test_third_eigenvalue_grows_quadratically_off_the_degenerate_point(self):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.1))
        direction = np.array([1.0, -1.0, 1.0, 1.0])
        lam3 = []
        for eps in (1e-3, 1e-2):
            report = qfim_of_circuit(noisy, TOY_THETAS["theta3"] + eps * direction, rho)
            lam3.append(report.eigenvalues[2])
        ratio = lam3[1] / lam3[0]
        assert 50 < ratio < 200

    def test_exact_certificate_at_the_third_point(self):
        # the qubit QFIM F_ij = t_i.t_j + (r.t_i)(r.t_j) / (1 - |r|^2) from the Bloch
        # vector r and tangents t_i = dr/dtheta_i, at 50 digits: the third eigenvalue
        # vanishes at theta3 to that precision, and a 1e-3 nudge turns it on
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp

        def rotate(axis, t, v):  # exp(-i t A/2) on the Bloch vector, A = Z or X
            i, j = {"z": (0, 1), "x": (1, 2)}[axis]
            w = list(v)
            w[i], w[j] = mp.cos(t) * v[i] - mp.sin(t) * v[j], mp.sin(t) * v[i] + mp.cos(t) * v[j]
            return w

        def flip(v):  # bit flip at p = 0.1
            return [v[0], v[1] * mp.mpf("0.8"), v[2] * mp.mpf("0.8")]

        def qfim(theta):
            r, tangents = [mp.mpf("0.9"), mp.zero, mp.zero], []
            for axis, t in zip("zxzx", theta):
                r = rotate(axis, t, flip(r))
                tangents = [rotate(axis, t, flip(v)) for v in tangents]
                tangents.append([-r[1], r[0], mp.zero] if axis == "z" else [mp.zero, -r[2], r[1]])
            r, tangents = flip(r), [flip(v) for v in tangents]
            dot = lambda a, b: sum(x * y for x, y in zip(a, b))
            gap = 1 - dot(r, r)
            return mp.matrix([[dot(a, b) + dot(r, a) * dot(r, b) / gap for b in tangents]
                              for a in tangents])

        def top_three(f):
            return sorted(mp.eigsy(f, eigvals_only=True), reverse=True)[:3]

        with mpmath.workdps(50):
            theta3 = [mp.pi / 2, mp.pi / 4, mp.pi / 4, mp.pi / 4]
            exact = qfim(theta3)
            lam1, _, lam3 = top_three(exact)
            assert lam3 / lam1 < 1e-40
            lam1, _, lam3 = top_three(qfim([t + mp.mpf("1e-3") for t in theta3]))
            assert lam3 / lam1 > 1e-9
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.1))
        got = qfim_of_circuit(noisy, TOY_THETAS["theta3"], rho).matrix
        np.testing.assert_allclose(np.array(exact.tolist(), dtype=float), got, atol=1e-12)


class TestClosedFormGlobalDepol:
    def test_p_zero_reduces_to_noiseless(self, rng):
        circ, rho = toy_model()
        theta = rng.uniform(0, 2 * np.pi, 4)
        out, ders = evolve_with_derivatives(circ, theta, rho)
        closed = noisy_qfim_closed_form_global_depol(out, ders, 0.0, 4)
        np.testing.assert_allclose(closed, qfim_mixed(out, ders).matrix, atol=1e-10)

    def test_p_one_gives_zero_matrix(self, rng):
        circ, rho = toy_model()
        theta = rng.uniform(0, 2 * np.pi, 4)
        out, ders = evolve_with_derivatives(circ, theta, rho)
        np.testing.assert_allclose(
            noisy_qfim_closed_form_global_depol(out, ders, 1.0, 4), np.zeros((4, 4)), atol=1e-15
        )

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.2])
    def test_matches_direct_simulation(self, rng, p):
        n, m = 2, 4
        gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
        circ = build_circuit(n, gens, [0, 1, 0, 1])
        theta = rng.uniform(0, 2 * np.pi, m)
        rho = random_density_matrix(4, rng, rank=1)
        out, ders = evolve_with_derivatives(circ, theta, rho)
        closed = noisy_qfim_closed_form_global_depol(out, ders, p, m)
        direct = qfim_of_circuit(circ.with_uniform_noise(GlobalDepolarizing(n, p)), theta, rho)
        assert np.max(np.abs(closed - direct.matrix)) <= 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_global_depol_pure_path_matches_dense(rng, n):
    # a state vector picks the closed form (noiseless, global depolarizing) or the
    # folded pass (local depolarizing); a density matrix always runs the dense pass
    circ = hva_tfim(n, 3)
    theta = rng.uniform(0, 2 * np.pi, circ.n_params)
    psi = plus_state_vector(n)
    rho = plus_state_density(n)
    channels = [None]
    channels += [GlobalDepolarizing(n, p) for p in (0.0, 1e-3, 0.05, 0.3, 1.0)]
    channels += [LocalDepolarizing.uniform(n, p) for p in (1e-3, 0.05, 0.3)]
    for channel in channels:
        noisy = circ.with_uniform_noise(channel)
        fast = qfim_of_circuit(noisy, theta, psi)
        dense = qfim_of_circuit(noisy, theta, rho)
        # the floor covers p = 1, where both matrices are zero up to roundoff
        scale = max(float(np.max(np.abs(dense.matrix))), TAU_RANK_ABS)
        assert np.max(np.abs(fast.matrix - dense.matrix)) <= 1e-10 * scale
        assert fast.rank == dense.rank


@pytest.mark.parametrize("route", ["noiseless", "global_depolarizing", "folded", "dense"])
def test_batched_theta_gives_each_single_report_bit_for_bit(rng, route):
    # the statevector routes run one batched pass; the folded and dense routes run row by row
    if route == "dense":
        circ, state = toy_model()
    elif route == "folded":
        circ = hva_tfim(4, 3).with_uniform_noise(LocalDepolarizing.uniform(4, 0.02))
        state = plus_state_vector(4)
    else:
        channel = GlobalDepolarizing(4, 0.05) if route == "global_depolarizing" else None
        circ, state = hva_tfim(4, 3).with_uniform_noise(channel), plus_state_vector(4)
    thetas = rng.uniform(0, 2 * np.pi, (3, circ.n_params))
    reports = qfim_of_circuit(circ, thetas, state)
    assert len(reports) == 3
    for theta, report in zip(thetas, reports):
        single = qfim_of_circuit(circ, theta, state)
        np.testing.assert_array_equal(report.matrix, single.matrix)
        np.testing.assert_array_equal(report.eigenvalues, single.eigenvalues)
        assert report.rank == single.rank


def test_report_of_a_stack_equals_each_single_report_byte_for_byte(rng):
    a = rng.normal(size=(5, 6, 6))
    mats = a @ a.swapaxes(-1, -2) + 1e-3 * rng.normal(size=(5, 6, 6))
    mats[1] = 0.0
    mats[2, :, 3:] = mats[2, 3:, :] = 0.0  # rank 3
    reports = report_from_matrix(mats, 1e-12, 1e-10)
    assert len(reports) == 5
    for mat, got in zip(mats, reports):
        want = report_from_matrix(mat, 1e-12, 1e-10)
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert (got.rank, got.tau_abs, got.tau_rel) == (want.rank, want.tau_abs, want.tau_rel)
    assert [r.rank for r in reports][1:3] == [0, 3]


def test_vector_route_forms_no_density_matrix():
    # under global depolarizing noise a state vector input keeps M + 1 vectors;
    # one d x d complex state alone would take 16 d^2 bytes
    n = 10
    d = 2**n
    noisy = hva_tfim(n, 2).with_uniform_noise(GlobalDepolarizing(n, 0.01))
    theta = np.random.default_rng(3).uniform(0, 2 * np.pi, noisy.n_params)
    psi = plus_state_vector(n)
    tracemalloc.start()
    try:
        report = qfim_of_circuit(noisy, theta, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * d / 8
    assert report.rank > 0


class TestEffectiveDimension:
    def test_default_equals_rank(self):
        circ, rho = toy_model()
        report = qfim_of_circuit(circ, TOY_THETAS["theta3"], rho)
        assert report.rank == 2
        assert effective_dim_d1(report) == 2

    def test_epsilon_above_spectrum(self):
        circ, rho = toy_model()
        report = qfim_of_circuit(circ, TOY_THETAS["theta3"], rho)
        assert effective_dim_d1(report, epsilon=report.eigenvalues[0] + 1.0) == 0

    def test_epsilon_between_groups(self):
        # two-group spectrum built from a diagonal matrix
        report = report_from_matrix(np.diag([1.0, 0.5, 1e-6, 1e-7]))
        assert report.rank == 4
        assert effective_dim_d1(report, epsilon=1e-3) == 2


class TestDistances:
    def test_self_distance(self, rng):
        rho = random_density_matrix(4, rng)
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
        assert bures_distance(rho, rho) == pytest.approx(0.0, abs=1e-7)

    def test_pure_state_reduction(self):
        zero = np.outer(KET_0, KET_0.conj())
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        assert uhlmann_fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)

    def test_bures_bounded_by_twice_trace_distance(self, rng):
        for _ in range(200):
            d = int(2 ** rng.integers(1, 4))
            rho = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
            sigma = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
            assert bures_distance(rho, sigma) <= 2 * trace_distance(rho, sigma) + 1e-10

    def test_trace_distance_orthogonal_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(zero, one) == pytest.approx(1.0)


class TestRelativeEntropy:
    def test_maximally_mixed_is_zero(self):
        assert relative_entropy_to_mixed(np.eye(4, dtype=complex) / 4) == pytest.approx(0.0)

    def test_pure_qubit(self):
        rho = np.outer(KET_PLUS, KET_PLUS.conj())
        assert relative_entropy_to_mixed(rho) == pytest.approx(np.log(2), abs=1e-12)

    def test_local_depol_contraction(self, rng):
        # relative-entropy contraction with factor (1-p)^2 per channel layer
        for _ in range(100):
            n = int(rng.integers(1, 4))
            d = 2**n
            rho = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
            p = float(rng.uniform(0.01, 0.6))
            out = LocalDepolarizing.uniform(n, p).apply(rho)
            lhs = relative_entropy_to_mixed(out)
            rhs = (1 - p) ** 2 * relative_entropy_to_mixed(rho)
            assert lhs <= rhs + 1e-10


class TestQfimProperties:
    def test_unitary_invariance_via_appended_gate(self, rng):
        from qfimlab.rand import random_unitary

        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.15))
        theta = rng.uniform(0, 2 * np.pi, 4)
        out, ders = evolve_with_derivatives(noisy, theta, rho)
        f0 = qfim_mixed(out, ders).matrix
        u = random_unitary(2, rng)
        f1 = qfim_mixed(u @ out @ dag(u), [u @ d @ dag(u) for d in ders]).matrix
        assert np.max(np.abs(f1 - f0)) <= 1e-10

    def test_monotone_under_appended_channel(self, rng):
        circ, rho = toy_model()
        theta = rng.uniform(0, 2 * np.pi, 4)
        out, ders = evolve_with_derivatives(circ, theta, rho)
        f0 = qfim_mixed(out, ders).matrix
        phi = CompositeChannel([bit_flip(0.2), LocalDepolarizing.uniform(1, 0.1)])
        f1 = qfim_mixed(phi.apply(out), [phi.apply(d) for d in ders]).matrix
        assert np.linalg.eigvalsh(f0 - f1)[0] >= -1e-8

    def test_bures_quadratic_scaling_with_reported_constant(self, rng):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(0.08))
        theta = rng.uniform(0, 2 * np.pi, 4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        base = evolve(noisy, theta, rho)
        f = qfim_of_circuit(noisy, theta, rho).matrix
        ts = np.array([1e-2, 1e-3, 1e-4])
        bs = np.array([bures_distance(base, evolve(noisy, theta + t * v, rho)) for t in ts])
        exponent = np.polyfit(np.log(ts), np.log(bs), 1)[0]
        assert 1.95 <= exponent <= 2.05
        # curvature proportional to the quadratic form; coefficient reported only
        constant = bs[1] / (1e-6 * float(v @ f @ v))
        assert 0.1 < constant < 1.0
