"""Randomized numerical certificates for the package's structural claims.

Each check draws seeded random instances, evaluates an inequality or
equality that must hold, and reports its worst-case margin. The suite is the
machine-checkable form of the rank/suppression theorems, entropy
contractions, channel decompositions, and the metric axioms of the quantum
Fisher information.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .channels import (
    CompositeChannel,
    GlobalDepolarizing,
    LocalDepolarizing,
    PauliChannel,
    PauliString,
    UnitaryChannel,
    bit_flip,
    compose,
    decompose_local_depol,
    superoperator,
)
from .circuits import (
    build_circuit,
    evolve,
    evolve_with_derivatives,
    derivative_fd,
    hva_tfim,
    loss_linear,
    plus_state_density,
    toy_model,
)
from .linalg import dag
from .qfim import (
    bures_distance,
    qfim_mixed,
    qfim_of_circuit,
    relative_entropy_to_mixed,
)
from .rand import (
    map_tasks,
    random_density_matrix,
    random_hermitian,
    random_statevector,
    random_unitary,
    subkey_rng,
)

LN2 = float(np.log(2.0))


def _random_circuit(rng, n_max=3, m_range=(2, 6), herm_scale=None):
    n = int(rng.integers(1, n_max + 1))
    d = 2**n
    gens = [random_hermitian(d, rng, traceless=True) for _ in range(2)]
    if herm_scale is not None:
        gens = [g / np.linalg.norm(np.linalg.eigvalsh(g), np.inf) * herm_scale for g in gens]
    m = int(rng.integers(*m_range))
    layers = list(rng.integers(0, 2, m))
    return build_circuit(n, gens, layers)


def _random_pauli_channel(rng, n, max_weight=0.3, n_terms=2, strict=False):
    if strict:
        ch = _product_depolarizing_pauli_channel(rng, n)
        _assert_strict_contraction(ch)
        return ch
    strs = [
        PauliString(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
        for _ in range(n_terms)
    ]
    w = rng.uniform(0, max_weight, n_terms)
    if w.sum() > 1.0:
        # n_terms * max_weight may exceed 1; keep the draws, rescale to a valid mixture
        w = w / w.sum()
    return PauliChannel([(PauliString.identity(n), max(1 - w.sum(), 0.0))] + list(zip(strs, w)))


def _product_depolarizing_pauli_channel(rng, n):
    """Per-qubit depolarizing mixture written out as an explicit Pauli channel.

    Every non-identity transfer coefficient is (1-q)^weight, strictly inside
    (-1, 1), so this family satisfies the unique-fixed-point assumption that
    sparse few-term channels cannot (any two Pauli strings leave part of the
    Pauli basis untouched).
    """
    q = float(rng.uniform(0.1, 0.6))
    terms = []
    for bits in product((0, 1), repeat=2 * n):
        alpha, beta = bits[:n], bits[n:]
        prob = 1.0
        for a, b in zip(alpha, beta):
            prob *= (1.0 - 3.0 * q / 4.0) if (a, b) == (0, 0) else q / 4.0
        terms.append((PauliString(alpha, beta), prob))
    return PauliChannel(terms)


def _assert_strict_contraction(ch: PauliChannel) -> None:
    """Opt-in check that every non-identity transfer coefficient is inside (-1, 1).

    Required when an experiment asserts the maximally mixed state is the
    channel's unique fixed point; plain bit-flip channels fail it.
    """
    n = ch.n_qubits
    for alpha in product((0, 1), repeat=n):
        for beta in product((0, 1), repeat=n):
            if not any(alpha) and not any(beta):
                continue
            c = ch.transfer_coefficient(PauliString(alpha, beta))
            if abs(c) >= 1.0 - 1e-12:
                raise ValueError(
                    f"transfer coefficient {c} for string {alpha}/{beta} violates the "
                    f"strict (-1, 1) fixed-point assumption"
                )


def _check(name, margin, tolerance, details=""):
    """One result row; the check passes when ``margin <= tolerance``."""
    margin = float(margin)
    return {
        "name": name,
        "passed": margin <= tolerance,
        "margin": margin,
        "tolerance": tolerance,
        "details": details,
    }


# ---------------------------------------------------------------------------
# Individual checks (each takes a fresh generator and returns a result dict)
# ---------------------------------------------------------------------------


def check_qfim_axioms(rng, trials, m_range=(2, 6)):
    worst = {"symmetry": 0.0, "psd": 0.0, "convexity": 0.0, "unitary": 0.0, "monotone": 0.0}
    for _ in range(trials):
        circ = _random_circuit(rng, m_range=m_range)
        n, d = circ.n_qubits, circ.dim
        p = float(rng.uniform(0.0, 0.3))
        noisy = circ.with_uniform_noise(LocalDepolarizing.uniform(n, p))
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        rho = random_density_matrix(d, rng)
        sigma = random_density_matrix(d, rng)
        q = float(rng.uniform(0, 1))

        out_r, der_r = evolve_with_derivatives(noisy, theta, rho)
        out_s, der_s = evolve_with_derivatives(noisy, theta, sigma)
        f_r = qfim_mixed(out_r, der_r).matrix
        f_s = qfim_mixed(out_s, der_s).matrix
        worst["symmetry"] = max(worst["symmetry"], float(np.max(np.abs(f_r - f_r.T))))
        worst["psd"] = max(worst["psd"], -float(np.linalg.eigvalsh(f_r)[0]))

        f_mix = qfim_mixed(
            q * out_r + (1 - q) * out_s, [q * a + (1 - q) * b for a, b in zip(der_r, der_s)]
        ).matrix
        worst["convexity"] = max(
            worst["convexity"], -float(np.linalg.eigvalsh(q * f_r + (1 - q) * f_s - f_mix)[0])
        )

        u = random_unitary(d, rng)
        f_u = qfim_mixed(u @ out_r @ dag(u), [u @ dv @ dag(u) for dv in der_r]).matrix
        worst["unitary"] = max(worst["unitary"], float(np.max(np.abs(f_u - f_r))))

        phi = CompositeChannel(
            [
                bit_flip(float(rng.uniform(0.05, 0.4)), n, 0),
                LocalDepolarizing.uniform(n, float(rng.uniform(0.05, 0.3))),
            ]
        )
        f_phi = qfim_mixed(phi.apply(out_r), [phi.apply(dv) for dv in der_r]).matrix
        worst["monotone"] = max(worst["monotone"], -float(np.linalg.eigvalsh(f_r - f_phi)[0]))

    tol = {"symmetry": 1e-10, "psd": 1e-9, "convexity": 1e-8, "unitary": 1e-10, "monotone": 1e-8}
    return [
        _check(f"qfim_axiom_{key}", worst[key], tol[key],
               f"worst deviation over {trials} random instances")
        for key in worst
    ]


def check_theorem_terminal_rank(rng, trials, tau_abs, tau_rel):
    bad = 0
    for _ in range(trials):
        circ = _random_circuit(rng)
        n, d = circ.n_qubits, circ.dim
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        rho = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
        out, ders = evolve_with_derivatives(circ, theta, rho)
        r0 = qfim_mixed(out, ders, tau_abs, tau_rel).rank
        phi = CompositeChannel(
            [
                bit_flip(float(rng.uniform(0, 0.5)), n, 0),
                GlobalDepolarizing(n, float(rng.uniform(0, 0.5))),
                LocalDepolarizing.uniform(n, float(rng.uniform(0, 0.3))),
            ]
        )
        r1 = qfim_mixed(phi.apply(out), [phi.apply(dv) for dv in ders], tau_abs, tau_rel).rank
        bad += r1 > r0
    return [
        _check("terminal_channel_rank_nonincreasing", bad, 0,
               f"rank increases in {bad}/{trials} trials "
               f"(rank thresholds tau_abs={tau_abs:g}, tau_rel={tau_rel:g})")
    ]


def _theorem_instances(rng, trials):
    for trial in range(trials):
        if trial % 2 == 0:
            circ, rho = toy_model()
        else:
            circ = hva_tfim(3, int(rng.integers(1, 4)))
            rho = plus_state_density(3)
        theta = rng.uniform(0, 2 * np.pi, circ.n_params)
        p = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        yield circ, rho, theta, p


def check_global_depol_rank(rng, trials, tau_abs, tau_rel):
    bad = 0
    for circ, rho, theta, p in _theorem_instances(rng, trials):
        r0 = qfim_of_circuit(circ, theta, rho, tau_abs, tau_rel).rank
        noisy = circ.with_uniform_noise(GlobalDepolarizing(circ.n_qubits, p))
        r1 = qfim_of_circuit(noisy, theta, rho, tau_abs, tau_rel).rank
        bad += r1 != r0
    return [
        _check("global_depol_rank_invariant", bad, 0,
               f"rank changes in {bad}/{trials} trials "
               f"(rank thresholds tau_abs={tau_abs:g}, tau_rel={tau_rel:g})")
    ]


def check_global_depol_eigenvalue_bound(rng, trials):
    worst = -np.inf
    for circ, rho, theta, p in _theorem_instances(rng, trials):
        lam0 = qfim_of_circuit(circ, theta, rho).eigenvalues[0]
        noisy = circ.with_uniform_noise(GlobalDepolarizing(circ.n_qubits, p))
        lam1 = qfim_of_circuit(noisy, theta, rho).eigenvalues[0]
        worst = max(worst, lam1 - (1 - p) ** (circ.n_params + 1) * lam0)
    return [
        _check("global_depol_eigenvalue_bound", worst, 1e-9,
               "max over trials of lambda_noisy - (1-p)^(M+1) lambda_max_noiseless")
    ]


def check_quadratic_form_bound(rng, trials, delta_trials, strict, pauli_weight=0.3):
    worst = -np.inf
    for _ in range(trials):
        circ = _random_circuit(rng, herm_scale=0.5)
        n, d, m = circ.n_qubits, circ.dim, circ.n_params
        p = float(rng.uniform(0.03, 0.25))
        pauli = _random_pauli_channel(rng, n, max_weight=pauli_weight, strict=strict)
        slot = CompositeChannel([pauli, LocalDepolarizing.uniform(n, p)])
        noisy = circ.with_uniform_noise(slot)
        theta = rng.uniform(0, 2 * np.pi, m)
        psi = random_statevector(d, rng)
        rho = np.outer(psi, psi.conj())
        f = qfim_of_circuit(noisy, theta, rho).matrix
        rhs = 8 * LN2 * (1 - p) ** (2 * (m + 1)) * relative_entropy_to_mixed(rho)
        for _ in range(delta_trials):
            delta = rng.standard_normal(m)
            delta /= np.linalg.norm(delta)
            worst = max(worst, float(delta @ f @ delta) - rhs)
    return [
        _check("pauli_noise_quadratic_form_bound", worst, 0.0,
               "max over unit perturbations of d^T F d - 8 ln2 (1-p)^(2(M+1)) S(rho||I/d)")
    ]


def check_entropy_contractions(rng, trials, strict, pauli_weight=0.3):
    worst_combined = -np.inf
    worst_depol = -np.inf
    worst_reversed = -np.inf
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        d = 2**n
        rho = random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
        p = float(rng.uniform(0.01, 0.6))
        depol = LocalDepolarizing.uniform(n, p)
        pauli = _random_pauli_channel(rng, n, max_weight=pauli_weight, strict=strict)
        s0 = relative_entropy_to_mixed(rho)
        worst_combined = max(
            worst_combined,
            relative_entropy_to_mixed(depol.apply(pauli.apply(rho))) - (1 - p) ** 2 * s0,
        )
        worst_depol = max(
            worst_depol, relative_entropy_to_mixed(depol.apply(rho)) - (1 - p) ** 2 * s0
        )
        worst_reversed = max(
            worst_reversed,
            relative_entropy_to_mixed(pauli.apply(depol.apply(rho))) - (1 - p) ** 2 * s0,
        )
    return [
        _check("relative_entropy_contraction_pauli_then_depol", worst_combined, 1e-10,
               "S(depol(pauli(rho))||I/d) - (1-p)^2 S(rho||I/d)"),
        _check("relative_entropy_contraction_depol", worst_depol, 1e-10,
               "S(depol(rho)||I/d) - (1-p)^2 S(rho||I/d)"),
        _check("relative_entropy_contraction_depol_then_pauli", worst_reversed, 1e-10,
               "reversed composition order"),
    ]


def check_local_depol_decomposition(rng, trials):
    worst = 0.0
    worst_sided = 0.0
    for _ in range(trials):
        n = 2
        probs = rng.uniform(0.05, 0.6, n)
        full = LocalDepolarizing(tuple(probs))
        uniform, residual = decompose_local_depol(probs)
        s_full = superoperator(full)
        s_split = superoperator(compose(uniform, residual))
        worst = max(worst, float(np.max(np.abs(s_full - s_split))))
        pauli = _random_pauli_channel(rng, n)
        left = superoperator(CompositeChannel([pauli, residual, uniform]))
        right = superoperator(CompositeChannel([residual, pauli, uniform]))
        direct = superoperator(CompositeChannel([pauli, full]))
        worst_sided = max(
            worst_sided,
            float(np.max(np.abs(left - direct))),
            float(np.max(np.abs(right - direct))),
        )
    return [
        _check("local_depol_decomposition", worst, 1e-12,
               "superoperator gap between per-qubit channel and uniform∘residual split"),
        _check("local_depol_decomposition_either_side", worst_sided, 1e-12,
               "residual placed on either side of a random Pauli channel"),
    ]


def check_global_depol_commutation(rng, trials):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        d = 2**n
        m = int(rng.integers(1, 5))
        p = float(rng.uniform(0.02, 0.4))
        unitaries = [random_unitary(d, rng) for _ in range(m)]
        depol = GlobalDepolarizing(n, p)
        steps = [depol]
        for u in unitaries:
            steps += [UnitaryChannel(u), depol]
        interleaved = superoperator(CompositeChannel(steps))
        pulled = superoperator(
            CompositeChannel(
                [UnitaryChannel(u) for u in unitaries]
                + [GlobalDepolarizing(n, 1 - (1 - p) ** (m + 1))]
            )
        )
        worst = max(worst, float(np.max(np.abs(interleaved - pulled))))
    return [
        _check("global_depol_commutes_to_end", worst, 1e-10,
               "superoperator gap between interleaved and pulled-through forms")
    ]


def check_pauli_diagonality(rng, trials):
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 4))
        ch = _random_pauli_channel(rng, n, max_weight=0.4, n_terms=3)
        s = PauliString(tuple(rng.integers(0, 2, n)), tuple(rng.integers(0, 2, n)))
        mat = s.materialize()
        c = ch.transfer_coefficient(s)
        worst = max(worst, float(np.max(np.abs(ch.apply(mat) - c * mat))))
    return [
        _check("pauli_channel_diagonality", worst, 1e-12,
               "max |N(P) - c P| over random channels and strings")
    ]


def check_pure_mixed_consistency(rng, trials):
    worst = 0.0
    for _ in range(trials):
        circ = _random_circuit(rng)
        d, m = circ.dim, circ.n_params
        theta = rng.uniform(0, 2 * np.pi, m)
        psi = random_statevector(d, rng)
        f_mixed = qfim_of_circuit(circ, theta, np.outer(psi, psi.conj())).matrix
        f_pure = qfim_of_circuit(circ, theta, psi).matrix
        worst = max(worst, float(np.max(np.abs(f_mixed - f_pure))))
    return [
        _check("pure_mixed_qfim_consistency", worst, 1e-8,
               "max entry gap between density-matrix and statevector pipelines")
    ]


def check_bures_quadratic(rng, trials):
    worst_exp = 0.0
    constants = []
    for _ in range(trials):
        circ, rho = toy_model()
        noisy = circ.with_uniform_noise(bit_flip(float(rng.uniform(0.03, 0.15))))
        theta = rng.uniform(0, 2 * np.pi, 4)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        base = evolve(noisy, theta, rho)
        f = qfim_of_circuit(noisy, theta, rho).matrix
        quad = float(v @ f @ v)
        if quad < 1e-6:
            continue
        ts = np.array([1e-2, 1e-3, 1e-4])
        bs = np.array([bures_distance(base, out) for out in evolve(noisy, theta + ts[:, None] * v, rho)])
        slope = float(np.polyfit(np.log(ts), np.log(bs), 1)[0])
        worst_exp = max(worst_exp, abs(slope - 2.0))
        constants.append(bs[1] / (1e-6 * quad))
    return [
        _check("bures_distance_quadratic_scaling", worst_exp, 0.05,
               f"fitted exponent near 2; mean B/(t^2 d^T F d) = {np.mean(constants):.4f} "
               "(coefficient reported, not asserted)")
    ]


def check_derivative_oracle(rng, trials):
    worst = 0.0
    worst_trace = 0.0
    for _ in range(trials):
        circ = _random_circuit(rng)
        n, d, m = circ.n_qubits, circ.dim, circ.n_params
        p = float(rng.uniform(0, 0.2))
        slot = CompositeChannel(
            [bit_flip(p, n, 0), LocalDepolarizing.uniform(n, p / 2)]
        )
        noisy = circ.with_uniform_noise(slot)
        theta = rng.uniform(0, 2 * np.pi, m)
        rho = random_density_matrix(d, rng)
        i = int(rng.integers(0, m))
        dv = evolve_with_derivatives(noisy, theta, rho)[1][i]
        fd = derivative_fd(noisy, theta, rho, i, 1e-5)
        worst = max(worst, float(np.max(np.abs(dv - fd))))
        worst_trace = max(worst_trace, abs(complex(np.trace(dv))))
    return [
        _check("derivative_matches_central_difference", worst, 1e-6,
               f"max entry gap at h=1e-5 over {trials} noisy instances"),
        _check("derivative_traceless", worst_trace, 1e-10,
               "trace preservation differentiates to zero"),
    ]


def check_loss_flattening(rng, trials, n_max=3):
    worst = 0.0
    for _ in range(trials):
        circ = _random_circuit(rng, n_max=n_max, m_range=(1, 5))
        n, d, m = circ.n_qubits, circ.dim, circ.n_params
        theta = rng.uniform(0, 2 * np.pi, m)
        rho = random_density_matrix(d, rng)
        obs = random_hermitian(d, rng, traceless=True)
        p = float(rng.uniform(0.01, 0.5))
        l0 = loss_linear(circ, theta, rho, obs)
        l1 = loss_linear(circ.with_uniform_noise(GlobalDepolarizing(n, p)), theta, rho, obs)
        worst = max(worst, abs(l1 - (1 - p) ** (m + 1) * l0))
    return [
        _check("linear_loss_flattening", worst, 1e-12,
               "traceless observable: noisy loss vs (1-p)^(M+1) x noiseless loss")
    ]


def run_suite(
    seed: int,
    trials: int,
    entropy_trials: int,
    delta_trials: int,
    decomposition_trials: int,
    strict_pauli_fixed_point: bool,
    tau_abs: float,
    tau_rel: float,
    workers: int | None = None,
) -> list[dict]:
    """Run every check on independent substreams of ``seed``; returns results."""
    jobs = [
        lambda r: check_qfim_axioms(r, max(trials, 50)),
        lambda r: check_theorem_terminal_rank(r, trials, tau_abs, tau_rel),
        lambda r: check_global_depol_rank(r, max(trials, 20), tau_abs, tau_rel),
        lambda r: check_global_depol_eigenvalue_bound(r, max(trials, 20)),
        lambda r: check_quadratic_form_bound(
            r, trials, delta_trials, strict_pauli_fixed_point
        ),
        lambda r: check_entropy_contractions(r, entropy_trials, strict_pauli_fixed_point),
        lambda r: check_local_depol_decomposition(r, decomposition_trials),
        lambda r: check_global_depol_commutation(r, trials),
        lambda r: check_pauli_diagonality(r, max(trials, 50)),
        lambda r: check_pure_mixed_consistency(r, trials),
        lambda r: check_bures_quadratic(r, min(trials, 10)),
        lambda r: check_derivative_oracle(r, max(trials, 50)),
        lambda r: check_loss_flattening(r, trials),
    ]

    def run_job(item):
        index, job = item
        return job(subkey_rng(seed, index))

    groups = map_tasks(run_job, list(enumerate(jobs)), workers)
    return [result for group in groups for result in group]
