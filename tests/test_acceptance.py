"""Acceptance suite: one test per release criterion, with PASS/FAIL lines.

Every criterion is implemented exactly as stated, at its stated tolerance;
nothing is loosened to force green. Criteria 4-10 are the theorem checks of
``qfimlab.verify``, each run on its own Philox key ``[42, criterion]``, trial
count and instance ranges; the rest are written here. Two entries are known
to be unattainable as written and fail honestly with an explanation:

- criterion 1: the third toy parameter point sits on an exact degeneracy of
  the literal model, so its bit-flip rank is provably 2, not 3 (the
  noise-enabled third direction appears for any perturbed or generic theta;
  see TestToyRankTable in test_qfim.py and the sibling regression tests).
- criterion 11: at the stated desk scale (n=4, L=6, p=0.08) the strongest
  eigenvalue sits at 1.3e-2..4.4e-2 of the noiseless maximum across seeds,
  above the required 1e-2, and the old/new group ratio does not always drop
  below 10.
"""

import time

import numpy as np

from qfimlab import verify
from qfimlab.channels import (
    GlobalDepolarizing,
    LocalDepolarizing,
    bit_flip,
    compose,
    decompose_local_depol,
    superoperator,
)
from qfimlab.circuits import (
    TOY_GENERATORS,
    TOY_THETAS,
    build_circuit,
    evolve_with_derivatives,
    hva_parity_sector_generators,
    toy_model,
)
from qfimlab.dla import dla_dimension
from qfimlab.experiments import RUNNERS, parse_config
from qfimlab.qfim import (
    TAU_RANK_ABS,
    TAU_RANK_REL,
    noisy_qfim_closed_form_global_depol,
    qfim_of_circuit,
)
from qfimlab.rand import random_density_matrix, random_hermitian, subkey_rng


def _report(num: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} [{status}] {description}{suffix}")
    return ok


def test_criterion_01_toy_rank_table():
    start = time.monotonic()
    circ, rho = toy_model()
    noisy = circ.with_uniform_noise(bit_flip(0.1))
    noiseless = [qfim_of_circuit(circ, t, rho).rank for t in TOY_THETAS.values()]
    flipped = [qfim_of_circuit(noisy, t, rho).rank for t in TOY_THETAS.values()]
    elapsed = time.monotonic() - start
    ok = noiseless == [1, 2, 2] and flipped == [1, 2, 3] and elapsed < 1.0
    _report(
        1,
        "toy rank table: noiseless (1,2,2), bit-flip p=0.1 (1,2,3)",
        ok,
        f"got noiseless={noiseless} noisy={flipped} in {elapsed:.2f}s",
    )
    assert noiseless == [1, 2, 2]
    assert elapsed < 1.0
    assert flipped == [1, 2, 3], (
        f"bit-flip ranks are {flipped}: the third parameter point is an exact "
        "structural degeneracy of the stated model (its four Bloch tangents are "
        "coplanar for every bit-flip strength; verified in exact arithmetic), so "
        "its noisy rank is 2, not 3. Perturbing the point by 1e-3 or sampling any "
        "generic theta yields rank 3. See the decisions ledger."
    )


def test_criterion_02_dla_dimensions():
    start = time.monotonic()
    toy_dim = dla_dimension(TOY_GENERATORS)
    sector_dims = {n: dla_dimension(hva_parity_sector_generators(n)) for n in (2, 4, 6)}
    elapsed = time.monotonic() - start
    ok = toy_dim == 3 and sector_dims == {2: 3, 4: 6, 6: 9} and elapsed < 30.0
    _report(
        2,
        "algebra dimensions: toy=3, Ising ansatz (even-parity sector) = 3n/2",
        ok,
        f"toy={toy_dim}, sector dims={sector_dims}, {elapsed:.1f}s",
    )
    assert toy_dim == 3
    assert sector_dims == {2: 3, 4: 6, 6: 9}
    assert elapsed < 30.0


def test_criterion_03_closed_form_matches_simulation():
    rng = subkey_rng(42, 3)
    n, m = 2, 4
    gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
    circ = build_circuit(n, gens, [0, 1, 0, 1])
    theta = rng.uniform(0, 2 * np.pi, m)
    rho = random_density_matrix(4, rng, rank=1)
    out, ders = evolve_with_derivatives(circ, theta, rho)
    worst = 0.0
    for p in (0.05, 0.2):
        closed = noisy_qfim_closed_form_global_depol(out, ders, p, m)
        direct = qfim_of_circuit(circ.with_uniform_noise(GlobalDepolarizing(n, p)), theta, rho)
        worst = max(worst, float(np.max(np.abs(closed - direct.matrix))))
    ok = worst <= 1e-8
    _report(3, "closed-form noisy QFIM vs direct simulation (n=2, M=4)", ok, f"max gap {worst:.2e}")
    assert worst <= 1e-8


def _certify(num: int, description: str, results: list[dict], detail: str) -> None:
    ok = all(r["passed"] for r in results)
    _report(num, description, ok, detail)
    for r in results:
        assert r["passed"], f"{r['name']}: margin {r['margin']:.3e} > tol {r['tolerance']}"


def test_criterion_04_global_depol_rank_invariance():
    (res,) = verify.check_global_depol_rank(subkey_rng(42, 4), 24, TAU_RANK_ABS, TAU_RANK_REL)
    _certify(4, "interleaved global depolarization never changes rank", [res],
             f"{int(res['margin'])}/24 mismatches")


def test_criterion_05_global_depol_eigenvalue_bound():
    (res,) = verify.check_global_depol_eigenvalue_bound(subkey_rng(42, 5), 24)
    _certify(5, "noisy eigenvalues below (1-p)^(M+1) x noiseless maximum", [res],
             f"worst excess {res['margin']:.2e}")


def test_criterion_06_quadratic_form_entropy_bound():
    (res,) = verify.check_quadratic_form_bound(subkey_rng(42, 6), 12, 100, False, pauli_weight=0.15)
    _certify(6, "quadratic form bounded by 8 ln2 (1-p)^(2(M+1)) S(rho||I/d)", [res],
             f"worst lhs-rhs {res['margin']:.2e}")


def test_criterion_07_entropy_contraction():
    res = verify.check_entropy_contractions(subkey_rng(42, 7), 100, False, pauli_weight=0.15)[0]
    _certify(7, "relative entropy contracts by (1-p)^2 per noise layer", [res],
             f"worst excess {res['margin']:.2e}")


def test_criterion_08_qfim_axiom_suite():
    results = verify.check_qfim_axioms(subkey_rng(42, 8), 50, m_range=(2, 5))
    worst = ", ".join(f"{r['name'].removeprefix('qfim_axiom_')}={r['margin']:.1e}" for r in results)
    _certify(8, "QFIM axioms 1-5 over 50 random instances", results, worst)


def test_criterion_09_derivative_oracle():
    res = verify.check_derivative_oracle(subkey_rng(42, 9), 50)[0]
    _certify(9, "analytic derivative vs central difference at h=1e-5", [res],
             f"worst entry gap {res['margin']:.2e}")


def test_criterion_10_loss_flattening():
    (res,) = verify.check_loss_flattening(subkey_rng(42, 10), 25, n_max=2)
    _certify(10, "noisy linear loss equals (1-p)^(M+1) x noiseless (traceless obs)", [res],
             f"worst gap {res['margin']:.2e}")


def _spectrum_values(p_values, n=4, layers=6):
    cfg = parse_config(
        {
            "experiment": "spectrum",
            "circuit": {"name": "hva_tfim", "n": n, "L": layers},
            "noise": {"model": "local_depolarizing", "p": 0.0},
            "theta": {"seed": 42},
            "sweep": {"p": p_values},
        }
    )
    text = RUNNERS["spectrum"](cfg)
    lines = text.strip().split("\n")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    ie, ip = header.index("eigenvalue"), header.index("p")
    irn = header.index("rank_noiseless")
    out = {}
    for p in p_values:
        out[p] = sorted(
            (float(r[ie]) for r in rows if abs(float(r[ip]) - p) < 1e-15), reverse=True
        )
    return out, int(rows[0][irn])


def test_criterion_11_quasi_overparametrization_regimes():
    spectra, r0 = _spectrum_values([0.0, 1e-5, 0.08])
    lam_max0 = spectra[0.0][0]
    quasi = spectra[1e-5]
    strong = spectra[0.08]
    gap_quasi = quasi[r0 - 1] / quasi[r0]
    gap_strong = strong[r0 - 1] / strong[r0]
    suppressed = strong[0] / lam_max0
    ok = gap_quasi >= 10 and gap_strong < 10 and suppressed < 1e-2
    _report(
        11,
        "quasi regime: two-group split at p=1e-5; no gap and <1e-2 suppression at p=0.08",
        ok,
        f"gap(1e-5)={gap_quasi:.1e}, gap(0.08)={gap_strong:.1f}, "
        f"max/noiseless(0.08)={suppressed:.2e}",
    )
    assert gap_quasi >= 10
    assert gap_strong < 10 and suppressed < 1e-2, (
        f"at p=0.08 the strongest eigenvalue sits at {suppressed:.2e} of the "
        "noiseless maximum (required < 1e-2) and the old/new group ratio is "
        f"{gap_strong:.1f}: at this desk scale (n=4, M=12) thirteen local-"
        "depolarizing layers suppress the spectrum by only ~1.3e-2..4.4e-2 "
        "across seeds. The stated thresholds are calibrated to the deeper "
        "regime (M=40, n=10). See the decisions ledger."
    )


def test_criterion_11_thresholds_hold_at_the_calibrated_scale():
    # the same check and thresholds as above, at the n=10, M=40 regime they were
    # calibrated for; the stated n=4, M=12 run stays red above
    spectra, r0 = _spectrum_values([0.0, 1e-5, 0.08], n=10, layers=20)
    lam_max0 = spectra[0.0][0]
    quasi = spectra[1e-5]
    strong = spectra[0.08]
    gap_quasi = quasi[r0 - 1] / quasi[r0]
    gap_strong = strong[r0 - 1] / strong[r0]
    suppressed = strong[0] / lam_max0
    assert gap_quasi >= 10, f"gap(1e-5)={gap_quasi:.3g}"
    assert gap_strong < 10, f"gap(0.08)={gap_strong:.3g}"
    assert suppressed < 1e-2, f"max/noiseless(0.08)={suppressed:.3g}"


def test_criterion_12_scaling_slope_and_runtime():
    start = time.monotonic()
    cfg = parse_config(
        {
            "experiment": "scaling",
            "circuit": {"name": "hva_tfim", "n": 4, "L": 6},
            "noise": {"model": "global_depolarizing", "p": 0.05},
            "theta": {"seed": 42},
            "sweep": {"L": list(range(1, 13))},
            "options": {"samples": 10},
        }
    )
    text = RUNNERS["scaling"](cfg)
    elapsed = time.monotonic() - start
    lines = text.strip().split("\n")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    ms = np.array([float(r[header.index("M")]) for r in rows])
    means = np.array([float(r[header.index("mean_eigenvalue")]) for r in rows])
    slope = float(np.polyfit(ms, np.log(means), 1)[0])
    target = float(np.log(0.95))
    rel_err = abs(slope - target) / abs(target)
    ok = rel_err <= 0.15 and elapsed < 600
    _report(12, "log(mean eigenvalue) slope vs M matches ln(1-p) within 15%", ok,
            f"slope={slope:.4f} target={target:.4f} err={rel_err:.1%} time={elapsed:.1f}s")
    assert rel_err <= 0.15
    assert elapsed < 600


def test_criterion_13_per_qubit_depol_decomposition():
    rng = subkey_rng(42, 13)
    worst = 0.0
    for _ in range(20):
        probs = rng.uniform(0.05, 0.8, 2)
        uniform, residual = decompose_local_depol(probs)
        lhs = superoperator(compose(uniform, residual))
        rhs = superoperator(LocalDepolarizing(tuple(probs)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    _report(13, "qubit-dependent depolarizing splits into uniform + residual", ok,
            f"worst superoperator gap {worst:.2e}")
    assert worst <= 1e-12
