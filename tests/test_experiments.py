"""Experiment harness: config validation, determinism, runner behavior, CLI."""

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qfimlab.channels import GlobalDepolarizing, LocalDepolarizing, PauliChannel
from qfimlab.circuits import (
    TOY_THETAS,
    evolve,
    hva_parity_sector_generators,
    hva_tfim,
    plus_state_density,
    plus_state_vector,
    toy_model,
)
from qfimlab.dla import dla_dimension
from qfimlab.exceptions import CapExceededError, ConfigError
from qfimlab.experiments import (
    CSV_SCHEMA_VERSION,
    MAX_EIGVEC_SPAN,
    TRAJECTORY_COLUMNS,
    TRAJECTORY_ROW_BYTES,
    _csv_cell,
    _estimated_bytes,
    _scan_directions,
    block_rows,
    channel_from_config,
    config_hash,
    emit_table,
    parse_config,
    report_to_json,
    rows_to_csv,
    run_dla,
    run_eig_vs_p,
    run_scaling,
    run_spectrum,
    run_trajectory,
    run_verify,
    scaling_chunk,
)
from qfimlab.linalg import X, Y, Z
from qfimlab.qfim import qfim_of_circuit
from qfimlab.rand import subkey_rng, subkey_uniform


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# qfimlab csv schema=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"experiment": "dla", "circuit": {"name": "toy"}, "extra": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"experiment": "dla", "circuit": {"name": "toy", "foo": 2}})

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError, match="does not match"):
            parse_config({"experiment": "dla"}, experiment="verify")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config({"experiment": "frobnicate"})

    def test_bad_noise_model(self):
        with pytest.raises(ConfigError, match="unknown noise model"):
            parse_config({"experiment": "eig_vs_p", "noise": {"model": "thermal"}})

    def test_bad_probability(self):
        with pytest.raises(ConfigError, match="noise.p"):
            parse_config({"experiment": "eig_vs_p", "noise": {"model": "bit_flip", "p": 1.5}})

    def test_alternative_placement_rejected(self):
        with pytest.raises(ConfigError, match="placement"):
            parse_config(
                {
                    "experiment": "eig_vs_p",
                    "noise": {"model": "bit_flip", "p": 0.1, "placement": "after_only"},
                }
            )

    def test_theta_seed_and_values_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(
                {"experiment": "spectrum", "theta": {"seed": 1, "values": [0.1]}}
            )

    def test_options_validated_per_experiment(self):
        with pytest.raises(ConfigError, match="options"):
            parse_config({"experiment": "dla", "options": {"steps_per_gate": 5}})

    def test_channel_factory_models(self):
        assert channel_from_config({"model": "none"}, 2) is None
        assert isinstance(
            channel_from_config({"model": "global_depolarizing", "p": 0.1}, 2),
            GlobalDepolarizing,
        )
        local = channel_from_config({"model": "local_depolarizing", "p": [0.1, 0.2]}, 2)
        assert isinstance(local, LocalDepolarizing) and local.probs == (0.1, 0.2)
        pauli = channel_from_config(
            {
                "model": "pauli",
                "terms": [
                    {"alpha": [0, 0], "beta": [0, 0], "prob": 0.8},
                    {"alpha": [1, 0], "beta": [0, 1], "prob": 0.2},
                ],
            },
            2,
        )
        assert isinstance(pauli, PauliChannel)

    def test_config_hash_stable(self):
        raw = {"experiment": "dla", "circuit": {"name": "toy"}}
        assert config_hash(raw) == config_hash(json.loads(json.dumps(raw)))


DETERMINISM_CONFIGS = {
    "eig_vs_p": (run_eig_vs_p, {
        "experiment": "eig_vs_p",
        "noise": {"model": "bit_flip", "p": 0.1},
        "sweep": {"p": [0.001, 0.01, 0.1, 0.3]},
    }),
    # local depolarizing points take the parity-folded pass
    "spectrum": (run_spectrum, {
        "experiment": "spectrum",
        "circuit": {"name": "hva_tfim", "n": 4, "L": 3},
        "noise": {"model": "local_depolarizing", "p": 0.0},
        "sweep": {"p": [0.01, 0.1]},
    }),
    # state vectors: one batched statevector pass per coordinate
    "scaling_global_depol": (run_scaling, {
        "experiment": "scaling",
        "circuit": {"name": "hva_tfim", "n": 4, "L": 2},
        "noise": {"model": "global_depolarizing", "p": 0.05},
        "sweep": {"L": [1, 2, 3], "p": [0.0, 0.1]},
        "options": {"samples": 3},
    }),
    # p > 0: the parity-folded pass, one sample at a time
    "scaling_local_depol": (run_scaling, {
        "experiment": "scaling",
        "circuit": {"name": "hva_tfim", "n": 4, "L": 2},
        "noise": {"model": "local_depolarizing", "p": 0.02},
        "sweep": {"L": [1, 2], "p": [0.01, 0.1]},
        "options": {"samples": 2},
    }),
}


class TestDeterminism:
    @pytest.mark.parametrize("name", DETERMINISM_CONFIGS)
    def test_byte_identical_reruns(self, name):
        runner, raw = DETERMINISM_CONFIGS[name]
        cfg = parse_config(raw)
        assert runner(cfg) == runner(cfg)

    @pytest.mark.parametrize("name", DETERMINISM_CONFIGS)
    def test_workers_do_not_change_row_order(self, name):
        runner, raw = DETERMINISM_CONFIGS[name]
        sweep = {
            "eig_vs_p": {"p": [0.01, 0.05, 0.1, 0.2, 0.3]},
            "spectrum": {"p": [0.01, 0.1]},
            "scaling_global_depol": {"L": [1, 2, 3, 4], "p": [0.0, 0.01, 0.1]},
            "scaling_local_depol": {"L": [1, 2, 3], "p": [0.0, 0.01, 0.1]},
        }[name]
        cfg = parse_config({**raw, "sweep": sweep})
        assert runner(cfg, workers=4) == runner(cfg, workers=1)

    def test_seventeen_digit_floats(self):
        cfg = parse_config(
            {
                "experiment": "eig_vs_p",
                "noise": {"model": "bit_flip", "p": 0.1},
                "sweep": {"p": [0.1]},
            }
        )
        header, rows = parse_csv(run_eig_vs_p(cfg))
        assert rows[0][header.index("p")] == "0.10000000000000001"


def reference_trajectory_rows(config):
    """The per-state loop that ``run_trajectory`` batches: one ``gate_step``
    or ``evolve`` call, and one Bloch vector and purity, per row. It checks
    the batching, not the eigenvectors' signs, so it scans the same
    ``_scan_directions``."""
    steps, eig_steps = config.options["steps_per_gate"], config.options["eigvec_steps"]
    span = config.options["eigvec_span"]
    base, rho = toy_model()
    circuit = base.with_uniform_noise(channel_from_config(config.noise, 1))
    noise = (lambda state: state) if circuit.noise is None else circuit.noise.apply
    rows = []

    def emit(state, gate_index, step, label):
        x, y, z = (float(np.trace(state @ p).real) for p in (X, Y, Z))
        rows.append((gate_index, step, x, y, z, float(np.vdot(state, state).real), label))

    for label, theta in TOY_THETAS.items():
        emit(rho, 0, 0, label)
        state = rho
        for m in range(circuit.n_params):
            state = noise(state)
            for s in range(steps + 1):
                emit(circuit.gate_step(m, theta[m] * s / steps, state), m + 1, s, label)
            state = circuit.gate_step(m, theta[m], state)
        emit(noise(state), circuit.n_params + 1, 0, label)
        report = qfim_of_circuit(circuit, theta, rho, *config.rank_tolerances)
        for k, v in enumerate(_scan_directions(report.matrix)):
            for s in range(eig_steps + 1):
                t = -span + 2.0 * span * s / eig_steps
                emit(evolve(circuit, theta + t * v, rho), k, s, f"{label}/eig{k}")
    return rows


TOY_NOISE_CONFIGS = [
    {"model": "none"},
    {"model": "bit_flip", "p": 0.1},
    {"model": "global_depolarizing", "p": 0.07},
    {"model": "local_depolarizing", "p": 0.05},
    {"model": "pauli", "terms": [
        {"alpha": [0], "beta": [0], "prob": 0.8},
        {"alpha": [1], "beta": [1], "prob": 0.15},
        {"alpha": [0], "beta": [1], "prob": 0.05},
    ]},
    {"model": "composite", "channels": [
        {"model": "bit_flip", "p": 0.1}, {"model": "local_depolarizing", "p": 0.05},
    ]},
]


class TestTrajectory:
    def base_config(self, noise, **options):
        return parse_config(
            {
                "experiment": "trajectory",
                "circuit": {"name": "toy"},
                "noise": noise,
                "options": {"steps_per_gate": 8, "eigvec_steps": 8, **options},
            }
        )

    def test_schema_and_labels(self):
        cfg = self.base_config({"model": "none"})
        header, rows = parse_csv(run_trajectory(cfg))
        assert header == ["gate_index", "step", "x", "y", "z", "purity", "label"]
        labels = {r[-1] for r in rows}
        assert {"theta1", "theta2", "theta3", "theta3/eig0", "theta3/eig3"} <= labels

    def test_zero_eigenvalue_direction_is_locally_flat(self):
        # flat to second order: with a small span every point coincides
        cfg = self.base_config({"model": "none"}, eigvec_span=5e-5)
        header, rows = parse_csv(run_trajectory(cfg))
        ix, iy, iz = header.index("x"), header.index("y"), header.index("z")
        for label in ("theta3/eig2", "theta3/eig3"):  # zero-eigenvalue directions
            pts = np.array(
                [[float(r[ix]), float(r[iy]), float(r[iz])] for r in rows if r[-1] == label]
            )
            assert np.max(np.abs(pts - pts[0])) <= 1e-9

    def test_noiseless_eigvec_paths_have_constant_purity(self):
        cfg = self.base_config({"model": "none"}, eigvec_span=1.0)
        header, rows = parse_csv(run_trajectory(cfg))
        ip = header.index("purity")
        for label in ("theta3/eig0", "theta3/eig1", "theta3/eig2", "theta3/eig3"):
            purities = [float(r[ip]) for r in rows if r[-1] == label]
            assert max(purities) - min(purities) <= 1e-9

    def test_noisy_paths_change_purity(self):
        cfg = self.base_config({"model": "bit_flip", "p": 0.1}, eigvec_span=1.0)
        header, rows = parse_csv(run_trajectory(cfg))
        ip = header.index("purity")
        ranges = []
        for k in range(4):
            purities = [float(r[ip]) for r in rows if r[-1] == f"theta3/eig{k}"]
            ranges.append(max(purities) - min(purities))
        assert max(ranges) > 1e-4

    @pytest.mark.parametrize("noise", TOY_NOISE_CONFIGS, ids=lambda n: n["model"])
    def test_batched_rows_equal_the_per_state_loop_byte_for_byte(self, noise):
        cfg = self.base_config(noise, steps_per_gate=20, eigvec_steps=10)
        expected = rows_to_csv("trajectory", TRAJECTORY_COLUMNS, reference_trajectory_rows(cfg))
        assert run_trajectory(cfg) == expected

    @pytest.mark.parametrize("noise", TOY_NOISE_CONFIGS[:2], ids=lambda n: n["model"])
    def test_eigenvectors_returned_negated_give_the_same_rows(self, noise, monkeypatch):
        cfg = self.base_config(noise)
        expected = run_trajectory(cfg)
        eigh, calls = np.linalg.eigh, []

        def negated(a):
            calls.append(a.shape)
            values, vectors = eigh(a)
            return values, -vectors

        monkeypatch.setattr(np.linalg, "eigh", negated)
        assert run_trajectory(cfg) == expected
        assert calls.count((4, 4)) == len(TOY_THETAS)

    def test_scan_directions_make_the_largest_component_positive(self, rng, monkeypatch):
        a = rng.normal(size=(5, 5))
        rows = _scan_directions(a + a.T)
        _, vectors = np.linalg.eigh(a + a.T)
        np.testing.assert_array_equal(np.abs(rows), np.abs(vectors[:, ::-1].T))
        assert np.all(rows[np.arange(5), np.argmax(np.abs(rows), axis=1)] > 0)
        # equal magnitudes: the first one is made positive
        r = np.sqrt(0.5)
        monkeypatch.setattr(np.linalg, "eigh", lambda _: (np.array([0.0, 1.0]), np.array([[-r, r], [r, r]])))
        np.testing.assert_array_equal(_scan_directions(np.eye(2)), [[r, r], [r, -r]])

    def test_gate_by_gate_rows_present(self):
        cfg = self.base_config({"model": "none"})
        header, rows = parse_csv(run_trajectory(cfg))
        gate_rows = [r for r in rows if r[-1] == "theta2"]
        # 1 input row + 4 gates x 9 steps + 1 terminal row
        assert len(gate_rows) == 1 + 4 * 9 + 1


class TestEigVsP:
    def run(self, grid):
        cfg = parse_config(
            {
                "experiment": "eig_vs_p",
                "noise": {"model": "bit_flip", "p": 0.1},
                "sweep": {"p": grid},
            }
        )
        return parse_csv(run_eig_vs_p(cfg))

    def test_theta1_single_nonzero_eigenvalue(self):
        header, rows = self.run([0.001, 0.01, 0.1, 0.3])
        ie, il = header.index("eigenvalue"), header.index("label")
        ii = header.index("eig_index")
        for r in rows:
            if r[il] == "theta1" and int(r[ii]) > 0:
                assert abs(float(r[ie])) < 1e-12

    def test_theta3_small_p_continuity(self):
        header, rows = self.run([1e-4])
        circ, rho = toy_model()
        noiseless = qfim_of_circuit(circ, TOY_THETAS["theta3"], rho).eigenvalues
        got = [float(r[header.index("eigenvalue")]) for r in rows if r[header.index("label")] == "theta3"]
        np.testing.assert_allclose(got[:2], noiseless[:2], atol=5e-3)
        assert got[2] < 1e-6

    def test_observed_monotone_decrease(self):
        grid = [0.01, 0.05, 0.1, 0.2, 0.3]
        header, rows = self.run(grid)
        il, ip = header.index("label"), header.index("p")
        ii, ie = header.index("eig_index"), header.index("eigenvalue")
        circ, rho = toy_model()
        for label, theta in TOY_THETAS.items():
            r0 = qfim_of_circuit(circ, theta, rho).rank
            for k in range(r0):
                series = [
                    float(r[ie])
                    for p in grid
                    for r in rows
                    if r[il] == label and int(r[ii]) == k and float(r[ip]) == p
                ]
                assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))


class TestSpectrum:
    def run_cfg(self, model, grid, n=4, L=6, epsilons=()):
        return parse_config(
            {
                "experiment": "spectrum",
                "circuit": {"name": "hva_tfim", "n": n, "L": L},
                "noise": {"model": model, "p": 0.0},
                "theta": {"seed": 42},
                "sweep": {"p": grid},
                "options": {"epsilons": list(epsilons)} if epsilons else {},
            }
        )

    def test_global_depol_preserves_rank(self):
        header, rows = parse_csv(run_spectrum(self.run_cfg("global_depolarizing", [0.05, 0.3], n=3, L=2)))
        ir, irn = header.index("rank"), header.index("rank_noiseless")
        for r in rows:
            assert r[ir] == r[irn]

    def test_local_depol_turns_on_all_eigenvalues(self):
        header, rows = parse_csv(run_spectrum(self.run_cfg("local_depolarizing", [1e-3])))
        ie = header.index("eigenvalue")
        ir = header.index("rank")
        values = [float(r[ie]) for r in rows]
        assert len(values) == 12
        assert min(values) > 1e-12
        assert all(int(r[ir]) == 12 for r in rows)

    def test_quasi_regime_gap(self):
        header, rows = parse_csv(run_spectrum(self.run_cfg("local_depolarizing", [1e-5])))
        ie, irn = header.index("eigenvalue"), header.index("rank_noiseless")
        values = sorted((float(r[ie]) for r in rows), reverse=True)
        r0 = int(rows[0][irn])
        assert values[r0 - 1] / values[r0] >= 10

    def test_epsilon_columns(self):
        header, rows = parse_csv(
            run_spectrum(self.run_cfg("local_depolarizing", [1e-5], epsilons=[1e-2, 1e-12]))
        )
        assert "d1_eps_0.01" in header and "d1_eps_1e-12" in header
        r0 = int(rows[0][header.index("rank_noiseless")])
        assert int(rows[0][header.index("d1_eps_0.01")]) == r0
        assert int(rows[0][header.index("d1_eps_1e-12")]) == 12

    def test_rank_bounded_by_sector_algebra_noiseless(self):
        header, rows = parse_csv(run_spectrum(self.run_cfg("global_depolarizing", [0.1])))
        irn, im, ig = header.index("rank_noiseless"), header.index("M"), header.index("dim_g")
        for r in rows:
            assert int(r[irn]) <= min(int(r[im]), int(r[ig]))
        assert int(rows[0][ig]) == dla_dimension(hva_parity_sector_generators(4))


class TestScaling:
    def test_p_zero_row_matches_noiseless(self):
        cfg = parse_config(
            {
                "experiment": "scaling",
                "circuit": {"name": "hva_tfim", "n": 2, "L": 3},
                "noise": {"model": "global_depolarizing", "p": 0.05},
                "theta": {"seed": 7},
                "sweep": {"p": [0.0, 0.1]},
                "options": {"samples": 2},
            }
        )
        header, rows = parse_csv(run_scaling(cfg))
        ip, ime = header.index("p"), header.index("mean_eigenvalue")
        p0_row = [r for r in rows if float(r[ip]) == 0.0][0]
        # recompute without any noise machinery
        from qfimlab.experiments import subkey_rng

        circ = hva_tfim(2, 3)
        rho = plus_state_density(2)
        eigs = []
        for s in range(2):
            theta = subkey_rng(7, 2, 0, s).uniform(0, 2 * np.pi, 6)
            eigs.append(qfim_of_circuit(circ, theta, rho).eigenvalues)
        assert float(p0_row[ime]) == pytest.approx(float(np.mean(np.concatenate(eigs))), rel=1e-12)

    def test_depth_sweep_shape(self):
        cfg = parse_config(
            {
                "experiment": "scaling",
                "circuit": {"name": "hva_tfim", "n": 2, "L": 2},
                "noise": {"model": "global_depolarizing", "p": 0.05},
                "theta": {"seed": 7},
                "sweep": {"L": [1, 2, 3]},
                "options": {"samples": 2},
            }
        )
        header, rows = parse_csv(run_scaling(cfg))
        assert [r[header.index("M")] for r in rows] == ["2", "4", "6"]


class TestSubkeyUniform:
    COORDS = [(0,), (2**20 - 1,), (3, 2**20 - 1), (1, 4, 9), (2**20 - 1, 0, 2**20 - 1)]

    @pytest.mark.parametrize("seed", [0, 7, 42, 2**63 - 1, 2**64 - 1])
    @pytest.mark.parametrize("size", [1, 3, 4, 5, 24, 41])
    def test_rows_match_the_generator_bit_for_bit(self, seed, size):
        for low, high in ((0.0, 2.0 * np.pi), (-1.5, 0.25)):
            got = subkey_uniform(seed, self.COORDS, low, high, size)
            assert got.shape == (len(self.COORDS), size)
            for row, c in zip(got, self.COORDS):
                assert np.array_equal(row, subkey_rng(seed, *c).uniform(low, high, size))

    @pytest.mark.parametrize("coords", [(1, 2, 3, 4), (2**20,), (0, -1)])
    def test_rejects_what_subkey_rng_rejects(self, coords):
        with pytest.raises(ValueError) as want:
            subkey_rng(42, *coords)
        with pytest.raises(ValueError) as got:
            subkey_uniform(42, [(0,), coords], 0.0, 1.0, 4)
        assert str(got.value) == str(want.value)


class TestVerifyRunner:
    def test_default_suite_passes(self):
        cfg = parse_config(
            {
                "experiment": "verify",
                "theta": {"seed": 42},
                "options": {"trials": 6, "entropy_trials": 30, "delta_trials": 20,
                            "decomposition_trials": 5},
            }
        )
        payload = json.loads(run_verify(cfg))
        assert payload["all_passed"]
        assert payload["config_sha256"]
        assert all("margin" in c for c in payload["checks"])

    def test_heavy_pauli_weights_at_70_trials(self):
        # at 70 trials the seed-42 stream of the Pauli-diagonality check draws
        # three weights summing past 1; the sampler must still build a channel
        cfg = parse_config(
            {
                "experiment": "verify",
                "theta": {"seed": 42},
                "options": {"trials": 70, "entropy_trials": 10, "delta_trials": 5,
                            "decomposition_trials": 3},
            }
        )
        assert json.loads(run_verify(cfg))["all_passed"]

    def test_strict_fixed_point_mode(self):
        # opt-in: restricts sampled Pauli channels to strictly contracting
        # ones (every non-identity transfer coefficient inside (-1, 1))
        cfg = parse_config(
            {
                "experiment": "verify",
                "theta": {"seed": 42},
                "options": {"trials": 4, "entropy_trials": 10, "delta_trials": 5,
                            "decomposition_trials": 3, "strict_pauli_fixed_point": True},
            }
        )
        assert json.loads(run_verify(cfg))["all_passed"]

    def test_worker_count_leaves_report_unchanged(self):
        # each check runs on its own [seed, index] substream, and the rows keep
        # the check order whether the checks run in one thread or in three
        cfg = parse_config(
            {
                "experiment": "verify",
                "theta": {"seed": 42},
                "options": {"trials": 3, "entropy_trials": 5, "delta_trials": 3,
                            "decomposition_trials": 2},
            }
        )
        assert run_verify(cfg, workers=1) == run_verify(cfg, workers=3)

    def test_adversarial_rank_tolerance_reported(self):
        cfg = parse_config(
            {
                "experiment": "verify",
                "theta": {"seed": 42},
                "tolerances": {"rank_abs": 1e-12, "rank_rel": 1e-2},
                "options": {"trials": 6, "entropy_trials": 10, "delta_trials": 5,
                            "decomposition_trials": 3},
            }
        )
        payload = json.loads(run_verify(cfg))
        rank_checks = [
            c for c in payload["checks"] if "rank" in c["name"] and not c["passed"]
        ]
        if not payload["all_passed"]:
            assert any("tau_rel=0.01" in c["details"] for c in rank_checks)


class TestDlaRunner:
    def test_toy(self):
        cfg = parse_config({"experiment": "dla", "circuit": {"name": "toy"}})
        payload = json.loads(run_dla(cfg))
        assert payload["dim"] == 3 and payload["match"]

    @pytest.mark.parametrize("n,expected", [(2, 3), (6, 9)])
    def test_ising_ansatz(self, n, expected):
        cfg = parse_config(
            {"experiment": "dla", "circuit": {"name": "hva_tfim", "n": n, "L": 1}}
        )
        payload = json.loads(run_dla(cfg))
        assert payload["dim"] == expected and payload["match"]
        assert payload["dim_full_matrix"] >= expected

    @pytest.mark.parametrize("n,expected", [(3, 4), (5, 7), (7, 10)])
    def test_odd_ising_ansatz_matches_floor_of_three_halves_n(self, n, expected):
        cfg = parse_config(
            {"experiment": "dla", "circuit": {"name": "hva_tfim", "n": n, "L": 1}}
        )
        payload = json.loads(run_dla(cfg))
        assert (payload["dim"], payload["expected"], payload["match"]) == (expected, expected, True)

    def test_basis_printing(self):
        cfg = parse_config(
            {
                "experiment": "dla",
                "circuit": {"name": "toy"},
                "options": {"print_basis": True},
            }
        )
        payload = json.loads(run_dla(cfg))
        assert len(payload["basis_pauli_expansion"]) == 3


class TestDlaOptions:
    @pytest.mark.parametrize("options", [None, []])
    def test_options_must_be_an_object(self, options):
        for exp in ("dla", "eig_vs_p"):
            with pytest.raises(ConfigError, match="must be an object"):
                parse_config({"experiment": exp, "options": options})

    def test_max_dim_caps_the_full_closure(self):
        cfg = parse_config(
            {"experiment": "dla", "circuit": {"name": "hva_tfim", "n": 8, "L": 1},
             "options": {"max_dim": 20}}
        )
        with pytest.raises(CapExceededError, match="dimension cap 20") as info:
            run_dla(cfg)
        assert info.value.partial_dim == 20


_TOY = {"circuit": {"name": "toy"}, "noise": {"model": "bit_flip", "p": 0.1}}
_ISING = {"circuit": {"name": "hva_tfim", "n": 2, "L": 1},
          "noise": {"model": "global_depolarizing", "p": 0.1}, "sweep": {"p": [0.1]}}


def _pauli_term(alpha, beta, prob=0.1):
    return {"experiment": "trajectory", "circuit": {"name": "toy"},
            "noise": {"model": "pauli", "terms": [{"alpha": alpha, "beta": beta, "prob": prob}]}}


_GLOBAL = {"noise": {"model": "global_depolarizing", "p": 0.1}, "sweep": {"p": [0.1]}}
_SPECTRUM_N4 = {"circuit": {"name": "hva_tfim", "n": 4, "L": 1},
                "noise": {"model": "local_depolarizing", "p": 0.0}}


@pytest.mark.parametrize(
    "raw,field",
    [
        ({"experiment": "eig_vs_p", **_TOY, "sweep": {"p": [0.1]},
          "tolerances": {"rank_abs": "x"}}, "rank_abs"),
        ({"experiment": "eig_vs_p", **_TOY, "sweep": {"p": 0.1}}, "sweep.p"),
        ({"experiment": "scaling", **_ISING, "options": {"samples": 0}}, "samples"),
        ({"experiment": "spectrum", **_ISING, "options": {"epsilons": ["a"]}}, "epsilons"),
        ({"experiment": "spectrum", **_ISING, "theta": {"values": [float("nan"), 0.1]}},
         "theta.values"),
        ({"experiment": "trajectory", **_TOY, "options": {"eigvec_steps": 0}}, "eigvec_steps"),
        ({"experiment": "trajectory", **_TOY, "options": {"steps_per_gate": 0}}, "steps_per_gate"),
        ({"experiment": "verify", "options": {"trials": "x"}}, "trials"),
        ({"experiment": "verify", "options": {"trials": 0}}, "trials"),
        ({"experiment": "verify", "tolerances": {"rank_rel": 10**400}}, "rank_rel"),
        ({"experiment": "verify", "theta": {"seed": -1}}, "theta.seed"),
        ({"experiment": "scaling", **_ISING, "sweep": {"L": [1]},
          "noise": {"model": "local_depolarizing", "p": [0.1, 0.1]}}, "noise.p"),
        (_pauli_term([2], [0]), "alpha"),
        (_pauli_term([0], ["x"]), "beta"),
        (_pauli_term([1, 0], [0]), "equal length"),
        ({"experiment": "scaling", **_ISING, "theta": {"values": [0.1, 0.2]}}, "theta.values"),
        ({"experiment": "trajectory", **_TOY, "theta": {"values": [0.1] * 4}}, "theta.values"),
        ({"experiment": "eig_vs_p", **_TOY, "sweep": {"p": [0.1]},
          "theta": {"values": [0.1] * 4}}, "theta.values"),
        ({"experiment": "verify", "theta": {"values": [0.1]}}, "theta.values"),
        ({"experiment": "dla", "circuit": {"name": "toy"}, "theta": {"values": [0.1]}},
         "theta.values"),
        ({"experiment": "spectrum", **_ISING,
          "noise": {"model": "local_depolarizing", "p": [0.3, 0.9]}}, "noise.p"),
        ({"experiment": "eig_vs_p", **_TOY, "sweep": {"p": [0.1]},
          "noise": {"model": "local_depolarizing", "p": [0.7]}}, "noise.p"),
        # the experiment's circuit, noise models, sweeps and theta.values length
        ({"experiment": "spectrum", **_GLOBAL}, "circuit"),
        ({"experiment": "scaling", **_GLOBAL}, "circuit"),
        ({"experiment": "dla"}, "circuit"),
        ({"experiment": "spectrum", **_GLOBAL, "circuit": {"name": "toy"}}, "circuit"),
        ({"experiment": "trajectory", **_ISING}, "circuit"),
        ({"experiment": "eig_vs_p", **_ISING}, "circuit"),
        ({"experiment": "verify", "circuit": {"name": "toy"}}, "circuit"),
        ({"experiment": "spectrum", **_ISING, "noise": {"model": "bit_flip", "p": 0.1}},
         "noise.model"),
        ({"experiment": "eig_vs_p", "sweep": {"p": [0.1]}}, "noise.model"),
        ({"experiment": "dla", **_TOY}, "noise.model"),
        ({"experiment": "eig_vs_p", **_TOY}, "sweep.p"),
        ({"experiment": "scaling", **_ISING, "sweep": {"p": [], "L": []}}, "sweep.L or sweep.p"),
        ({"experiment": "spectrum", **_ISING, "sweep": {"p": [0.1], "L": [2]}}, "sweep.L"),
        ({"experiment": "spectrum", **_ISING, "theta": {"values": [0.1]}}, "theta.values"),
        ({"experiment": "trajectory", **_TOY,
          "noise": {"model": "local_depolarizing", "p": [0.1, 0.1]}}, "noise.p"),
        (_pauli_term([0, 1], [0, 0], prob=1.0), "noise.terms"),
        (_pauli_term([1], [0], prob=0.5), "sum to 0.5"),
        ({"experiment": "trajectory", **_TOY, "noise": {"model": "composite", "channels": [
            {"model": "bit_flip", "p": 0.1}, {"model": "none"}]}}, "noise.channels"),
        # sections that are not objects, and an output path that is not a string
        ({"experiment": "verify", "tolerances": None}, "tolerances"),
        ({"experiment": "eig_vs_p", **_TOY, "sweep": None}, "sweep"),
        ({"experiment": "eig_vs_p", **_TOY, "sweep": {"p": [0.1]}, "output": None}, "output"),
        ({"experiment": "dla", "circuit": {"name": "toy"}, "output": {"path": 5}}, "output.path"),
        # formats an experiment does not write
        ({"experiment": "dla", "circuit": {"name": "hva_tfim", "n": 4, "L": 1},
          "output": {"format": "csv"}}, "output.format"),
        ({"experiment": "verify", "output": {"format": "csv"}}, "output.format"),
        # dla options
        ({"experiment": "dla", "circuit": {"name": "toy"}, "options": {"max_dim": "3"}}, "max_dim"),
        ({"experiment": "dla", "circuit": {"name": "toy"}, "options": {"max_dim": True}}, "max_dim"),
        ({"experiment": "dla", "circuit": {"name": "toy"}, "options": {"max_dim": 0}}, "max_dim"),
        ({"experiment": "dla", "circuit": {"name": "toy"}, "options": {"print_basis": "no"}},
         "print_basis"),
        # runs larger than physical memory: the generators alone take 2^85 and 2^37 bytes
        ({"experiment": "spectrum", "circuit": {"name": "hva_tfim", "n": 40, "L": 2},
          "noise": {"model": "global_depolarizing", "p": 0.0}, "sweep": {"p": [0.01]}}, "memory"),
        ({"experiment": "spectrum", "circuit": {"name": "hva_tfim", "n": 16, "L": 2},
          "noise": {"model": "local_depolarizing", "p": 0.0}, "sweep": {"p": [0.01]}}, "memory"),
        # epsilons that would count every eigenvalue, or repeat a d1_eps column label
        ({"experiment": "spectrum", **_ISING, "options": {"epsilons": [-1.0]}}, "epsilons"),
        ({"experiment": "spectrum", **_ISING, "options": {"epsilons": [1e-6, 1.0000001e-6]}},
         "epsilons"),
        # spans whose grid 2 * span * k overflows to inf, which made every eigenvector row NaN
        ({"experiment": "trajectory",
          "options": {"eigvec_span": 1e308, "steps_per_gate": 2, "eigvec_steps": 2}}, "eigvec_span"),
        ({"experiment": "trajectory",
          "options": {"eigvec_span": 4.5e307, "steps_per_gate": 2, "eigvec_steps": 2}},
         "eigvec_span"),
        # angles whose gate phases theta * h overflow: NaN eigenvalues at p = 0, and
        # an eigensolver that does not converge at p > 0
        ({"experiment": "spectrum", **_SPECTRUM_N4, "theta": {"values": [1e308, 0.3]},
          "sweep": {"p": [0.0]}}, "theta.values"),
        ({"experiment": "spectrum", **_SPECTRUM_N4, "theta": {"values": [5e307, 0.3]},
          "sweep": {"p": [0.01]}}, "theta.values"),
        # trajectories whose rows alone outgrow physical memory
        ({"experiment": "trajectory", "options": {"eigvec_steps": 10**12, "steps_per_gate": 2}},
         "memory"),
        ({"experiment": "trajectory", "options": {"eigvec_steps": 2, "steps_per_gate": 10**12}},
         "memory"),
    ],
)
def test_malformed_input_rejected_at_parse_time(raw, field, tmp_path):
    from qfimlab.cli import main

    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=field):
            parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main([raw["experiment"], "--config", str(cfg_path)]) == 1


def test_memory_check_counts_points_that_run_at_once(monkeypatch, tmp_path, capsys):
    from qfimlab.cli import main

    # 32 MiB: the n=8, L=10 folded point, charged its two float64 buffers
    # (21 * 8 d^2 = 10.5 MiB), fits twice, but not four times
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**13}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    raw = {"experiment": "spectrum", "circuit": {"name": "hva_tfim", "n": 8, "L": 10},
           "noise": {"model": "local_depolarizing", "p": 0.0},
           "sweep": {"p": [1e-5, 1e-3, 0.08, 0.1]}}
    for workers in (None, 1, 2):
        assert parse_config(raw, workers=workers).experiment == "spectrum"
    with pytest.raises(ConfigError, match="memory"):
        parse_config(raw, workers=4)
    # no more points run at once than there are points
    assert parse_config({**raw, "sweep": {"p": [0.1]}}, workers=4).sweep["p"] == [0.1]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["spectrum", "--config", str(cfg_path), "--workers", "4"]) == 1
    assert "memory" in capsys.readouterr().err


def test_memory_check_counts_the_samples_that_run_at_once(monkeypatch, tmp_path, capsys):
    from qfimlab.cli import main

    # 1.5 MiB: at n=8, L=10 each sample of a chunk is charged 2 (M + 1) 16 d
    # = 168 KiB, for its stack of (M + 1) state vectors and the spare array of the
    # same size, which is freed before _fubini_study forms its M rows, so 9 samples
    # (1,548,288 B) fit in one pass and 10 (1,720,320 B) do not
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 384}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    raw = {"experiment": "scaling", "circuit": {"name": "hva_tfim", "n": 8, "L": 10},
           "noise": {"model": "global_depolarizing", "p": 0.01}, "sweep": {"p": [0.01]},
           "options": {"samples": 10}}
    assert scaling_chunk(10, 256, 20) == 10
    with pytest.raises(ConfigError, match="memory"):
        parse_config(raw)
    assert parse_config({**raw, "options": {"samples": 9}}).options["samples"] == 9
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["scaling", "--config", str(cfg_path)]) == 1
    assert "memory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, value, field",
    [
        ("options", lambda count: {"samples": count + 4}, "options.samples"),
        ("sweep", lambda count: {"L": [1] * count}, "sweep.L"),
        ("sweep", lambda count: {"p": [0] * count}, "sweep.p"),
    ],
)
def test_counts_past_the_substream_index_field_are_refused(section, value, field, tmp_path, capsys):
    # every sample and sweep entry keys a 20-bit field of its random substream
    from qfimlab.cli import main

    base = {"experiment": "scaling", "circuit": {"name": "hva_tfim", "n": 2, "L": 1},
            "noise": {"model": "global_depolarizing", "p": 0.01}, "sweep": {"p": [0.01]}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**base, section: value(2**20 + 1)}, separators=(",", ":")))
    assert main(["scaling", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} must") and "2^20" in err
    assert parse_config({**base, "options": {"samples": 2**20}}).options["samples"] == 2**20


def test_noiseless_spectrum_at_n14_fits_in_eight_gib(monkeypatch):
    # the vector route holds (M + 1) state vectors, 5.4 MiB here; no d x d
    # generator (4 GiB each at n=14) is formed
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": int(7.8 * 2**30) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    raw = {"experiment": "spectrum", "circuit": {"name": "hva_tfim", "n": 14, "L": 10},
           "noise": {"model": "local_depolarizing", "p": 0.0}, "sweep": {"p": [0]}}
    assert parse_config(raw).circuit["n"] == 14


def test_local_depolarizing_spectrum_at_n12_fits_in_eight_gib(monkeypatch):
    # a folded point is charged its two float64 buffers at g = n, (M + 1) 8 d^2:
    # 5.1 GiB at n=12, L=20, and 20.5 GiB at n=13
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": int(7.8 * 2**30) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    raw = {"experiment": "spectrum", "circuit": {"name": "hva_tfim", "n": 12, "L": 20},
           "noise": {"model": "local_depolarizing", "p": 0.0}, "sweep": {"p": [1e-3]}}
    assert parse_config(raw).circuit["n"] == 12
    with pytest.raises(ConfigError, match="needs about 20.5 GiB"):
        parse_config({**raw, "circuit": {"name": "hva_tfim", "n": 13, "L": 20}})


def test_statevector_memory_peak_lies_within_the_parse_time_estimate():
    # one noiseless point of the vector route: its stack of (M + 1) state vectors and
    # the spare array of the same size, which _estimated_bytes charges as
    # 2 (M + 1) 16 d; the spare is freed before _fubini_study forms its M rows
    raw = {"experiment": "spectrum", "circuit": {"name": "hva_tfim", "n": 10, "L": 10},
           "noise": {"model": "local_depolarizing", "p": 0.0}, "sweep": {"p": [0.0]}}
    cfg = parse_config(raw)
    estimate = _estimated_bytes(cfg.circuit, cfg.noise, cfg.sweep, 1)
    circuit, psi = hva_tfim(10, 10), plus_state_vector(10)
    theta = np.random.default_rng(42).uniform(0, 2 * np.pi, circuit.n_params)
    tracemalloc.start()
    try:
        qfim_of_circuit(circuit, theta, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate <= peak <= 1.5 * estimate


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_memory_per_row_stays_under_the_parse_time_bound(fmt):
    raw = {"experiment": "trajectory", "noise": {"model": "bit_flip", "p": 0.1},
           "options": {"steps_per_gate": 40, "eigvec_steps": 60}, "output": {"format": fmt}}
    cfg = parse_config(raw)
    tracemalloc.start()
    try:
        run_trajectory(cfg, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 3 * (2 + 4 * 41 + 4 * 61)  # 1,230 rows, as parse_config counts them
    assert peak <= rows * TRAJECTORY_ROW_BYTES


@pytest.mark.parametrize("steps, eig_steps", [(40, 60), (1000, 1000)])
def test_csv_trajectory_holds_at_most_256_bytes_per_row(steps, eig_steps):
    # the text is about 84 bytes per row; blocks keep the coordinates in arrays
    # until their block is rendered, instead of a tuple of floats per row
    raw = {"experiment": "trajectory", "noise": {"model": "bit_flip", "p": 0.1},
           "options": {"steps_per_gate": steps, "eigvec_steps": eig_steps}}
    cfg = parse_config(raw)
    tracemalloc.start()
    try:
        run_trajectory(cfg, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 3 * (2 + 4 * (steps + 1) + 4 * (eig_steps + 1))  # 1,230 and 24,030 rows
    assert peak <= 256 * rows


def test_eigvec_span_cap_is_inclusive():
    for span in (MAX_EIGVEC_SPAN, -MAX_EIGVEC_SPAN):
        raw = {"experiment": "trajectory", "options": {"eigvec_span": span}}
        assert parse_config(raw).options["eigvec_span"] == span
    values = [MAX_EIGVEC_SPAN, -MAX_EIGVEC_SPAN]
    raw = {"experiment": "spectrum", **_SPECTRUM_N4, "theta": {"values": values}, "sweep": {"p": [0.0]}}
    assert parse_config(raw).theta["values"] == values


def test_rows_to_csv_renders_every_cell_by_the_per_cell_rule():
    columns = ("a", "b", "c", "d", "e", "f")
    rows = [
        (0.1, np.float64(1 / 3), -0.0, float("nan"), float("inf"), float("-inf")),
        (1, np.int64(-7), True, None, "plain", np.float64(-0.0)),
        # the same type signature as the row above, now with cells that need quoting
        (2, np.int64(3), False, None, "a,b", np.float64(2.5)),
        ['say "hi"', "ok", "100%", "%s %d", 7, 1e-300],  # a row given as a list
        ["two\nlines", 1.0, 2, "y", False, 3],  # every column's type changes from the rows above
        ((1, 2), "", 0, 0.0, "%", "z"),  # a tuple cell prints its comma, unquoted
    ]
    # repeated values: 0.0 and -0.0 in column a, NaN (one with a payload) and
    # +-inf more than once, and a column f where every value is the same
    payload_nan = np.array([0x7FF8000000000001]).view(np.float64)[0]
    repeats = np.array([[0.0, np.nan, np.inf, 1 / 3, -np.inf, 2.5],
                        [-0.0, np.nan, -np.inf, 1 / 3, np.inf, 2.5],
                        [0.0, -np.nan, np.inf, 0.1, np.nan, 2.5],
                        [-0.0, payload_nan, -np.inf, 1 / 3, payload_nan, 2.5]])
    rows += [tuple(row) for row in repeats.tolist()]
    head = f"# qfimlab csv schema={CSV_SCHEMA_VERSION} experiment=demo\na,b,c,d,e,f\n"
    expected = head + "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    assert rows_to_csv("demo", columns, rows) == expected
    assert expected.splitlines()[5:9] == ['"say ""hi""",ok,100%,%s %d,7,1e-300',
                                          '"two', 'lines",1,2,y,False,3', '(1, 2),,0,0,%,z']
    assert expected.splitlines()[-4:] == ["0,nan,inf,0.33333333333333331,-inf,2.5",
                                          "-0,nan,-inf,0.33333333333333331,inf,2.5",
                                          "0,nan,inf,0.10000000000000001,nan,2.5",
                                          "-0,nan,-inf,0.33333333333333331,nan,2.5"]
    # the same rows as one block of float64 columns
    as_block = rows_to_csv("demo", columns, [tuple(repeats.T)])
    assert as_block == head + "".join(line + "\n" for line in expected.splitlines()[-4:])
    assert rows_to_csv("demo", columns, []) == head


def expanded_rows(block):
    """The rows a block stands for, each column read through ``tolist``."""
    size = max((len(c) for c in block if isinstance(c, (np.ndarray, range))), default=1)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
    return [tuple(c[i] if isinstance(b, (np.ndarray, range)) else c for c, b in zip(cells, block))
            for i in range(size)]


_BLOCKS = [
    # float columns, a range and an integer column, between constants that need escaping
    ("100%", np.array([-0.0, np.nan, np.inf, -np.inf, 1e-300, 1 / 3]), range(6),
     np.array([-7, 0, 3, 2**62, -(2**62), 1], dtype=np.int64), 'say "hi"', np.float32(0.1)),
    # bool, str, object, small-int and float32 columns, with constants that hold , and a newline
    (np.array([True, False]), np.array(["plain", "a,b"]), np.array([None, (1, 2)], dtype=object),
     np.array([1, 255], dtype=np.uint8), "two\nlines", np.array([0.1, 2.5], dtype=np.float32)),
    (np.array(['q"uote', "line\nbreak"]), np.array([0.5, 1.0], dtype=object), range(3, 5),
     "%s %d", "x,y", np.array([np.float64(2.0), 0.25])),
    # a block of no rows, then one of constants only, then another of no rows
    (1, np.array([]), range(0), "a", 2.0, np.array([], dtype=np.int64)),
    (-0.0, 7, "%", "", None, float("nan")),
    ("z", range(0), np.array([], dtype=bool), 0, 0.0, "q"),
]


def test_blocks_render_as_their_rows_by_the_per_cell_rule():
    columns = ("a", "b", "c", "d", "e", "f")
    head = f"# qfimlab csv schema={CSV_SCHEMA_VERSION} experiment=demo\na,b,c,d,e,f\n"
    rows = [row for block in _BLOCKS for row in expanded_rows(block)]
    assert len(rows) == 6 + 2 + 2 + 0 + 1 + 0
    assert [repr(r) for b in _BLOCKS for r in block_rows(b)] == list(map(repr, rows))
    expected = head + "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)
    assert rows_to_csv("demo", columns, _BLOCKS) == expected
    assert rows_to_csv("demo", columns, _BLOCKS[3:4]) == head  # no rows, no line
    assert rows_to_csv("demo", columns, _BLOCKS[4:5]) == head + '-0,7,%,,None,nan\n'
    lines = expected.splitlines()
    # a float32 constant prints as str, a float32 column through tolist, with 17 digits
    assert lines[2:7] == [f'100%,{v},{i},{k},"say ""hi""",0.1' for i, (v, k) in enumerate(
        [("-0", -7), ("nan", 0), ("inf", 3), ("-inf", 2**62), ("1e-300", -(2**62))])]
    assert lines[8:11] == ['True,plain,None,1,"two', 'lines",0.10000000149011612',
                           'False,"a,b",(1, 2),255,"two']


def test_block_columns_must_agree_in_length():
    with pytest.raises(ValueError):
        rows_to_csv("demo", ("a", "b"), [(np.zeros(3), range(2))])
    with pytest.raises(ValueError):
        rows_to_csv("demo", ("a", "b"), [(np.zeros(0), range(2))])
    with pytest.raises(ValueError):
        list(block_rows((np.zeros(3), range(2))))


def test_json_table_from_blocks_equals_the_row_wise_payload():
    cfg = parse_config({"experiment": "eig_vs_p", "noise": {"model": "bit_flip", "p": 0.1},
                        "sweep": {"p": [0.1]}, "output": {"format": "json"}})
    blocks = [
        ("theta1", 0.25, range(3), np.array([1.5, -0.0, 1e-300]), 2),
        ("a,\"b\"", 1.0, range(1), np.array([np.nan]), 0),
        ("empty", 0.5, range(0), np.array([]), 1),
        ("row", 0.75, 4, 2.0, 3),
    ]
    rows = [["theta1", 0.25, 0, 1.5, 2], ["theta1", 0.25, 1, -0.0, 2], ["theta1", 0.25, 2, 1e-300, 2],
            ['a,"b"', 1.0, 0, float("nan"), 0], ["row", 0.75, 4, 2.0, 3]]
    columns = ("label", "p", "eig_index", "eigenvalue", "rank")
    expected = report_to_json(cfg, {"columns": list(columns), "rows": rows})
    assert emit_table(cfg, columns, blocks) == expected


def test_verify_options_default_to_the_documented_values():
    assert parse_config({"experiment": "verify"}).options == {
        "trials": 20, "entropy_trials": 100, "delta_trials": 100,
        "decomposition_trials": 20, "strict_pauli_fixed_point": False,
    }


def test_parsed_config_fills_defaults_without_touching_raw():
    raw = {"experiment": "eig_vs_p", "noise": {"model": "bit_flip", "p": 0}, "sweep": {"p": [1]}}
    cfg = parse_config(raw)
    assert cfg.circuit == {"name": "toy"}
    assert cfg.noise["p"] == 0.0 and isinstance(cfg.noise["p"], float)
    assert cfg.sweep == {"p": [1.0], "L": []}
    assert cfg.output == {"path": None, "format": "csv"}
    assert raw == {"experiment": "eig_vs_p", "noise": {"model": "bit_flip", "p": 0},
                   "sweep": {"p": [1]}}


@pytest.mark.parametrize(
    "path",
    [
        *sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json")),
        *sorted((Path(__file__).resolve().parents[1] / "perfbench" / "workloads").glob("*.json")),
    ],
    ids=lambda path: path.stem,
)
def test_shipped_demo_config_parses(path):
    raw = json.loads(path.read_text())
    assert parse_config(raw).experiment == raw["experiment"]


class TestCli:
    def test_end_to_end(self, tmp_path):
        from qfimlab.cli import main

        cfg = {
            "experiment": "eig_vs_p",
            "noise": {"model": "bit_flip", "p": 0.1},
            "sweep": {"p": [0.05, 0.1]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "out.csv"
        assert main(["eig_vs_p", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("# qfimlab csv schema=1")

    def test_config_error_exit_code(self, tmp_path):
        from qfimlab.cli import main

        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"experiment": "eig_vs_p", "bogus": 1}))
        assert main(["eig_vs_p", "--config", str(cfg_path)]) == 1

    def test_worker_count_below_one_is_a_config_error(self, capsys):
        from qfimlab.cli import main

        path = Path(__file__).resolve().parents[1] / "demos" / "configs" / "dla_ising.json"
        for workers in ("0", "-3"):
            assert main(["dla", "--config", str(path), "--workers", workers]) == 1
            assert "workers must be at least 1" in capsys.readouterr().err
        raw = json.loads(path.read_text())
        with pytest.raises(ConfigError, match="workers"):
            parse_config(raw, workers=0)
        assert parse_config(raw, workers=None).experiment == "dla"

    @pytest.mark.parametrize(
        "argv", [["dla"], ["dla", "--config"], ["nosuch"], [], ["dla", "--config", "c.json", "--workers", "x"]]
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        # 2 is kept for a failed verify suite
        from qfimlab.cli import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file(self):
        from qfimlab.cli import main

        assert main(["dla", "--config", "/nonexistent/cfg.json"]) == 1

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        from qfimlab.cli import main

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "dla", "circuit": {"name": "toy"}}))
        for out in (tmp_path / "missing" / "out.json", tmp_path):
            assert main(["dla", "--config", str(cfg_path), "--out", str(out)]) == 1
            assert "cannot write output" in capsys.readouterr().err

    def test_verify_exit_codes(self, tmp_path):
        from qfimlab.cli import main

        cfg_path = tmp_path / "verify.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "experiment": "verify",
                    "theta": {"seed": 42},
                    "options": {"trials": 4, "entropy_trials": 10, "delta_trials": 5,
                                "decomposition_trials": 3},
                }
            )
        )
        assert main(["verify", "--config", str(cfg_path)]) == 0

    def test_seed_override(self, tmp_path):
        from qfimlab.cli import main

        cfg = {
            "experiment": "spectrum",
            "circuit": {"name": "hva_tfim", "n": 2, "L": 1},
            "noise": {"model": "global_depolarizing", "p": 0.0},
            "theta": {"seed": 1},
            "sweep": {"p": [0.1]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["spectrum", "--config", str(cfg_path), "--seed", "9", "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()
