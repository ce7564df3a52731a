"""JSON-configured experiment harness with seeded, reproducible emission.

Configs are validated strictly (unknown keys are errors) before any
computation. Randomness comes exclusively from numpy's counter-based Philox
generator keyed by a 64-bit seed, with per-task subkeys derived from sweep
coordinates, so identical config + seed reproduces byte-identical output.
CSV files carry a versioned schema comment line and print floats with 17
significant digits; JSON reports echo the config along with a SHA-256 hash
of its canonical form.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import verify as verify_mod
from .channels import (
    Channel,
    CompositeChannel,
    GlobalDepolarizing,
    LocalDepolarizing,
    PauliChannel,
    PauliString,
    bit_flip,
)
from .circuits import (
    TOY_THETAS,
    NoisyCircuit,
    bloch_coords,
    evolve,
    hva_tfim,
    hva_tfim_pauli_generators,
    plus_state_density,
    plus_state_vector,
    toy_model,
)
from .dla import PauliSum, lie_closure, parity_sector_dimension
from .exceptions import ConfigError
from .linalg import purity
from .qfim import (
    TAU_RANK_ABS,
    TAU_RANK_REL,
    QfimReport,
    effective_dim_d1,
    qfim_global_depol,
    qfim_of_circuit,
)
from .rand import map_tasks, subkey_rng

CSV_SCHEMA_VERSION = 1
EXPERIMENTS = ("trajectory", "eig_vs_p", "spectrum", "scaling", "verify", "dla")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, where: str, allowed: set[str], required: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _positive_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    return value


def _finite(value, where: str) -> float:
    # the comparison is False for NaN and infinities, and safe for ints too large for a float
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _probability(value, where: str) -> float:
    v = _finite(value, where)
    if not 0.0 <= v <= 1.0:
        raise ConfigError(f"{where} must lie in [0, 1], got {v}")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see README for the JSON schema."""

    experiment: str
    circuit: dict
    noise: dict
    theta: dict
    sweep: dict
    tolerances: dict
    output: dict
    options: dict
    raw: dict = field(repr=False)

    @property
    def rank_tolerances(self) -> tuple[float, float]:
        return (
            float(self.tolerances.get("rank_abs", TAU_RANK_ABS)),
            float(self.tolerances.get("rank_rel", TAU_RANK_REL)),
        )


_OPTION_KEYS = {
    "trajectory": {"steps_per_gate", "eigvec_span", "eigvec_steps"},
    "eig_vs_p": set(),
    "spectrum": {"epsilons"},
    "scaling": {"samples"},
    "verify": {
        "trials",
        "entropy_trials",
        "delta_trials",
        "decomposition_trials",
        "strict_pauli_fixed_point",
    },
    "dla": {"print_basis", "max_dim"},
}


def parse_config(raw: dict, experiment: str | None = None) -> ExperimentConfig:
    """Validate a raw config dict; unknown fields anywhere are errors.

    ``experiment`` (e.g. from the CLI subcommand) must agree with the
    config's own ``experiment`` tag when both are present.
    """
    _check_keys(
        raw,
        "config",
        {"experiment", "circuit", "noise", "theta", "sweep", "tolerances", "output", "options"},
    )
    tag = raw.get("experiment")
    if tag is None and experiment is None:
        raise ConfigError("config has no 'experiment' tag and none was given")
    if tag is not None and tag not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {tag!r}; expected one of {EXPERIMENTS}")
    if tag is not None and experiment is not None and tag != experiment:
        raise ConfigError(f"config experiment {tag!r} does not match requested {experiment!r}")
    exp = tag or experiment

    circuit = raw.get("circuit", {})
    if circuit:
        _check_keys(circuit, "circuit", {"name", "n", "L"}, {"name"})
        if circuit["name"] not in ("toy", "hva_tfim"):
            raise ConfigError(f"unknown circuit {circuit['name']!r}; expected 'toy' or 'hva_tfim'")
        if circuit["name"] == "hva_tfim":
            _positive_int(circuit.get("n", None), "circuit.n")
            _positive_int(circuit.get("L", None), "circuit.L")
            if circuit["n"] < 2:
                raise ConfigError("circuit.n must be at least 2 for hva_tfim")
        elif set(circuit) - {"name"}:
            raise ConfigError("the toy circuit takes no parameters")

    noise = raw.get("noise", {"model": "none"})
    _validate_noise(noise, "noise")
    if exp in ("spectrum", "eig_vs_p", "scaling") and isinstance(noise.get("p"), list):
        raise ConfigError(
            f"{exp} needs one number for noise.p, not a list: each sweep.p value replaces it"
        )

    theta = raw.get("theta", {})
    if theta:
        _check_keys(theta, "theta", {"seed", "values"})
        if "seed" in theta and "values" in theta:
            raise ConfigError("theta: give either 'seed' or 'values', not both")
        if "values" in theta and exp != "spectrum":
            raise ConfigError(f"theta.values is read only by spectrum, not by {exp}")
        seed = theta.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"theta.seed must be an integer in [0, 2^64), got {seed!r}")
        for v in _list(theta.get("values", []), "theta.values"):
            _finite(v, "theta.values entries")

    sweep = raw.get("sweep", {})
    if sweep:
        _check_keys(sweep, "sweep", {"p", "L"})
        for p in _list(sweep.get("p", []), "sweep.p"):
            _probability(p, "sweep.p entries")
        for level in _list(sweep.get("L", []), "sweep.L"):
            _positive_int(level, "sweep.L entries")

    tolerances = raw.get("tolerances", {})
    if tolerances:
        _check_keys(tolerances, "tolerances", {"rank_abs", "rank_rel"})
        for key, value in tolerances.items():
            if _finite(value, f"tolerances.{key}") < 0:
                raise ConfigError(f"tolerances.{key} must be nonnegative, got {value!r}")

    output = raw.get("output", {})
    if output:
        _check_keys(output, "output", {"path", "format"})
        if output.get("format", "csv") not in ("csv", "json"):
            raise ConfigError(f"output.format must be 'csv' or 'json', got {output.get('format')!r}")

    options = raw.get("options", {})
    _check_keys(options, f"options ({exp})", _OPTION_KEYS[exp])
    for key, value in options.items():
        where = f"options.{key}"
        if key in ("print_basis", "strict_pauli_fixed_point"):
            if not isinstance(value, bool):
                raise ConfigError(f"{where} must be true or false, got {value!r}")
        elif key == "eigvec_span":
            _finite(value, where)
        elif key == "epsilons":
            for e in _list(value, where):
                _finite(e, f"{where} entries")
        else:
            _positive_int(value, where)

    return ExperimentConfig(exp, circuit, noise, theta, sweep, tolerances, output, options, raw)


def _validate_noise(noise: dict, where: str) -> None:
    _check_keys(
        noise, where, {"model", "p", "terms", "channels", "placement"}, {"model"}
    )
    if noise.get("placement", "all") != "all":
        raise ConfigError(
            f"{where}.placement: only 'all' (a slot before every gate plus one after "
            f"the last) is supported"
        )
    model = noise["model"]
    if model == "none":
        if set(noise) - {"model", "placement"}:
            raise ConfigError(f"{where}: model 'none' takes no parameters")
    elif model in ("bit_flip", "global_depolarizing"):
        _probability(noise.get("p", None), f"{where}.p")
    elif model == "local_depolarizing":
        p = noise.get("p", None)
        if isinstance(p, list):
            for v in p:
                _probability(v, f"{where}.p entries")
        else:
            _probability(p, f"{where}.p")
    elif model == "pauli":
        terms = noise.get("terms", None)
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{where}.terms must be a nonempty list")
        for t in terms:
            _check_keys(t, f"{where}.terms entry", {"alpha", "beta", "prob"}, {"alpha", "beta", "prob"})
            for key in ("alpha", "beta"):
                bits = _list(t[key], f"{where}.terms {key}")
                if any(isinstance(b, bool) or b not in (0, 1) for b in bits):
                    raise ConfigError(f"{where}.terms {key} entries must be 0 or 1, got {bits!r}")
            if len(t["alpha"]) != len(t["beta"]):
                raise ConfigError(f"{where}.terms alpha and beta must have equal length")
            _probability(t["prob"], f"{where}.terms prob")
    elif model == "composite":
        channels = noise.get("channels", None)
        if not isinstance(channels, list) or not channels:
            raise ConfigError(f"{where}.channels must be a nonempty list")
        for sub in channels:
            _validate_noise(sub, f"{where}.channels entry")
    else:
        raise ConfigError(f"unknown noise model {model!r}")


def channel_from_config(noise: dict, n_qubits: int) -> Channel | None:
    """Build the per-slot channel described by a validated noise config."""
    model = noise["model"]
    if model == "none":
        return None
    if model == "bit_flip":
        return bit_flip(float(noise["p"]), n_qubits, qubit=0)
    if model == "global_depolarizing":
        return GlobalDepolarizing(n_qubits, float(noise["p"]))
    if model == "local_depolarizing":
        p = noise["p"]
        if isinstance(p, list):
            if len(p) != n_qubits:
                raise ConfigError(
                    f"local_depolarizing needs {n_qubits} probabilities, got {len(p)}"
                )
            return LocalDepolarizing(tuple(float(v) for v in p))
        return LocalDepolarizing.uniform(n_qubits, float(p))
    if model == "pauli":
        terms = []
        for t in noise["terms"]:
            s = PauliString(tuple(int(b) for b in t["alpha"]), tuple(int(b) for b in t["beta"]))
            if s.n_qubits != n_qubits:
                raise ConfigError(f"pauli term on {s.n_qubits} qubits in a {n_qubits}-qubit circuit")
            terms.append((s, float(t["prob"])))
        try:
            return PauliChannel(terms)
        except ValueError as exc:
            raise ConfigError(f"invalid pauli channel: {exc}") from exc
    if model == "composite":
        return CompositeChannel([channel_from_config(sub, n_qubits) for sub in noise["channels"]])
    raise ConfigError(f"unknown noise model {model!r}")


def circuit_from_config(circuit: dict) -> tuple[NoisyCircuit, np.ndarray]:
    """Instantiate the circuit and its default input state."""
    if not circuit:
        raise ConfigError("this experiment requires a 'circuit' section")
    if circuit["name"] == "toy":
        return toy_model()
    n = int(circuit["n"])
    return hva_tfim(n, int(circuit["L"])), plus_state_density(n)


def _theta_for(config: ExperimentConfig, m: int, default_seed: int = 0) -> np.ndarray:
    theta = config.theta
    if "values" in theta:
        values = np.asarray(theta["values"], dtype=float)
        if values.shape != (m,):
            raise ConfigError(f"theta.values has length {values.size}, circuit needs {m}")
        return values
    seed = int(theta.get("seed", default_seed))
    return subkey_rng(seed, 0).uniform(0.0, 2.0 * np.pi, m)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(experiment: str, columns: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Render rows with the versioned schema comment; floats get 17 digits."""
    lines = [f"# qfimlab csv schema={CSV_SCHEMA_VERSION} experiment={experiment}"]
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            text = _fmt(cell)
            if any(c in text for c in ",\"\n"):
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_table(
    config: ExperimentConfig, columns: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Render a result table as CSV (default) or JSON per ``output.format``."""
    if config.output.get("format", "csv") == "json":
        payload = {"columns": list(columns), "rows": [list(r) for r in rows]}
        return report_to_json(config, payload)
    return rows_to_csv(config.experiment, columns, rows)


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_to_json(config: ExperimentConfig, payload: dict) -> str:
    doc = {
        "schema": f"qfimlab-report-v{CSV_SCHEMA_VERSION}",
        "experiment": config.experiment,
        "config": config.raw,
        "config_sha256": config_hash(config.raw),
    }
    doc.update(payload)
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ("gate_index", "step", "x", "y", "z", "purity", "label")


def run_trajectory(config: ExperimentConfig, workers: int | None = None) -> str:
    """Bloch trajectories for the toy model: gate-by-gate paths for the three
    canonical parameter points, plus paths along every QFIM eigenvector.

    Gate-by-gate rows: ``gate_index = 0, step = 0`` is the raw input;
    ``(m, s)`` for ``m in 1..M`` is the state after noise slot ``m`` and gate
    ``m`` at partial angle ``theta_m * s / steps``; ``(M+1, 0)`` is the state
    after the final slot. Eigenvector rows are labelled
    ``<point>/eig<k>`` (k sorted by descending eigenvalue), ``gate_index = k``
    and ``step`` scanning the perturbation ``t`` across
    ``[-eigvec_span, eigvec_span]``.
    """
    if config.circuit and config.circuit.get("name") != "toy":
        raise ConfigError("trajectory runs on the toy circuit")
    steps = int(config.options.get("steps_per_gate", 100))
    span = float(config.options.get("eigvec_span", 1.0))
    eig_steps = int(config.options.get("eigvec_steps", 100))
    base, rho = toy_model()
    circuit = base.with_uniform_noise(channel_from_config(config.noise, 1))
    tau_abs, tau_rel = config.rank_tolerances

    def emit(state, gate_index, step, label, rows):
        x, y, z = bloch_coords(state)
        rows.append((gate_index, step, x, y, z, purity(state), label))

    def label_rows(item) -> list:
        label, theta = item
        rows: list = []
        emit(rho, 0, 0, label, rows)
        state = rho
        m_tot = circuit.n_params
        for m in range(m_tot):
            ch = circuit.noise_slots[m]
            state = state if ch is None else ch.apply(state)
            for s in range(steps + 1):
                emit(circuit.gate_step(m, theta[m] * s / steps, state), m + 1, s, label, rows)
            state = circuit.gate_step(m, theta[m], state)
        ch = circuit.noise_slots[m_tot]
        state = state if ch is None else ch.apply(state)
        emit(state, m_tot + 1, 0, label, rows)

        report = qfim_of_circuit(circuit, theta, rho, tau_abs, tau_rel)
        _, vecs = np.linalg.eigh(report.matrix)
        for k in range(circuit.n_params):
            v = vecs[:, circuit.n_params - 1 - k]  # descending eigenvalue order
            for s in range(eig_steps + 1):
                t = -span + 2.0 * span * s / eig_steps
                emit(evolve(circuit, theta + t * v, rho), k, s, f"{label}/eig{k}", rows)
        return rows

    groups = map_tasks(label_rows, list(TOY_THETAS.items()), workers)
    rows = [row for group in groups for row in group]
    return emit_table(config, TRAJECTORY_COLUMNS, rows)


EIG_VS_P_COLUMNS = ("label", "p", "eig_index", "eigenvalue", "rank")


def run_eig_vs_p(config: ExperimentConfig, workers: int | None = None) -> str:
    """Toy-model QFIM spectrum on a noise-probability grid, per parameter point."""
    if config.circuit and config.circuit.get("name") != "toy":
        raise ConfigError("eig_vs_p runs on the toy circuit")
    grid = config.sweep.get("p")
    if not grid:
        raise ConfigError("eig_vs_p needs sweep.p")
    base, rho = toy_model()
    tau_abs, tau_rel = config.rank_tolerances
    noise_model = dict(config.noise)
    if noise_model["model"] not in ("bit_flip", "global_depolarizing", "local_depolarizing"):
        raise ConfigError("eig_vs_p needs a noise model parametrized by a single 'p'")

    def one_point(arg):
        label, theta, p = arg
        noisy = base.with_uniform_noise(channel_from_config({**noise_model, "p": p}, 1))
        report = qfim_of_circuit(noisy, theta, rho, tau_abs, tau_rel)
        return [
            (label, float(p), k, float(lam), report.rank)
            for k, lam in enumerate(report.eigenvalues)
        ]

    tasks = [
        (label, theta, float(p)) for label, theta in TOY_THETAS.items() for p in grid
    ]
    groups = map_tasks(one_point, tasks, workers)
    return emit_table(config, EIG_VS_P_COLUMNS, [r for g in groups for r in g])


def _ising_qfim(
    circuit: NoisyCircuit, noise: dict, p: float, tau_abs: float, tau_rel: float
) -> Callable[[np.ndarray], QfimReport]:
    """``theta -> QFIM`` of the noiseless Ising-ansatz ``circuit`` on ``|+>^n``
    with the ``noise`` model at probability ``p`` in every slot.

    Noiseless and global depolarizing slots take the statevector path
    (:func:`qfim_global_depol`); any other noise evolves ``d x d`` states.
    """
    n = circuit.n_qubits
    if p == 0.0 or noise["model"] == "global_depolarizing":
        psi = plus_state_vector(n)
        return lambda theta: qfim_global_depol(circuit, theta, psi, p, tau_abs, tau_rel)
    noisy = circuit.with_uniform_noise(channel_from_config({**noise, "p": p}, n))
    rho = plus_state_density(n)
    return lambda theta: qfim_of_circuit(noisy, theta, rho, tau_abs, tau_rel)


def run_spectrum(config: ExperimentConfig, workers: int | None = None) -> str:
    """Full QFIM spectrum of the Ising ansatz at fixed theta across noise levels.

    Emits the noiseless rank, the symmetric-sector algebra dimension, and one
    capacity column per configured epsilon.
    """
    if not config.circuit or config.circuit.get("name") != "hva_tfim":
        raise ConfigError("spectrum runs on the hva_tfim circuit")
    grid = config.sweep.get("p")
    if not grid:
        raise ConfigError("spectrum needs sweep.p")
    if config.noise["model"] not in ("global_depolarizing", "local_depolarizing"):
        raise ConfigError("spectrum needs global_depolarizing or local_depolarizing noise")
    epsilons = [float(e) for e in config.options.get("epsilons", [])]
    circuit, _ = circuit_from_config(config.circuit)
    n = circuit.n_qubits
    theta = _theta_for(config, circuit.n_params)
    tau_abs, tau_rel = config.rank_tolerances
    dim_g = parity_sector_dimension(lie_closure(hva_tfim_pauli_generators(n)))
    noiseless = _ising_qfim(circuit, config.noise, 0.0, tau_abs, tau_rel)(theta)

    columns = ["n", "L", "M", "p", "eig_index", "eigenvalue", "rank", "rank_noiseless", "dim_g"]
    columns += [f"d1_eps_{e:g}" for e in epsilons]

    def one_p(p):
        report = _ising_qfim(circuit, config.noise, p, tau_abs, tau_rel)(theta)
        counts = [effective_dim_d1(report, e) for e in epsilons]
        return [
            (n, int(config.circuit["L"]), circuit.n_params, float(p), k, float(lam),
             report.rank, noiseless.rank, dim_g, *counts)
            for k, lam in enumerate(report.eigenvalues)
        ]

    groups = map_tasks(one_p, [float(p) for p in grid], workers)
    return emit_table(config, columns, [r for g in groups for r in g])


SCALING_COLUMNS = (
    "sweep", "n", "L", "M", "p", "samples",
    "mean_abs_entry", "std_abs_entry", "mean_eigenvalue", "std_eigenvalue",
)


def run_scaling(config: ExperimentConfig, workers: int | None = None) -> str:
    """Average QFIM entry/eigenvalue magnitudes along depth and noise sweeps.

    One sweep varies L at the noise config's fixed p, the other varies p at
    the circuit config's fixed L. Each coordinate averages over
    ``options.samples`` theta draws from per-coordinate Philox substreams.
    """
    if not config.circuit or config.circuit.get("name") != "hva_tfim":
        raise ConfigError("scaling runs on the hva_tfim circuit")
    if config.noise["model"] not in ("global_depolarizing", "local_depolarizing"):
        raise ConfigError("scaling needs global_depolarizing or local_depolarizing noise")
    samples = int(config.options.get("samples", 10))
    n = int(config.circuit["n"])
    seed = int(config.theta.get("seed", 0))
    tau_abs, tau_rel = config.rank_tolerances

    tasks = []
    for idx, level in enumerate(config.sweep.get("L", [])):
        tasks.append(("L", idx, int(level), float(config.noise["p"])))
    for idx, p in enumerate(config.sweep.get("p", [])):
        tasks.append(("p", idx, int(config.circuit["L"]), float(p)))
    if not tasks:
        raise ConfigError("scaling needs sweep.L and/or sweep.p")

    def one_coord(task):
        kind, idx, level, p = task
        circuit = hva_tfim(n, level)
        qfim = _ising_qfim(circuit, config.noise, p, tau_abs, tau_rel)
        kind_id = 1 if kind == "L" else 2
        entries, eigs = [], []
        for s in range(samples):
            rng = subkey_rng(seed, kind_id, idx, s)
            theta = rng.uniform(0.0, 2.0 * np.pi, circuit.n_params)
            report = qfim(theta)
            entries.append(np.abs(report.matrix).ravel())
            eigs.append(report.eigenvalues)
        entries = np.concatenate(entries)
        eigs = np.concatenate(eigs)
        return (
            kind, n, level, 2 * level, p, samples,
            float(np.mean(entries)), float(np.std(entries)),
            float(np.mean(eigs)), float(np.std(eigs)),
        )

    rows = map_tasks(one_coord, tasks, workers)
    return emit_table(config, SCALING_COLUMNS, rows)


def run_verify(config: ExperimentConfig, workers: int | None = None) -> str:
    """Numerical certificate suite as a JSON report with an ``all_passed`` flag."""
    seed = int(config.theta.get("seed", 42))
    results = verify_mod.run_suite(
        seed=seed,
        trials=int(config.options.get("trials", 20)),
        entropy_trials=int(config.options.get("entropy_trials", 100)),
        delta_trials=int(config.options.get("delta_trials", 100)),
        decomposition_trials=int(config.options.get("decomposition_trials", 20)),
        strict_pauli_fixed_point=bool(config.options.get("strict_pauli_fixed_point", False)),
        tau_abs=config.rank_tolerances[0],
        tau_rel=config.rank_tolerances[1],
        workers=workers,
    )
    payload = {"seed": seed, "checks": results, "all_passed": all(c["passed"] for c in results)}
    return report_to_json(config, payload)


def run_dla(config: ExperimentConfig, workers: int | None = None) -> str:
    """Lie-algebra dimension report for the configured circuit.

    The generators are Pauli sums, so no ``2^n`` matrix is formed. For the
    Ising ansatz two numbers are reported: the closure of the raw n-qubit
    generators (``dim_full_matrix``, the one closure ``max_dim`` caps), and
    its restriction to the parity-even sector that contains the ansatz's
    reference input state (``dim``, a quotient of the same closure). The
    published 3n/2 closed form counts the latter; see the package docs.
    """
    if not config.circuit:
        raise ConfigError("dla needs a circuit")
    max_dim = config.options.get("max_dim")
    if config.circuit["name"] == "toy":
        circuit, _ = toy_model()
        full = lie_closure([PauliSum.from_matrix(g) for g in circuit.generators], max_dim=max_dim)
        payload = {
            "circuit": "toy",
            "dim": full.dim,
            "expected": 3,
            "match": full.dim == 3,
        }
    else:
        n = int(config.circuit["n"])
        full = lie_closure(hva_tfim_pauli_generators(n), max_dim=max_dim)
        sector_dim = parity_sector_dimension(full)
        expected = 3 * n // 2 if n % 2 == 0 else None
        payload = {
            "circuit": f"hva_tfim(n={n})",
            "dim": sector_dim,
            "dim_full_matrix": full.dim,
            "expected": expected,
            "match": None if expected is None else sector_dim == expected,
        }
    if config.options.get("print_basis", False):
        # Tr[P e] / 2^n for each basis element e scaled to Re Tr[e† e] = 1
        scale = 2.0 ** (-full.elements[0].n_qubits / 2)
        payload["basis_pauli_expansion"] = [
            {label: [c.real * scale, c.imag * scale] for label, c in e.labels().items()}
            for e in full.elements
        ]
    return report_to_json(config, payload)


RUNNERS: dict[str, Callable] = {
    "trajectory": run_trajectory,
    "eig_vs_p": run_eig_vs_p,
    "spectrum": run_spectrum,
    "scaling": run_scaling,
    "verify": run_verify,
    "dla": run_dla,
}
