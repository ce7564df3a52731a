"""JSON-configured experiment harness with seeded, reproducible emission.

Configs are validated strictly (unknown keys are errors) before any
computation. What each experiment accepts (circuits, noise models, sweeps,
options and their defaults) is stated once, in :data:`CONTRACTS`, and
:func:`parse_config` is the only code that enforces it: a config that parses
runs without a config error. Randomness comes exclusively from counter-based
Philox4x64-10 streams keyed by a 64-bit seed, with per-task subkeys derived
from sweep coordinates, so identical config + seed reproduces byte-identical
output. The theta draws of ``spectrum`` and ``scaling`` come from one
vectorized :func:`~qfimlab.rand.subkey_uniform` evaluation, without
``numpy.random``. CSV files carry a versioned schema comment line and
print floats with 17 significant digits; JSON reports echo the config along
with a SHA-256 hash of its canonical form. Both formats carry the schema
version of their experiment's contract. Runners return data, a
:class:`Table` or a report dict, and :func:`render` alone makes it text.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

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
    TOY_GENERATORS,
    TOY_THETAS,
    NoisyCircuit,
    bloch_coords,
    evolve,
    hva_tfim,
    hva_tfim_pauli_generators,
    plus_state_vector,
    toy_model,
)
from .dla import PauliSum, lie_closure, parity_sector_dimension
from .exceptions import ConfigError
from .linalg import purity
from .qfim import TAU_RANK_ABS, TAU_RANK_REL, effective_dim_d1, folded_bytes, qfim_of_circuit
from .rand import SUBKEY_RANGE, map_tasks, subkey_rng, subkey_uniform  # subkey_rng is re-exported

# The output schema version of every experiment whose contract names no other.
CSV_SCHEMA_VERSION = 1
# The largest |angle| a config gives, in radians: every theta.values entry and
# the trajectory's options.eigvec_span. Angles this large still resolve about
# 1e-10 rad, and the products theta * h and 2 * span * k stay finite for any
# size that fits in memory; far larger angles overflow them to inf, and the
# eigenvalues or rows to NaN.
MAX_EIGVEC_SPAN = 1e6
# Peak bytes per trajectory row, an upper bound for both formats: tracemalloc measured
# 210-248 for CSV from 1,230 to 96,030 rows, and 1,044-1,064 for JSON.
TRAJECTORY_ROW_BYTES = 1280
# Bytes of state vectors that one scaling point runs through the statevector
# pass at once: its samples go in chunks of (M + 1) 16 d bytes each, as many
# as fit, and at least one. The n=6 and n=4 demo and benchmark configs run all
# 10 samples of a coordinate together; from n=16 on every sample runs alone.
SCALING_BATCH_BYTES = 2**22


class Contract(NamedTuple):
    """What one experiment accepts. :func:`parse_config` is the only reader."""

    circuits: tuple[str, ...]  # the circuits it runs on
    default_circuit: str | None  # the circuit when the config names none
    noise: tuple[str, ...]  # the noise models it accepts
    sweeps: tuple[str, ...]  # it needs at least one of these nonempty
    options: dict  # every option with its default; the default's type is the option's
    formats: tuple[str, ...]  # the output formats it writes; the first is the default
    seed: int = 0  # theta.seed when the config gives no theta
    schema: int = CSV_SCHEMA_VERSION  # the version of its CSV and JSON output


NOISE_MODELS = ("none", "bit_flip", "global_depolarizing", "local_depolarizing", "pauli", "composite")
_DEPOLARIZING = ("global_depolarizing", "local_depolarizing")
_TABLE = ("csv", "json")  # what emit_table writes

CONTRACTS = {
    "trajectory": Contract(
        ("toy",), "toy", NOISE_MODELS, (),
        {"steps_per_gate": 100, "eigvec_span": 1.0, "eigvec_steps": 100}, _TABLE,
        schema=2,  # 2: only the eigenvectors the rank resolves are scanned
    ),
    "eig_vs_p": Contract(("toy",), "toy", ("bit_flip", *_DEPOLARIZING), ("p",), {}, _TABLE),
    "spectrum": Contract(("hva_tfim",), None, _DEPOLARIZING, ("p",), {"epsilons": []}, _TABLE),
    "scaling": Contract(("hva_tfim",), None, _DEPOLARIZING, ("L", "p"), {"samples": 10}, _TABLE),
    "verify": Contract(
        (), None, ("none",), (),
        {"trials": 20, "entropy_trials": 100, "delta_trials": 100,
         "decomposition_trials": 20, "strict_pauli_fixed_point": False},
        ("json",), seed=42,
    ),
    "dla": Contract(
        ("toy", "hva_tfim"), None, ("none",), (), {"print_basis": False, "max_dim": None}, ("json",)
    ),
}
EXPERIMENTS = tuple(CONTRACTS)


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


def _angle(value, where: str) -> float:
    v = _finite(value, where)
    if abs(v) > MAX_EIGVEC_SPAN:
        raise ConfigError(f"{where} must lie in [-{MAX_EIGVEC_SPAN:g}, {MAX_EIGVEC_SPAN:g}], got {value!r}")
    return v


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _sweep_list(value, where: str) -> list:
    """A sweep list, whose entry indices key the per-point random substreams."""
    if len(_list(value, where)) > SUBKEY_RANGE:
        raise ConfigError(f"{where} must have at most 2^20 = {SUBKEY_RANGE} entries, got {len(value)}")
    return value


def _probability(value, where: str) -> float:
    v = _finite(value, where)
    if not 0.0 <= v <= 1.0:
        raise ConfigError(f"{where} must lie in [0, 1], got {v}")
    return v


def _option(value, default, where: str):
    """``value`` checked against the type of the option's ``default``."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        return value
    if isinstance(default, float):
        return _finite(value, where)
    if isinstance(default, list):
        return [_finite(v, f"{where} entries") for v in _list(value, where)]
    return _positive_int(value, where)  # an int option, or a None default: a cap when given


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description, with every default filled in.

    A config that :func:`parse_config` returns runs without a config error.
    ``raw`` is the config as given, echoed by JSON reports.
    """

    experiment: str
    circuit: dict
    noise: dict
    theta: dict
    sweep: dict
    rank_tolerances: tuple[float, float]  # (tolerances.rank_abs, tolerances.rank_rel)
    output: dict
    options: dict
    raw: dict = field(repr=False)


def parse_config(raw: dict, experiment: str | None = None, workers: int | None = 1) -> ExperimentConfig:
    """Validate a raw config dict against the experiment's :data:`CONTRACTS` entry.

    Unknown fields anywhere are errors. ``experiment`` (e.g. from the CLI
    subcommand) must agree with the config's own ``experiment`` tag when both
    are present. No circuit, channel or state is built here; a ``spectrum``,
    ``scaling`` or ``trajectory`` run whose estimated memory exceeds the
    machine's physical memory is refused here too, from counts alone
    (:func:`~qfimlab.circuits.fold_plan` counts orbits); for ``spectrum`` and
    ``scaling``, up to ``workers`` points (``None`` is serial) are counted as
    held at once. A ``workers`` count below 1 is a config error.
    """
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be at least 1 (or None for serial), got {workers}")
    _check_keys(
        raw,
        "config",
        {"experiment", "circuit", "noise", "theta", "sweep", "tolerances", "output", "options"},
    )
    tag = raw.get("experiment")
    exp = tag or experiment
    if exp is None:
        raise ConfigError("config has no 'experiment' tag and none was given")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}; expected one of {EXPERIMENTS}")
    if tag is not None and experiment is not None and tag != experiment:
        raise ConfigError(f"config experiment {tag!r} does not match requested {experiment!r}")
    contract = CONTRACTS[exp]

    circuit = raw.get("circuit", {})
    if circuit != {}:
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
    if not circuit and contract.default_circuit:
        circuit = {"name": contract.default_circuit}

    n_qubits = circuit.get("n", 1) if circuit else None
    noise = _parse_noise(raw.get("noise", {"model": "none"}), "noise", n_qubits)
    if "p" in contract.sweeps and isinstance(noise.get("p"), list):
        raise ConfigError(
            f"{exp} needs one number for noise.p, not a list: each sweep.p value replaces it"
        )

    theta = raw.get("theta", {})
    _check_keys(theta, "theta", {"seed", "values"})
    if "seed" in theta and "values" in theta:
        raise ConfigError("theta: give either 'seed' or 'values', not both")
    if "values" in theta and exp != "spectrum":
        raise ConfigError(f"theta.values is read only by spectrum, not by {exp}")
    seed = theta.get("seed", contract.seed)
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"theta.seed must be an integer in [0, 2^64), got {seed!r}")
    if "values" in theta:
        values = _list(theta["values"], "theta.values")
        theta = {"values": [_angle(v, "theta.values entries") for v in values]}
    else:
        theta = {"seed": seed}

    sweep = raw.get("sweep", {})
    _check_keys(sweep, "sweep", {"p", "L"})
    sweep = {
        "p": [_probability(p, "sweep.p entries") for p in _sweep_list(sweep.get("p", []), "sweep.p")],
        "L": [_positive_int(v, "sweep.L entries") for v in _sweep_list(sweep.get("L", []), "sweep.L")],
    }

    tolerances = raw.get("tolerances", {})
    _check_keys(tolerances, "tolerances", {"rank_abs", "rank_rel"})
    for key, value in tolerances.items():
        if _finite(value, f"tolerances.{key}") < 0:
            raise ConfigError(f"tolerances.{key} must be nonnegative, got {value!r}")
    rank_tolerances = (
        float(tolerances.get("rank_abs", TAU_RANK_ABS)), float(tolerances.get("rank_rel", TAU_RANK_REL))
    )

    output = raw.get("output", {})
    _check_keys(output, "output", {"path", "format"})
    output = {"path": None, "format": contract.formats[0]} | output
    if output["format"] not in contract.formats:
        allowed = " or ".join(map(repr, contract.formats))
        raise ConfigError(f"output.format: {exp} writes {allowed}, got {output['format']!r}")
    if output["path"] is not None and (not isinstance(output["path"], str) or "\0" in output["path"]):
        raise ConfigError(f"output.path must be a string with no NUL character, got {output['path']!r}")

    options = raw.get("options", {})
    _check_keys(options, f"options ({exp})", set(contract.options))
    options = contract.options | {
        key: _option(value, contract.options[key], f"options.{key}") for key, value in options.items()
    }
    epsilons = options.get("epsilons", [])
    labels = [_epsilon_column(e) for e in epsilons]
    if np.signbit(epsilons).any() or len(set(labels)) < len(labels):
        raise ConfigError(f"options.epsilons must be nonnegative with distinct columns, got {labels}")
    if "eigvec_span" in options:
        _angle(options["eigvec_span"], "options.eigvec_span")
    if options.get("samples", 0) > SUBKEY_RANGE:
        raise ConfigError(f"options.samples must be at most 2^20 = {SUBKEY_RANGE}, got {options['samples']}")

    # the contract's rules that span sections
    if circuit.get("name") not in contract.circuits and (circuit or contract.circuits):
        allowed = " or ".join(map(repr, contract.circuits)) or "no circuit"
        got = repr(circuit["name"]) if circuit else "none"
        raise ConfigError(f"circuit: {exp} runs on {allowed}, got {got}")
    if noise["model"] not in contract.noise:
        raise ConfigError(f"noise.model: {exp} accepts {contract.noise}, got {noise['model']!r}")
    unread = [key for key, values in sweep.items() if values and key not in contract.sweeps]
    if unread:
        raise ConfigError(f"sweep.{unread[0]} is not read by {exp}")
    if contract.sweeps and not any(sweep[key] for key in contract.sweeps):
        needed = " or ".join(f"sweep.{key}" for key in contract.sweeps)
        raise ConfigError(f"{exp} needs a nonempty {needed}")
    if "values" in theta and len(theta["values"]) != 2 * circuit["L"]:
        m = 2 * circuit["L"]
        raise ConfigError(f"theta.values needs 2L = {m} entries, got {len(theta['values'])}")
    if exp in ("spectrum", "scaling"):
        need = _estimated_bytes(circuit, noise, sweep, workers or 1, options.get("samples", 1))
        _check_memory(f"{exp} at n={circuit['n']}", need)
    if exp == "trajectory":
        # per parameter point: the input and final states, then steps + 1 per gate and
        # eigvec_steps + 1 per QFIM eigenvector, at most one eigenvector per gate
        m = len(TOY_THETAS["theta1"])
        rows = len(TOY_THETAS) * (2 + m * (options["steps_per_gate"] + options["eigvec_steps"] + 2))
        _check_memory(f"trajectory with {rows} rows", rows * TRAJECTORY_ROW_BYTES)
    return ExperimentConfig(exp, circuit, noise, theta, sweep, rank_tolerances, output, options, raw)


def _check_memory(what: str, need: int) -> None:
    """Refuse a run that needs more than the machine's physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"{what} needs about {need / 2**30:.3g} GiB, more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )


def _estimated_bytes(circuit: dict, noise: dict, sweep: dict, workers: int, samples: int = 1) -> int:
    """Bytes a spectrum or scaling run of the Ising ansatz holds at once: its
    largest point (``M = 2L`` deepest) once per point run at the same time.
    A local-depolarizing point with ``p > 0`` is charged
    :func:`~qfimlab.qfim.folded_bytes` at ``g = 1``, the Ising ring's rotation
    step under uniform noise on ``|+>^n``; any other point the stack and spare
    array of ``circuits.statevector_derivatives`` on its :func:`scaling_chunk`.
    """
    d = 2 ** circuit["n"]
    depths = [2 * level for level in (circuit["L"], *sweep["L"])]
    points = sweep["p"] + [noise["p"]] * len(sweep["L"])  # the L sweep runs at noise.p
    folded = noise["model"] == "local_depolarizing" and any(p > 0.0 for p in points)
    held = min(workers, len(points))
    vectors = max(2 * (m + 1) * scaling_chunk(samples, d, m) * 16 * d for m in depths)
    return held * max(vectors, folded_bytes(circuit["n"], 1, max(depths) + 1) if folded else 0)


def scaling_chunk(samples: int, dim: int, n_params: int) -> int:
    """How many of a point's ``samples`` run through one statevector pass: as
    many ``(M + 1) 16 d``-byte stacks as fit in :data:`SCALING_BATCH_BYTES`,
    at least one and at most ``samples``."""
    return max(1, min(samples, SCALING_BATCH_BYTES // ((n_params + 1) * 16 * dim)))


def _parse_noise(noise: dict, where: str, n_qubits: int | None) -> dict:
    """A checked copy of a noise section, with every probability a float.

    Qubit counts are checked against ``n_qubits`` unless it is None (no circuit).
    """
    _check_keys(noise, where, {"model", "p", "terms", "channels"}, {"model"})
    model = noise["model"]
    out = dict(noise)
    if model == "none":
        if set(noise) - {"model"}:
            raise ConfigError(f"{where}: model 'none' takes no parameters")
    elif model in ("bit_flip", "global_depolarizing"):
        out["p"] = _probability(noise.get("p", None), f"{where}.p")
    elif model == "local_depolarizing":
        p = noise.get("p", None)
        if isinstance(p, list):
            out["p"] = [_probability(v, f"{where}.p entries") for v in p]
            if n_qubits is not None and len(p) != n_qubits:
                raise ConfigError(f"{where}.p needs one entry per qubit ({n_qubits}), got {len(p)}")
        else:
            out["p"] = _probability(p, f"{where}.p")
    elif model == "pauli":
        terms = noise.get("terms", None)
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{where}.terms must be a nonempty list")
        out["terms"] = []
        for t in terms:
            _check_keys(t, f"{where}.terms entry", {"alpha", "beta", "prob"}, {"alpha", "beta", "prob"})
            for key in ("alpha", "beta"):
                bits = _list(t[key], f"{where}.terms {key}")
                if any(isinstance(b, bool) or b not in (0, 1) for b in bits):
                    raise ConfigError(f"{where}.terms {key} entries must be 0 or 1, got {bits!r}")
            if len(t["alpha"]) != len(t["beta"]):
                raise ConfigError(f"{where}.terms alpha and beta must have equal length")
            if n_qubits is not None and len(t["alpha"]) != n_qubits:
                raise ConfigError(
                    f"{where}.terms: a term on {len(t['alpha'])} qubits, the circuit has {n_qubits}"
                )
            out["terms"].append({**t, "prob": _probability(t["prob"], f"{where}.terms prob")})
        # the same sum, in the same order, that PauliChannel checks
        total = float(np.array([t["prob"] for t in out["terms"]]).sum())
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"{where}.terms: probabilities sum to {total}, expected 1")
    elif model == "composite":
        channels = noise.get("channels", None)
        if not isinstance(channels, list) or not channels:
            raise ConfigError(f"{where}.channels must be a nonempty list")
        out["channels"] = [_parse_noise(sub, f"{where}.channels entry", n_qubits) for sub in channels]
        if any(sub["model"] == "none" for sub in out["channels"]):
            raise ConfigError(f"{where}.channels: model 'none' is not a channel to compose")
    else:
        raise ConfigError(f"unknown noise model {model!r}")
    return out


def channel_from_config(noise: dict, n_qubits: int) -> Channel | None:
    """Build the per-slot channel described by a parsed noise config."""
    model = noise["model"]
    if model == "none":
        return None
    if model == "bit_flip":
        return bit_flip(noise["p"], n_qubits, qubit=0)
    if model == "global_depolarizing":
        return GlobalDepolarizing(n_qubits, noise["p"])
    if model == "local_depolarizing":
        p = noise["p"]
        if isinstance(p, list):
            return LocalDepolarizing(tuple(p))
        return LocalDepolarizing.uniform(n_qubits, p)
    if model == "pauli":
        return PauliChannel(
            [(PauliString(tuple(t["alpha"]), tuple(t["beta"])), t["prob"]) for t in noise["terms"]]
        )
    # composite, the one model left
    return CompositeChannel([channel_from_config(sub, n_qubits) for sub in noise["channels"]])


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _csv_cell(value: Any) -> str:
    """A float with 17 digits, anything else as ``str``; a string that holds a
    comma, quote or newline is quoted (a formatted number never does)."""
    if isinstance(value, float):
        return f"{value:.17g}"
    text = str(value)
    if isinstance(value, str) and any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def block_rows(block: Sequence[Any]) -> Iterator[tuple]:
    """The rows of a block (see :func:`rows_to_csv`): row ``i`` holds element
    ``i`` of each column, an array read through ``tolist``, and each constant."""
    size = max((len(c) for c in block if isinstance(c, (np.ndarray, range))), default=1)
    cells = (c if isinstance(c, range) else c.tolist() if isinstance(c, np.ndarray) else repeat(c, size)
             for c in block)
    return zip(*cells, strict=True)


def _float_texts(column: np.ndarray) -> list[str]:
    """``%.17g`` of each value of a float64 column, each distinct value formatted
    once; keyed by bit pattern, so -0.0 and every NaN payload keep their own text."""
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(["%.17g" % x for x in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _csv_block(block: Sequence[Any]) -> str | None:
    """The lines of a block by one format string (see :func:`rows_to_csv`); None without rows."""
    parts, values = [], []
    for cell in block:
        if isinstance(cell, range):
            parts.append("%d")
            values.append(cell)
        elif isinstance(cell, np.ndarray) and cell.dtype.kind in "iu":
            parts.append("%d")
            values.append(cell.tolist())
        elif isinstance(cell, np.ndarray):
            parts.append("%s")
            values.append(_float_texts(cell) if cell.dtype == np.float64 else [*map(_csv_cell, cell.tolist())])
        else:
            parts.append(_csv_cell(cell).replace("%", "%%"))
    fmt = ",".join(parts)
    rows = zip(*values, strict=True) if values else [()]  # a block without columns is one row
    return "\n".join(map(fmt.__mod__, rows)) if not values or any(map(len, values)) else None


def schema_version(experiment: str) -> int:
    """The output schema version of ``experiment``: its contract's, and
    :data:`CSV_SCHEMA_VERSION` for a name with no contract."""
    contract = CONTRACTS.get(experiment)
    return contract.schema if contract else CSV_SCHEMA_VERSION


def rows_to_csv(experiment: str, columns: Sequence[str], blocks: Sequence[Sequence[Any]]) -> str:
    """Render blocks of rows with the versioned schema comment, each cell of
    each row of :func:`block_rows` as :func:`_csv_cell` renders it.

    A block has one cell per column: a constant (a scalar, the same on every
    row) or a column (a 1-D array or a ``range``, one value per row); a plain
    row is a block without columns. One format string renders a block: a
    constant is its text, an integer column or a range ``%d``, and any other
    column is rendered into ``%s``: a float64 column by ``%.17g`` once per
    distinct value (by bit pattern, :func:`_float_texts`), gathered back to
    its rows, and any other cell by cell.
    """
    head = f"# qfimlab csv schema={schema_version(experiment)} experiment={experiment}"
    texts = [text for text in map(_csv_block, blocks) if text is not None]
    return "\n".join([head, ",".join(columns), *texts, ""])  # "": the final newline, in the one join


class Table(NamedTuple):
    """A table runner's result: its columns and its blocks of rows (see :func:`rows_to_csv`)."""

    columns: Sequence[str]
    blocks: Sequence[Sequence[Any]]


def render(config: ExperimentConfig, result: Table | dict) -> str:
    """A runner's output text: a report dict by :func:`report_to_json`, a table by :func:`emit_table`."""
    if isinstance(result, dict):
        return report_to_json(config, result)
    return emit_table(config, *result)


def emit_table(config: ExperimentConfig, columns: Sequence[str], blocks: Sequence[Sequence[Any]]) -> str:
    """Render a result table, given as blocks of rows (see :func:`rows_to_csv`),
    as CSV (default) or JSON per ``output.format``; JSON lists every row."""
    if config.output["format"] == "json":
        payload = {"columns": list(columns), "rows": [list(r) for b in blocks for r in block_rows(b)]}
        return report_to_json(config, payload)
    return rows_to_csv(config.experiment, columns, blocks)


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def report_to_json(config: ExperimentConfig, payload: dict) -> str:
    doc = {
        "schema": f"qfimlab-report-v{schema_version(config.experiment)}",
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


def run_trajectory(config: ExperimentConfig, workers: int | None = None) -> Table:
    """Bloch trajectories for the toy model: gate-by-gate paths for the three
    canonical parameter points, plus paths along each QFIM eigenvector that
    the rank resolves.

    Gate-by-gate rows: ``gate_index = 0, step = 0`` is the raw input;
    ``(m, s)`` for ``m in 1..M`` is the state after noise slot ``m`` and gate
    ``m`` at partial angle ``theta_m * s / steps``; ``(M+1, 0)`` is the state
    after the final slot.
    Eigenvector rows are labelled
    ``<point>/eig<k>`` (k sorted by descending eigenvalue), ``gate_index = k``
    and ``step`` scanning the perturbation ``t`` across
    ``[-eigvec_span, eigvec_span]`` along the eigenvector signed by
    :func:`_scan_directions`, which pins the path of a nondegenerate
    eigenvalue. Only ``k < rank`` is scanned, the rank taken at
    ``config.rank_tolerances``: a direction of the null space does not move
    the state to first order, and ``np.linalg.eigh`` returns an arbitrary
    basis of it, so its path would be neither informative nor reproducible.

    Each gate's ``steps + 1`` partial angles run as one stacked
    :meth:`~qfimlab.circuits.NoisyCircuit.gate_step`, and each eigenvector's
    ``eigvec_steps + 1`` points as one batched :func:`evolve`.
    """
    steps, eig_steps = config.options["steps_per_gate"], config.options["eigvec_steps"]
    span = config.options["eigvec_span"]
    base, rho = toy_model()
    circuit = base.with_uniform_noise(channel_from_config(config.noise, 1))
    tau_abs, tau_rel = config.rank_tolerances

    noise = (lambda state: state) if circuit.noise is None else circuit.noise.apply
    s_gate = np.arange(steps + 1)
    ts = -span + 2.0 * span * np.arange(eig_steps + 1) / eig_steps

    def path_rows(stack, gate_index, label) -> tuple:
        """One block, a row per state of ``stack``, its ``step`` the state's position."""
        return (gate_index, range(len(stack)), *bloch_coords(stack), purity(stack), label)

    def label_rows(item) -> list:
        label, theta = item
        blocks = [path_rows(rho[None], 0, label)]
        state = rho
        for m in range(circuit.n_params):
            state = noise(state)
            partial = np.repeat(state[None], steps + 1, axis=0)
            blocks.append(path_rows(circuit.gate_step(m, theta[m] * s_gate / steps, partial), m + 1, label))
            state = circuit.gate_step(m, theta[m], state)
        blocks.append(path_rows(noise(state)[None], circuit.n_params + 1, label))

        report = qfim_of_circuit(circuit, theta, rho, tau_abs, tau_rel)
        for k, v in enumerate(_scan_directions(report.matrix)[: report.rank]):
            blocks.append(path_rows(evolve(circuit, theta + ts[:, None] * v, rho), k, f"{label}/eig{k}"))
        return blocks

    groups = map_tasks(label_rows, list(TOY_THETAS.items()), workers)
    return Table(TRAJECTORY_COLUMNS, [block for group in groups for block in group])


def _scan_directions(matrix: np.ndarray) -> np.ndarray:
    """The eigenvectors of a real symmetric ``matrix`` as rows, by descending
    eigenvalue, each signed so that its largest-magnitude component (the
    first of equal ones) is positive."""
    vecs = np.linalg.eigh(matrix)[1][:, ::-1].T
    lead = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
    return np.where(lead < 0, -1.0, 1.0)[:, None] * vecs


EIG_VS_P_COLUMNS = ("label", "p", "eig_index", "eigenvalue", "rank")


def run_eig_vs_p(config: ExperimentConfig, workers: int | None = None) -> Table:
    """Toy-model QFIM spectrum on a noise-probability grid, per parameter point."""
    base, rho = toy_model()
    tau_abs, tau_rel = config.rank_tolerances

    def one_point(arg):
        label, theta, p = arg
        noisy = base.with_uniform_noise(channel_from_config({**config.noise, "p": p}, 1))
        report = qfim_of_circuit(noisy, theta, rho, tau_abs, tau_rel)
        return (label, p, range(len(report.eigenvalues)), report.eigenvalues, report.rank)

    tasks = [(label, theta, p) for label, theta in TOY_THETAS.items() for p in config.sweep["p"]]
    return Table(EIG_VS_P_COLUMNS, map_tasks(one_point, tasks, workers))


def _with_noise(circuit: NoisyCircuit, noise: dict, p: float) -> NoisyCircuit:
    """``circuit`` with the ``noise`` model at probability ``p`` in every slot,
    and no channel at ``p = 0``."""
    channel = channel_from_config({**noise, "p": p}, circuit.n_qubits) if p > 0.0 else None
    return circuit.with_uniform_noise(channel)


def _epsilon_column(epsilon: float) -> str:
    """The spectrum column that counts eigenvalues above ``epsilon``."""
    return f"d1_eps_{epsilon:g}"


def run_spectrum(config: ExperimentConfig, workers: int | None = None) -> Table:
    """Full QFIM spectrum of the Ising ansatz at fixed theta across noise levels.

    Its rows hold the noiseless rank, the symmetric-sector algebra dimension,
    and one capacity column per configured epsilon.
    """
    epsilons = config.options["epsilons"]
    n, layers = config.circuit["n"], config.circuit["L"]
    circuit = hva_tfim(n, layers)
    if "values" in config.theta:
        theta = np.asarray(config.theta["values"])
    else:
        theta = subkey_uniform(config.theta["seed"], [(0,)], 0.0, 2.0 * np.pi, circuit.n_params)[0]
    tau_abs, tau_rel = config.rank_tolerances
    dim_g = parity_sector_dimension(lie_closure(hva_tfim_pauli_generators(n)))
    psi = plus_state_vector(n)
    noiseless = qfim_of_circuit(circuit, theta, psi, tau_abs, tau_rel)

    columns = ["n", "L", "M", "p", "eig_index", "eigenvalue", "rank", "rank_noiseless", "dim_g"]
    columns += [_epsilon_column(e) for e in epsilons]

    def one_p(p):
        noisy = _with_noise(circuit, config.noise, p)
        report = noiseless if p == 0.0 else qfim_of_circuit(noisy, theta, psi, tau_abs, tau_rel)
        counts = [effective_dim_d1(report, e) for e in epsilons]
        eigs = report.eigenvalues
        return (n, layers, circuit.n_params, p, range(len(eigs)), eigs,
                report.rank, noiseless.rank, dim_g, *counts)

    return Table(columns, map_tasks(one_p, config.sweep["p"], workers))


SCALING_COLUMNS = (
    "sweep", "n", "L", "M", "p", "samples",
    "mean_abs_entry", "std_abs_entry", "mean_eigenvalue", "std_eigenvalue",
)


def run_scaling(config: ExperimentConfig, workers: int | None = None) -> Table:
    """Average QFIM entry/eigenvalue magnitudes along depth and noise sweeps.

    One sweep varies L at the noise config's fixed p, the other varies p at
    the circuit config's fixed L. Each coordinate averages over
    ``options.samples`` theta draws, one Philox substream per sample; one
    :func:`~qfimlab.rand.subkey_uniform` call draws every stream before the
    coordinates run, and a depth-``L`` row keeps the first ``2L`` values of
    each of its streams. The draws go through
    :func:`~qfimlab.qfim.qfim_of_circuit` in chunks of :func:`scaling_chunk`
    rows: one batched statevector pass per chunk, or one QFIM per row on the
    density routes.
    """
    samples, n, seed = config.options["samples"], config.circuit["n"], config.theta["seed"]
    tau_abs, tau_rel = config.rank_tolerances
    tasks = [("L", idx, level, config.noise["p"]) for idx, level in enumerate(config.sweep["L"])]
    tasks += [("p", idx, config.circuit["L"], p) for idx, p in enumerate(config.sweep["p"])]
    # every depth repeats the one-layer circuit, so all share its kernels
    base = hva_tfim(n, 1)
    circuits = {level: replace(base, layers=base.layers * level) for level in {t[2] for t in tasks}}
    psi = plus_state_vector(n)
    coords = [(1 if kind == "L" else 2, idx, s) for kind, idx, _, _ in tasks for s in range(samples)]
    n_max = max(c.n_params for c in circuits.values())
    draws = subkey_uniform(seed, coords, 0.0, 2.0 * np.pi, n_max).reshape(len(tasks), samples, n_max)

    def one_coord(task_draws):
        (kind, idx, level, p), draw = task_draws
        circuit = _with_noise(circuits[level], config.noise, p)
        thetas = draw[:, : circuit.n_params]
        chunk = scaling_chunk(samples, circuit.dim, circuit.n_params)
        reports = [
            report
            for start in range(0, samples, chunk)
            for report in qfim_of_circuit(circuit, thetas[start : start + chunk], psi, tau_abs, tau_rel)
        ]
        entries = np.concatenate([np.abs(r.matrix).ravel() for r in reports])
        eigs = np.concatenate([r.eigenvalues for r in reports])
        return (
            kind, n, level, 2 * level, p, samples,
            float(np.mean(entries)), float(np.std(entries)),
            float(np.mean(eigs)), float(np.std(eigs)),
        )

    return Table(SCALING_COLUMNS, map_tasks(one_coord, list(zip(tasks, draws)), workers))


def run_verify(config: ExperimentConfig, workers: int | None = None) -> dict:
    """Numerical certificate suite: its ``checks`` and an ``all_passed`` flag."""
    from . import verify  # only a verify run loads the suite

    seed = config.theta["seed"]
    tau_abs, tau_rel = config.rank_tolerances
    results = verify.run_suite(
        seed, **config.options, tau_abs=tau_abs, tau_rel=tau_rel, workers=workers
    )
    return {"seed": seed, "checks": results, "all_passed": all(c["passed"] for c in results)}


def run_dla(config: ExperimentConfig, workers: int | None = None) -> dict:
    """Lie-algebra dimension report for the configured circuit.

    The generators are Pauli sums, so no ``2^n`` matrix is formed. For the
    Ising ansatz two numbers are reported: the closure of the raw n-qubit
    generators (``dim_full_matrix``, the one closure ``max_dim`` caps), and
    its restriction to the parity-even sector that contains the ansatz's
    reference input state (``dim``, a quotient of the same closure), which
    ``expected`` gives as ``floor(3n/2)`` at every n: the published 3n/2 at
    even n and ``(3n - 1)/2`` at odd n; see the package docs.
    """
    max_dim = config.options["max_dim"]
    if config.circuit["name"] == "toy":
        full = lie_closure([PauliSum.from_matrix(g) for g in TOY_GENERATORS], max_dim=max_dim)
        payload = {"circuit": "toy", "dim": full.dim, "expected": 3, "match": full.dim == 3}
    else:
        n = config.circuit["n"]
        full = lie_closure(hva_tfim_pauli_generators(n), max_dim=max_dim)
        sector_dim = parity_sector_dimension(full)
        payload = {
            "circuit": f"hva_tfim(n={n})",
            "dim": sector_dim,
            "dim_full_matrix": full.dim,
            "expected": 3 * n // 2,
            "match": sector_dim == 3 * n // 2,
        }
    if config.options["print_basis"]:
        # Tr[P e] / 2^n for each basis element e scaled to Re Tr[e† e] = 1
        scale = 2.0 ** (-full.elements[0].n_qubits / 2)
        payload["basis_pauli_expansion"] = [
            {label: [c.real * scale, c.imag * scale] for label, c in e.labels().items()}
            for e in full.elements
        ]
    return payload


# Each experiment's runner, ``(config, workers) -> Table | dict``.
DATA_RUNNERS: dict[str, Callable] = {
    "trajectory": run_trajectory,
    "eig_vs_p": run_eig_vs_p,
    "spectrum": run_spectrum,
    "scaling": run_scaling,
    "verify": run_verify,
    "dla": run_dla,
}


def _rendered(run: Callable) -> Callable[..., str]:
    """``run`` followed by :func:`render`, a module global looked up at each call:
    the runner ``(config, workers) -> str`` that gives the output text."""
    return lambda config, workers=None: render(config, run(config, workers))


RUNNERS: dict[str, Callable[..., str]] = {name: _rendered(run) for name, run in DATA_RUNNERS.items()}
