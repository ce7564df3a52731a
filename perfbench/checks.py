"""Correctness checks on one workload's output, run outside the timed region.

Two kinds of check:

- invariants, for any seed: all output is finite; the noiseless QFIM rank
  equals the rank of the pure-state QFIM on the statevector path; the
  largest eigenvalue does not rise with p; the Ising algebra dimensions are
  3n/2 (parity sector) and 3n-1 (full matrices);
- a comparison with the reference output in ``perfbench/reference/``. Ranks,
  counts and dimensions must match exactly, eigenvalues and means within
  ``REL_TOL`` of the largest value they are compared against. Outputs that
  depend on the theta seed are compared only at ``REFERENCE_SEED``.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from qfimlab.circuits import hva_tfim, statevector_derivatives
from qfimlab.experiments import ExperimentConfig, subkey_rng
from qfimlab.linalg import KET_PLUS, kron
from qfimlab.qfim import qfim_pure

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 42
REL_TOL = 1e-9
# Roundoff slack when asserting that the largest eigenvalue does not rise with p.
MONOTONE_SLACK = 1e-12
# Trajectory steps kept in the reference: every REFERENCE_STRIDE-th step.
REFERENCE_STRIDE = 100


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# qfimlab csv"):
        raise ValueError("output does not start with the qfimlab CSV schema line")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader.fieldnames or []), list(reader)


def reference_text(config: ExperimentConfig, text: str) -> str:
    """The part of ``text`` kept as reference: gate-by-gate rows, subsampled,
    for the trajectory (eigenvector rows are not unique); all of it otherwise."""
    if config.experiment != "trajectory":
        return text
    lines = text.splitlines(keepends=True)
    kept = lines[:2]
    for line in lines[2:]:
        _, step, *_, label = line.rstrip("\n").split(",")
        if "/" not in label and int(step) % REFERENCE_STRIDE == 0:
            kept.append(line)
    return "".join(kept)


def reference_path(config: ExperimentConfig, workload: str) -> Path:
    suffix = ".json" if config.experiment == "dla" else ".csv"
    return REFERENCE_DIR / f"{workload}{suffix}"


def check_output(workload: str, config: ExperimentConfig, seed: int, text: str) -> list[str]:
    """All checks for one run of ``workload``; ``text`` is the runner's output."""
    check = {
        "spectrum": _spectrum_invariants,
        "scaling": _scaling_invariants,
        "trajectory": _trajectory_invariants,
        "dla": _dla_invariants,
    }[config.experiment]
    seeded = config.experiment in ("spectrum", "scaling")
    try:
        failures = check(config, seed, text)
        if seed == REFERENCE_SEED or not seeded:
            failures += compare_with_reference(config, reference_path(config, workload), text)
    except (ValueError, KeyError) as exc:
        return [f"output could not be checked: {exc!r}"]
    return failures


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


def _nonfinite(rows: list[dict[str, str]], columns) -> list[str]:
    bad = [(i, c) for i, row in enumerate(rows) for c in columns if not math.isfinite(float(row[c]))]
    return [f"non-finite value in row {i}, column {c}" for i, c in bad[:5]]


def _plus_vector(n: int) -> np.ndarray:
    return kron(*([KET_PLUS.reshape(2, 1)] * n)).reshape(-1)


def _spectrum_invariants(config: ExperimentConfig, seed: int, text: str) -> list[str]:
    columns, rows = parse_csv(text)
    failures = _nonfinite(rows, ("p", "eigenvalue"))
    n, layers = int(config.circuit["n"]), int(config.circuit["L"])
    circuit = hva_tfim(n, layers)
    theta = subkey_rng(seed, 0).uniform(0.0, 2.0 * np.pi, circuit.n_params)
    psi, derivs = statevector_derivatives(circuit, theta, _plus_vector(n))
    pure_rank = qfim_pure(psi, derivs, *config.rank_tolerances).rank
    lam_max: list[tuple[float, float]] = []
    for row in rows:
        if int(row["rank_noiseless"]) != pure_rank:
            failures.append(f"rank_noiseless {row['rank_noiseless']} != statevector rank {pure_rank}")
            break
    for row in rows:
        if int(row["dim_g"]) != 3 * n // 2:
            failures.append(f"dim_g {row['dim_g']} != 3n/2 = {3 * n // 2}")
            break
        if row["eig_index"] == "0":
            lam_max.append((float(row["p"]), float(row["eigenvalue"])))
    lam_max.sort()
    for (p0, l0), (p1, l1) in zip(lam_max, lam_max[1:]):
        if l1 > l0 * (1.0 + MONOTONE_SLACK):
            failures.append(f"lambda_max rises from {l0:.6e} at p={p0} to {l1:.6e} at p={p1}")
    return failures


def _scaling_invariants(config: ExperimentConfig, seed: int, text: str) -> list[str]:
    columns, rows = parse_csv(text)
    failures = _nonfinite(rows, columns[4:])
    n, layers = int(config.circuit["n"]), int(config.circuit["L"])
    samples = int(config.options.get("samples", 10))
    p_rows = [row for row in rows if row["sweep"] == "p"]
    for idx, row in enumerate(p_rows):
        if float(row["p"]) != 0.0:
            continue
        # Noiseless coordinate: redo it on the statevector path with the same
        # Philox subkeys (kind 2 = p sweep, coordinate, sample).
        circuit = hva_tfim(n, layers)
        eigs, entries = [], []
        for s in range(samples):
            theta = subkey_rng(seed, 2, idx, s).uniform(0.0, 2.0 * np.pi, circuit.n_params)
            psi, derivs = statevector_derivatives(circuit, theta, _plus_vector(n))
            report = qfim_pure(psi, derivs, *config.rank_tolerances)
            eigs.append(report.eigenvalues)
            entries.append(np.abs(report.matrix).ravel())
        for col, value in (("mean_eigenvalue", np.mean(np.concatenate(eigs))),
                           ("mean_abs_entry", np.mean(np.concatenate(entries)))):
            got = float(row[col])
            if abs(got - value) > REL_TOL * abs(value):
                failures.append(f"p=0 {col} {got!r} != statevector value {float(value)!r}")
    return failures


def _trajectory_invariants(config: ExperimentConfig, seed: int, text: str) -> list[str]:
    columns, rows = parse_csv(text)
    failures = _nonfinite(rows, ("x", "y", "z", "purity"))
    for row in rows:
        x, y, z, pur = (float(row[c]) for c in ("x", "y", "z", "purity"))
        if x * x + y * y + z * z > 1.0 + 1e-9 or not 0.5 - 1e-9 <= pur <= 1.0 + 1e-9:
            failures.append(f"row {row} is not a valid qubit state")
            break
    return failures


def _dla_invariants(config: ExperimentConfig, seed: int, text: str) -> list[str]:
    payload = json.loads(text)
    n = int(config.circuit["n"])
    failures = []
    if payload["dim"] != 3 * n // 2:
        failures.append(f"sector dimension {payload['dim']} != 3n/2 = {3 * n // 2}")
    if payload["dim_full_matrix"] != 3 * n - 1:
        failures.append(f"full-matrix dimension {payload['dim_full_matrix']} != 3n-1 = {3 * n - 1}")
    return failures


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------


def compare_with_reference(config: ExperimentConfig, path: Path, text: str) -> list[str]:
    try:
        expected = path.read_text()
    except OSError as exc:
        return [f"reference missing: {exc}"]
    if config.experiment == "dla":
        got, want = json.loads(text), json.loads(expected)
        keys = ("dim", "dim_full_matrix", "expected", "match")
        return [f"{k}: {got.get(k)!r} != reference {want.get(k)!r}" for k in keys if got.get(k) != want.get(k)]

    _, got_rows = parse_csv(reference_text(config, text))
    columns, want_rows = parse_csv(expected)
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, reference has {len(want_rows)}"]
    float_cols = {
        "spectrum": ("eigenvalue",),
        "scaling": ("mean_abs_entry", "std_abs_entry", "mean_eigenvalue", "std_eigenvalue"),
        "trajectory": ("x", "y", "z", "purity"),
    }[config.experiment]
    scales = _scales(config.experiment, want_rows, float_cols)
    failures = []
    for i, (got, want) in enumerate(zip(got_rows, want_rows)):
        for c in columns:
            if c not in float_cols:
                if got[c] != want[c]:
                    failures.append(f"row {i} {c}: {got[c]!r} != reference {want[c]!r}")
            elif abs(float(got[c]) - float(want[c])) > REL_TOL * scales[i]:
                failures.append(f"row {i} {c}: {got[c]} != reference {want[c]}")
    return failures[:10]


def _scales(experiment: str, rows: list[dict[str, str]], float_cols) -> list[float]:
    """Magnitude each row's floats are compared against: lambda_max of the
    row's p for a spectrum, the row's largest value for scaling means, and 1
    for Bloch coordinates and purities."""
    if experiment == "spectrum":
        lam_max = {row["p"]: float(row["eigenvalue"]) for row in rows if row["eig_index"] == "0"}
        return [lam_max[row["p"]] for row in rows]
    if experiment == "scaling":
        return [max(abs(float(row[c])) for c in float_cols) for row in rows]
    return [1.0] * len(rows)
