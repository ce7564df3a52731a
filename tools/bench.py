"""Time one folded QFIM at the paper's regime, one fresh process per point.

Usage::

    python tools/bench.py LABEL [--side NAME=SRC ...] [--repeat R] [--n N ...] [--layers L] [--traced] [--out-dir DIR]

Each point is one ``qfim_of_circuit`` call on ``hva_tfim(n, L)`` under
uniform local depolarizing noise ``p = 1e-3``, from the state vector
``plus_state_vector(n)``, which is what the ``spectrum`` runner passes, with
theta drawn uniformly from ``[0, 2 pi)`` by ``subkey_rng(42, 0)``: the
parity-folded route. Every point runs in a child process of its own, with
one BLAS thread set before numpy is imported, and records the wall time of
that one call (``wall_s``) and the child's peak resident memory
(``ru_maxrss_mb``), with the rank and largest eigenvalue as a check that
both sides computed the same QFIM. ``folded`` is
``parity_folds(circuit, psi)``; a tree whose ``parity_folds`` takes density
matrices only reads false there, while its ``qfim_of_circuit`` still folds
``psi psi†``. With ``--traced`` the child then makes a second, untimed
call under ``tracemalloc`` and records its peak (``traced_peak_mb``): the
arrays' own peak, which unlike ``ru_maxrss`` does not move with the size of
the interpreter, its modules or the shared libraries; ``wall_s`` and
``ru_maxrss_mb`` stay those of the first call.

Each ``--side NAME=SRC`` names a ``src`` directory that ``qfimlab`` is
imported from (default: ``change`` = this checkout's), so a parent commit
is timed from a copy of its tree. Every point runs ``--repeat`` times per
side (default 3), the sides alternating their order from one repeat to
the next, and gives one row per side: the median ``wall_s`` with every
run's time in ``wall_s_runs``, and the largest ``ru_maxrss_mb`` (and
``traced_peak_mb``). The rows go into ``BENCH_<LABEL>.json`` in
``--out-dir`` (the checkout root by default); rows of other sides already
in the file are kept::

    mkdir -p ../parent && git archive <parent> | tar -x -C ../parent
    python tools/bench.py sector_readout --side parent=../parent/src --side change=src --n 10 11 12 --repeat 5 --traced

The points run one after the other, largest last; one n = 12 run of the
folded pass from a state vector takes about 0.6 GB and 20 s on a 2-core Xeon
(``--traced`` adds a second call, of about the same time).
At n = 10 single calls spread by about 30% between fresh processes, so
compare sides there with 5 repeats or more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
P, SEED = 1e-3, 42


def child(n: int, layers: int, traced: bool = False) -> dict:
    """One point, in this process: numpy must not have been imported yet."""
    import resource
    import time
    import tracemalloc

    import numpy as np

    from qfimlab.channels import LocalDepolarizing
    from qfimlab.circuits import hva_tfim, parity_folds, plus_state_vector
    from qfimlab.qfim import qfim_of_circuit
    from qfimlab.rand import subkey_rng

    circuit = hva_tfim(n, layers).with_uniform_noise(LocalDepolarizing.uniform(n, P))
    theta = subkey_rng(SEED, 0).uniform(0.0, 2.0 * np.pi, circuit.n_params)
    psi = plus_state_vector(n)
    start = time.perf_counter()
    report = qfim_of_circuit(circuit, theta, psi)
    wall = time.perf_counter() - start
    row = {
        "n": n,
        "L": layers,
        "M": circuit.n_params,
        "p": P,
        "folded": bool(parity_folds(circuit, psi)),
        "wall_s": wall,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rank": int(report.rank),
        "lambda_max": float(report.eigenvalues[0]),
        "numpy": np.__version__,
    }
    if traced:
        del report
        tracemalloc.start()
        qfim_of_circuit(circuit, theta, psi)
        row["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return row


def run_point(src: Path, n: int, layers: int, traced: bool = False) -> dict:
    """:func:`child` in a fresh interpreter that imports ``qfimlab`` from ``src``."""
    env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1"), "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(n), str(layers), *(["--traced"] if traced else [])],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def environment() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu": model,
        "cpus": os.cpu_count(),
        "blas_threads": 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label")
    parser.add_argument("--side", action="append", metavar="NAME=SRC")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--n", type=int, nargs="+", default=[8, 10, 11, 12])
    parser.add_argument("--layers", type=int, default=20)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    for name, src in sides.items():
        if not (Path(src) / "qfimlab").is_dir():
            parser.error(f"side {name}: no qfimlab package under {src}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    path = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"label": args.label, "rows": []}
    doc["workload"] = (
        "one qfim_of_circuit per run: hva_tfim(n, L), local depolarizing p=1e-3 in every slot, "
        "the state vector |+>^n, theta ~ U[0, 2 pi) from subkey_rng(42, 0); one fresh process per run, "
        "1 BLAS thread"
    )
    doc["environment"] = environment()
    rows = [row for row in doc["rows"] if row["name"] not in sides]
    for n in args.n:
        runs = {name: [] for name in sides}
        for r in range(args.repeat):
            for name in list(sides)[:: -1 if r % 2 else 1]:
                runs[name].append(run_point(Path(sides[name]).resolve(), n, args.layers, args.traced))
        for name, done in runs.items():
            walls = [run["wall_s"] for run in done]
            row = {"name": name, **done[0], "wall_s": statistics.median(walls), "wall_s_runs": walls}
            row["ru_maxrss_mb"] = max(run["ru_maxrss_mb"] for run in done)
            if args.traced:
                row["traced_peak_mb"] = max(run["traced_peak_mb"] for run in done)
            print(json.dumps(row), flush=True)
            rows.append(row)
    doc["rows"] = rows
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        for var in BLAS_VARS:
            os.environ[var] = "1"
        print(json.dumps(child(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:5] == ["--traced"])))
    else:
        sys.exit(main())
