"""Time one folded QFIM at the paper's regime, or one runner on a config, one fresh process per run.

Usage::

    python tools/bench.py LABEL [--side NAME=SRC ...] [--repeat R] [--n N ...] [--layers L]
                          [--config PATH ...] [--calls C] [--traced] [--out-dir DIR]

Each point is one ``qfim_of_circuit`` call on ``hva_tfim(n, L)`` under
uniform local depolarizing noise ``p = 1e-3``, from the state vector
``plus_state_vector(n)``, which is what the ``spectrum`` runner passes, with
theta drawn uniformly from ``[0, 2 pi)`` by ``subkey_rng(42, 0)``: the
parity-folded route. Every point runs in a child process of its own, with
one BLAS thread set before numpy is imported, and records the wall time of
that one call (``wall_s``) and the child's peak resident memory
(``ru_maxrss_mb``), with the rank and largest eigenvalue as a check that
both sides computed the same QFIM. ``folded`` is
``parity_folds(circuit, psi)``, whether the vector takes the folded route,
whose only input is a state vector; a tree from before the pass took state
vectors reads false there, while its ``qfim_of_circuit`` still folded
``psi psi†``. With ``--traced`` the child then makes a second, untimed
call under ``tracemalloc`` and records its peak (``traced_peak_mb``): the
arrays' own peak, which unlike ``ru_maxrss`` does not move with the size of
the interpreter, its modules or the shared libraries; ``wall_s`` and
``ru_maxrss_mb`` stay those of the first call. Beside them, ``estimate_mb``
is what ``parse_config``'s memory check charges the ``spectrum`` config of
that one point (``experiments._estimated_bytes``). With ``--calls C`` (default
1) the child makes C timed calls: ``wall_s`` stays the first, cold call,
which builds the fold tables, and for C > 1 ``wall_s_warm`` is the median
of calls 2..C, which find them built, as every later point of a
``spectrum`` run does.

Each ``--config PATH`` (repeatable) adds one runner-level point: the child
parses the config with ``theta.seed`` 42 and no ``output.path``, and times
``RUNNERS[experiment](config, workers=1)``, the text the CLI would write,
with the same ``wall_s``, ``wall_s_warm``, ``ru_maxrss_mb`` and
``traced_peak_mb`` as above, and ``estimate_mb``, what ``parse_config``'s
memory check charged the config (null when it charges none). Its row holds
the config's path (relative to this checkout when inside it),
``output_rows`` (the data lines of a CSV, the ``rows`` of a JSON table,
null for a report) and the ``sha256`` of its text, which every run of one
side must repeat. Both sides read the same config file. Without
``--config`` the QFIM points run at ``--n`` (default 8 10 11 12); with it,
only the ``--n`` given.

Each ``--side NAME=SRC`` names a ``src`` directory that ``qfimlab`` is
imported from (default: ``change`` = this checkout's), so a parent commit
is timed from a copy of its tree. Every point runs ``--repeat`` times per
side (default 3), the sides alternating their order from one repeat to
the next, and gives one row per side: the median ``wall_s`` with every
run's time in ``wall_s_runs``, the median ``wall_s_warm`` with every run's
in ``wall_s_warm_runs`` (for C > 1), and the largest ``ru_maxrss_mb`` (and
``traced_peak_mb``). The rows go into ``BENCH_<LABEL>.json`` in
``--out-dir`` (the checkout root by default); rows already in the file are
kept unless this run makes a row of the same side and point (n and L,
or config)::

    mkdir -p ../parent && git archive <parent> | tar -x -C ../parent
    python tools/bench.py one_buffer --side parent=../parent/src --side change=src --n 11 12 --repeat 5 --traced
    python tools/bench.py trajectory_rank --side parent=../parent/src --side change=src \\
        --config perfbench/workloads/toy_trajectory.json --repeat 5 --calls 10

The points run one after the other, largest last; one n = 12 run of the
folded pass from a state vector takes about 0.4 GB and 15 s on a 2-core
Xeon (``--traced`` adds a second call, of about the same time). At n = 10
single cold calls spread by about 30% between fresh processes, so compare
sides there on ``wall_s_warm`` with ``--calls 10``, or on ``wall_s`` with 5
repeats or more.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
P, SEED = 1e-3, 42
WORKLOADS = {
    "workload": "one qfim_of_circuit per run: hva_tfim(n, L), local depolarizing p=1e-3 in every slot, "
    "the state vector |+>^n, theta ~ U[0, 2 pi) from subkey_rng(42, 0); one fresh process per run, "
    "1 BLAS thread",
    "config_workload": "one RUNNERS[experiment](config, workers=1) per call on the config file with "
    "theta.seed 42 and no output.path; one fresh process per run, 1 BLAS thread",
}


def measure(call, calls: int, traced: bool) -> tuple[dict, object]:
    """``call()`` timed ``calls`` times in this process, and its first result:
    ``wall_s`` and ``ru_maxrss_mb`` of the first call, ``wall_s_warm`` the
    median of the others, and with ``traced`` the tracemalloc peak of one
    more, untimed call."""
    start = time.perf_counter()
    result = call()
    row = {
        "wall_s": time.perf_counter() - start,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    warm = []
    for _ in range(calls - 1):
        start = time.perf_counter()
        call()
        warm.append(time.perf_counter() - start)
    if warm:
        row["wall_s_warm"] = statistics.median(warm)
    if traced:
        tracemalloc.start()
        call()
        row["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return row, result


def child(n: int, layers: int, traced: bool = False, calls: int = 1) -> dict:
    """One QFIM point, in this process: numpy must not have been imported yet."""
    import numpy as np

    from qfimlab.channels import LocalDepolarizing
    from qfimlab.circuits import hva_tfim, parity_folds, plus_state_vector
    from qfimlab.experiments import _estimated_bytes
    from qfimlab.qfim import qfim_of_circuit
    from qfimlab.rand import subkey_rng

    # what parse_config charges the spectrum config of this one point
    estimate = _estimated_bytes({"name": "hva_tfim", "n": n, "L": layers}, {"model": "local_depolarizing", "p": 0.0},
                                {"p": [P], "L": []}, 1)
    circuit = hva_tfim(n, layers).with_uniform_noise(LocalDepolarizing.uniform(n, P))
    theta = subkey_rng(SEED, 0).uniform(0.0, 2.0 * np.pi, circuit.n_params)
    psi = plus_state_vector(n)
    timing, report = measure(lambda: qfim_of_circuit(circuit, theta, psi), calls, traced)
    return {
        "n": n,
        "L": layers,
        "M": circuit.n_params,
        "p": P,
        "folded": bool(parity_folds(circuit, psi)),
        **timing,
        "estimate_mb": estimate / 2**20,
        "rank": int(report.rank),
        "lambda_max": float(report.eigenvalues[0]),
        "numpy": np.__version__,
    }


def config_child(path: str, traced: bool = False, calls: int = 1) -> dict:
    """One runner-level point, in this process: numpy must not have been imported yet."""
    import numpy as np

    from qfimlab import experiments
    from qfimlab.experiments import RUNNERS, parse_config

    raw = json.loads(Path(path).read_text())
    raw["theta"] = {"seed": SEED}
    raw["output"] = {k: v for k, v in raw.get("output", {}).items() if k != "path"}
    charged, check = [], experiments._check_memory
    experiments._check_memory = lambda what, need: charged.append(need) or check(what, need)
    try:
        config = parse_config(raw, workers=1)
    finally:
        experiments._check_memory = check
    timing, text = measure(lambda: RUNNERS[config.experiment](config, workers=1), calls, traced)
    if text.startswith("# qfimlab csv"):
        rows = text.count("\n") - 2  # the schema line and the column header
    else:
        report = json.loads(text)
        rows = len(report["rows"]) if "rows" in report else None
    return {
        "experiment": config.experiment,
        **timing,
        "estimate_mb": charged[0] / 2**20 if charged else None,
        "output_rows": rows,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "numpy": np.__version__,
    }


def run_point(src: Path, point: dict, traced: bool = False, calls: int = 1) -> dict:
    """:func:`child` on ``{"n", "L"}`` or :func:`config_child` on ``{"config"}``
    (a path under this checkout or an absolute one), in a fresh interpreter
    that imports ``qfimlab`` from ``src``."""
    env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1"), "PYTHONPATH": str(src)}
    where = [str(ROOT / point["config"])] if "config" in point else [str(point["n"]), str(point["L"])]
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(calls), str(int(traced)), *where],
        env=env, capture_output=True, text=True, check=True,
    )
    return {**point, **json.loads(out.stdout.splitlines()[-1])}


def point_key(row: dict) -> tuple:
    """What a row measures: its side, and its config or its n and L."""
    return (row["name"], row["config"]) if "config" in row else (row["name"], row["n"], row["L"])


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
    parser.add_argument("--n", type=int, nargs="+")
    parser.add_argument("--layers", type=int, default=20)
    parser.add_argument("--config", action="append", type=Path, default=[], metavar="PATH")
    parser.add_argument("--calls", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    sides = dict(side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"])
    for name, src in sides.items():
        if not (Path(src) / "qfimlab").is_dir():
            parser.error(f"side {name}: no qfimlab package under {src}")
    if args.repeat < 1 or args.calls < 1:
        parser.error("--repeat and --calls must be at least 1")
    missing = [str(path) for path in args.config if not path.is_file()]
    if missing:
        parser.error(f"no config file {missing[0]}")
    ns = args.n or ([] if args.config else [8, 10, 11, 12])
    configs = [path.resolve() for path in args.config]
    points = [{"n": n, "L": args.layers} for n in ns]
    points += [{"config": str(c.relative_to(ROOT) if c.is_relative_to(ROOT) else c)} for c in configs]
    path = args.out_dir / f"BENCH_{args.label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"label": args.label, "rows": []}
    doc.update({key: WORKLOADS[key] for key, used in (("workload", ns), ("config_workload", configs)) if used})
    doc["environment"] = environment()
    made = {point_key({"name": name, **point}) for name in sides for point in points}
    rows = [row for row in doc["rows"] if point_key(row) not in made]
    for point in points:
        runs = {name: [] for name in sides}
        for r in range(args.repeat):
            for name in list(sides)[:: -1 if r % 2 else 1]:
                runs[name].append(run_point(Path(sides[name]).resolve(), point, args.traced, args.calls))
        for name, done in runs.items():
            if len({run.get("sha256") for run in done}) > 1:
                sys.exit(f"side {name}: the runs of {point['config']} wrote different outputs")
            walls = [run["wall_s"] for run in done]
            row = {"name": name, **done[0], "wall_s": statistics.median(walls), "wall_s_runs": walls}
            if args.calls > 1:
                warm = [run["wall_s_warm"] for run in done]
                row.update(wall_s_warm=statistics.median(warm), wall_s_warm_runs=warm)
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
        calls, traced, *point = sys.argv[2:]
        options = (traced == "1", int(calls))
        print(json.dumps(config_child(*point, *options) if len(point) == 1 else child(*map(int, point), *options)))
    else:
        sys.exit(main())
