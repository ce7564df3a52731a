"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with the BLAS thread count already in the environment,
so it applies before numpy is imported. Prints one JSON line:

- ``setup_s``: from process spawn (``--spawn-ns``, CLOCK_MONOTONIC) to a
  parsed and validated config, i.e. everything before the first runner call;
- ``wall_s``: the runner call, which includes rendering the CSV/JSON text;
- ``peak_rss_mb``: ``ru_maxrss`` of this process right after the runner;
- ``sha256`` of the output and the ``failures`` of the correctness checks,
  which run after the measurement;
- with ``--trace``, the per-layer ``layers`` metrics of :mod:`tracer`.

With ``--setup-only`` it stops after set-up; ``--env`` adds the environment
record (numpy, BLAS and the BLAS thread count in effect).
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = Path(__file__).resolve().parent / "workloads"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env", action="store_true")
    args = parser.parse_args()

    import qfimlab
    from qfimlab.experiments import RUNNERS

    if Path(qfimlab.__file__).resolve().parent != ROOT / "src" / "qfimlab":
        print(f"qfimlab imported from {qfimlab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    config = load_config(args.workload, args.seed)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) / 1e9

    result: dict = {"setup_s": setup_s}
    if args.env:
        result["env"] = environment()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    runner = RUNNERS[config.experiment]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        runner = tracer.install(runner)

    start = time.perf_counter()
    text = runner(config, workers=1)
    result["wall_s"] = time.perf_counter() - start

    import hashlib
    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["layers"] = tracer.metrics()

    from checks import check_output

    result["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    result["failures"] = check_output(args.workload, config, args.seed, text)
    print(json.dumps(result))
    return 0


def load_config(workload: str, seed: int):
    """Parse and validate ``workloads/<workload>.json`` with ``theta.seed = seed``."""
    from qfimlab.experiments import parse_config

    raw = json.loads((WORKLOADS / f"{workload}.json").read_text())
    raw["theta"] = {"seed": seed}
    return parse_config(raw, raw["experiment"])


def environment() -> dict:
    """numpy and BLAS versions, and the BLAS thread count actually in effect."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_active": _openblas_threads(),
    }


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
