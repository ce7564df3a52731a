"""qfimlab benchmark: the entry point that runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (``perfbench/workloads/NAME.json``, theta seed N) again and
again, each run in a fresh ``child.py`` process, one after another, for about
S seconds: another run starts only if it is expected to end nearer to S than
stopping before it. Every child uses ``workers=1`` and ``--blas-threads``
BLAS threads, set in its environment before numpy is imported.

``--trace 0`` reports the end-to-end metrics: median ``wall_s``,
``setup_s`` and ``peak_rss_mb`` over the runs, and ``passed_frac``, the share
of runs that neither raised nor failed a correctness check.
``--trace 1`` alternates untraced and traced runs (at least two traced, to
assert that counts repeat exactly) and reports the per-layer metrics of
``tracer.py`` plus ``trace.overhead_s``, traced minus untraced ``wall_s``.

Every run's output must be byte-identical, traced or not. Human-readable
lines (environment, quartiles, sample counts, per-layer table) come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = sorted(p.stem for p in (HERE / "workloads").glob("*.json"))
# Extra set-up-only processes per invocation, so setup_s is a median of many.
SETUP_ONLY_RUNS = 10
# The whole invocation must end well inside 180 s.
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads per run (1 to nproc; default 1)")
    args = parser.parse_args()

    if not (ROOT / "src" / "qfimlab" / "__init__.py").is_file():
        print(f"error: no qfimlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        # qfimlab keys Philox with the seed as an unsigned 64-bit word.
        print(f"error: --seed {args.seed} outside 0..2**63-1", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.blas_threads <= nproc:
        print(f"error: --blas-threads {args.blas_threads} outside 1..nproc={nproc}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.blas_threads)
    env = bench.child(setup_only=True, env=True)
    if env is None:
        print("error: a set-up-only run failed; see the messages above", file=sys.stderr)
        return 2
    active = env["env"]["blas_threads_active"]
    if active is not None and active != args.blas_threads:
        print(f"error: BLAS runs {active} threads, {args.blas_threads} requested", file=sys.stderr)
        return 2
    record = {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        **env["env"],
        "blas_threads": args.blas_threads,
        "workers": 1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print("env " + json.dumps(record))

    start = time.monotonic()
    durations: list[float] = []
    min_runs = 3 if args.trace else 1
    while not bench.crashed and not bench.out_of_time():
        if len(durations) >= min_runs:
            # Start another run only if it should end nearer to --seconds
            # than stopping now would.
            expected = statistics.median(durations)
            if time.monotonic() - start + expected / 2 > args.seconds:
                break
        # Traced mode runs untraced, traced, traced, untraced, ...
        began = time.monotonic()
        bench.run(traced=bool(args.trace) and len(durations) % 3 != 0)
        durations.append(time.monotonic() - began)
    for _ in range(SETUP_ONLY_RUNS):
        if not bench.out_of_time():
            bench.child(setup_only=True)

    correct, failed = bench.verdict()
    attempted = len(bench.plain) + len(bench.traced) + bench.crashed
    if args.trace:
        metrics = bench.layer_metrics()
    else:
        metrics = bench.end_to_end_metrics(attempted, failed)
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


class Bench:
    """Spawns the child processes of one invocation and keeps their results."""

    def __init__(self, workload: str, seed: int, blas_threads: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in BLAS_ENV:
            self.env[var] = str(blas_threads)
        self.setup_s: list[float] = []
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.crashed = 0
        self.problems: list[str] = []

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline - 1.0

    def child(self, traced=False, setup_only=False, env=False) -> dict | None:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed)]
        cmd += ["--trace"] * traced + ["--setup-only"] * setup_only + ["--env"] * env
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        cmd += ["--spawn-ns", str(spawn_ns)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append("a run did not finish before the deadline")
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            self.problems.append(f"a run exited with code {proc.returncode}")
            return None
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            self.problems.append("a run printed no result")
            return None
        self.setup_s.append(out["setup_s"])
        return out

    def run(self, traced: bool) -> None:
        out = self.child(traced=traced)
        if out is None:
            self.crashed += 1
            return
        for failure in out["failures"]:
            self.problems.append(f"{'traced ' if traced else ''}run {len(self.plain) + len(self.traced)}: {failure}")
        (self.traced if traced else self.plain).append(out)

    def verdict(self) -> tuple[bool, int]:
        """Whether every run passed, and how many runs failed."""
        runs = self.plain + self.traced
        failed = self.crashed + sum(1 for out in runs if out["failures"])
        digests = {out["sha256"] for out in runs}
        if len(digests) > 1:
            self.problems.append(f"runs gave {len(digests)} different outputs")
            reference = runs[0]["sha256"]
            failed += sum(1 for out in runs if out["sha256"] != reference and not out["failures"])
        counts = [{k: v for k, v in out["layers"].items() if not k.endswith("_s")}
                  for out in self.traced]
        for i, c in enumerate(counts[1:], 1):
            changed = sorted(k for k in c if c[k] != counts[0][k])
            if changed:
                self.problems.append(f"traced run {i} counts differ from the first: {changed}")
                failed += 1
        for problem in self.problems:
            print(f"FAIL {problem}")
        return not self.problems, failed

    def end_to_end_metrics(self, attempted: int, failed: int) -> dict:
        values = {
            "wall_s": ([o["wall_s"] for o in self.plain], "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": ([o["peak_rss_mb"] for o in self.plain], "MB"),
        }
        metrics = {}
        for name, (samples, unit) in values.items():
            summary(name, samples, unit)
            metrics[name] = {"value": statistics.median(samples) if samples else 0.0, "unit": unit}
        passed = (attempted - failed) / max(attempted, 1)
        print(f"passed_frac: {passed} ({attempted - failed} of {attempted} runs passed)")
        metrics["passed_frac"] = {"value": passed, "unit": "fraction"}
        return metrics

    def layer_metrics(self) -> dict:
        units = metric_units()
        metrics = {}
        for name, unit in units.items():
            samples = [o["layers"][name] for o in self.traced]
            if not samples:
                value = 0
            elif name.endswith("_s"):
                value = statistics.median(samples)
            else:  # a count, which verdict() asserts repeats exactly
                value = samples[0]
            metrics[name] = {"value": value, "unit": unit}
        plain = [o["wall_s"] for o in self.plain]
        traced = [o["wall_s"] for o in self.traced]
        summary("wall_s untraced", plain, "s")
        summary("wall_s traced", traced, "s")
        overhead = statistics.median(traced) - statistics.median(plain) if plain and traced else 0.0
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        print("per-layer self time, median over traced runs:")
        timed = sorted((m for m in metrics if m.endswith(".self_s")),
                       key=lambda m: -metrics[m]["value"])
        for name in timed:
            base = name[: -len(".self_s")]
            calls = metrics.get(f"{base}.calls", {}).get("value")
            print(f"  {name:<45} {metrics[name]['value']:10.4f} s"
                  + ("" if calls is None else f"  calls={calls}"))
        for name, unit in units.items():
            if not name.endswith((".self_s", ".calls")):
                print(f"  {name:<45} {metrics[name]['value']} {unit}")
        return metrics


def summary(name: str, samples: list[float], unit: str) -> None:
    """Print median, quartiles and sample count of one metric."""
    if not samples:
        print(f"{name}: no samples")
        return
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    print(f"{name}: median={statistics.median(samples):.6g} q1={q1:.6g} q3={q3:.6g} "
          f"n={len(samples)} {unit}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    sys.exit(main())
