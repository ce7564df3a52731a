"""Command-line entry point: ``qfimlab <experiment> --config file.json``.

Exit codes: 0 on success, 1 on usage and configuration errors and
unreadable or unwritable files, 2 when the verify suite reports a failed
check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exceptions import ConfigError, QfimlabError
from .experiments import EXPERIMENTS, RUNNERS, parse_config


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other input error; the subparsers
    inherit it. argparse's own 2 would read as a failed verify suite."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfimlab",
        description="Noisy parametrized-circuit experiments: quantum Fisher "
        "information spectra, Lie-algebra dimensions, and verification suites.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path (overrides config output.path)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="bounded worker count for sweeps")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1

    if args.seed is not None:
        raw = dict(raw)
        theta = dict(raw.get("theta", {}))
        theta.pop("values", None)
        theta["seed"] = args.seed
        raw["theta"] = theta

    try:
        config = parse_config(raw, args.experiment, args.workers)
        text = RUNNERS[config.experiment](config, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QfimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = False
    if config.experiment == "verify":
        payload = json.loads(text)
        failed = not payload["all_passed"]
        for check in payload["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: margin={check['margin']:.3e} "
                  f"tol={check['tolerance']}")
    elif config.experiment == "dla":
        payload = json.loads(text)
        line = f"dim = {payload['dim']}"
        if "dim_full_matrix" in payload:
            line += f" (unrestricted matrix closure: {payload['dim_full_matrix']})"
        if payload.get("expected") is not None:
            line += f"; expected {payload['expected']}: {'ok' if payload['match'] else 'MISMATCH'}"
        print(line)

    out_path = args.out or config.output["path"]
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out_path}")
    elif config.experiment not in ("verify", "dla"):
        sys.stdout.write(text)

    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
