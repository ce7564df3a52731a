"""Command-line entry point: ``qfimlab <experiment> --config file.json``.

Exit codes: 0 on success, 1 on usage and configuration errors and
unreadable or unwritable files, 2 when the verify suite reports a failed
check. An output path that is a directory, or whose parent is not one, is
refused before the experiment runs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .exceptions import ConfigError, QfimlabError
from .experiments import DATA_RUNNERS, EXPERIMENTS, parse_config, render


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


def _unwritable(path: Path) -> OSError | None:
    """The error a write to ``path`` is sure to meet, known before any run: the
    path is a directory, or its parent is not one."""
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return None
    return OSError(code, os.strerror(code), str(path))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1

    theta = raw.get("theta", {}) if isinstance(raw, dict) else None
    if args.seed is not None and isinstance(theta, dict):  # else parse_config reports the section
        theta = {key: value for key, value in theta.items() if key != "values"}
        raw = {**raw, "theta": {**theta, "seed": args.seed}}

    try:
        config = parse_config(raw, args.experiment, args.workers)
        out_path = args.out or config.output["path"]
        refused = out_path and _unwritable(Path(out_path))
        if refused:  # the write's own handler below still covers a later failure
            print(f"error: cannot write output: {refused}", file=sys.stderr)
            return 1
        result = DATA_RUNNERS[config.experiment](config, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except QfimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if config.experiment == "verify":
        for check in result["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"[{status}] {check['name']}: margin={check['margin']:.3e} "
                  f"tol={check['tolerance']}")
    elif config.experiment == "dla":
        line = f"dim = {result['dim']}"
        if "dim_full_matrix" in result:
            line += f" (unrestricted matrix closure: {result['dim_full_matrix']})"
        line += f"; expected {result['expected']}: {'ok' if result['match'] else 'MISMATCH'}"
        print(line)

    text = render(config, result)
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out_path}")
    elif config.experiment not in ("verify", "dla"):
        sys.stdout.write(text)

    return 2 if config.experiment == "verify" and not result["all_passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
