"""Print the SHA-256 of every runner output, one ``sha256  config@seed`` line per run.

Usage::

    python tools/output_hashes.py [checkout]

Runs every ``demos/configs/*.json`` and ``perfbench/workloads/*.json`` of the
checkout in this process through ``qfimlab.experiments.RUNNERS``, serially
(``workers=1``), with ``output.path`` dropped and ``theta.seed`` set to 42
and then to 7. A config whose experiment writes a table runs a second time
with ``output.format`` set to ``"json"``, printed as ``config@seed/json``.
``qfimlab`` is imported from the checkout's ``src``; the
checkout defaults to the one that holds this script. Two checkouts give
byte-identical outputs when their lines are identical::

    python tools/output_hashes.py > new.txt
    python tools/output_hashes.py ../parent > old.txt
    diff old.txt new.txt

``tools/output_diff.py`` runs the same configs and seeds and compares two
checkouts' outputs cell by cell.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from pathlib import Path

SEEDS = (42, 7)
CONFIG_DIRS = ("demos/configs", "perfbench/workloads")


def runs(root: Path):
    """Yield ``(label, text)`` for every run, ``label`` being ``config@seed``, with
    ``/json`` appended for a table's JSON run; ``qfimlab`` comes from ``root/src``."""
    sys.path.insert(0, str(root / "src"))
    qfimlab = importlib.import_module("qfimlab")
    if Path(qfimlab.__file__).resolve().parent != root / "src" / "qfimlab":
        sys.exit(f"qfimlab imported from {qfimlab.__file__}, not from {root}")
    from qfimlab.experiments import CONTRACTS, RUNNERS, parse_config

    for seed in SEEDS:
        for path in sorted(p for d in CONFIG_DIRS for p in (root / d).glob("*.json")):
            raw = json.loads(path.read_text())
            raw["theta"] = {"seed": seed}
            raw["output"] = {k: v for k, v in raw.get("output", {}).items() if k != "path"}
            config = parse_config(raw, workers=1)
            configs = [("", config)]
            if "csv" in CONTRACTS[config.experiment].formats:  # a table, in JSON too
                as_json = {**raw, "output": {**raw["output"], "format": "json"}}
                configs.append(("/json", parse_config(as_json, workers=1)))
            for suffix, cfg in configs:
                yield f"{path.relative_to(root)}@{seed}{suffix}", RUNNERS[cfg.experiment](cfg, workers=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    for label, text in runs(Path(parser.parse_args(argv).checkout).resolve()):
        print(f"{hashlib.sha256(text.encode()).hexdigest()}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
