"""Compare the runner outputs of two checkouts cell by cell.

Usage::

    python tools/output_diff.py PARENT [CHANGE]

Runs every config and seed that ``tools/output_hashes.py`` runs, once in each
checkout (``CHANGE`` defaults to the checkout that holds this script), each
checkout in a process of its own that imports its own ``qfimlab``. Prints
one line per ``config@seed``: the number of non-float cells that differ,
and the largest change of a float cell relative to the largest magnitude
in its column of the ``PARENT`` output, with that column.

A column holds floats when every cell in both outputs is a number and
one of them is written as a float: in CSV with a ``.``, an exponent,
``nan`` or ``inf``; in JSON as a float. A JSON leaf's column is its key path
with list indices dropped (a table's rows go by its ``columns``). A float
cell that turns NaN or infinite, or stops being so, counts as a changed
non-float cell.
"""

from __future__ import annotations

import argparse
import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

FLOAT_MARKS = (".", "e", "n")  # "1.5", "1e-08", "nan", "inf"


def columns(text: str) -> dict[str, list]:
    """The cells of a CSV or JSON output, by column."""
    if text.startswith("{"):
        doc, cells = json.loads(text), {}
        if "columns" in doc and "rows" in doc:
            for j, name in enumerate(doc.pop("columns")):
                cells[name] = [row[j] for row in doc["rows"]]
            del doc["rows"]
        _leaves(doc, "", cells)
        return cells
    header, *rows = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _leaves(node, path: str, out: dict[str, list]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for value in node:
            _leaves(value, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(node)


def _numbers(cells: list) -> np.ndarray | None:
    """The cells as floats, or None unless every one is a number."""
    if any(isinstance(x, bool) for x in cells):
        return None
    try:
        return np.array([float(x) for x in cells])
    except (TypeError, ValueError):
        return None


def _written_as_float(cells: list) -> bool:
    marked = (m in str(x).lower() for x in cells if x is not None for m in FLOAT_MARKS)
    return any(isinstance(x, float) for x in cells) or any(marked)


def compare(old: str, new: str) -> str:
    """One line saying how ``new`` differs from ``old``."""
    if old == new:
        return "identical"
    before, after = columns(old), columns(new)
    if {k: len(v) for k, v in before.items()} != {k: len(v) for k, v in after.items()}:
        return "the columns or their lengths differ"
    changed, worst, where = 0, 0.0, ""
    for name, cells in before.items():
        a, b = _numbers(cells), _numbers(after[name])
        if a is None or b is None or not (_written_as_float(cells) or _written_as_float(after[name])):
            changed += sum(x != y for x, y in zip(cells, after[name]))
            continue
        finite = np.isfinite(a) & np.isfinite(b)
        changed += int(np.sum(~finite & ~((a == b) | (np.isnan(a) & np.isnan(b)))))
        scale = float(np.max(np.abs(a[finite]), initial=0.0))
        diff = float(np.max(np.abs(a - b)[finite], initial=0.0))
        rel = diff / scale if scale > 0.0 else (np.inf if diff > 0.0 else 0.0)
        if rel > worst:
            worst, where = rel, name
    floats_line = f"float change <= {worst:.2g} of column max ({where})" if worst else "floats identical"
    return f"{changed} non-float cells changed, {floats_line}"


def outputs(root: Path) -> dict[str, str]:
    """``config@seed`` -> output text for every run of ``tools/output_hashes.py``
    in ``root``, run in a new process."""
    done = subprocess.run(
        [sys.executable, __file__, "--dump", str(root)], capture_output=True, text=True, check=True
    )
    return dict(json.loads(line) for line in done.stdout.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:  # one checkout's outputs as JSON lines [label, text]
        from output_hashes import runs

        for label, text in runs(Path(args.parent).resolve()):
            print(json.dumps([label, text]), flush=True)
        return 0
    old, new = (outputs(Path(p).resolve()) for p in (args.parent, args.change))
    for label in [*old, *(k for k in new if k not in old)]:
        if label not in old or label not in new:
            print(f"{label}: only in {'the change' if label in new else 'the parent'}")
        else:
            print(f"{label}: {compare(old[label], new[label])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
