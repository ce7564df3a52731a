"""Regenerate the reference outputs that ``checks.py`` compares against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed and writes
``perfbench/reference/<workload>.csv`` (``.json`` for the dla workload).
Regenerate only when an output is meant to change, and say why in the
change that does it.
"""

import sys

from checks import REFERENCE_DIR, REFERENCE_SEED, reference_path, reference_text
from child import WORKLOADS, load_config
from qfimlab.experiments import RUNNERS


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(p.stem for p in WORKLOADS.glob("*.json")):
        config = load_config(name, REFERENCE_SEED)
        text = RUNNERS[config.experiment](config, workers=1)
        path = reference_path(config, name)
        path.write_text(reference_text(config, text))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
