"""Package-level properties."""

import os
import subprocess
import sys
from pathlib import Path

import qfimlab


def test_import_loads_no_third_party_module_besides_numpy():
    code = (
        "import sys; before = set(sys.modules); import qfimlab; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(qfimlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    ).stdout
    top_level = {name.split(".")[0] for name in out.split()}
    assert "qfimlab" in top_level
    assert top_level - set(sys.stdlib_module_names) - {"qfimlab", "numpy"} == set()
