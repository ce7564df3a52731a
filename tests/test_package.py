"""Package-level properties."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
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


def test_spectrum_and_scaling_draw_theta_without_numpy_random():
    code = textwrap.dedent("""
        import sys
        from qfimlab.experiments import parse_config, run_scaling, run_spectrum
        circuit, theta = {"name": "hva_tfim", "n": 2, "L": 2}, {"seed": 42}
        noise = {"model": "global_depolarizing", "p": 0.05}
        run_spectrum(parse_config({"experiment": "spectrum", "circuit": circuit,
                                   "noise": noise, "theta": theta, "sweep": {"p": [0.0, 0.1]}}))
        run_scaling(parse_config({"experiment": "scaling", "circuit": circuit, "noise": noise,
                                  "theta": theta, "sweep": {"L": [1, 2], "p": [0.0, 0.1]},
                                  "options": {"samples": 2}}))
        print("numpy.random" in sys.modules)
    """)
    src = str(Path(qfimlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=60
    ).stdout
    assert out.split() == ["False"]


def test_benchmark_hooks_resolve(monkeypatch):
    # perfbench imports these names and its tracer patches them; resolve them
    # without Tracer.install, which would patch qfimlab for the whole process
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    importlib.import_module("checks")
    child = importlib.import_module("child")
    tracer = importlib.import_module("tracer")
    for name in (*tracer.TIMED, "dla.commutator"):
        module, _, path = name.partition(".")
        obj = importlib.import_module(f"qfimlab.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), name
    for workload in sorted(child.WORKLOADS.glob("*.json")):
        config = child.load_config(workload.stem, 42)
        assert config.experiment in qfimlab.experiments.RUNNERS


def test_python_dash_m_runs_the_cli(tmp_path):
    from qfimlab.experiments import parse_config, run_trajectory

    root = Path(__file__).resolve().parents[1]
    config = root / "demos" / "configs" / "trajectory_bitflip.json"
    out = tmp_path / "trajectory.csv"
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-m", "qfimlab", "trajectory", "--config", str(config), "--out", str(out)],
        check=True, capture_output=True, env=env, timeout=120,
    )
    assert out.read_bytes() == run_trajectory(parse_config(json.loads(config.read_text()))).encode()


def test_output_diff_counts_changed_cells_and_relative_float_changes(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    compare = importlib.import_module("output_diff").compare
    old = "# qfimlab csv\nlabel,n,v\nnoiseless,1,0.5\neig0,2,1e-3\n"
    assert compare(old, old) == "identical"
    # a label and an integer changed; 0.5 moved by one ulp, 2.2e-16 of the column's 0.5
    new = "# qfimlab csv\nlabel,n,v\nnoiseless,1,0.50000000000000011\neig1,3,1e-3\n"
    assert compare(old, new) == "2 non-float cells changed, float change <= 2.2e-16 of column max (v)"
    table = {"columns": ["a", "b"], "rows": [[1, 0.5], [2, 1.0]], "all_passed": True}
    moved = {**table, "rows": [[1, 0.5], [2, 1.0 + 2**-52]], "all_passed": False}
    want = "1 non-float cells changed, float change <= 2.2e-16 of column max (b)"
    assert compare(json.dumps(table), json.dumps(moved)) == want


def test_bench_tool_writes_one_row_per_point(tmp_path):
    root = Path(__file__).resolve().parents[1]
    sides = ["--side", f"parent={root / 'src'}", "--side", f"change={root / 'src'}"]
    subprocess.run(
        [sys.executable, str(root / "tools" / "bench.py"), "smoke", *sides, "--repeat", "2",
         "--n", "3", "4", "--layers", "2", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, timeout=120,
    )
    doc = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert doc["label"] == "smoke" and doc["environment"]["blas_threads"] == 1
    assert [(row["name"], row["n"]) for row in doc["rows"]] == [
        ("parent", 3), ("change", 3), ("parent", 4), ("change", 4)
    ]
    for row in doc["rows"]:
        assert (row["L"], row["M"], row["p"], row["folded"]) == (2, 4, 1e-3, True)
        assert len(row["wall_s_runs"]) == 2 and row["wall_s"] > 0 and row["ru_maxrss_mb"] > 0
        assert 0 < row["rank"] <= 4 and row["lambda_max"] > 0
    assert doc["rows"][2]["lambda_max"] == doc["rows"][3]["lambda_max"]
    assert all("traced_peak_mb" not in row for row in doc["rows"])
    # --traced adds the tracemalloc peak of a second call; other sides' rows stay
    subprocess.run(
        [sys.executable, str(root / "tools" / "bench.py"), "smoke", "--side", f"change={root / 'src'}",
         "--repeat", "1", "--n", "4", "--layers", "2", "--traced", "--out-dir", str(tmp_path)],
        check=True, capture_output=True, timeout=120,
    )
    rows = json.loads((tmp_path / "BENCH_smoke.json").read_text())["rows"]
    assert [(row["name"], row["n"]) for row in rows] == [("parent", 3), ("parent", 4), ("change", 4)]
    assert "traced_peak_mb" not in rows[1]
    assert 0 < rows[2]["traced_peak_mb"] < rows[2]["ru_maxrss_mb"]
    assert rows[2]["lambda_max"] == doc["rows"][3]["lambda_max"]


def test_readme_bench_recipe_runs(tmp_path):
    # the README's tools/bench.py lines at a tiny point, the parent copy replaced by this checkout
    root = Path(__file__).resolve().parents[1]
    lines = [line.split() for line in (root / "README.md").read_text().splitlines()
             if line.strip().startswith("python tools/bench.py")]
    assert lines
    for _, *args in lines:
        args = [arg.replace("../parent/src", str(root / "src")) for arg in args]
        subprocess.run(
            [sys.executable, *args, "--n", "3", "--layers", "1", "--repeat", "1", "--out-dir", str(tmp_path)],
            cwd=root, check=True, capture_output=True, timeout=120,
        )
        rows = json.loads((tmp_path / f"BENCH_{args[1]}.json").read_text())["rows"]
        assert [(row["name"], row["n"], row["L"], row["folded"]) for row in rows] == [
            ("parent", 3, 1, True), ("change", 3, 1, True)
        ]
    assert {path.name for path in tmp_path.iterdir()} == {"BENCH_sector_readout.json", "BENCH_vector_entry.json"}
