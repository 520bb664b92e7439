"""Smoke tests: each experiment script runs end to end and writes its files."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_script(tmp_path, monkeypatch, capsys):
    def run(name: str):
        module = load(name)
        monkeypatch.setattr(sys, "argv", [f"{name}.py", str(tmp_path)])
        code = module.main()
        capsys.readouterr()
        return module, code

    return run


def test_run_example_sweeps(run_script, tmp_path):
    module, code = run_script("run_example_sweeps")
    assert code == 0
    for name, (_, _, steps) in module.SWEEPS.items():
        report = json.loads((tmp_path / f"sweep_{name}.json").read_text())
        assert len(report["reports"]) == steps
        rows = (tmp_path / f"sweep_{name}.csv").read_text().splitlines()
        assert len(rows) == steps + 1


def test_run_certificates(run_script, tmp_path):
    module, code = run_script("run_certificates")
    assert code == 0
    names = [name for name, _ in module.CASES] + ["atomic"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"certificate_{name}.json" for name in names)
    for name, _ in module.CASES:
        report = json.loads((tmp_path / f"certificate_{name}.json").read_text())
        assert abs(report["solver_vs_primal"]) <= report["tolerance"]
    atomic = json.loads((tmp_path / "certificate_atomic.json").read_text())
    assert atomic["mode"] == "atoms"


def test_ab_compare_same_tree(capsys):
    """An A/A run: the same source tree under both package names gives the
    same report bytes, and the script prints each case's medians."""
    module = load("ab_compare")
    src = SCRIPTS.parent / "src"
    argv = [str(src), str(src), "--workload", "radius_sweep", "--rounds", "2",
            "--case", "sweep:gaussians_equal_variances"]
    assert module.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(result["cases"]) == ["sweep:gaussians_equal_variances"]
    case = result["cases"]["sweep:gaussians_equal_variances"]
    assert case["old_ms"] > 0 and case["new_ms"] > 0
    assert result["geomean_ratio"] == pytest.approx(case["ratio"])
    assert {"ab_old.cli", "ab_new.cli"} <= set(sys.modules)
