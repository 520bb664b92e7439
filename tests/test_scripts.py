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


def fake_tree(root: Path, body: str) -> Path:
    """A source tree whose ``advbayes.cli.main(argv)`` runs ``body``."""
    package = root / "advbayes"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"def main(argv):\n    {body}\n")
    return root


def test_ab_compare_times_differing_output(tmp_path, capsys):
    """Trees that print different reports on one case are timed to the end;
    the case is marked in the table and the JSON, and the run exits 1 naming it."""
    module = load("ab_compare")
    old = fake_tree(tmp_path / "old", "print('same')\n    return 0")
    new = fake_tree(tmp_path / "new",
                    "print('other' if 'degenerate' in argv else 'same')\n    return 0")
    cases = ["sweep:degenerate", "sweep:gaussians_equal_variances"]
    argv = [str(old), str(new), "--workload", "radius_sweep", "--rounds", "3"]
    argv += [a for name in cases for a in ("--case", name)]
    assert module.main(argv) == 1
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert result["rounds"] == 3
    assert {name: c["same_stdout"] for name, c in result["cases"].items()} == {
        "sweep:degenerate": False, "sweep:gaussians_equal_variances": True}
    rows = {line.split()[0]: line.split()[-1] for line in out.splitlines()[1:3]}
    assert rows == {"sweep:degenerate": "no", "sweep:gaussians_equal_variances": "yes"}
    assert "sweep:degenerate" in err and "gaussians_equal_variances" not in err


def test_ab_compare_stops_on_exit_codes(tmp_path):
    """Trees whose exit codes differ on a case stop the run at that case."""
    module = load("ab_compare")
    old = fake_tree(tmp_path / "old", "return 0")
    new = fake_tree(tmp_path / "new", "return 1")
    argv = [str(old), str(new), "--workload", "radius_sweep", "--rounds", "3",
            "--case", "sweep:degenerate"]
    with pytest.raises(SystemExit, match="sweep:degenerate exits 0 on the old tree and 1"):
        module.main(argv)
