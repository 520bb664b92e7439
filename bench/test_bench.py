"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from advbayes import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortest_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if not line.startswith("#") and len(line.split()) >= 3}
    shown = {m["name"]: m["unit"] for m in declared}
    if not trace:
        shown.update(run.DETAIL_UNITS)
    for name, unit in shown.items():
        assert table.get(name) == unit, name
    if trace:
        assert "# traced reports identical to untraced: yes" in lines


def _solve_case(eps: str) -> workloads.Case:
    argv = ("solve", "--example", "gaussians_equal_variances", "--eps", eps)
    return workloads.Case(name=f"solve:{eps}", command="solve", argv=argv,
                          example="gaussians_equal_variances")


def test_op_failing_its_check_counts_as_failed_not_completed():
    good, bad = _solve_case("0.5"), _solve_case("0.4")
    texts = {}
    for case in (good, bad):
        code, texts[case.argv], _ = run.call(cli.main, case.argv)
        assert code == 0
    report = json.loads(texts[bad.argv])
    report["min_risk"] += 1e-3  # no longer the risk of the first representative
    texts[bad.argv] = json.dumps(report)

    def fake_main(argv):
        print(texts[tuple(argv)])
        return 0

    cases = [good, bad]
    ops, first, wall = run.run_rounds(cases, 0.0, fake_main)
    results = {i: checks.check_report(cases[i], *first[i]) for i in range(len(cases))}
    run.grade(ops, results)
    summary = run.summarize(ops, results, wall, scaled=False)
    assert results[0].ok and not results[1].ok
    assert [op.ok for op in ops] == [True, False] * run.MIN_SAMPLES
    assert summary["failed_frac"] == 0.5
    assert summary["ops_per_s"] == pytest.approx(run.MIN_SAMPLES / wall)


def test_raising_op_and_changed_repeat_are_failed_ops():
    case = _solve_case("0.5")
    _, text, _ = run.call(cli.main, case.argv)
    replies = iter([text, text + " ", None])

    def flaky_main(argv):
        reply = next(replies)
        if reply is None:
            raise RuntimeError("boom")
        print(reply)
        return 0

    ops = []
    for _ in range(3):
        code, out, elapsed = run.call(flaky_main, case.argv)
        ops.append(run.Op(0, elapsed, code, hashlib.sha256(out.encode()).hexdigest()))
    run.grade(ops, {0: checks.check_report(case, 0, text)})
    assert [op.ok for op in ops] == [True, False, False]
    assert ops[2].code == "raised RuntimeError: boom"


def _inputs(cases, workdir: Path):
    """Case names, argv (config paths relative to workdir) and config file bytes."""
    argvs = [(c.name, tuple(a.replace(str(workdir), "") for a in c.argv)) for c in cases]
    return argvs, sorted((p.name, p.read_bytes()) for p in workdir.iterdir())


def test_generation_is_a_function_of_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        got = {}
        for key, seed in (("a", 7), ("b", 7), ("c", 8)):
            workdir = tmp_path / workload / key
            workdir.mkdir(parents=True)
            got[key] = _inputs(workloads.generate(workload, seed, str(workdir)), workdir)
        assert got["a"] == got["b"]
        assert got["a"][0] != got["c"][0]
    assert len(workloads.generate("certify_ladder", 0, str(tmp_path))) == 12


def test_refuses_thread_pool_setting():
    env = dict(os.environ, ADVBAYES_THREADS="2")
    proc = _bench("--workload", "certify_ladder", "--seed", "0", "--seconds", "0",
                  "--trace", "0", env=env)
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "certify_ladder", "--seed", "0", "--seconds", "0",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
