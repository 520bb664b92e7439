"""Byte-for-byte contract on the CLI's reports.

``golden_reports.json`` lists about fifty CLI runs with the exit code and
the sha256 of each output: stdout, stderr and, for sweeps, the CSV file.
The test reruns every listed argv in-process and names each run whose
bytes differ.  A change that alters report bytes on purpose says so and
re-pins the file in a change of its own; the command prints each argv
whose pinned outputs change, so the re-pin can be reviewed:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from advbayes.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

# Radius ladders (lo, hi, steps) of scripts/run_example_sweeps.py.
LADDERS = {
    "gaussians_equal_variances": (0.1, 1.5, 15),
    "gaussians_equal_means": (0.1, 1.0, 10),
    "non_uniqueness_single": (0.05, 0.4, 8),
    "non_uniqueness_all": (0.05, 0.45, 9),
    "degenerate": (0.02, 0.2, 10),
}
# Default radius of each built-in regression (regressions._DEFAULT_EPS).
CERTIFY_EPS = {
    "gaussians_equal_variances": 0.5,
    "gaussians_equal_means": 0.5,
    "non_uniqueness_single": 0.1,
    "non_uniqueness_all": 0.2,
    "degenerate": 0.05,
    "deg_eta_0_1_counterexample": 0.1,
}
# k alternating bumps; k=10 and up have more regular sets than the old capped
# enumeration listed, k=64 has more first-order candidates per kind than the
# old per-kind cap kept, and all four solve completely (exit 0).
MIXTURE_KS = (6, 10, 16, 64)


def mixture_config(k: int) -> dict:
    """k alternating Gaussian bumps: class 0 at 4i, class 1 at 4i+2."""
    def bumps(offset: float) -> list[dict]:
        return [{"type": "gaussian", "weight": 0.5 / k, "mu": 4.0 * i + offset,
                 "sigma": 0.7} for i in range(k)]

    return {"class0": bumps(0.0), "class1": bumps(2.0)}


def shuffled_mixture_config(k: int) -> dict:
    """``mixture_config(k)`` with each class's components listed in a fixed
    stride order, so the means are not sorted."""
    return {name: [comps[(5 * i + 3) % k] for i in range(k)]
            for name, comps in mixture_config(k).items()}


def mixed_class_config() -> dict:
    """Four bumps per class, the last class-0 bump replaced by a uniform cell
    of the same mass: class 0 mixes Gaussians with a piecewise polynomial."""
    config = mixture_config(4)
    config["class0"][3] = {"type": "piecewise_poly", "breakpoints": [11.0, 13.0],
                           "coeffs": [[0.0625]]}
    return config


def sparse_clusters_config() -> dict:
    """Three clusters of bumps about 150 apart, sigmas from 0.3 to 1.5, each
    class listed out of mean order.  Midway between two clusters every mean
    lies more than 40 sigma_max away, so no component is within a point's
    window, both densities underflow to 0, and the log-density gap decides
    the samples there and the ends of the root brackets between clusters."""
    rows = {"class0": [(0.06, 152.0, 1.1), (0.1, 2.0, 1.5), (0.07, 301.0, 0.3),
                       (0.09, 0.0, 0.3), (0.08, 149.0, 0.5), (0.1, 298.5, 1.2)],
            "class1": [(0.1, 300.0, 0.8), (0.08, 3.5, 0.5), (0.09, 151.0, 1.5),
                       (0.07, 1.0, 0.8), (0.06, 303.0, 0.4), (0.1, 147.5, 0.7)]}
    return {name: [{"type": "gaussian", "weight": w, "mu": mu, "sigma": sigma}
                   for w, mu, sigma in comps] for name, comps in rows.items()}


def gap_cells_config(k: int) -> dict:
    """Class 1 uniform on [4i, 4i+1] and class 0 uniform on [4i+2, 4i+3],
    i < k: every class boundary sits in a zero-density gap, so 2^(2k-1)
    regular sets tie at the minimum to the bit."""
    def cells(offset: float) -> list[dict]:
        bp = [4.0 * i + offset + d for i in range(k) for d in (0.0, 1.0)]
        rows = [[0.5 / k] if j % 2 == 0 else [0.0] for j in range(len(bp) - 1)]
        return [{"type": "piecewise_poly", "breakpoints": bp, "coeffs": rows}]

    return {"class0": cells(2.0), "class1": cells(0.0)}


def many_cells_config(n: int) -> dict:
    """Two piecewise classes of n cells each, on [0, 10] and [0.25, 10.25].

    The rows cycle through constant, linear and quadratic, with end heights
    in [0.2, 1] drawn from a fixed seed per class; each class is scaled to
    mass 1/2 by its exact integral.
    """
    def cells(seed: int, offset: float) -> list[dict]:
        rng = numpy.random.default_rng(seed)
        bp = numpy.linspace(offset, 10.0 + offset, n + 1).tolist()
        rows = []
        for j, (lo, hi) in enumerate(zip(bp, bp[1:])):
            a, b = rng.uniform(0.2, 1.0, 2).tolist()
            if j % 3 == 0:
                rows.append([a])
            elif j % 3 == 1:  # a at lo, b at hi
                slope = (b - a) / (hi - lo)
                rows.append([a - slope * lo, slope])
            else:  # a at the midpoint m, b at both ends
                m, k = 0.5 * (lo + hi), (b - a) / (0.5 * (hi - lo)) ** 2
                rows.append([a + k * m * m, -2.0 * k * m, k])
        mass = sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
                   for lo, hi, row in zip(bp, bp[1:], rows) for i, c in enumerate(row))
        rows = [[c * (0.5 / mass) for c in row] for row in rows]
        return [{"type": "piecewise_poly", "breakpoints": bp, "coeffs": rows}]

    return {"class0": cells(1, 0.0), "class1": cells(2, 0.25)}


def pinned_runs() -> list[dict]:
    """Every pinned run; ``{dir}`` stands for a scratch directory that holds
    the run's ``inputs`` files and receives its CSV."""
    runs: list[dict] = []
    for name, (lo, hi, steps) in LADDERS.items():
        runs.append({"argv": ["sweep", "--example", name, "--eps-min", repr(lo),
                              "--eps-max", repr(hi), "--steps", str(steps),
                              "--csv", "{dir}/sweep.csv"]})
        mid = lo + (hi - lo) * ((steps - 1) // 2) / (steps - 1)
        for eps in (lo, mid, hi):
            runs.append({"argv": ["solve", "--example", name, "--eps", repr(eps)]})
    for name, eps in CERTIFY_EPS.items():
        runs.append({"argv": ["certify", "--example", name, "--eps", repr(eps),
                              "--grid-h", "1e-3"]})
    for eps in (0.05, 0.1):
        runs.append({"argv": ["solve", "--example", "deg_eta_0_1_counterexample",
                              "--eps", repr(eps)]})
    # The same built-in named by a config: it must be built at the radius solved.
    runs.append({"argv": ["solve", "--config", "{dir}/deg_eta.json", "--eps", "0.05"],
                 "inputs": {"deg_eta.json": {"example": "deg_eta_0_1_counterexample"}}})
    runs.append({"argv": ["certify", "--example", "non_equiv", "--eps", "0.3"]})
    for name in CERTIFY_EPS:
        runs.append({"argv": ["examples", name]})
    for k in MIXTURE_KS:
        config = f"mixture_k{k}.json"
        runs.append({"argv": ["solve", "--config", "{dir}/" + config, "--eps", "0.1"],
                     "inputs": {config: mixture_config(k)}})
    # 256 bumps at eps 0.3: most components lie beyond a point's density
    # window and the endpoint pool has 511 nodes.
    extra = (("mixture_k256.json", mixture_config(256), "0.3"),
             ("mixture_k16_shuffled.json", shuffled_mixture_config(16), "0.1"),
             ("mixed_class.json", mixed_class_config(), "0.1"))
    # Tie-heavy pools: 32 and 128 minimizers in one class, listed by the walk.
    extra += tuple((f"gap_cells_k{k}.json", gap_cells_config(k), "0.1") for k in (3, 4))
    extra += tuple(("sparse_clusters.json", sparse_clusters_config(), eps)
                   for eps in ("0.2", "0.7"))
    for config, content, eps in extra:
        runs.append({"argv": ["solve", "--config", "{dir}/" + config, "--eps", eps],
                     "inputs": {config: content}})
    runs.append({"argv": ["sweep", "--config", "{dir}/sparse_clusters.json", "--eps-min", "0.1",
                          "--eps-max", "0.5", "--steps", "3", "--csv", "{dir}/sweep.csv"],
                 "inputs": {"sparse_clusters.json": sparse_clusters_config()}})
    # Many-cell piecewise classes of mixed degree: array reads gather rows.
    cells = {"many_cells.json": many_cells_config(96)}
    runs.append({"argv": ["solve", "--config", "{dir}/many_cells.json", "--eps", "0.1"],
                 "inputs": cells})
    runs.append({"argv": ["certify", "--config", "{dir}/many_cells.json", "--eps", "0.1",
                          "--grid-h", "1e-3"], "inputs": cells})
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pinned(run: dict, workdir: Path) -> dict:
    """Run one pinned argv in-process; exit code and digest of every output."""
    for name, content in run.get("inputs", {}).items():
        (workdir / name).write_text(json.dumps(content, sort_keys=True))
    argv = [a.format(dir=workdir) for a in run["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
    }
    if "--csv" in argv:
        csv_path = Path(argv[argv.index("--csv") + 1])
        result["csv"] = _sha256(csv_path.read_bytes())
        csv_path.unlink()
    return result


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def test_reports_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["runs"], "the golden file pins no runs"
    assert [_run_id(run) for run in golden["runs"]] == [_run_id(run) for run in pinned_runs()], (
        "the golden file's runs differ from pinned_runs(); re-pin it")
    differing = []
    for run in golden["runs"]:
        expected = {k: run[k] for k in run if k not in ("argv", "inputs")}
        got = run_pinned(run, tmp_path)
        if got != expected:
            streams = sorted(k for k in expected if got.get(k) != expected[k])
            differing.append(f"  {' '.join(run['argv'])}: {', '.join(streams)} differ")
    assert not differing, (
        f"{len(differing)} of {len(golden['runs'])} pinned reports changed\n"
        f"pinned with {golden['versions']}, running {versions()}\n" + "\n".join(differing)
    )


def _run_id(run: dict) -> str:
    return json.dumps({"argv": run["argv"], "inputs": run.get("inputs", {})}, sort_keys=True)


def _write_golden() -> None:
    """Re-pin every run, printing each argv whose pinned outputs change."""
    old = {}
    if GOLDEN.exists():
        old = {_run_id(run): run for run in json.loads(GOLDEN.read_text())["runs"]}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [{**run, **run_pinned(run, Path(tmp))} for run in pinned_runs()]
    for run in runs:
        before = old.pop(_run_id(run), None)
        if before is None:
            print(f"new: {' '.join(run['argv'])}")
            continue
        changed = sorted(k for k in run.keys() | before.keys()
                         if k not in ("argv", "inputs") and run.get(k) != before.get(k))
        if changed:
            print(f"changed ({', '.join(changed)}): {' '.join(run['argv'])}")
    for run in old.values():
        print(f"dropped: {' '.join(run['argv'])}")
    lines = ",\n".join("  " + json.dumps(run, sort_keys=True) for run in runs)
    GOLDEN.write_text(f'{{"versions": {json.dumps(versions(), sort_keys=True)},\n'
                      f' "runs": [\n{lines}\n]}}\n')
    print(f"pinned {len(runs)} runs in {GOLDEN}")


if __name__ == "__main__":
    sys.exit(_write_golden())
