"""Benchmark of the advbayes CLI.

One client in a closed loop: a single process and thread calls
``advbayes.cli.main(argv)`` in-process, one op at a time, and sends the
next op only after the previous one returned.  Each op is one ``sweep``,
``solve`` or ``certify`` command from the workload's seeded case list
(see workloads.py); the loop cycles over the case list until ``--seconds``
have passed and every case has run MIN_SAMPLES times.  Every op's report is
hashed; the first report of each case is checked in full (checks.py) and
every repeat must hash the same, so a repeat that differs is a failed op.

    python3 bench/run.py --workload radius_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (tracing.py), whose rounds alternate with untraced
ones so that the tracing overhead and the traced-vs-untraced report digests
come from the same run.  A table of every metric goes to standard output,
the last line is one JSON object, and the run record (environment, cases,
digests, metrics) is written under ``.advbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".advbench"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TAIL_BEYOND = 10  # the tail latency is the highest percentile with this many samples beyond it
MIN_SAMPLES = 4  # an untraced run lasts until every case has run this often
# On a shared virtual machine the CPU speed can drift by +-30% over seconds
# to minutes.  A fixed pure-Python kernel, timed before and after every op
# and set-up probe, measures the current speed; each time is reported scaled
# to a machine on which the kernel takes CAL_NOMINAL_S.
CAL_ITERATIONS = 20_000
CAL_NOMINAL_S = 2.5e-3

SETUP_CODE = """\
import sys, tempfile
sys.path[:0] = [{src!r}, {bench!r}]
import advbayes.cli, workloads
with tempfile.TemporaryDirectory(dir={work!r}) as d:
    workloads.generate({workload!r}, {seed!r}, d)
"""


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    case: int
    seconds: float
    code: object  # exit code, or a description of what main raised
    digest: str
    traced: bool = False
    ok: bool = False
    scale: float = 1.0  # CAL_NOMINAL_S over the mean kernel time before and after


def call(main, argv) -> tuple[object, str, float]:
    """Run one CLI command in-process; returns (exit code, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def calibrate() -> float:
    """Seconds the calibration kernel takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(CAL_ITERATIONS):
            x = math.sqrt(i + 0.5)
            acc += x
            table[i & 255] = x
        best = min(best, time.perf_counter() - start)
    return best


def run_rounds(cases, seconds: float, main, tracer=None):
    """Closed loop over ``cases`` until ``seconds`` have passed.

    The loop stops at the first op boundary after ``seconds`` once every
    case has run MIN_SAMPLES times (with a tracer: once a whole untraced and
    a whole traced round have run; odd rounds are traced).  Returns the
    ops, the first (exit code, report) of each case, and the loop's wall
    time less the calibration time.
    """
    ops: list[Op] = []
    first: dict[int, tuple[object, str]] = {}
    min_ops = len(cases) * (MIN_SAMPLES if tracer is None else 2)
    start = time.perf_counter()
    cal_time = 0.0

    def timed_calibration() -> float:
        nonlocal cal_time
        cal_start = time.perf_counter()
        cal = calibrate()
        cal_time += time.perf_counter() - cal_start
        return cal

    cal = timed_calibration()
    while True:
        traced = tracer is not None and len(ops) // len(cases) % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            for i, case in enumerate(cases):
                if traced:
                    tracer.op = len(ops)
                code, text, elapsed = call(main, case.argv)
                first.setdefault(i, (code, text))
                digest = hashlib.sha256(text.encode()).hexdigest()
                cal_after = timed_calibration()
                ops.append(Op(i, elapsed, code, digest, traced,
                              scale=2 * CAL_NOMINAL_S / (cal + cal_after)))
                cal = cal_after
                if len(ops) >= min_ops and time.perf_counter() - start >= seconds:
                    return ops, first, time.perf_counter() - start - cal_time


def grade(ops: list[Op], checks) -> dict[int, str]:
    """Mark each op ok or not; returns the reference digest of each case.

    An op is ok when its exit code and report hash equal those of its case's
    first op, and that first op passed its check.
    """
    refs: dict[int, Op] = {}
    for op in ops:
        ref = refs.setdefault(op.case, op)
        op.ok = (op.code, op.digest) == (ref.code, ref.digest) and checks[op.case].ok
    return {case: op.digest for case, op in refs.items()}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that still
    has TAIL_BEYOND samples above it, or the maximum for short runs."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def run_scale(ops: list[Op]) -> float:
    """The ops' scales averaged with their durations as weights."""
    return sum(op.seconds * op.scale for op in ops) / sum(op.seconds for op in ops)


def summarize(ops: list[Op], checks, busy: float, scaled: bool = True) -> dict:
    """End-to-end figures of an untraced run (see README.md for definitions).

    ``busy`` is the loop's wall time without calibration.  When ``scaled``,
    each latency is multiplied by its op's scale and the loop time by
    ``run_scale``.
    """
    attempted = len(ops)
    done = [op for op in ops if op.ok]
    timed = done or ops  # latencies of checked ops; all ops if none passed
    scale = run_scale(ops) if scaled else 1.0
    latency = [op.seconds * (op.scale if scaled else 1.0) for op in timed]
    by_case: dict[int, list[float]] = {}
    for op, seconds in zip(timed, latency):
        by_case.setdefault(op.case, []).append(seconds)
    tail_s, tail_pct, beyond = tail(latency)
    truncated = sum(1 for op in ops if checks[op.case].truncated)
    gaps = [c.cert_gap for c in checks.values() if c.cert_gap is not None]
    svp = [c.solver_vs_primal for c in checks.values() if c.solver_vs_primal is not None]
    return {
        "attempted": attempted,
        "failed": attempted - len(done),
        "ops_per_s": len(done) / (busy * scale),
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "tail_samples": len(timed),
        "op_geomean_ms": 1e3 * math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in by_case.values())),
        "case_median_ms": {i: 1e3 * statistics.median(v) for i, v in sorted(by_case.items())},
        "failed_frac": (attempted - len(done)) / attempted,
        "truncated_frac": truncated / attempted,
        "complete_frac": 1.0 - truncated / attempted,
        "cert_gap_max": max(gaps) if gaps else None,
        "solver_vs_primal_max": max(svp) if svp else None,
    }


# -- set-up probes (fresh interpreters) -----------------------------------------


def scaled_measure(measure) -> tuple[float, float]:
    """The time ``measure()`` returns, raw and scaled by the kernel time around it."""
    before = calibrate()
    raw = measure()
    return raw, raw * 2 * CAL_NOMINAL_S / (before + calibrate())


def _medians(runs: list[tuple[float, float]]) -> tuple[float, float]:
    return statistics.median(r for r, _ in runs), statistics.median(s for _, s in runs)


def measure_setup(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """Median wall time, raw and scaled, of a fresh interpreter importing
    advbayes.cli and generating the workload's inputs."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(HERE), work=workdir,
                             workload=workload, seed=seed)

    def probe() -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        return time.perf_counter() - start

    return _medians([scaled_measure(probe) for _ in range(SETUP_REPEATS)])


def _density_import_s() -> float:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import advbayes.density"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          check=True, capture_output=True, text=True)
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "advbayes.density":
            return int(fields[1]) * 1e-6
    raise HarnessError("-X importtime printed no line for advbayes.density")


def measure_density_import() -> tuple[float, float]:
    """Median cumulative ``-X importtime`` of advbayes.density (numpy and scipy
    included), raw and scaled."""
    return _medians([scaled_measure(_density_import_s) for _ in range(IMPORT_REPEATS)])


# -- orchestration --------------------------------------------------------------


def load_package():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "advbayes" / "__init__.py").is_file():
        raise HarnessError(f"no package source at {SRC / 'advbayes'}")
    sys.path.insert(0, str(SRC))
    import advbayes
    from advbayes import cli

    if Path(advbayes.__file__).resolve().parent != SRC / "advbayes":
        raise HarnessError(f"advbayes imported from {advbayes.__file__}, not from {SRC}")
    return cli


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def regression_failures() -> list[str]:
    """Every ``regressions.example_checks`` assertion that fails (untimed)."""
    from advbayes import examples, regressions

    return [f"{name}: {label} ({detail})"
            for name in examples.EXAMPLE_NAMES
            for label, ok, detail in regressions.example_checks(name)
            if not ok]


E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_geomean_ms": "ms",
    "complete_frac": "frac",
    "peak_rss_mb": "MB",
}
# Reported in the table only: they read 0 on some workloads, or exist only
# for certify_ladder (failures also appear as the result's "failed" count).
DETAIL_UNITS = {
    "failed_frac": "frac",
    "truncated_frac": "frac",
    "cert_gap_max": "prob",
    "solver_vs_primal_max": "prob",
}
TIMES = {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "op_geomean_ms"}  # shown raw too


def _row(name: str, value, unit: str, raw=None) -> str:
    shown = "n/a" if value is None else f"{value:.6g}"
    note = "" if raw is None else f"[{raw:.6g}]"
    return f"{name:<28} {shown:>14} {unit:<9} {note}".rstrip()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def run(args) -> dict:
    if "ADVBAYES_THREADS" in os.environ:
        raise HarnessError("ADVBAYES_THREADS is set; it moves sweeps onto a thread pool")
    cli = load_package()
    import checks  # these import the package, which load_package() put on the path
    import tracing

    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        cases = workloads.generate(args.workload, args.seed, workdir)
        if args.trace:
            import_raw, import_s = measure_density_import()
        else:
            setup_raw, setup_s = measure_setup(args.workload, args.seed, workdir)
        regressions = regression_failures()
        tracer = tracing.Tracer() if args.trace else None
        ops, first, busy = run_rounds(cases, args.seconds, lambda argv: cli.main(argv), tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = {i: checks.check_report(cases[i], *first[i]) for i in range(len(cases))}
    refs = grade(ops, results)
    untraced = [op for op in ops if not op.traced]
    summary = summarize(untraced, results, busy)
    raw = summarize(untraced, results, busy, scaled=False)
    scale = run_scale(ops)
    failed = sum(1 for op in ops if not op.ok)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "load": "closed loop, 1 client, in-process, one op in flight",
        "cases": [{"name": c.name, "argv": list(c.argv), "digest": refs[i],
                   "problems": results[i].problems} for i, c in enumerate(cases)],
        "regression_failures": regressions,
        "attempted": len(ops),
        "failed": failed,
        "busy_s": busy,
        "scale": scale,
        "summary": summary,
        "raw_summary": raw,
    }

    lines = [f"# advbayes benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}, {len(ops)} ops in {busy:.1f} s",
             "# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
             "# load: " + record["load"],
             f"# speed: times scaled to a {1e3 * CAL_NOMINAL_S:g} ms calibration kernel, "
             f"run scale {scale:.4f}; raw values in brackets"]
    for i, c in enumerate(cases):
        status = "ok" if results[i].ok else "FAIL " + "; ".join(results[i].problems)
        lines.append(f"# case {c.name}: {' '.join(c.argv)} [sha256 {refs[i][:16]}] {status}")
    for problem in regressions:
        lines.append(f"# regression FAIL {problem}")

    if args.trace:
        traced = [op for op in ops if op.traced]
        metrics = tracer.layer_metrics(len(traced), run_scale(traced))
        metrics["density.import_s"] = (import_s, "s", import_raw)
        metrics["certify.gap_max"] = (summary["cert_gap_max"] or 0.0, "prob", None)
        metrics["certify.solver_vs_primal_max"] = (
            summary["solver_vs_primal_max"] or 0.0, "prob", None)
        metrics["trace.overhead_frac"] = (_overhead(ops), "frac", None)
        same = all(op.digest == refs[op.case] for op in traced)
        lines.append(f"# traced reports identical to untraced: {'yes' if same else 'NO'}")
        record["spans_file"] = _write_spans(args, tracer)
    else:
        values = {**summary, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        raw_values = {**raw, "setup_s": setup_raw}
        metrics = {name: (values[name], unit, raw_values[name] if name in TIMES else None)
                   for name, unit in E2E_UNITS.items()}
        for name, unit in DETAIL_UNITS.items():
            lines.append(_row(name, summary[name], unit))
        lines.append(f"# op_tail_ms is p{summary['tail_percentile']:.2f}: "
                     f"{summary['tail_beyond']} of {summary['tail_samples']} samples beyond it")
    for name, (value, unit, raw_value) in metrics.items():
        lines.append(_row(name, value, unit, raw_value))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    record["raw_metrics"] = {k: r for k, (_, _, r) in metrics.items() if r is not None}
    with open(OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("\n".join(lines))
    return {
        "correct": failed == 0 and not regressions,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }


def _overhead(ops: list[Op]) -> float:
    """Traced over untraced time of one round (per-case medians), minus one."""
    def round_time(traced: bool) -> float:
        by_case: dict[int, list[float]] = {}
        for op in ops:
            if op.traced == traced:
                by_case.setdefault(op.case, []).append(op.seconds * op.scale)
        return sum(statistics.median(v) for v in by_case.values())

    return round_time(True) / round_time(False) - 1.0


def _write_spans(args, tracer) -> str:
    path = OUT / f"{args.workload}_seed{args.seed}_spans.json"
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (HarnessError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
