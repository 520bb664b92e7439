"""Command-line front end: solve, sweep, certify, examples.

Exit codes: 0 success, 1 usage or validation error, 2 completed with
warnings (e.g. candidate truncation), 3 grid-search budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from . import certify, examples, reportio, risk, solver
from .certify import BudgetExceeded
from .density import DistributionPair, pair_from_dict
from .intervals import IntervalSet
from .solver import AssumptionUnmet, SolveReport


class ParseError(ValueError):
    """Malformed configuration text."""


class ValidationError(ValueError):
    """Well-formed configuration violating an invariant."""


class CliUsageError(ValueError):
    pass


@dataclass
class RunConfig:
    distribution: DistributionPair | None
    atoms: tuple | None = None
    eps_values: list[float] = field(default_factory=list)
    grid_n: int = 2048
    grid_h: float = 1e-3
    max_k: int = 2
    keep_all: bool = False
    full_matching: bool = False
    tolerance: float = 5e-3
    out: str | None = None
    csv: str | None = None
    example: str | None = None


def parse_config(text: str) -> RunConfig:
    """Parse the JSON distribution-plus-run schema into a RunConfig."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ParseError("top-level config must be an object")

    run = data.get("run", {})
    if not isinstance(run, dict):
        raise ParseError("'run' must be an object")
    cfg = RunConfig(distribution=None)

    example = data.get("example")
    if example is not None:
        eps0 = run.get("epsilon") if isinstance(run.get("epsilon"), (int, float)) else None
        try:
            cfg.distribution = examples.example_pair(str(example), eps=eps0)
        except examples.UnknownExample:
            raise ValidationError(f"unknown built-in example {example!r}")
        except ValueError as exc:
            raise ValidationError(str(exc))
        cfg.example = str(example)
    elif "atoms" in data:
        atoms = data["atoms"]
        try:
            import numpy as np

            cfg.atoms = tuple(
                certify.AtomList(
                    positions=np.array([float(p) for p, _ in atoms[key]]),
                    masses=np.array([float(m) for _, m in atoms[key]]),
                    klass=k,
                )
                for k, key in ((0, "class0"), (1, "class1"))
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed 'atoms' block: {exc}")
        except ValueError as exc:
            raise ValidationError(str(exc))
    else:
        if "class0" not in data or "class1" not in data:
            raise ParseError("config needs 'class0' and 'class1' (or 'example'/'atoms')")
        try:
            cfg.distribution = pair_from_dict(data)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed density component: {exc}")
        except ValueError as exc:
            raise ValidationError(str(exc))

    eps_spec = run.get("epsilon")
    if isinstance(eps_spec, (int, float)):
        cfg.eps_values = [float(eps_spec)]
    elif isinstance(eps_spec, dict):
        try:
            lo, hi = float(eps_spec["min"]), float(eps_spec["max"])
            steps = int(eps_spec["steps"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"'run.epsilon' needs numeric min, max and steps: {exc!r}")
        cfg.eps_values = _eps_range(lo, hi, steps)
    elif eps_spec is not None:
        raise ParseError("'run.epsilon' must be a number or {min, max, steps}")

    try:
        cfg.grid_n = int(run.get("grid_n", cfg.grid_n))
        cfg.grid_h = float(run.get("grid_h", cfg.grid_h))
        cfg.max_k = int(run.get("max_k", cfg.max_k))
        cfg.tolerance = float(run.get("tolerance", cfg.tolerance))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed 'run' value: {exc}")
    cfg.keep_all = bool(run.get("keep_all", cfg.keep_all))
    cfg.full_matching = bool(run.get("full_matching", cfg.full_matching))
    cfg.out, cfg.csv = run.get("out"), run.get("csv")
    if not all(p is None or isinstance(p, str) for p in (cfg.out, cfg.csv)):
        raise ParseError("'run.out' and 'run.csv' must be path strings")
    _validate(cfg)
    return cfg


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValidationError("epsilon must be finite and nonnegative")


def _eps_range(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValidationError("steps must be at least 1")
    if not (math.isfinite(hi) and 0 <= lo <= hi):
        raise ValidationError("need finite 0 <= eps_min <= eps_max")
    if steps == 1:
        return [lo]
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _validate(cfg: RunConfig) -> None:
    for eps in cfg.eps_values:
        _check_eps(eps)
    if cfg.grid_n < 64:
        raise ValidationError("grid_n must be at least 64")
    if not (math.isfinite(cfg.grid_h) and cfg.grid_h > 0):
        raise ValidationError("grid_h must be finite and positive")
    if not 1 <= cfg.max_k <= 3:
        raise ValidationError("max_k must be between 1 and 3")
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise ValidationError("tolerance must be finite and positive")


# -- argument plumbing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliUsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="advbayes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep", "certify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--example", default=None, choices=examples.EXAMPLE_NAMES + ("non_equiv",))
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--eps-min", type=float, default=None)
        sp.add_argument("--eps-max", type=float, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--grid-n", type=int, default=None)
        sp.add_argument("--grid-h", type=float, default=None)
        sp.add_argument("--max-k", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--keep-all", action="store_true")
        sp.add_argument("--full-matching", action="store_true")
        sp.add_argument("--out", default=None)
        sp.add_argument("--csv", default=None)
    ex = sub.add_parser("examples")
    ex.add_argument("name")
    ex.add_argument("--eps", type=float, default=None)
    return p


def _config_from_args(args) -> RunConfig:
    if args.eps is not None:
        _check_eps(args.eps)
    if args.config:
        with open(args.config) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"config is not UTF-8 text: {exc}")
        cfg = parse_config(text)
    elif args.example and args.example != "non_equiv":
        try:
            cfg = RunConfig(distribution=examples.example_pair(args.example, eps=args.eps))
        except ValueError as exc:
            raise ValidationError(str(exc))
        cfg.example = args.example
    elif args.example == "non_equiv":
        if args.eps is None:
            raise ValidationError("the atomic example needs --eps")
        cfg = RunConfig(distribution=None, atoms=examples.atomic_pair(args.eps))
        cfg.example = "non_equiv"
    else:
        raise CliUsageError("one of --config or --example is required")

    if args.eps is not None:
        cfg.eps_values = [args.eps]
    if args.eps_min is not None or args.eps_max is not None or args.steps is not None:
        if args.eps_min is None or args.eps_max is None or args.steps is None:
            raise CliUsageError("--eps-min, --eps-max and --steps go together")
        cfg.eps_values = _eps_range(args.eps_min, args.eps_max, args.steps)
    if args.grid_n is not None:
        cfg.grid_n = args.grid_n
    if args.grid_h is not None:
        cfg.grid_h = args.grid_h
    if args.max_k is not None:
        cfg.max_k = args.max_k
    if args.tol is not None:
        cfg.tolerance = args.tol
    cfg.keep_all = cfg.keep_all or args.keep_all
    cfg.full_matching = cfg.full_matching or args.full_matching
    if args.out is not None:
        cfg.out = args.out
    if args.csv is not None:
        cfg.csv = args.csv
    _validate(cfg)
    return cfg


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- commands -----------------------------------------------------------------


def _solve(cfg: RunConfig, eps: float) -> SolveReport:
    return solver.solve(cfg.distribution, eps, grid_n=cfg.grid_n, keep_all=cfg.keep_all)


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.distribution is None:
        raise ValidationError("solve needs a density-based distribution")
    if len(cfg.eps_values) != 1:
        raise ValidationError("solve needs exactly one epsilon (use sweep for ranges)")
    report = _solve(cfg, cfg.eps_values[0])
    _emit(reportio.dumps(reportio.solve_report_to_dict(report)), cfg.out)
    if cfg.csv:
        reportio.write_csv(cfg.csv, reportio.SOLVE_COLUMNS, [reportio.solve_csv_row(report)])
    return 2 if report.warnings else 0


def _sweep_reports(cfg: RunConfig) -> list[SolveReport]:
    return [_solve(cfg, e) for e in sorted(cfg.eps_values)]


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.distribution is None:
        raise ValidationError("sweep needs a density-based distribution")
    if not cfg.eps_values:
        raise ValidationError("sweep needs at least one epsilon")
    reports = _sweep_reports(cfg)
    support = cfg.distribution.support()
    rows = []
    prev: SolveReport | None = None
    for rep in reports:
        top = rep.classes[0].representative if rep.classes else IntervalSet.empty()
        dilated = support.expand(rep.epsilon)
        mono = ""
        if prev is not None:
            try:
                res = solver.check_monotonicity(cfg.distribution, prev, rep)
                mono = "true" if res.holds else "false"
            except AssumptionUnmet:
                mono = "n/a"
        rows.append(
            [
                reportio.fmt_float(rep.epsilon),
                reportio.fmt_float(rep.min_risk),
                len(rep.classes),
                top.intersect(dilated).n_components,
                top.complement().intersect(dilated).n_components,
                "true" if rep.unique_up_to_degeneracy else "false",
                reportio.representative_string(top),
                mono,
            ]
        )
        prev = rep
    if cfg.csv:
        reportio.write_csv(cfg.csv, reportio.SWEEP_COLUMNS, rows)
    payload = {
        "rows": [dict(zip(reportio.SWEEP_COLUMNS, row)) for row in rows],
        "reports": [reportio.solve_report_to_dict(r) for r in reports],
    }
    _emit(reportio.dumps(payload), cfg.out)
    return 2 if any(r.warnings for r in reports) else 0


def cmd_certify(cfg: RunConfig) -> int:
    if len(cfg.eps_values) != 1:
        raise ValidationError("certify needs exactly one epsilon")
    eps = cfg.eps_values[0]
    if cfg.atoms is not None:
        cert = certify.dual_value(cfg.atoms[0], cfg.atoms[1], eps)
        payload = {
            "mode": "atoms",
            "certificate": reportio.certificate_to_dict(cert, cfg.full_matching),
        }
        _emit(reportio.dumps(payload), cfg.out)
        return 0
    assert cfg.distribution is not None
    report = _solve(cfg, eps)
    gap = certify.duality_gap(cfg.distribution, eps, cfg.grid_h, cfg.max_k)
    payload = {
        "solver_min_risk": report.min_risk,
        "solver_vs_primal": report.min_risk - gap.primal,
        "gap_report": reportio.gap_to_dict(gap, cfg.full_matching),
        "tolerance": cfg.tolerance,
    }
    _emit(reportio.dumps(payload), cfg.out)
    ok = abs(report.min_risk - gap.primal) <= cfg.tolerance and abs(gap.gap) <= cfg.tolerance
    return 0 if ok else 1


def cmd_examples(name: str, eps: float | None) -> int:
    """Run the named built-in regression and print one line per assertion."""
    from . import regressions

    try:
        checks = regressions.example_checks(name, eps)
    except examples.UnknownExample:
        print(f"unknown example: {name}", file=sys.stderr)
        return 1
    failures = 0
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {label} ({detail})")
        failures += 0 if ok else 1
    if name in examples.DISPUTED_VALUES:
        for key, val in sorted(examples.DISPUTED_VALUES[name].items()):
            print(f"[note] {name}: {key} = {val}")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "examples":
            if args.eps is not None:
                _check_eps(args.eps)
            return cmd_examples(args.name, args.eps)
        cfg = _config_from_args(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "certify":
            return cmd_certify(cfg)
        raise CliUsageError(f"unknown command {args.command!r}")
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliUsageError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
