"""Command-line front end: solve, sweep, certify, examples.

``solve``, ``sweep`` and ``certify`` read a source and a ``run`` block.  The
source is ``--example NAME`` or a ``--config`` JSON file that holds
``example``, ``atoms``, or ``class0`` and ``class1``, plus an optional
``run`` object.  The run keys are ``epsilon`` (a number or {min, max,
steps}), ``grid_h``, ``max_k``, ``tolerance``, ``full_matching``, ``out``
and ``csv``; any other key is an error, and so is an ``epsilon``, ``min``,
``max``, ``grid_h`` or ``tolerance`` that is not a JSON number (a bool or
a string is never coerced), a ``max_k`` or ``steps`` that is not an
integer, or a ``full_matching`` that is not a boolean.  The flags
(``--eps`` or ``--eps-min``/``--eps-max``/``--steps``, ``--grid-h``,
``--max-k``, ``--tol``, ``--full-matching``, ``--out``, ``--csv``) are
written over the run block, and the merged config is validated once.

Exit codes: 0 success, 1 usage or validation error, 2 completed with
warnings (e.g. a widened endpoint window), 3 grid-search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field

from . import certify, examples, reportio, solver
from .certify import BudgetExceeded
from .density import DistributionPair, json_number, pair_from_dict
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
    grid_h: float = 1e-3
    max_k: int = 2
    full_matching: bool = False
    tolerance: float = 5e-3
    out: str | None = None
    csv: str | None = None


RUN_KEYS = ("epsilon", "grid_h", "max_k", "tolerance", "full_matching", "out", "csv")


def parse_config(text: str) -> RunConfig:
    """Parse the JSON distribution-plus-run schema into a RunConfig."""
    return config_from_dict(_json_object(text))


def _json_object(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("top-level config must be an object")
    return data


def config_from_dict(data: dict) -> RunConfig:
    """Validate a config object (a source plus a ``run`` block) into a RunConfig.

    The source is ``example`` (a built-in name, or ``non_equiv`` for the
    atomic pair), ``atoms``, or ``class0`` and ``class1``.  A built-in that
    depends on the radius is built at ``run.epsilon`` when that is a single
    number, and at its default radius otherwise.
    """
    run = data.get("run", {})
    if not isinstance(run, dict):
        raise ParseError("'run' must be an object")
    unknown = sorted(set(run) - set(RUN_KEYS))
    if unknown:
        raise ParseError(f"unknown 'run' key {', '.join(map(repr, unknown))}; "
                         f"the keys are {', '.join(RUN_KEYS)}")

    eps_spec = run.get("epsilon")
    eps0 = None
    if isinstance(eps_spec, dict):
        if not {"min", "max", "steps"} <= eps_spec.keys():
            raise ParseError("'run.epsilon' needs min, max and steps")
        lo, hi = (_number(eps_spec[k], f"run.epsilon.{k}") for k in ("min", "max"))
        eps_values = _eps_range(lo, hi, _integer(eps_spec["steps"], "run.epsilon.steps"))
    elif eps_spec is not None:
        eps0 = _number(eps_spec, "run.epsilon")
        eps_values = [eps0]
    else:
        eps_values = []
    for eps in eps_values:
        _check_eps(eps)

    cfg = RunConfig(distribution=None, eps_values=eps_values)
    example = data.get("example")
    if example == "non_equiv":
        if eps0 is None:
            raise ValidationError("the atomic example needs a single epsilon")
        cfg.atoms = examples.atomic_pair(eps0)
    elif example is not None:
        try:
            cfg.distribution = examples.example_pair(str(example), eps=eps0)
        except examples.UnknownExample:
            raise ValidationError(f"unknown built-in example {example!r}")
        except ValueError as exc:
            raise ValidationError(str(exc))
    elif "atoms" in data:
        atoms = data["atoms"]
        try:
            import numpy as np

            cfg.atoms = tuple(
                certify.AtomList(
                    positions=np.array([json_number(p, f"atoms.{key} position")
                                        for p, _ in atoms[key]]),
                    masses=np.array([json_number(m, f"atoms.{key} mass") for _, m in atoms[key]]),
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

    cfg.grid_h = _number(run.get("grid_h", cfg.grid_h), "run.grid_h")
    cfg.tolerance = _number(run.get("tolerance", cfg.tolerance), "run.tolerance")
    cfg.max_k = _integer(run.get("max_k", cfg.max_k), "run.max_k")
    cfg.full_matching = run.get("full_matching", cfg.full_matching)
    if not isinstance(cfg.full_matching, bool):
        raise ParseError(f"'run.full_matching' must be true or false, got {cfg.full_matching!r}")
    cfg.out, cfg.csv = run.get("out"), run.get("csv")
    if not all(p is None or isinstance(p, str) for p in (cfg.out, cfg.csv)):
        raise ParseError("'run.out' and 'run.csv' must be path strings")
    if not (math.isfinite(cfg.grid_h) and cfg.grid_h > 0):
        raise ValidationError("grid_h must be finite and positive")
    if cfg.max_k < 1 or certify.dp_slots(1, cfg.max_k) > certify.WORK_BUDGET:
        raise ValidationError("max_k must be at least 1 and fit the certify budget")
    if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
        raise ValidationError("tolerance must be finite and positive")
    return cfg


def _number(value, key: str) -> float:
    """``value`` as a float when it is a JSON number (``density.json_number``)."""
    try:
        return json_number(value, key)
    except TypeError as exc:
        raise ParseError(str(exc))


def _integer(value, key: str) -> int:
    """``value`` when it is an integer and not a bool; no float or string is rounded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"'{key}' must be an integer, got {value!r}")
    return value


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


# -- argument plumbing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise CliUsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
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
        sp.add_argument("--grid-h", type=float, default=None)
        sp.add_argument("--max-k", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--full-matching", action="store_true")
        sp.add_argument("--out", default=None)
        sp.add_argument("--csv", default=None)
    ex = sub.add_parser("examples")
    ex.add_argument("name")
    ex.add_argument("--eps", type=float, default=None)
    return p


def _config_from_args(args) -> RunConfig:
    """The config file's object, or ``{"example": NAME}``, with the flags
    written over its ``run`` block."""
    if args.config:
        with open(args.config) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"config is not UTF-8 text: {exc}")
        data = _json_object(text)
    elif args.example:
        data = {"example": args.example}
    else:
        raise CliUsageError("one of --config or --example is required")

    flags: dict = {}
    if args.eps is not None:
        flags["epsilon"] = args.eps
    if args.eps_min is not None or args.eps_max is not None or args.steps is not None:
        if args.eps_min is None or args.eps_max is None or args.steps is None:
            raise CliUsageError("--eps-min, --eps-max and --steps go together")
        flags["epsilon"] = {"min": args.eps_min, "max": args.eps_max, "steps": args.steps}
    for key, value in (("grid_h", args.grid_h), ("max_k", args.max_k),
                       ("tolerance", args.tol), ("out", args.out), ("csv", args.csv)):
        if value is not None:
            flags[key] = value
    if args.full_matching:
        flags["full_matching"] = True
    run = data.get("run", {})
    if isinstance(run, dict):  # config_from_dict rejects any other 'run'
        data["run"] = {**run, **flags}
    return config_from_dict(data)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- commands -----------------------------------------------------------------


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.distribution is None:
        raise ValidationError("solve needs a density-based distribution")
    if len(cfg.eps_values) != 1:
        raise ValidationError("solve needs exactly one epsilon (use sweep for ranges)")
    report = solver.solve(cfg.distribution, cfg.eps_values[0])
    _emit(reportio.dumps(reportio.solve_report_to_dict(report)), cfg.out)
    if cfg.csv:
        reportio.write_csv(cfg.csv, reportio.SOLVE_COLUMNS, [reportio.report_row(report)])
    return 2 if report.warnings else 0


def _sweep_reports(cfg: RunConfig) -> list[SolveReport]:
    return [solver.solve(cfg.distribution, e) for e in sorted(cfg.eps_values)]


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
        top = rep.classes[0].representative
        dilated = support.expand(rep.epsilon)
        mono = ""
        if prev is not None:
            try:
                res = solver.check_monotonicity(cfg.distribution, prev, rep)
                mono = "true" if res.holds else "false"
            except AssumptionUnmet:
                mono = "n/a"
        rows.append({
            "comp_classifier": top.intersect(dilated).n_components,
            "comp_complement": top.complement().intersect(dilated).n_components,
            "monotonic_vs_prev": mono,
        })
        prev = rep
    if cfg.csv:
        reportio.write_csv(cfg.csv, reportio.SWEEP_COLUMNS,
                           [{**reportio.report_row(rep), **row} for rep, row in zip(reports, rows)])
    payload = {
        "rows": rows,
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
    report = solver.solve(cfg.distribution, eps)
    gap = certify.duality_gap(cfg.distribution, eps, cfg.grid_h, cfg.max_k)
    payload = {
        "solver_min_risk": report.min_risk,
        "solver_vs_primal": report.min_risk - gap.primal,
        "gap_report": reportio.gap_to_dict(gap, cfg.full_matching),
        "tolerance": cfg.tolerance,
    }
    _emit(reportio.dumps(payload), cfg.out)
    failed = [
        f"{name} = {value!r}"
        for name, value in (("solver_vs_primal", payload["solver_vs_primal"]), ("gap", gap.gap))
        if not abs(value) <= cfg.tolerance
    ]
    if failed:
        print(f"error: certificate exceeds --tol {cfg.tolerance!r}: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


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
