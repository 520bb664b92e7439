"""Output checks for one CLI report.

A report passes when the command exited 0 or 2 (``certify`` must exit 0,
i.e. within ``--tol``), its JSON parses, and every solve report in it has a
``min_risk`` equal to the adversarial risk of its first representative
within ``TAU_RISK`` and no larger than the risks of ∅ and ℝ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from advbayes import examples
from advbayes.density import pair_from_dict
from advbayes.intervals import IntervalSet
from advbayes.risk import TAU_RISK, adversarial_risk

from workloads import Case

TRUNCATION_WARNING = "candidate enumeration truncated"


@dataclass
class CheckResult:
    ok: bool
    problems: list[str] = field(default_factory=list)
    truncated: bool = False
    cert_gap: float | None = None  # |primal - dual| of a certify report
    solver_vs_primal: float | None = None  # |solver min risk - grid primal|


def _check_solve_report(case: Case, rep: dict, res: CheckResult) -> None:
    eps = float(rep["epsilon"])
    if case.config is not None:
        pair = pair_from_dict(case.config)
    else:
        pair = examples.example_pair(case.example, eps=eps)
    min_risk = float(rep["min_risk"])
    if not rep["classes"]:
        res.problems.append(f"eps={eps}: no equivalence class")
        return
    first = IntervalSet.from_rows(rep["classes"][0]["representative"])
    r_first = adversarial_risk(pair, first, eps).total
    if abs(min_risk - r_first) > TAU_RISK:
        res.problems.append(f"eps={eps}: min_risk {min_risk!r} != risk of first representative "
                            f"{r_first!r}")
    trivial = min(adversarial_risk(pair, IntervalSet.empty(), eps).total,
                  adversarial_risk(pair, IntervalSet.reals(), eps).total)
    if min_risk > trivial + TAU_RISK:
        res.problems.append(f"eps={eps}: min_risk {min_risk!r} exceeds min(R(∅), R(ℝ)) "
                            f"{trivial!r}")
    scan = rep.get("first_order") or {}
    if scan.get("truncated") or any(w.startswith(TRUNCATION_WARNING) for w in rep["warnings"]):
        res.truncated = True


def _check_payload(case: Case, payload: dict, res: CheckResult) -> None:
    if case.command == "solve":
        _check_solve_report(case, payload, res)
    elif case.command == "sweep":
        for rep in payload["reports"]:
            _check_solve_report(case, rep, res)
    else:
        gap = payload["gap_report"]
        res.cert_gap = abs(float(gap["gap"]))
        res.solver_vs_primal = abs(float(payload["solver_min_risk"]) - float(gap["primal"]))


def check_report(case: Case, code: object, text: str) -> CheckResult:
    """Check one op's exit code and report text against the rules above."""
    res = CheckResult(ok=True)
    if not (code == 0 or (code == 2 and case.command != "certify")):
        res.problems.append(f"exit code {code!r}")
    try:
        _check_payload(case, json.loads(text), res)
    except json.JSONDecodeError as exc:
        res.problems.append(f"report is not JSON: {exc}")
    except (KeyError, TypeError, ValueError) as exc:
        res.problems.append(f"malformed report: {exc!r}")
    res.ok = not res.problems
    return res
