"""Pinned assertions behind the ``examples`` command.

Each check returns (label, passed, detail).  Thresholds and risk values are
the package's own oracle-verified numbers; where a published value is
disputed the CLI echoes it alongside (see examples.DISPUTED_VALUES).
"""

from __future__ import annotations

import math

from . import conditions, examples, solver
from .intervals import Interval, IntervalSet
from .risk import adversarial_risk

Check = tuple[str, bool, str]

_DEFAULT_EPS = {
    "gaussians_equal_variances": 0.5,
    "gaussians_equal_means": 0.5,
    "non_uniqueness_single": 0.1,
    "non_uniqueness_all": 0.2,
    "degenerate": 0.05,
    "deg_eta_0_1_counterexample": 0.1,
}
# The radii at which each built-in's claims are stated (see its docstring in
# ``examples``); the others are claimed at every radius they can be built for.
_CLAIMED_EPS = {
    "gaussians_equal_variances": Interval(0.0, 1.0, True, False),
    "non_uniqueness_single": Interval(0.0, 0.5, True, False),
    "non_uniqueness_all": Interval(0.0, 1.0 / 3.0),
    "degenerate": Interval(0.0, 0.125, True, False),
}


def check_radius(name: str, eps: float | None) -> None:
    """Raise ValueError when the claims of ``name`` are not stated at ``eps``."""
    radii = _CLAIMED_EPS.get(name)
    if eps is not None and radii is not None and not radii.contains(eps):
        raise ValueError(f"the {name} claims are stated for eps in {radii!r}, got {eps!r}")


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _rep_matches(report, expected: IntervalSet, tol: float = 1e-8) -> bool:
    for cls in report.classes:
        got = cls.representative
        if got.n_components != expected.n_components:
            continue
        ok = True
        for a, b in zip(got.intervals, expected.intervals):
            for x, y in ((a.lo, b.lo), (a.hi, b.hi)):
                if math.isinf(x) or math.isinf(y):
                    ok = ok and x == y
                else:
                    ok = ok and abs(x - y) <= tol
        if ok:
            return True
    return False


def example_checks(name: str, eps: float | None = None) -> list[Check]:
    if name not in examples.EXAMPLE_NAMES:
        raise examples.UnknownExample(name)
    eps = eps if eps is not None else _DEFAULT_EPS[name]
    return _CHECKS[name](eps)


def _check_equal_variances(eps: float) -> list[Check]:
    pair = examples.gaussians_equal_variances()
    out: list[Check] = []
    scan = conditions.solve_first_order(pair, eps)
    locs = [c.location for c in scan.a_candidates if c.location is not None]
    ok = any(abs(x - 1.0) <= 1e-12 for x in locs)
    out.append(("stationary point at the midpoint 1.0", ok, f"a-candidates {locs}"))
    rep = solver.solve(pair, eps)
    expected = _phi(eps - 1.0)
    out.append(
        (
            f"risk of the threshold classifier at eps={eps}",
            abs(rep.min_risk - expected) <= 1e-9,
            f"{rep.min_risk} vs {expected}",
        )
    )
    out.append(
        (
            "one class with representative (1, inf)",
            rep.unique_up_to_degeneracy and _rep_matches(rep, IntervalSet.open(1.0, math.inf)),
            f"{len(rep.classes)} classes",
        )
    )
    wide = solver.solve(pair, 1.5)
    ok = (
        len(wide.classes) == 2
        and wide.has_minimizer(IntervalSet.reals())
        and wide.has_minimizer(IntervalSet.empty())
        and abs(wide.min_risk - 0.5) <= 1e-9
    )
    out.append(("∅ and ℝ optimal beyond eps = 1.0", ok, f"min_risk={wide.min_risk}"))
    return out


def _check_equal_means(eps: float) -> list[Check]:
    pair = examples.gaussians_equal_means()
    out: list[Check] = []
    for e in (0.0, eps, 1.0):
        b_closed = examples.equal_means_interval_endpoint(e)
        scan = conditions.solve_first_order(pair, e)
        roots = [
            c.location
            for c in scan.b_candidates
            if c.location is not None and c.second_order == conditions.PASS
        ]
        ok = any(abs(r - b_closed) <= 1e-12 for r in roots)
        out.append(
            (f"right endpoint matches closed form at eps={e}", ok, f"{roots} vs {b_closed}")
        )
    rep = solver.solve(pair, eps)
    b = examples.equal_means_interval_endpoint(eps)
    ok = rep.unique_up_to_degeneracy and _rep_matches(rep, IntervalSet.open(-b, b))
    out.append(("single symmetric-interval class", ok, f"{len(rep.classes)} classes"))
    return out


def _check_non_uniqueness_single(eps: float) -> list[Check]:
    pair = examples.non_uniqueness_single()
    out: list[Check] = []
    scan = conditions.solve_first_order(pair, eps)
    a_root = (1.0 - eps) / 3.0
    b_root = (1.0 + eps) / 3.0
    a_ok = any(
        c.location is not None
        and abs(c.location - a_root) <= 1e-12
        and c.second_order == conditions.FAIL
        for c in scan.a_candidates
    )
    b_ok = any(
        c.location is not None
        and abs(c.location - b_root) <= 1e-12
        and c.second_order == conditions.PASS
        for c in scan.b_candidates
    )
    out.append(("left root (1-eps)/3 rejected by curvature", a_ok, f"expected {a_root}"))
    out.append(("right root (1+eps)/3 accepted", b_ok, f"expected {b_root}"))
    r = adversarial_risk(pair, IntervalSet.open(-math.inf, b_root), eps).total
    expected = examples.interval_risk_non_uniqueness_single(eps)
    out.append(
        ("one-sided classifier risk 2(1+eps)^2/9", abs(r - expected) <= 1e-12, f"{r}")
    )
    thr = math.sqrt(1.5) - 1.0
    below = solver.solve(pair, thr - 0.05)
    above = solver.solve(pair, thr + 0.05)
    ok = _rep_matches(below, IntervalSet.open(-math.inf, (1.0 + thr - 0.05) / 3.0), tol=1e-6)
    ok = ok and _rep_matches(above, IntervalSet.reals())
    out.append(("representative flips to ℝ at sqrt(3/2)-1", ok, f"threshold {thr}"))
    return out


def _check_non_uniqueness_all(eps: float) -> list[Check]:
    pair = examples.non_uniqueness_all()
    out: list[Check] = []
    expected = examples.single_classifier_risk_non_uniqueness_all(eps)
    worst = max(
        abs(adversarial_risk(pair, IntervalSet.open(y, math.inf), eps).total - expected)
        for y in (-eps, 0.0, eps)
    )
    out.append(("threshold risk eps + (1-eps)/4", worst <= 1e-12, f"max err {worst}"))
    rep = solver.solve(pair, eps)
    plateau = any(
        c.plateau is not None
        and abs(c.plateau[0] + eps) <= 1e-9
        and abs(c.plateau[1] - eps) <= 1e-9
        for c in (rep.first_order.a_candidates if rep.first_order else [])
    )
    out.append(("stationary plateau [-eps, eps]", plateau, "a-kind"))
    out.append(
        (
            "multiple classes below eps = 1/3",
            not rep.unique_up_to_degeneracy and abs(rep.min_risk - expected) <= 1e-12,
            f"{len(rep.classes)} classes",
        )
    )
    wide = solver.solve(pair, 0.4)
    ok = wide.has_minimizer(IntervalSet.reals()) and wide.has_minimizer(IntervalSet.empty())
    out.append(("∅ and ℝ optimal beyond eps = 1/3", ok, f"min_risk={wide.min_risk}"))
    return out


def _check_degenerate(eps: float) -> list[Check]:
    pair = examples.degenerate()
    out: list[Check] = []
    a1 = IntervalSet.of_open((-math.inf, -0.25 + eps), (0.25 - eps, math.inf))
    r = adversarial_risk(pair, a1, eps).total
    expected = examples.excluded_middle_risk_degenerate(eps)
    out.append(("excluded-middle risk 4*eps/5", abs(r - expected) <= 1e-12, f"{r}"))
    r_full = adversarial_risk(pair, IntervalSet.reals(), eps).total
    out.append(("risk of ℝ is 1/10", abs(r_full - 0.1) <= 1e-12, f"{r_full}"))
    below = solver.solve(pair, 0.1)
    above = solver.solve(pair, 0.15)
    crossover = (
        below.classes[0].representative.n_components == 2
        and _rep_matches(above, IntervalSet.reals())
    )
    out.append(("representative switches to ℝ at eps = 1/8", crossover, "0.1 vs 0.15"))
    mid = IntervalSet.closed(-0.25 + 0.2, 0.25 - 0.2)
    ok = solver.are_equivalent(pair, 0.2, IntervalSet.reals(), mid.complement())
    out.append(("flipping the middle interval is risk-invisible at eps=0.2", ok, "ℝ vs S^C"))
    return out


def _check_deg_eta(eps: float) -> list[Check]:
    pair = examples.deg_eta_0_1_counterexample(eps)
    out: list[Check] = []
    m0, m1 = pair.total_mass(0), pair.total_mass(1)
    out.append(
        ("class masses 1/3 and 2/3", abs(m0 - 1 / 3) <= 1e-12 and abs(m1 - 2 / 3) <= 1e-12,
         f"{m0}, {m1}")
    )
    r_full = adversarial_risk(pair, IntervalSet.reals(), eps).total
    r_empty = adversarial_risk(pair, IntervalSet.empty(), eps).total
    out.append(("computed risk of ℝ is 1/3", abs(r_full - 1 / 3) <= 1e-12, f"{r_full}"))
    out.append(("computed risk of ∅ is 2/3", abs(r_empty - 2 / 3) <= 1e-12, f"{r_empty}"))
    rep = solver.solve(pair, eps)
    ok = _rep_matches(rep, IntervalSet.reals()) and abs(rep.min_risk - 1 / 3) <= 1e-9
    out.append(("ℝ is the minimizer", ok, f"min_risk={rep.min_risk}"))
    out.append(
        ("split support widens the endpoint window",
         any("widened" in w for w in rep.warnings), str(rep.warnings))
    )
    return out


_CHECKS = {
    "gaussians_equal_variances": _check_equal_variances,
    "gaussians_equal_means": _check_equal_means,
    "non_uniqueness_single": _check_non_uniqueness_single,
    "non_uniqueness_all": _check_non_uniqueness_all,
    "degenerate": _check_degenerate,
    "deg_eta_0_1_counterexample": _check_deg_eta,
}
