"""Enumerate, rank, and classify every optimal robust classifier.

The procedure: collect all admissible endpoint candidates from the
stationarity conditions, form every open regular set whose left endpoints
come from the a-pool and right endpoints from the b-pool (always including
the empty set and the full line), evaluate each set's adversarial risk,
keep the minimizers, and group them into equivalence classes.  Two
minimizers are interchangeable exactly when their dilations carry the same
class-0 mass (or the dilated complements the same class-1 mass); within a
class, members differ only by mass-invisible "degenerate" regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import conditions
from .conditions import FAIL, PASS, CandidatePoint, FirstOrderScan, WindowEmpty
from .density import DistributionPair
from .intervals import INF, Interval, IntervalSet
from .risk import TAU_RISK, RiskBreakdown, adversarial_risk

ENUMERATION_CAP = 4096


class AssumptionUnmet(ValueError):
    """Hypotheses of the structure-monotonicity theorem do not hold."""


def _set_key(s: IntervalSet) -> tuple:
    """Sort and deduplication key of a set: its (lo, hi) endpoint pairs."""
    return tuple((iv.lo, iv.hi) for iv in s.intervals)


@dataclass
class CandidateClassifier:
    set: IntervalSet
    risk: RiskBreakdown
    regular: bool
    second_order_clean: bool

    def sort_key(self):
        return _set_key(self.set)


@dataclass
class DegenerateReport:
    small_components: IntervalSet
    maximal_degenerate: IntervalSet
    assumptions_met: bool
    detected_intervals: list[Interval] = field(default_factory=list)


@dataclass
class EquivalenceClass:
    representative: IntervalSet
    members: list[CandidateClassifier]
    degenerate_core: IntervalSet
    risk: float
    degenerate: DegenerateReport


@dataclass
class PlateauCheck:
    kind: str
    plateau: tuple[float, float]
    verified: bool
    checked_points: list[float]


@dataclass
class SolveReport:
    epsilon: float
    candidates: list[CandidateClassifier]
    minimizers: list[CandidateClassifier]
    classes: list[EquivalenceClass]
    unique_up_to_degeneracy: bool
    min_risk: float
    warnings: list[str]
    first_order: FirstOrderScan | None = None
    plateau_checks: list[PlateauCheck] = field(default_factory=list)

    def representatives(self) -> list[IntervalSet]:
        return [c.representative for c in self.classes]

    def has_minimizer(self, s: IntervalSet) -> bool:
        return any(m.set == s for m in self.minimizers)


def _set_from_sequence(points: list[float], kinds: list[str]) -> IntervalSet:
    """Open set encoded by an alternating endpoint sequence."""
    pieces: list[Interval] = []
    i = 0
    if kinds and kinds[0] == "b":
        pieces.append(Interval(-INF, points[0]))
        i = 1
    while i + 1 < len(kinds) and kinds[i] == "a" and kinds[i + 1] == "b":
        pieces.append(Interval(points[i], points[i + 1]))
        i += 2
    if i < len(kinds) and kinds[i] == "a":
        pieces.append(Interval(points[i], INF))
    return IntervalSet(pieces)


def enumerate_candidates(
    a_points: list[float],
    b_points: list[float],
    eps: float,
    window: Interval | None = None,
    cap: int = ENUMERATION_CAP,
) -> tuple[list[IntervalSet], bool]:
    """All open regular sets with left/right endpoints drawn from the pools.

    Alternating endpoint sequences whose consecutive gaps all exceed 2*eps
    strictly; half-infinite leading and trailing pieces are allowed, and ∅
    and ℝ are always included.  Deduplicated; capped at ``cap`` sets.
    """
    pool: dict[float, set[str]] = {}
    for x in a_points:
        pool.setdefault(x, set()).add("a")
    for x in b_points:
        pool.setdefault(x, set()).add("b")
    if window is not None:
        pool = {x: k for x, k in pool.items() if window.lo <= x <= window.hi}
    xs = sorted(pool)

    results: dict[tuple, IntervalSet] = {}
    truncated = False

    def emit(points: list[float], kinds: list[str]) -> bool:
        s = _set_from_sequence(points, kinds)
        key = _set_key(s)
        if key not in results:
            if len(results) >= cap:
                return False
            results[key] = s
        return True

    emit([], [])  # ∅
    results[((-INF, INF),)] = IntervalSet.reals()  # ℝ

    def extend(idx: int, points: list[float], kinds: list[str]) -> bool:
        if points and not emit(points, kinds):
            return False
        want = "b" if (kinds and kinds[-1] == "a") else ("a" if kinds else None)
        for j in range(idx, len(xs)):
            x = xs[j]
            if points and x - points[-1] <= 2 * eps:
                continue
            allowed = pool[x] if want is None else (pool[x] & {want})
            for k in sorted(allowed):
                if not extend(j + 1, points + [x], kinds + [k]):
                    return False
        return True

    if not extend(0, [], []):
        truncated = True
    return sorted(results.values(), key=_set_key), truncated


def are_equivalent(pair: DistributionPair, eps: float, a1: IntervalSet, a2: IntervalSet) -> bool:
    """Interchangeability test: dilations agree in class-0 mass, or the
    dilated complements agree in class-1 mass.

    Meaningful as equivalence only when both sets are risk minimizers.
    """
    d0 = a1.expand(eps).sym_diff(a2.expand(eps))
    if pair.mass_set(0, d0) <= TAU_RISK:
        return True
    d1 = a1.complement().expand(eps).sym_diff(a2.complement().expand(eps))
    return pair.mass_set(1, d1) <= TAU_RISK


def degenerate_report(
    pair: DistributionPair,
    eps: float,
    a: IntervalSet,
    probe_points: list[float] | None = None,
) -> DegenerateReport:
    """Describe the removable/addable regions around a minimizer.

    ``small_components`` lists components of the set or its complement no
    longer than 2*eps; ``maximal_degenerate`` is the outer bound (everything
    beyond the dilated support plus the set's own boundary), valid when the
    support is an interval and neither class density vanishes on a support
    cell.  When those assumptions fail and probe points are supplied,
    intervals between nearby probes are tested directly for risk-invisibility.
    """
    support = pair.support()
    small = [
        iv
        for iv in list(a.intervals) + list(a.complement().intervals)
        if not math.isinf(iv.length) and iv.length <= 2 * eps
    ]
    outside = support.expand(eps).complement()
    closure_outside = IntervalSet(
        Interval(iv.lo, iv.hi, not math.isinf(iv.lo), not math.isinf(iv.hi))
        for iv in outside
    )
    boundary = IntervalSet(
        [Interval(p, p, True, True) for p in a.boundary_points()]
    )
    maximal = closure_outside.union(boundary)
    assumptions = support.n_components == 1 and not pair.eta_degenerate_on_support

    detected: list[Interval] = []
    if not assumptions and probe_points:
        base = adversarial_risk(pair, a, eps).total
        pts = sorted(set(probe_points))
        for u, v in zip(pts, pts[1:]):
            if not 0.0 < v - u <= 2 * eps:
                continue
            s = IntervalSet((Interval(u, v, True, True),))
            grown = a.union(s)
            shrunk = a.difference(s)
            if (
                abs(adversarial_risk(pair, grown, eps).total - base) <= TAU_RISK
                and abs(adversarial_risk(pair, shrunk, eps).total - base) <= TAU_RISK
                and are_equivalent(pair, eps, grown, shrunk)
            ):
                detected.append(Interval(u, v, True, True))
    return DegenerateReport(
        small_components=IntervalSet(small),
        maximal_degenerate=maximal,
        assumptions_met=assumptions,
        detected_intervals=detected,
    )


def solve(
    pair: DistributionPair,
    eps: float,
    *,
    grid_n: int = 2048,
    keep_all: bool = False,
) -> SolveReport:
    """Run the full enumeration-and-comparison procedure at one radius."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    warnings: list[str] = []
    scan: FirstOrderScan | None = None
    a_pts: list[float] = []
    b_pts: list[float] = []
    try:
        scan = conditions.solve_first_order(pair, eps, grid_n)
    except WindowEmpty:
        warnings.append("endpoint window is empty; only ∅ and ℝ were considered")
    if scan is not None:
        if scan.window_widened:
            warnings.append("support is not an interval; endpoint window was widened")
        if scan.truncated:
            warnings.append("first-order candidate list was truncated")

        def usable(cands: list[CandidatePoint]) -> list[float]:
            return [p for c in cands if keep_all or c.second_order != FAIL
                    for p in c.enumeration_points()]

        a_pts, b_pts = usable(scan.a_candidates), usable(scan.b_candidates)

    window = scan.window if scan is not None else None
    sets, truncated = enumerate_candidates(a_pts, b_pts, eps, window)
    if truncated:
        warnings.append(f"candidate enumeration truncated at {ENUMERATION_CAP} sets")

    pass_points = set()
    if scan is not None:
        for c in scan.a_candidates + scan.b_candidates:
            if c.second_order == PASS:
                pass_points.update(c.enumeration_points())

    # ``sets`` arrive sorted by _set_key, so candidates, minimizers and each
    # class's members are in that order too.
    candidates = []
    for s in sets:
        endpoints = [p for p in s.boundary_points()]
        clean = all(any(abs(p - q) <= 1e-9 for q in pass_points) for p in endpoints)
        candidates.append(
            CandidateClassifier(
                set=s,
                risk=adversarial_risk(pair, s, eps),
                regular=s.is_regular(eps),
                second_order_clean=clean,
            )
        )

    min_risk = min(c.risk.total for c in candidates)
    minimizers = [c for c in candidates if c.risk.total <= min_risk + TAU_RISK]

    # Union-find over the pairwise interchangeability relation.
    parent = list(range(len(minimizers)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(minimizers)):
        for j in range(i + 1, len(minimizers)):
            if find(i) != find(j) and are_equivalent(
                pair, eps, minimizers[i].set, minimizers[j].set
            ):
                parent[find(j)] = find(i)

    groups: dict[int, list[CandidateClassifier]] = {}
    for i, m in enumerate(minimizers):
        groups.setdefault(find(i), []).append(m)

    probe_points = sorted(set(a_pts) | set(b_pts))
    classes = []
    for members in groups.values():
        rep = min(members, key=lambda m: (m.set.n_components, m.sort_key())).set
        deg = degenerate_report(pair, eps, rep, probe_points)
        core = deg.maximal_degenerate.union(IntervalSet(deg.detected_intervals))
        classes.append(
            EquivalenceClass(
                representative=rep,
                members=members,
                degenerate_core=core,
                risk=min(m.risk.total for m in members),
                degenerate=deg,
            )
        )
    classes.sort(key=lambda c: _set_key(c.representative))

    plateau_checks = []
    if scan is not None:
        for c in scan.a_candidates + scan.b_candidates:
            if c.plateau is None:
                continue
            lo, hi = c.plateau
            interior = [lo + (hi - lo) * t for t in (0.25, 0.5, 0.75)]
            relevant = [
                m for m in minimizers
                if any(abs(p - lo) <= 1e-9 or abs(p - hi) <= 1e-9 for p in m.set.boundary_points())
            ]
            verified = bool(relevant)
            for m in relevant:
                for t in interior:
                    shifted = _replace_endpoint(m.set, lo, hi, t)
                    if shifted is None:
                        continue
                    r = adversarial_risk(pair, shifted, eps).total
                    if abs(r - min_risk) > TAU_RISK:
                        verified = False
            if relevant:
                plateau_checks.append(
                    PlateauCheck(kind=c.kind, plateau=c.plateau, verified=verified,
                                 checked_points=interior)
                )

    return SolveReport(
        epsilon=eps,
        candidates=candidates,
        minimizers=minimizers,
        classes=classes,
        unique_up_to_degeneracy=len(classes) == 1,
        min_risk=min_risk,
        warnings=warnings,
        first_order=scan,
        plateau_checks=plateau_checks,
    )


def _replace_endpoint(s: IntervalSet, lo: float, hi: float, t: float) -> IntervalSet | None:
    """Move the one endpoint of ``s`` that sits at a plateau edge to ``t``."""
    pieces = []
    replaced = False
    for iv in s.intervals:
        ilo, ihi = iv.lo, iv.hi
        if not replaced and (abs(ilo - lo) <= 1e-9 or abs(ilo - hi) <= 1e-9):
            ilo, replaced = t, True
        elif not replaced and (abs(ihi - lo) <= 1e-9 or abs(ihi - hi) <= 1e-9):
            ihi, replaced = t, True
        if ilo < ihi:
            pieces.append(Interval(ilo, ihi, iv.lo_closed, iv.hi_closed))
    return IntervalSet(pieces) if replaced else None


@dataclass
class MonotonicityResult:
    holds: bool
    violations: list[str]
    exempt: bool = False  # ∅ and ℝ both optimal at the smaller radius


def check_monotonicity(
    pair: DistributionPair,
    report1: SolveReport,
    report2: SolveReport,
) -> MonotonicityResult:
    """Structure comparison across radii eps1 < eps2.

    For every representative pair: component counts of the classifier and
    its complement (clipped to the dilated support) must not increase with
    the radius, no component of the small-radius classifier may contain a
    clipped gap of the large-radius one, and no gap may contain a clipped
    component.  Requires an interval support and eta not in {0, 1} on
    positive mass.
    """
    if report2.epsilon <= report1.epsilon:
        raise ValueError("reports must be ordered by increasing epsilon")
    support = pair.support()
    if support.n_components != 1:
        raise AssumptionUnmet("support is not an interval")
    if pair.eta_degenerate_on_support:
        raise AssumptionUnmet("eta is 0 or 1 on a set of positive mass")

    both_trivial_1 = report1.has_minimizer(IntervalSet.reals()) and report1.has_minimizer(
        IntervalSet.empty()
    )
    if both_trivial_1:
        ok = report2.has_minimizer(IntervalSet.reals()) and report2.has_minimizer(
            IntervalSet.empty()
        )
        return MonotonicityResult(
            holds=ok,
            violations=[] if ok else ["∅ and ℝ optimal at eps1 but not at eps2"],
            exempt=True,
        )

    i1 = support.expand(report1.epsilon)
    i2 = support.expand(report2.epsilon)
    violations = []
    for a1 in report1.representatives():
        for a2 in report2.representatives():
            c1 = a1.intersect(i1).n_components
            c2 = a2.intersect(i2).n_components
            if c1 < c2:
                violations.append(f"comp(A1∩I^e1)={c1} < comp(A2∩I^e2)={c2}")
            k1 = a1.complement().intersect(i1).n_components
            k2 = a2.complement().intersect(i2).n_components
            if k1 < k2:
                violations.append(f"comp(A1^C∩I^e1)={k1} < comp(A2^C∩I^e2)={k2}")
            gaps2 = [
                IntervalSet((g,)).intersect(i1) for g in a2.complement().intervals
            ]
            comps2 = [IntervalSet((c,)).intersect(i1) for c in a2.intervals]
            for comp in a1.intervals:
                holder = IntervalSet((comp,))
                for g in gaps2:
                    if not g.is_empty and holder.contains_set(g):
                        violations.append(f"component {comp!r} contains a gap of A2")
            for gap in a1.complement().intervals:
                holder = IntervalSet((gap,))
                for c in comps2:
                    if not c.is_empty and holder.contains_set(c):
                        violations.append(f"gap {gap!r} contains a component of A2")
    return MonotonicityResult(holds=not violations, violations=violations)
