"""Find, rank, and classify every optimal robust classifier.

The procedure: collect all admissible endpoint candidates from the
stationarity conditions; among the open regular sets whose left endpoints
come from the a-pool and right endpoints from the b-pool (always including
the empty set and the full line), find every set of minimal adversarial
risk with a dynamic program over the sorted pool, since a regular set's
risk is a sum of one mass per component and per gap; and group the
minimizers into equivalence classes.  Two minimizers are interchangeable
exactly when their dilations carry the same class-0 mass (or the dilated
complements the same class-1 mass); within a class, members differ only by
mass-invisible "degenerate" regions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from . import conditions
from .conditions import FAIL, PASS, CandidatePoint, FirstOrderScan, WindowEmpty, near_sorted
from .density import DistributionPair
from .intervals import INF, Interval, IntervalSet, _canonical
from .risk import TAU_RISK, RiskBreakdown, adversarial_risk


class AssumptionUnmet(ValueError):
    """Hypotheses of the structure-monotonicity theorem do not hold."""


def _set_key(s: IntervalSet) -> tuple:
    """Sort and deduplication key of a set: its (lo, hi) endpoint pairs."""
    return tuple((iv.lo, iv.hi) for iv in s.intervals)


@dataclass
class CandidateClassifier:
    set: IntervalSet
    risk: RiskBreakdown
    second_order_clean: bool

    def sort_key(self):
        return _set_key(self.set)


@dataclass
class DegenerateReport:
    maximal_degenerate: IntervalSet
    assumptions_met: bool
    detected_intervals: list[Interval] = field(default_factory=list)


@dataclass
class EquivalenceClass:
    representative: IntervalSet
    members: list[CandidateClassifier]
    degenerate: DegenerateReport


@dataclass
class PlateauCheck:
    kind: str
    plateau: tuple[float, float]
    verified: bool


@dataclass
class SolveReport:
    epsilon: float
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
    """Open set encoded by an alternating endpoint sequence.

    Consecutive points of a sequence are more than 2*eps apart, so its open
    pieces are already sorted, nonempty and apart: they go to ``_canonical``
    as they are."""
    ends = [-INF] * (kinds[0] == "b") + points + [INF] * (kinds[-1] == "a")
    return _canonical((lo, hi, False, False) for lo, hi in zip(ends[::2], ends[1::2]))


# The walk's prefilter compares onward[j] = up[j] + best[j] with
# bound - cost + down[i] instead of the exact test
# (cost + (up[j] - down[i])) + best[j] <= bound.
# Every term is a class mass or a sum of disjoint ones, at most ~2 in size,
# so the two sides differ by a few roundings of 2^-52 each; this slack keeps
# the prefilter looser than the exact test.  So a suffix minimum that fails
# the prefilter shows that no node from there on passes the exact test.
_WALK_SLACK = 1e-12


def enumerate_candidates(
    pair: DistributionPair,
    a_points: list[float],
    b_points: list[float],
    eps: float,
) -> tuple[list[IntervalSet], list[RiskBreakdown]]:
    """Every near-minimal open regular set built from the pools, with its risk.

    The sets are those of alternating endpoint sequences whose consecutive
    points are more than 2*eps apart (half-infinite leading and trailing
    pieces allowed), plus ∅ and ℝ.  Dilations of such a set never merge, so
    its risk is a sum over the edges of its sequence: a component (a, b)
    adds the class-0 mass of (a-eps, b+eps), a gap (b, a') the class-1 mass
    of (b-eps, a'+eps), and the first and last edges the half-infinite
    pieces.  An edge i -> j costs F_c(x_j + eps) - F_c(x_i - eps) for the
    class c that node i pays, so one ``cdf_points`` list per class (an array
    CDF on a large pool) reads every node at the end that class pays for.
    A backward pass over the sorted nodes gives each node's cheapest
    completion from a running minimum of F_c(x_j + eps) + best[j] per kind
    over the nodes j more than 2*eps ahead: O(P) for P nodes.  A walk
    pruned on those completions lists every sequence whose edge sum is
    within 2*TAU_RISK of the minimum.  The successors of a node are a
    suffix of the other kind's nodes; the walk scans it stretch by stretch
    up to each next suffix minimum of F_c(x_j + eps) + best[j], applying
    the exact test to every node it scans, and stops at the first suffix
    minimum that cannot stay under the bound.  The listed sets, sorted by
    ``_set_key``, get their exact risks from ``adversarial_risk``, which
    reads the CDF memo that the fill left.
    """
    nodes = sorted({(x, "a") for x in a_points} | {(x, "b") for x in b_points})

    # The piece that starts at a node is a component (class 0 pays) after an
    # "a" and a gap (class 1 pays) after a "b".  Class c reads each node at
    # one end: x - eps where the node pays c, x + eps where it pays 1 - c.
    xs = [x for x, _ in nodes]
    pays = [0 if k == "a" else 1 for _, k in nodes]
    n = len(nodes)
    at = [pair.cdf_points(c, [x - eps if p == c else x + eps for x, p in zip(xs, pays)])
          for c in (0, 1)]
    down = [at[c][i] for i, c in enumerate(pays)]  # the class node i pays, at x_i - eps
    up = [at[1 - c][i] for i, c in enumerate(pays)]  # the class paid into node i, at x_i + eps
    total = [pair.cdf(c, INF) for c in (0, 1)]
    end = [total[c] - d for d, c in zip(down, pays)]

    # Backward pass: the successors of node i are the nodes of the other kind
    # from first[i] on, and first[] only falls as i falls.
    best, onward = [0.0] * n, [0.0] * n  # onward[j] = up[j] + best[j]
    first = [n] * n
    run = [INF, INF]  # per kind: the least onward[j] over the nodes j past the pointer
    p = n
    for i in reversed(range(n)):
        while p > i + 1 and xs[p - 1] - xs[i] > 2 * eps:
            p -= 1
            run[pays[p]] = min(run[pays[p]], onward[p])
        first[i] = p
        c = pays[i]
        best[i] = min(end[i], run[1 - c] - down[i])
        onward[i] = up[i] + best[i]

    # Per kind, its node indices in order and, for each position, the first
    # position of the least onward[] from there on.
    members = [[i for i in range(n) if pays[i] == c] for c in (0, 1)]
    least = []
    for m in members:
        arg = list(range(len(m)))
        for pos in reversed(range(len(m) - 1)):
            if onward[m[arg[pos + 1]]] < onward[m[pos]]:
                arg[pos] = arg[pos + 1]
        least.append(arg)

    trivial = [(IntervalSet.empty(), total[1]), (IntervalSet.reals(), total[0])]
    bound = min(total + [u + b for u, b in zip(up, best)]) + 2 * TAU_RISK
    sets = [s for s, r in trivial if r <= bound]
    stack = [(i, up[i], (i,)) for i in range(n) if up[i] + best[i] <= bound]
    while stack:
        i, cost, path = stack.pop()
        if cost + end[i] <= bound:
            sets.append(_set_from_sequence([xs[j] for j in path], [nodes[j][1] for j in path]))
        k, lo = 1 - pays[i], down[i]
        m, arg = members[k], least[k]
        limit = bound - cost + lo + _WALK_SLACK
        pos = bisect.bisect_left(m, first[i])
        while pos < len(m) and onward[m[arg[pos]]] <= limit:
            for j in m[pos:arg[pos] + 1]:
                step = cost + (up[j] - lo)
                if step + best[j] <= bound:
                    stack.append((j, step, path + (j,)))
            pos = arg[pos] + 1
    sets.sort(key=_set_key)
    return sets, [adversarial_risk(pair, s, eps) for s in sets]


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

    ``maximal_degenerate`` is the outer bound (everything beyond the dilated
    support plus the set's own boundary), valid when the support is an
    interval and neither class density vanishes on a support cell.  When
    those assumptions fail and probe points are supplied, intervals between
    nearby probes are tested directly for risk-invisibility.
    """
    support = pair.support()
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
        maximal_degenerate=maximal,
        assumptions_met=assumptions,
        detected_intervals=detected,
    )


def solve(pair: DistributionPair, eps: float) -> SolveReport:
    """Find every minimizer at one radius and group them into equivalence classes."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if eps == math.inf:
        raise ValueError(f"eps={eps!r} is not a finite radius")
    warnings: list[str] = []
    scan: FirstOrderScan | None = None
    a_pts: list[float] = []
    b_pts: list[float] = []
    try:
        scan = conditions.solve_first_order(pair, eps)
    except WindowEmpty:
        warnings.append("endpoint window is empty; only ∅ and ℝ were considered")
    if scan is not None:
        if scan.window_widened:
            warnings.append("support is not an interval; endpoint window was widened")

        def usable(cands: list[CandidatePoint]) -> list[float]:
            return [p for c in cands if c.second_order != FAIL for p in c.enumeration_points()]

        a_pts, b_pts = usable(scan.a_candidates), usable(scan.b_candidates)

    sets, risks = enumerate_candidates(pair, a_pts, b_pts, eps)

    pass_points = set()
    if scan is not None:
        for c in scan.a_candidates + scan.b_candidates:
            if c.second_order == PASS:
                pass_points.update(c.enumeration_points())
    passed = sorted(pass_points)

    # ``sets`` arrive sorted by _set_key, so minimizers and each class's
    # members are in that order too.
    min_risk = min(r.total for r in risks)
    minimizers = [
        CandidateClassifier(
            set=s,
            risk=r,
            second_order_clean=all(near_sorted(passed, p, 1e-9) for p in s.boundary_points()),
        )
        for s, r in zip(sets, risks)
        if r.total <= min_risk + TAU_RISK
    ]

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
        classes.append(EquivalenceClass(representative=rep, members=members, degenerate=deg))
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
                    PlateauCheck(kind=c.kind, plateau=c.plateau, verified=verified)
                )

    return SolveReport(
        epsilon=eps,
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


def _contains(outer: Interval, inner: Interval) -> bool:
    """``inner`` ⊆ ``outer``, endpoint flags included."""
    return ((outer.lo, not outer.lo_closed) <= (inner.lo, not inner.lo_closed)
            and (inner.hi, inner.hi_closed) <= (outer.hi, outer.hi_closed))


def check_monotonicity(
    pair: DistributionPair,
    report1: SolveReport,
    report2: SolveReport,
) -> bool:
    """Structure comparison across radii eps1 < eps2: True when it holds.

    For every representative pair: component counts of the classifier and
    its complement (clipped to the dilated support) must not increase with
    the radius, no component of the small-radius classifier may contain a
    gap of the large-radius one clipped to the small dilated support, and no
    gap may contain such a clipped component.  When ∅ and ℝ are both optimal
    at eps1, the result is whether both are optimal at eps2.  Requires an
    interval support and eta not in {0, 1} on positive mass.
    """
    if report2.epsilon <= report1.epsilon:
        raise ValueError("reports must be ordered by increasing epsilon")
    support = pair.support()
    if support.n_components != 1:
        raise AssumptionUnmet("support is not an interval")
    if pair.eta_degenerate_on_support:
        raise AssumptionUnmet("eta is 0 or 1 on a set of positive mass")

    trivial = (IntervalSet.reals(), IntervalSet.empty())
    if all(report1.has_minimizer(s) for s in trivial):
        return all(report2.has_minimizer(s) for s in trivial)

    i1, i2 = (support.expand(r.epsilon) for r in (report1, report2))
    small = []  # per eps1 representative: components, gaps, their counts within i1
    for a in report1.representatives():
        gaps = a.complement()
        small.append((a.intervals, gaps.intervals,
                      a.intersect(i1).n_components, gaps.intersect(i1).n_components))
    large = []  # per eps2 representative: counts within i2, components and gaps clipped to i1
    for a in report2.representatives():
        gaps = a.complement()
        large.append((a.intersect(i2).n_components, gaps.intersect(i2).n_components,
                      a.intersect(i1).intervals, gaps.intersect(i1).intervals))
    return all(
        c1 >= c2 and k1 >= k2
        and not any(_contains(comp, g) for comp in comps1 for g in gaps2)
        and not any(_contains(gap, c) for gap in gaps1 for c in comps2)
        for comps1, gaps1, c1, k1 in small
        for c2, k2, comps2, gaps2 in large
    )
