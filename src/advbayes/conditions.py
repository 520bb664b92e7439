"""Stationarity conditions for endpoints of optimal robust classifiers.

A left endpoint ``a`` of a candidate classifier must satisfy
``p1(a+eps) - p0(a-eps) = 0`` wherever both densities are continuous at the
shifted points, and a right endpoint ``b`` must satisfy
``p0(b+eps) - p1(b-eps) = 0``.  Local minimality further requires the
corresponding derivative combination to be nonnegative.  This module finds
every solution inside the admissible window: isolated roots by bracketing
and bisection, whole plateaus where the defect vanishes identically, and
the discontinuity-shifted points where the conditions are vacuous and any
endpoint location is admissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import BreakpointDerivative, DistributionPair, _bisect, log_gap, signed_gap
from .intervals import INF, Interval

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

TAU_ROOT = 1e-10
TAU_PLATEAU = 1e-11
TAU_DERIV = 1e-10
MAX_CANDIDATES_PER_KIND = 64
_BISECT_TOL = 1e-12


class WindowEmpty(Exception):
    """The admissible endpoint window is empty; only ∅ and ℝ remain."""


@dataclass(frozen=True)
class CandidatePoint:
    """One solution (or plateau of solutions) of a first-order condition.

    ``at_jump`` marks candidates sitting at a density discontinuity shifted
    by ±eps, where the first-order condition does not constrain the
    endpoint; their ``residual`` is the (possibly nonzero) defect value at
    the point itself.
    """

    kind: str  # "a" (left endpoint) or "b" (right endpoint)
    location: float | None = None
    plateau: tuple[float, float] | None = None
    second_order: str = INCONCLUSIVE
    residual: float = 0.0
    at_jump: bool = False

    def enumeration_points(self) -> tuple[float, ...]:
        if self.plateau is not None:
            return self.plateau
        assert self.location is not None
        return (self.location,)

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "second_order": self.second_order,
                   "residual": self.residual, "at_jump": self.at_jump}
        if self.plateau is not None:
            d["plateau"] = list(self.plateau)
        else:
            d["location"] = self.location
        return d


@dataclass
class FirstOrderScan:
    a_candidates: list[CandidatePoint]
    b_candidates: list[CandidatePoint]
    window: Interval
    window_widened: bool
    truncated: bool = False


def _reads(kind: str) -> tuple[int, int]:
    """Classes whose densities the kind's conditions read at x+eps and at x-eps."""
    if kind == "a":
        return 1, 0
    if kind == "b":
        return 0, 1
    raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")


def defect(pair: DistributionPair, eps: float, kind: str, x: float) -> float:
    """First-order defect g_a or g_b at x."""
    plus, minus = _reads(kind)
    return pair.pdf(plus, x + eps) - pair.pdf(minus, x - eps)


def scan_window(pair: DistributionPair, eps: float) -> tuple[Interval | None, bool]:
    """Admissible endpoint window; widened (with a flag) for split supports.

    When the support is a single interval, finite endpoints of an optimal
    classifier may be assumed to lie in the interior of the support eroded
    by eps.  For supports with several components no such localization is
    available and the hull of the dilated support is used instead.  Returns
    None when the window has empty interior.
    """
    support = pair.support()
    if support.n_components == 1:
        contracted = support.contract(eps)
        if contracted.is_empty or contracted.intervals[0].is_point:
            return None, False
        iv = contracted.intervals[0]
        return Interval(iv.lo, iv.hi), False
    expanded = support.expand(eps)
    lo = expanded.intervals[0].lo
    hi = expanded.intervals[-1].hi
    return Interval(lo, hi), True


def check_second_order(pair: DistributionPair, eps: float, x: float, kind: str) -> str:
    """PASS iff the local-minimality derivative combination is >= -TAU_DERIV."""
    plus, minus = _reads(kind)
    try:
        s = pair.derivative(plus, x + eps) - pair.derivative(minus, x - eps)
    except BreakpointDerivative:
        return INCONCLUSIVE
    return PASS if s >= -TAU_DERIV else FAIL


def _shifted(points, eps: float, kind: str) -> list[float]:
    """Density points seen by the defect: ``points(c)`` shifted by ∓eps.

    ``points`` is ``pair.breakpoints`` or ``pair.discontinuities``.
    """
    plus, minus = _reads(kind)
    pts = [b - eps for b in points(plus)]
    pts += [b + eps for b in points(minus)]
    return sorted(set(pts))


def _scan_bounds(pair: DistributionPair, eps: float, window: Interval) -> tuple[float, float]:
    lo_ext, hi_ext = pair.finite_extent()
    lo = window.lo if math.isfinite(window.lo) else lo_ext - eps - 1.0
    hi = window.hi if math.isfinite(window.hi) else hi_ext + eps + 1.0
    return lo, hi


def _scan_kind(pair: DistributionPair, eps: float, kind: str, grid_n: int,
               window: Interval) -> tuple[list[CandidatePoint], bool]:
    g = lambda x: defect(pair, eps, kind, x)
    plus, minus = _reads(kind)
    # Where both shifted densities underflow to 0, log-densities give the sign.
    sign = lambda x: signed_gap(pair, plus, x + eps, minus, x - eps)
    lo, hi = _scan_bounds(pair, eps, window)
    if not lo < hi:
        return [], False

    special = [s for s in _shifted(pair.breakpoints, eps, kind) if lo < s < hi]
    edges = [lo] + special + [hi]
    total = hi - lo

    roots: list[float] = []
    plateau_flags: list[bool] = []
    side_vals: list[tuple[float, float]] = []  # first/last sample of each segment
    for a, b in zip(edges, edges[1:]):
        span = b - a
        m = max(9, int(round(grid_n * span / total)) + 1)
        inset = span * 1e-9
        xs = np.linspace(a + inset, b - inset, m)
        # Only the sign of each sample steers the scalar bisection below, so
        # roots equal a scalar-sampled scan's unless a sample is within
        # rounding of zero (np.exp and math.exp may differ by one ulp).
        p_plus, p_minus = pair.pdf_array(plus, xs + eps), pair.pdf_array(minus, xs - eps)
        vals = p_plus - p_minus
        is_plateau = bool(np.max(np.abs(vals)) <= TAU_PLATEAU)
        plateau_flags.append(is_plateau)
        under = (p_plus == 0.0) & (p_minus == 0.0)
        if not is_plateau and under.any():
            vals[under] = log_gap(pair, plus, xs[under] + eps, minus, xs[under] - eps)
        side_vals.append((float(vals[0]), float(vals[-1])))
        if is_plateau:
            continue
        pos = vals > 0
        for i in np.flatnonzero((vals[:-1] == 0.0) | (pos[:-1] != pos[1:])):
            if vals[i] == 0.0:
                roots.append(float(xs[i]))
            else:
                roots.append(_bisect(sign, float(xs[i]), float(xs[i + 1]), vals[i], _BISECT_TOL))
        if vals[-1] == 0.0:
            roots.append(float(xs[-1]))

    # Maximal plateau runs, reported as closed hulls of their segments.
    plateaus: list[tuple[float, float]] = []
    i = 0
    while i < len(plateau_flags):
        if plateau_flags[i]:
            j = i
            while j + 1 < len(plateau_flags) and plateau_flags[j + 1]:
                j += 1
            plateaus.append((edges[i], edges[j + 1]))
            i = j + 1
        else:
            i += 1

    # Sign changes across a defect breakpoint: the endpoint location is
    # admissible there even though the defect never vanishes.
    jumps: list[float] = []
    for k, s in enumerate(special):
        left_plateau, right_plateau = plateau_flags[k], plateau_flags[k + 1]
        if left_plateau or right_plateau:
            continue
        gl, gr = side_vals[k][1], side_vals[k + 1][0]
        if gl != 0.0 and gr != 0.0 and (gl > 0) != (gr > 0):
            jumps.append(s)

    def near_existing(x: float, locs: list[float]) -> bool:
        return any(abs(x - y) <= 1e-11 * max(1.0, abs(y)) for y in locs)

    out: list[CandidatePoint] = []
    taken: list[float] = []
    for p_lo, p_hi in plateaus:
        verdicts = [check_second_order(pair, eps, x, kind) for x in (p_lo, p_hi)]
        verdict = PASS if PASS in verdicts else (
            INCONCLUSIVE if INCONCLUSIVE in verdicts else FAIL)
        out.append(CandidatePoint(kind=kind, plateau=(p_lo, p_hi),
                                  second_order=verdict, residual=0.0))
        taken.extend([p_lo, p_hi])
    for r in sorted(set(roots)):
        if near_existing(r, taken):
            continue
        out.append(CandidatePoint(kind=kind, location=r,
                                  second_order=check_second_order(pair, eps, r, kind),
                                  residual=g(r)))
        taken.append(r)
    # Jump points, then discontinuity-shifted points: the latter are
    # admissible endpoints regardless of any sign change, since the
    # stationarity argument needs continuity there.
    for s in jumps + _shifted(pair.discontinuities, eps, kind):
        if not lo < s < hi or near_existing(s, taken):
            continue
        out.append(CandidatePoint(kind=kind, location=s, second_order=INCONCLUSIVE,
                                  residual=g(s), at_jump=True))
        taken.append(s)

    truncated = False
    if len(out) > MAX_CANDIDATES_PER_KIND:
        out = out[:MAX_CANDIDATES_PER_KIND]
        truncated = True
    out.sort(key=lambda c: c.enumeration_points()[0])
    return out, truncated


def solve_first_order(pair: DistributionPair, eps: float, grid_n: int = 2048) -> FirstOrderScan:
    """All admissible endpoint candidates of both kinds inside the window."""
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    window, widened = scan_window(pair, eps)
    if window is None:
        raise WindowEmpty(f"endpoint window has empty interior at eps={eps}")
    a_c, trunc_a = _scan_kind(pair, eps, "a", grid_n, window)
    b_c, trunc_b = _scan_kind(pair, eps, "b", grid_n, window)
    return FirstOrderScan(a_candidates=a_c, b_candidates=b_c, window=window,
                          window_widened=widened, truncated=trunc_a or trunc_b)


def bayes_boundary_proximity(pair: DistributionPair, eps: float,
                             candidates: list[CandidatePoint]) -> list[dict]:
    """Distance from each candidate location to the Bayes decision boundary.

    Boundary points of {p1 > p0} are restricted to the interior of the
    support, which for distributions with eta in {0, 1} coincides with the
    boundary of the region where class 1 is certain.
    """
    from .risk import bayes_classifier

    support = pair.support()
    bayes = bayes_classifier(pair)
    boundary = [p for p in bayes.boundary_points() if support.interior_contains(p)]
    records: list[dict] = []
    for cand in candidates:
        for x in cand.enumeration_points():
            if boundary:
                dist = min(abs(x - z) for z in boundary)
                nearest = min(boundary, key=lambda z: abs(x - z))
            else:
                dist, nearest = INF, None
            records.append({
                "candidate": cand,
                "location": x,
                "nearest_boundary": nearest,
                "distance": dist,
                "within_eps": dist <= eps + 1e-12,
            })
    return records
