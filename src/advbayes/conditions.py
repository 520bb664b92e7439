"""Stationarity conditions for endpoints of optimal robust classifiers.

A left endpoint ``a`` of a candidate classifier must satisfy
``p1(a+eps) - p0(a-eps) = 0`` wherever both densities are continuous at the
shifted points, and a right endpoint ``b`` must satisfy
``p0(b+eps) - p1(b-eps) = 0``.  Local minimality further requires the
corresponding derivative combination to be nonnegative.  This module finds
every solution inside the admissible window: isolated roots by bracketing
and the ITP root finder, whole plateaus where the defect vanishes
identically, and the discontinuity-shifted points where the conditions are
vacuous and any endpoint location is admissible.

The scan cuts its range at the shifted density breakpoints and samples each
segment at evenly spaced points plus mu - sigma, mu and mu + sigma of every
Gaussian the defect reads.  At eps = 0 the a-kind defect is ``p1 - p0``, so
the same segment samples give the boundary of the Bayes classifier
{p1 > p0}; ``bayes_boundary_proximity`` measures how far the endpoint
candidates at a radius lie from it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .density import (TINY, BreakpointDerivative, DistributionPair, Gaussian, itp_root,
                      log_gap, signed_gap)
from .intervals import INF, Interval, IntervalSet

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

TAU_ROOT = 1e-10
TAU_PLATEAU = 1e-11
TAU_DERIV = 1e-10
_BISECT_TOL = 1e-12
GRID_N = 2048  # defect samples per scan, spread over the scanned range


def near_sorted(points: list[float], p: float, tol: float, relative: bool = False) -> bool:
    """Some entry ``y`` of the sorted ``points`` lies within ``tol`` of ``p``,
    or within ``tol * max(1, |y|)`` when ``relative``.

    Only the two neighbours of ``p`` in sorted order need checking: an entry
    farther out is farther from ``p`` by more than its tolerance grows.
    """
    i = bisect.bisect_left(points, p)
    return any(abs(p - y) <= (tol * max(1.0, abs(y)) if relative else tol)
               for y in points[max(0, i - 1):i + 1])


class WindowEmpty(Exception):
    """The admissible endpoint window is empty; only ∅ and ℝ remain."""


class DegenerateTie(ValueError):
    """p1 == p0 on an interval where the class densities are nonzero."""


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
        d: dict = {"second_order": self.second_order, "residual": self.residual,
                   "at_jump": self.at_jump}
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
    truncated: bool = False  # always False; only bench/tracing.py's counter reads it


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


def _samples(pair: DistributionPair, eps: float, kind: str, a: float, b: float,
             m: int) -> np.ndarray:
    """Sample points of the scan segment [a, b].

    ``m`` evenly spaced points just inside the segment, plus mu - sigma, mu
    and mu + sigma (shifted by -+eps like the breakpoints) of every Gaussian
    the defect reads: a narrow bump, or a narrow piece of one sign around a
    mean, can lie between two evenly spaced samples.  Extra points that are
    not already samples are merged in, so the points stay sorted and distinct.
    """
    inset = (b - a) * 1e-9
    xs = np.linspace(a + inset, b - inset, m)
    plus, minus = _reads(kind)
    classes = (pair.class0, pair.class1)
    extra = [c.mu + k * c.sigma + shift
             for which, shift in ((plus, -eps), (minus, eps))
             for c in classes[which] if isinstance(c, Gaussian)
             for k in (-1.0, 0.0, 1.0)]
    extra = [x for x in extra if xs[0] < x < xs[-1]]
    return np.unique(np.concatenate([xs, extra])) if extra else xs


def _sample_defect(pair: DistributionPair, eps: float, kind: str, a: float, b: float,
                   m: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Samples of [a, b], the defect's values there, and whether the segment is
    a plateau: |defect| <= TAU_PLATEAU at every sample.

    Off a plateau, where both shifted densities are subnormal or 0 the value
    is the log-density gap, which carries the sign.  Only the sign of each
    sample picks the brackets of ``_sign_changes``; ``itp_root`` evaluates
    their ends again with the scalar ``signed_gap``, so roots equal a
    scalar-sampled scan's unless a sample is within rounding of zero
    (np.exp and math.exp may differ by one ulp).
    """
    plus, minus = _reads(kind)
    xs = _samples(pair, eps, kind, a, b, m)
    p_plus, p_minus = pair.pdf_array(plus, xs + eps), pair.pdf_array(minus, xs - eps)
    vals = p_plus - p_minus
    is_plateau = bool(np.max(np.abs(vals)) <= TAU_PLATEAU)
    under = (p_plus < TINY) & (p_minus < TINY)
    if not is_plateau and under.any():
        vals[under] = log_gap(pair, plus, xs[under] + eps, minus, xs[under] - eps)
    return xs, vals, is_plateau


def _sign_changes(sign, xs: np.ndarray, vals: np.ndarray) -> list[float]:
    """Zero samples, and a root found by ``itp_root`` on ``sign`` between each
    pair of neighbouring samples of opposite sign.

    A zero sample between two zero samples is dropped: it lies inside a run
    where the two densities agree to rounding, and like a plateau's inner
    points it would only add endpoints that tie with the run's ends.
    """
    roots: list[float] = []
    pos = vals > 0
    zero = vals == 0.0
    inner = np.zeros_like(zero)
    inner[1:-1] = zero[:-2] & zero[1:-1] & zero[2:]
    for i in np.flatnonzero((zero & ~inner)[:-1] | (pos[:-1] != pos[1:])):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        else:
            roots.append(itp_root(sign, float(xs[i]), float(xs[i + 1]), _BISECT_TOL))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _segments(pair: DistributionPair, eps: float, kind: str,
              window: Interval) -> list[tuple[float, float, np.ndarray, np.ndarray, bool]]:
    """The scan's segments as ``(a, b, xs, vals, is_plateau)``, left to right.

    The scanned range ``_scan_bounds`` is cut at the shifted density
    breakpoints; each segment gets ``_sample_defect``'s reading with a share
    of GRID_N samples in proportion to its length, and at least 9.  Empty
    when the range is.
    """
    lo, hi = _scan_bounds(pair, eps, window)
    if not lo < hi:
        return []
    edges = [lo] + [s for s in _shifted(pair.breakpoints, eps, kind) if lo < s < hi] + [hi]
    return [(a, b, *_sample_defect(pair, eps, kind, a, b,
                                   max(9, int(round(GRID_N * (b - a) / (hi - lo))) + 1)))
            for a, b in zip(edges, edges[1:])]


def _scan_kind(pair: DistributionPair, eps: float, kind: str,
               window: Interval) -> list[CandidatePoint]:
    g = lambda x: defect(pair, eps, kind, x)
    plus, minus = _reads(kind)
    # Where both shifted densities are subnormal or 0, log-densities give the sign.
    sign = lambda x: signed_gap(pair, plus, x + eps, minus, x - eps)
    segments = _segments(pair, eps, kind, window)
    if not segments:
        return []
    lo, hi = segments[0][0], segments[-1][1]

    roots: list[float] = []
    # Maximal plateau runs, reported as closed hulls of their segments.
    plateaus: list[tuple[float, float]] = []
    # Sign changes across a defect breakpoint: the endpoint location is
    # admissible there even though the defect never vanishes.
    jumps: list[float] = []
    prev = 0.0  # the previous segment's last value, 0 after a plateau
    for a, b, xs, vals, is_plateau in segments:
        if is_plateau:
            if plateaus and plateaus[-1][1] == a:
                plateaus[-1] = (plateaus[-1][0], b)
            else:
                plateaus.append((a, b))
            prev = 0.0
            continue
        if prev != 0.0 and vals[0] != 0.0 and (prev > 0) != (vals[0] > 0):
            jumps.append(a)
        prev = float(vals[-1])
        roots += _sign_changes(sign, xs, vals)

    out: list[CandidatePoint] = []
    taken: list[float] = []  # kept sorted
    for p_lo, p_hi in plateaus:
        verdicts = [check_second_order(pair, eps, x, kind) for x in (p_lo, p_hi)]
        verdict = PASS if PASS in verdicts else (
            INCONCLUSIVE if INCONCLUSIVE in verdicts else FAIL)
        out.append(CandidatePoint(kind=kind, plateau=(p_lo, p_hi),
                                  second_order=verdict, residual=0.0))
        bisect.insort(taken, p_lo)
        bisect.insort(taken, p_hi)
    for r in sorted(set(roots)):
        if near_sorted(taken, r, 1e-11, relative=True):
            continue
        out.append(CandidatePoint(kind=kind, location=r,
                                  second_order=check_second_order(pair, eps, r, kind),
                                  residual=g(r)))
        bisect.insort(taken, r)
    # Jump points, then discontinuity-shifted points: the latter are
    # admissible endpoints regardless of any sign change, since the
    # stationarity argument needs continuity there.
    for s in jumps + _shifted(pair.discontinuities, eps, kind):
        if not lo < s < hi or near_sorted(taken, s, 1e-11, relative=True):
            continue
        out.append(CandidatePoint(kind=kind, location=s, second_order=INCONCLUSIVE,
                                  residual=g(s), at_jump=True))
        bisect.insort(taken, s)

    out.sort(key=lambda c: c.enumeration_points()[0])
    return out


def solve_first_order(pair: DistributionPair, eps: float) -> FirstOrderScan:
    """All admissible endpoint candidates of both kinds inside the window."""
    window, widened = scan_window(pair, eps)
    if window is None:
        raise WindowEmpty(f"endpoint window has empty interior at eps={eps}")
    return FirstOrderScan(a_candidates=_scan_kind(pair, eps, "a", window),
                          b_candidates=_scan_kind(pair, eps, "b", window),
                          window=window, window_widened=widened)


def bayes_classifier(pair: DistributionPair) -> IntervalSet:
    """Open set where class 1 is the more likely label, read off the a-kind
    scan segments at eps = 0, where the defect is p1 - p0.

    The critical points are the density breakpoints and the sign changes of
    every segment's samples, plateau segments included: there |p1 - p0| <=
    TAU_PLATEAU, but the sign can still change where both densities are that
    small.  Plateau samples are raw p1 - p0, so only the nonzero ones are
    scanned: a run where both densities underflow to 0 is bridged by its
    neighbours, and a crossing inside it is found on the log-density gap; a
    segment with no nonzero sample shows no sign change.  The samples hold
    every Gaussian's mu and mu +- sigma, like the first-order scan's.  The set
    is literal on the scanned range [lo_ext - 1, hi_ext + 1] of
    ``finite_extent`` and constant on each side of it: a crossing beyond that
    range is dropped even where the densities have not underflowed to 0.
    """
    sign = lambda x: signed_gap(pair, 1, x, 0, x)
    pts = set(pair.breakpoints(0)) | set(pair.breakpoints(1))
    plateaus: list[tuple[float, float]] = []
    for a, b, xs, vals, is_plateau in _segments(pair, 0.0, "a", scan_window(pair, 0.0)[0]):
        if is_plateau:
            plateaus.append((a, b))
            keep = vals != 0.0
            xs, vals = xs[keep], vals[keep]
        if xs.size:
            pts.update(_sign_changes(sign, xs, vals))
    return _positive_set(pair, sorted(pts), plateaus)


def _positive_set(pair: DistributionPair, pts: list[float],
                  plateaus: list[tuple[float, float]]) -> IntervalSet:
    """Open set {p1 > p0} assembled from sign probes between critical points.

    The sign of p1 - p0 is constant between critical points, so each piece
    takes the sign of its midpoint, or of its quarter point where the midpoint
    is a touch point; the half-infinite pieces are probed at the ends of the
    scanned range.  A piece inside a plateau whose densities agree there to
    TAU_PLATEAU relative is a tie; where both densities vanish it simply lies
    outside the set.
    """
    d = lambda x: signed_gap(pair, 1, x, 0, x)
    lo_ext, hi_ext = pair.finite_extent()
    edges = [-INF] + pts + [INF]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        probe = lo_ext - 1.0 if a == -INF else hi_ext + 1.0 if b == INF else 0.5 * (a + b)
        v = d(probe)
        if v == 0.0 and -INF < a and b < INF:
            probe = 0.75 * a + 0.25 * b
            v = d(probe)
        if any(p_lo <= probe <= p_hi for p_lo, p_hi in plateaus):
            p0, p1 = pair.pdf(0, probe), pair.pdf(1, probe)
            if p0 > 0 and abs(p1 - p0) <= TAU_PLATEAU * p0:
                raise DegenerateTie(f"p1 == p0 on [{a}, {b}]")
        if v > 0:
            pieces.append(Interval(a, b))
    # Rejoin across critical points that still sit inside {d > 0}.
    joined: list[Interval] = []
    for iv in IntervalSet(pieces):
        if joined and joined[-1].hi == iv.lo and d(iv.lo) > 0:
            last = joined[-1]
            joined[-1] = Interval(last.lo, iv.hi, last.lo_closed, iv.hi_closed)
        else:
            joined.append(iv)
    return IntervalSet(joined)


def bayes_boundary_proximity(pair: DistributionPair, eps: float,
                             candidates: list[CandidatePoint]) -> list[dict]:
    """Distance from each candidate location to the Bayes decision boundary.

    Boundary points of {p1 > p0} are restricted to the interior of the
    support, which for distributions with eta in {0, 1} coincides with the
    boundary of the region where class 1 is certain.
    """
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
