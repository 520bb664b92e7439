"""Classification risks of interval-set classifiers, and the Bayes classifier.

The risk of a classifier ``A`` (the set predicted as class 1) is the mass of
class-1 data outside it plus the mass of class-0 data inside it.  Under an
attacker that may move points by up to ``eps``, both sets are dilated before
the masses are taken.  All masses are exact quadrature, so two risks that
agree to ~1e-15 are genuinely tied; ties are detected at TAU_RISK = 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .density import (
    _ROOT_REFINE_TOL,
    DistributionPair,
    Gaussian,
    PiecewisePoly,
    _bisect,
    _poly_trim,
    log_gap,
    poly_roots_in_cell,
    signed_gap,
)
from .intervals import INF, Interval, IntervalSet

TAU_RISK = 1e-9


class DegenerateTie(ValueError):
    """p1 == p0 identically on a cell of positive length."""


class EndpointMismatch(ValueError):
    """Component structures do not pair up within eps."""


@dataclass(frozen=True)
class RiskBreakdown:
    total: float
    fn_mass: float
    fp_mass: float
    epsilon: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "fn_mass": self.fn_mass,
            "fp_mass": self.fp_mass,
            "epsilon": self.epsilon,
        }


def adversarial_risks(
    pair: DistributionPair, sets: Iterable[IntervalSet], eps: float
) -> list[RiskBreakdown]:
    """``adversarial_risk`` of each set, sharing one table of endpoint CDFs.

    Sets are dilated one at a time as the iterable yields them.  Each
    distinct (class, endpoint) pair costs one scalar ``pair.cdf`` call, and
    the masses are summed exactly as ``DistributionPair.mass_set`` sums
    them, so every risk has the bits of a one-set evaluation.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    tables: tuple[dict[float, float], dict[float, float]] = ({}, {})

    def cdf(which: int, x: float) -> float:
        v = tables[which].get(x)
        if v is None:
            v = tables[which][x] = pair.cdf(which, x)
        return v

    def mass_set(which: int, s: IntervalSet) -> float:
        return sum(cdf(which, iv.hi) - cdf(which, iv.lo) if iv.lo < iv.hi else 0.0 for iv in s)

    out = []
    for a in sets:
        fn = mass_set(1, a.complement().expand(eps))
        fp = mass_set(0, a.expand(eps))
        out.append(RiskBreakdown(total=fn + fp, fn_mass=fn, fp_mass=fp, epsilon=eps))
    return out


def adversarial_risk(pair: DistributionPair, a: IntervalSet, eps: float) -> RiskBreakdown:
    """Risk when every point within ``eps`` of the decision boundary is lost."""
    return adversarial_risks(pair, (a,), eps)[0]


def standard_risk(pair: DistributionPair, a: IntervalSet) -> RiskBreakdown:
    return adversarial_risk(pair, a, 0.0)


# -- Bayes classifier ---------------------------------------------------------


def _two_gaussian_crossings(g1: Gaussian, g0: Gaussian) -> list[float]:
    """Roots of log(p1) = log(p0) for single weighted Gaussians."""
    a = 0.5 / g0.sigma**2 - 0.5 / g1.sigma**2
    b = g1.mu / g1.sigma**2 - g0.mu / g0.sigma**2
    c = (
        math.log(g1.weight / g1.sigma)
        - math.log(g0.weight / g0.sigma)
        + 0.5 * g0.mu**2 / g0.sigma**2
        - 0.5 * g1.mu**2 / g1.sigma**2
    )
    if a == 0.0:
        if b == 0.0:
            if c == 0.0:
                raise DegenerateTie("identical class densities")
            return []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    s = math.sqrt(disc)
    return sorted([(-b - s) / (2 * a), (-b + s) / (2 * a)])


def bayes_classifier(pair: DistributionPair) -> IntervalSet:
    """Canonical open set where class 1 is the more likely label."""
    d = lambda x: signed_gap(pair, 1, x, 0, x)
    breaks = sorted(set(pair.breakpoints(0)) | set(pair.breakpoints(1)))
    gaussian_only = not breaks
    crossings: list[float] = []

    if gaussian_only and len(pair.class0) == 1 and len(pair.class1) == 1:
        crossings = _two_gaussian_crossings(pair.class1[0], pair.class0[0])
    else:
        lo_ext, hi_ext = pair.finite_extent()
        cell_edges = sorted(set([lo_ext, hi_ext] + breaks))
        for a, b in zip(cell_edges, cell_edges[1:]):
            crossings.extend(_cell_crossings(pair, a, b))

    pts = sorted(set(crossings) | set(breaks))
    return _positive_set(pair, d, pts)


def _cell_crossings(pair: DistributionPair, a: float, b: float) -> list[float]:
    """Roots of p1 - p0 inside one analytic cell."""
    row1 = _active_row(pair, 1, a, b)
    row0 = _active_row(pair, 0, a, b)
    if row1 is not None and row0 is not None:
        n = max(len(row1), len(row0))
        diff = [
            (row1[i] if i < len(row1) else 0.0) - (row0[i] if i < len(row0) else 0.0)
            for i in range(n)
        ]
        if not _poly_trim(diff):
            raise DegenerateTie(f"p1 == p0 on [{a}, {b}]")
        return poly_roots_in_cell(diff, a, b)
    # Gaussian components present: dense sign scan with bisection refinement.
    d = lambda x: signed_gap(pair, 1, x, 0, x)
    xs = np.linspace(a, b, 512)
    p1, p0 = pair.pdf_array(1, xs), pair.pdf_array(0, xs)
    vals = p1 - p0
    scale = max(pair.sup_density(0), pair.sup_density(1))
    if np.max(np.abs(vals)) <= 1e-15 * scale:
        raise DegenerateTie(f"p1 == p0 on [{a}, {b}]")
    under = (p1 == 0.0) & (p0 == 0.0)
    vals[under] = log_gap(pair, 1, xs[under], 0, xs[under])
    roots = []
    pos = vals > 0
    for i in np.flatnonzero(pos[:-1] != pos[1:]):
        if vals[i] == 0.0:
            roots.append(float(xs[i]))
        elif vals[i + 1] == 0.0:
            roots.append(float(xs[i + 1]))
        else:
            roots.append(_bisect(d, float(xs[i]), float(xs[i + 1]), vals[i], _ROOT_REFINE_TOL))
    return roots


def _active_row(pair: DistributionPair, which: int, a: float, b: float):
    """Summed polynomial row on (a, b), or None if a Gaussian is active."""
    if pair.has_gaussian(which):
        return None
    mid = 0.5 * (a + b)
    total: list[float] = [0.0]
    comps = pair.class0 if which == 0 else pair.class1
    for c in comps:
        assert isinstance(c, PiecewisePoly)
        j = c._cell_index(mid)
        if j is None:
            continue
        row = c.coeffs[j]
        if len(row) > len(total):
            total.extend([0.0] * (len(row) - len(total)))
        for i, v in enumerate(row):
            total[i] += v
    return total


def _positive_set(pair: DistributionPair, d, pts: list[float]) -> IntervalSet:
    """Open set {d > 0} assembled from sign probes between critical points."""
    if not pts:
        probe = 0.0
        return IntervalSet.reals() if d(probe) > 0 else IntervalSet.empty()
    lo_ext, hi_ext = pair.finite_extent()
    edges = [-INF] + pts + [INF]
    pieces = []
    for a, b in zip(edges, edges[1:]):
        if a == -INF:
            probe = min(pts[0], lo_ext) - 1.0
        elif b == INF:
            probe = max(pts[-1], hi_ext) + 1.0
        else:
            probe = 0.5 * (a + b)
        if d(probe) > 0:
            pieces.append(Interval(a, b))
    out = IntervalSet(pieces)
    # Rejoin across critical points that still sit inside {d > 0}.
    joined: list[Interval] = []
    for iv in out:
        if joined and joined[-1].hi == iv.lo and d(iv.lo) > 0:
            last = joined[-1]
            joined[-1] = Interval(last.lo, iv.hi, last.lo_closed, iv.hi_closed)
        else:
            joined.append(iv)
    return IntervalSet(joined)


# -- accuracy-robustness diagnostic -------------------------------------------


def risk_gap_bound(
    pair: DistributionPair,
    a: IntervalSet,
    b: IntervalSet,
    eps: float,
    density_bound: float,
    n_components: int,
) -> tuple[float, float, bool]:
    """Bound the standard-risk gap of ``a`` over ``b`` by 2*eps*M*K.

    Requires the two classifiers to have ``n_components`` components whose
    endpoints pair up within ``eps``; raises EndpointMismatch otherwise.
    """
    if a.n_components != n_components or b.n_components != n_components:
        raise EndpointMismatch(
            f"component counts {a.n_components}/{b.n_components} != {n_components}"
        )
    tol = 1e-12
    for ia, ib in zip(a.intervals, b.intervals):
        for ea, eb in ((ia.lo, ib.lo), (ia.hi, ib.hi)):
            if math.isinf(ea) or math.isinf(eb):
                if ea != eb:
                    raise EndpointMismatch(f"endpoint {ea} vs {eb}")
            elif abs(ea - eb) > eps + tol:
                raise EndpointMismatch(f"|{ea} - {eb}| > eps={eps}")
    gap = standard_risk(pair, a).total - standard_risk(pair, b).total
    bound = 2.0 * eps * n_components * density_bound
    return gap, bound, gap <= bound + 1e-12
