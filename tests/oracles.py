"""Independent oracles for the test suite.

Everything here avoids the package's own quadrature and set algebra:
densities are plain lambdas with literal formulas, masses come from
adaptive numeric integration, set dilation is a merge of shifted endpoint
pairs, and the matching optimum comes from an LP solver.  Tests freeze
values computed by these oracles and compare the package against them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog

INF = math.inf


# -- reference densities (literal formulas, no package code) ------------------


def normpdf(x: float, mu: float, sigma: float) -> float:
    return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))


def ref_equal_variances():
    p0 = lambda x: 0.5 * normpdf(x, 0.0, 1.0)
    p1 = lambda x: 0.5 * normpdf(x, 2.0, 1.0)
    return p0, p1, []


def ref_equal_means():
    p0 = lambda x: 0.5 * normpdf(x, 0.0, 2.0)
    p1 = lambda x: 0.5 * normpdf(x, 0.0, 1.0)
    return p0, p1, []


def ref_non_uniqueness_single():
    p0 = lambda x: (1.0 + x) / 6.0 if -1.0 <= x <= 1.0 else 0.0
    p1 = lambda x: (1.0 - x) / 3.0 if -1.0 <= x <= 1.0 else 0.0
    return p0, p1, [-1.0, 1.0]


def ref_non_uniqueness_all():
    p0 = lambda x: (0.375 if x <= 0.0 else 0.125) if -1.0 <= x <= 1.0 else 0.0
    p1 = lambda x: (0.125 if x <= 0.0 else 0.375) if -1.0 <= x <= 1.0 else 0.0
    return p0, p1, [-1.0, 0.0, 1.0]


def ref_degenerate():
    p0 = lambda x: 0.2 if abs(x) <= 0.25 else 0.0
    p1 = lambda x: 0.6 if 0.25 < abs(x) <= 1.0 else 0.0
    return p0, p1, [-1.0, -0.25, 0.25, 1.0]


def ref_deg_eta(eps: float):
    def p0(x):
        if 2 * eps <= abs(x) <= 3 * eps:
            return 1.0 / (9 * eps)
        if abs(x) <= eps:
            return 1.0 / (18 * eps)
        return 0.0

    def p1(x):
        if 2 * eps <= abs(x) <= 3 * eps:
            return 1.0 / (4 * eps)
        if abs(x) <= eps:
            return 1.0 / (12 * eps)
        return 0.0

    pts = [i * eps for i in (-3, -2, -1, 1, 2, 3)]
    return p0, p1, pts


def ref_bumps(k: int):
    """k alternating bumps: class 0 at 4i, class 1 at 4i+2, sigma 0.7."""
    p0 = lambda x: sum(normpdf(x, 4.0 * i, 0.7) for i in range(k)) * 0.5 / k
    p1 = lambda x: sum(normpdf(x, 4.0 * i + 2.0, 0.7) for i in range(k)) * 0.5 / k
    return p0, p1, []


def ref_gaussian_vs_uniform():
    p0 = lambda x: 0.25 if -1.0 <= x <= 1.0 else 0.0
    p1 = lambda x: 0.5 * normpdf(x, 0.0, 0.5)
    return p0, p1, [-1.0, 1.0]


# -- quadrature ---------------------------------------------------------------


def integrate(f, lo: float, hi: float, pts: list[float]) -> float:
    """Adaptive quadrature with breakpoint hints; bounds may be infinite."""
    if lo >= hi:
        return 0.0
    cut = 30.0
    lo_f = max(lo, -cut)
    hi_f = min(hi, cut)
    if lo_f >= hi_f:
        return 0.0
    inner = sorted(p for p in pts if lo_f < p < hi_f)
    val, _ = quad(f, lo_f, hi_f, points=inner or None, limit=300, epsabs=1e-13, epsrel=1e-12)
    return val


def mass_on_pieces(f, pieces: list[tuple[float, float]], pts: list[float]) -> float:
    return math.fsum(integrate(f, lo, hi, pts) for lo, hi in pieces)


# -- flag-free set arithmetic on endpoint pairs -------------------------------


def merge_pairs(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out: list[list[float]] = []
    for lo, hi in sorted(pairs):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out if hi > lo]


def expand_pairs(pairs: list[tuple[float, float]], eps: float) -> list[tuple[float, float]]:
    return merge_pairs([(lo - eps, hi + eps) for lo, hi in pairs])


def complement_pairs(pairs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    cursor = -INF
    for lo, hi in merge_pairs(pairs) or []:
        if cursor < lo:
            out.append((cursor, lo))
        cursor = hi
    if cursor < INF:
        out.append((cursor, INF))
    return out


def oracle_adv_risk(ref, pairs: list[tuple[float, float]], eps: float) -> float:
    """Adversarial risk by quadrature over independently dilated pieces."""
    p0, p1, pts = ref
    fn = mass_on_pieces(p1, expand_pairs(complement_pairs(pairs), eps), pts)
    fp = mass_on_pieces(p0, expand_pairs(pairs, eps), pts)
    return fn + fp


# -- LP matching oracle --------------------------------------------------------


def lp_matching_value(pos0, m0, pos1, m1, radius: float) -> float:
    compat = [
        (i, j)
        for i in range(len(pos0))
        for j in range(len(pos1))
        if abs(pos0[i] - pos1[j]) <= radius
    ]
    if not compat:
        return 0.0
    nv = len(compat)
    n_rows = len(pos0) + len(pos1)
    a = np.zeros((n_rows, nv))
    for col, (i, j) in enumerate(compat):
        a[i, col] = 1.0
        a[len(pos0) + j, col] = 1.0
    b = np.concatenate([m0, m1])
    res = linprog(c=-np.ones(nv), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    assert res.success
    return -res.fun


# -- literal grid enumeration ---------------------------------------------------


def literal_bruteforce(pair, eps: float, xs, max_k: int):
    """Exhaustive minimum over unions of <= max_k grid-endpoint intervals.

    Uses the package's risk evaluator but literal candidate enumeration, so
    it checks the layered-DP minimization independently.
    """
    from advbayes.intervals import Interval, IntervalSet
    from advbayes.risk import adversarial_risk

    best = adversarial_risk(pair, IntervalSet.empty(), eps).total
    r = adversarial_risk(pair, IntervalSet.reals(), eps).total
    best = min(best, r)
    ext = [-INF] + list(xs) + [INF]
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(range(len(ext)), 2 * k):
            p = [ext[i] for i in combo]
            if any(q == -INF for q in p[1:]) or any(q == INF for q in p[:-1]):
                continue
            ivs = [Interval(p[i], p[i + 1]) for i in range(0, 2 * k, 2)]
            s = IntervalSet(ivs)
            best = min(best, adversarial_risk(pair, s, eps).total)
    return best
