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


# -- literal first-order scan -----------------------------------------------------


def literal_first_order(pair, eps: float, grid_n: int = 2048):
    """Candidate dicts of both kinds from a sample-by-sample scalar scan.

    A literal copy of the first-order scan in which every sample is two
    scalar ``pair.pdf`` calls and sign changes are found by a Python loop.
    It reuses the package's scalar pieces (window, shifted points, bisection,
    second-order check) and none of its array evaluators.  Returns
    ``(a_dicts, b_dicts, truncated)``, or None when the window is empty.
    """
    from advbayes import conditions as fo

    window, _ = fo.scan_window(pair, eps)
    if window is None:
        return None
    a_dicts, trunc_a = _literal_scan_kind(pair, eps, "a", grid_n, window)
    b_dicts, trunc_b = _literal_scan_kind(pair, eps, "b", grid_n, window)
    return a_dicts, b_dicts, trunc_a or trunc_b


def _literal_scan_kind(pair, eps, kind, grid_n, window):
    from advbayes import conditions as fo
    from advbayes.density import _bisect

    plus, minus = (1, 0) if kind == "a" else (0, 1)
    g = lambda x: pair.pdf(plus, x + eps) - pair.pdf(minus, x - eps)
    lo, hi = fo._scan_bounds(pair, eps, window)
    if not lo < hi:
        return [], False

    special = [s for s in fo._shifted(pair.breakpoints, eps, kind) if lo < s < hi]
    edges = [lo] + special + [hi]
    total = hi - lo
    roots, plateau_flags, side_vals = [], [], []
    for a, b in zip(edges, edges[1:]):
        span = b - a
        m = max(9, int(round(grid_n * span / total)) + 1)
        inset = span * 1e-9
        xs = np.linspace(a + inset, b - inset, m)
        vals = [g(float(x)) for x in xs]
        is_plateau = max(abs(v) for v in vals) <= fo.TAU_PLATEAU
        plateau_flags.append(is_plateau)
        side_vals.append((vals[0], vals[-1]))
        if is_plateau:
            continue
        for i in range(m - 1):
            v0, v1 = vals[i], vals[i + 1]
            if v0 == 0.0:
                roots.append(float(xs[i]))
            elif (v0 > 0) != (v1 > 0):
                roots.append(_bisect(g, float(xs[i]), float(xs[i + 1]), v0, fo._BISECT_TOL))
        if vals[-1] == 0.0:
            roots.append(float(xs[-1]))

    plateaus = []
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

    jumps = []
    for k, s in enumerate(special):
        if plateau_flags[k] or plateau_flags[k + 1]:
            continue
        gl, gr = side_vals[k][1], side_vals[k + 1][0]
        if gl != 0.0 and gr != 0.0 and (gl > 0) != (gr > 0):
            jumps.append(s)

    def near_existing(x, locs):
        return any(abs(x - y) <= 1e-11 * max(1.0, abs(y)) for y in locs)

    out, taken = [], []
    for p_lo, p_hi in plateaus:
        verdicts = [fo.check_second_order(pair, eps, x, kind) for x in (p_lo, p_hi)]
        verdict = fo.PASS if fo.PASS in verdicts else (
            fo.INCONCLUSIVE if fo.INCONCLUSIVE in verdicts else fo.FAIL)
        out.append({"kind": kind, "second_order": verdict, "residual": 0.0,
                    "at_jump": False, "plateau": [p_lo, p_hi]})
        taken.extend([p_lo, p_hi])
    for r in sorted(set(roots)):
        if near_existing(r, taken):
            continue
        out.append({"kind": kind, "second_order": fo.check_second_order(pair, eps, r, kind),
                    "residual": g(r), "at_jump": False, "location": r})
        taken.append(r)
    for s in jumps + fo._shifted(pair.discontinuities, eps, kind):
        if not lo < s < hi or near_existing(s, taken):
            continue
        out.append({"kind": kind, "second_order": fo.INCONCLUSIVE, "residual": g(s),
                    "at_jump": True, "location": s})
        taken.append(s)

    truncated = len(out) > fo.MAX_CANDIDATES_PER_KIND
    out = out[:fo.MAX_CANDIDATES_PER_KIND]
    out.sort(key=lambda d: d["plateau"][0] if "plateau" in d else d["location"])
    return out, truncated
