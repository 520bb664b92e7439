"""Independent oracles for the test suite.

Everything here avoids the package's own quadrature and set algebra:
densities are plain lambdas with literal formulas, masses come from
adaptive numeric integration, set dilation is a merge of shifted endpoint
pairs, and the matching optimum comes from an LP solver or from the greedy
matching written as a per-atom loop.  Tests freeze
values computed by these oracles and compare the package against them.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, linprog

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


def ref_far_bumps_log():
    """log p0, log p1 for class 0 = 0.25 N(0, 0.1^2) + 0.25 N(100, 0.1^2) and
    class 1 = 0.5 N(1, 0.1^2): both densities underflow to 0 near x = 50."""
    lognorm = lambda x, mu: -0.5 * ((x - mu) / 0.1) ** 2 - math.log(0.1 * math.sqrt(2 * math.pi))
    log_p0 = lambda x: float(np.logaddexp(math.log(0.25) + lognorm(x, 0.0),
                                          math.log(0.25) + lognorm(x, 100.0)))
    log_p1 = lambda x: math.log(0.5) + lognorm(x, 1.0)
    return log_p0, log_p1


def sign_change_roots(f, lo: float, hi: float, n: int) -> list[float]:
    """``brentq`` root of ``f`` in each sign change on an n-point grid over [lo, hi]."""
    xs = np.linspace(lo, hi, n)
    vals = [f(float(x)) for x in xs]
    return [brentq(f, float(xs[i]), float(xs[i + 1]), xtol=1e-15)
            for i in range(n - 1) if (vals[i] > 0) != (vals[i + 1] > 0)]


def ref_bumps_mass(k: int):
    """Class masses of ``ref_bumps(k)`` on (lo, hi) from the literal normal CDF."""
    def cdf(x: float, mu: float) -> float:
        if math.isinf(x):
            return 1.0 if x > 0 else 0.0
        return 0.5 * math.erfc(-(x - mu) / (0.7 * math.sqrt(2.0)))

    def mass(which: int, lo: float, hi: float) -> float:
        offset = 2.0 if which == 1 else 0.0
        return 0.5 / k * math.fsum(cdf(hi, 4.0 * i + offset) - cdf(lo, 4.0 * i + offset)
                                   for i in range(k))

    return mass


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


def left_fold(values) -> float:
    """``values`` added left to right from 0, as ``sum`` adds them up to
    Python 3.11 (from 3.12 on it compensates float sums)."""
    acc = 0
    for v in values:
        acc += v
    return acc


def class_cdf(pair, which: int, x: float) -> float:
    """Class CDF summed from the component CDFs, without the pair's memo."""
    return left_fold(c.cdf(x) for c in (pair.class0, pair.class1)[which])


def mass_set_risk(pair, s, eps: float):
    """(total, fn, fp) of one set, summed as ``DistributionPair.mass_set`` sums.

    The literal definition of the adversarial risk on the package's interval
    algebra, with class CDFs from ``class_cdf`` rather than the pair's memo.
    """
    def mass_set(which, t):
        return left_fold(class_cdf(pair, which, iv.hi) - class_cdf(pair, which, iv.lo)
                   if iv.lo < iv.hi else 0.0 for iv in t)

    fn = mass_set(1, s.complement().expand(eps))
    fp = mass_set(0, s.expand(eps))
    return fn + fp, fn, fp


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


def greedy_dual_loop(pos0, m0, pos1, m1, radius: float):
    """The leftmost-first greedy matching, one Python step per class-0 atom.

    In cumulative class-1 mass ``c1`` the greedy consumes a growing prefix:
    atom i can reach ``c1[lo_i] .. c1[hi_i]``, and the frontier ``u`` moves
    by ``take = min(m_i, c1[hi_i] - u)`` after rising to ``c1[lo_i]``.
    Returns the dual value, the ``math.fsum`` of the moves.
    """
    c1 = np.concatenate([[0.0], np.cumsum(m1)])
    lo = np.searchsorted(pos1, pos0 - radius, "left")
    hi = np.searchsorted(pos1, pos0 + radius, "right")
    takes = []
    u = 0.0
    for m, floor, ceil in zip(np.asarray(m0).tolist(), c1[lo].tolist(), c1[hi].tolist()):
        if u < floor:
            u = floor
        take = ceil - u
        if m < take:
            take = m
        if take > 0.0 and u + take > u:  # a take below the rounding of u moves nothing
            start = u
            u += take
            takes.append(u - start)
    return math.fsum(takes)


# -- literal grid enumeration ---------------------------------------------------


def literal_bruteforce(pair, eps: float, xs, max_k: int):
    """Exhaustive minimum over unions of <= max_k grid-endpoint intervals.

    Uses the package's risk evaluator but literal candidate enumeration, so
    it checks the layered-DP minimization independently.
    """
    from advbayes.intervals import Interval, IntervalSet
    from advbayes.risk import adversarial_risk

    def sets():
        yield IntervalSet.empty()
        yield IntervalSet.reals()
        ext = [-INF] + list(xs) + [INF]
        for k in range(1, max_k + 1):
            for combo in itertools.combinations(range(len(ext)), 2 * k):
                p = [ext[i] for i in combo]
                if any(q == -INF for q in p[1:]) or any(q == INF for q in p[:-1]):
                    continue
                yield IntervalSet([Interval(p[i], p[i + 1]) for i in range(0, 2 * k, 2)])

    return min(adversarial_risk(pair, s, eps).total for s in sets())


# -- regular sets from an endpoint pool ---------------------------------------------

ENUMERATION_CAP = 4096


def enumerate_regular_sets(a_points, b_points, eps: float, cap: int = ENUMERATION_CAP):
    """Every open regular set with left/right endpoints drawn from the pools.

    The exhaustive DFS the solver once ran: alternating endpoint sequences
    whose consecutive gaps all exceed 2*eps strictly; half-infinite leading
    and trailing pieces are allowed, and ∅ and ℝ are always included.
    Returns ``(sets, truncated)``: the sets sorted by their (lo, hi) pairs, at most
    ``cap`` of them.
    """
    from advbayes.intervals import Interval, IntervalSet

    def key(s):
        return tuple((iv.lo, iv.hi) for iv in s.intervals)

    def from_sequence(points, kinds):
        pieces = []
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

    pool: dict[float, set[str]] = {}
    for x in a_points:
        pool.setdefault(x, set()).add("a")
    for x in b_points:
        pool.setdefault(x, set()).add("b")
    xs = sorted(pool)

    results = {(): IntervalSet.empty(), ((-INF, INF),): IntervalSet.reals()}

    def extend(idx, points, kinds):
        if points:
            s = from_sequence(points, kinds)
            if key(s) not in results:
                if len(results) >= cap:
                    return False
                results[key(s)] = s
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

    truncated = not extend(0, [], [])
    return sorted(results.values(), key=key), truncated


def pool_dp_min(mass, a_points, b_points, eps: float) -> float:
    """Minimum adversarial risk over the regular sets of the pools, by a forward DP.

    ``mass(which, lo, hi)`` is a class mass on (lo, hi), infinite ends
    allowed.  ``best[j]`` is the cheapest risk of the pieces up to node j:
    the leading half line, then alternating components (class-0 mass of
    (a-eps, b+eps)) and gaps (class-1 mass of (b-eps, a'+eps)).  Each
    sequence is closed by its trailing half line; ∅ and ℝ cost the whole
    class-1 and class-0 masses.
    """
    nodes = sorted({(x, "a") for x in a_points} | {(x, "b") for x in b_points})
    answer = min(mass(1, -INF, INF), mass(0, -INF, INF))
    best = []
    for j, (y, kind) in enumerate(nodes):
        # The piece that ends at y: a gap before an "a", a component before a "b".
        before = 1 if kind == "a" else 0
        cost = mass(before, -INF, y + eps)
        for i in range(j):
            x, prev = nodes[i]
            if prev != kind and y - x > 2 * eps:
                cost = min(cost, best[i] + mass(before, x - eps, y + eps))
        best.append(cost)
        answer = min(answer, cost + mass(1 - before, y - eps, INF))
    return answer


# -- literal first-order scan -----------------------------------------------------


def literal_logpdf(pair, which: int, x: float) -> float:
    """log of a class density from literal component formulas, summed in the log domain.

    A Gaussian component contributes log(w / (sigma sqrt(2 pi))) - z^2 / 2, so
    far tails stay finite where the density underflows; a piecewise
    component contributes the log of its scalar pdf (-inf outside its support).
    The constant is the log of one quotient: log(w) - log(sigma sqrt(2 pi))
    rounds twice and can be one ulp off, which moves the last bit of a root
    that ``itp_root`` finds on the log-density gap.
    """
    terms = []
    for c in pair.class1 if which == 1 else pair.class0:
        if hasattr(c, "sigma"):
            z = (x - c.mu) / c.sigma
            terms.append(math.log(c.weight / (c.sigma * math.sqrt(2 * math.pi))) - 0.5 * z * z)
        else:
            v = c.pdf(x)
            terms.append(math.log(v) if v > 0 else -INF)
    top = max(terms)
    if top == -INF:
        return -INF
    return top + math.log(math.fsum(math.exp(t - top) for t in terms))


def literal_first_order(pair, eps: float, grid_n: int = 2048):
    """Candidate dicts of both kinds from a sample-by-sample scalar scan.

    A literal copy of the first-order scan in which every sample is two
    scalar ``pair.pdf`` calls and sign changes are found by a Python loop;
    where both densities are 0, ``literal_logpdf`` gives the sign.  It
    reuses the package's scalar pieces (window, shifted points, root finder)
    and none of its array evaluators.  The root finder reads each bracket's
    ends through ``sign`` itself, so only the signs of the samples matter.

    A candidate's ``second_order`` is FAIL when the nearest nonzero sample
    before it is positive and the nearest one after it negative, over all
    non-plateau samples in order, and PASS otherwise; jump points are
    INCONCLUSIVE.  An ITP root whose bracket ends are both nonzero also
    carries ``"bracket": (left value, right value)``, which the caller
    drops before comparing.  Returns ``(a_dicts, b_dicts)``, or None when
    the window is empty.
    """
    from advbayes import conditions as fo

    window, _ = fo.scan_window(pair, eps)
    if window is None:
        return None
    return (_literal_scan_kind(pair, eps, "a", grid_n, window),
            _literal_scan_kind(pair, eps, "b", grid_n, window))


def _literal_scan_kind(pair, eps, kind, grid_n, window):
    from advbayes import conditions as fo
    from advbayes.density import itp_root

    plus, minus = (1, 0) if kind == "a" else (0, 1)
    g = lambda x: pair.pdf(plus, x + eps) - pair.pdf(minus, x - eps)

    def sign(x):
        """g, or the literal log-density difference where both densities are
        subnormal or 0."""
        p, m = pair.pdf(plus, x + eps), pair.pdf(minus, x - eps)
        if p < sys.float_info.min and m < sys.float_info.min:
            gap = literal_logpdf(pair, plus, x + eps) - literal_logpdf(pair, minus, x - eps)
            return 0.0 if math.isnan(gap) else gap
        return p - m

    lo, hi = fo._scan_bounds(pair, eps, window)
    if not lo < hi:
        return []

    special = [s for s in fo._shifted(pair.breakpoints, eps, kind) if lo < s < hi]
    edges = [lo] + special + [hi]
    total = hi - lo
    roots, plateau_flags, side_vals = [], [], []
    flat = []  # the non-plateau samples, in order
    starts, brackets = [], {}  # len(flat) at each segment; ITP roots' bracket ends
    for a, b in zip(edges, edges[1:]):
        m = max(9, int(round(grid_n * (b - a) / total)) + 1)
        xs = unique_samples(pair, eps, kind, a, b, m)
        vals = [g(float(x)) for x in xs]
        is_plateau = max(abs(v) for v in vals) <= fo.TAU_PLATEAU
        if not is_plateau:
            vals = [sign(float(x)) if abs(v) < sys.float_info.min else v
                    for x, v in zip(xs, vals)]
        plateau_flags.append(is_plateau)
        side_vals.append((vals[0], vals[-1]))
        starts.append(len(flat))
        if is_plateau:
            continue
        # Each root with the number of samples up to its bracket's left end
        # (a zero sample is its own left end).
        for i in range(len(xs) - 1):
            v0, v1 = vals[i], vals[i + 1]
            if v0 == 0.0:
                # Inside a run of zero samples only the run's two ends are roots.
                if i == 0 or vals[i - 1] != 0.0 or v1 != 0.0:
                    roots.append((float(xs[i]), len(flat) + i + 1))
            elif (v0 > 0) != (v1 > 0):
                r = itp_root(sign, float(xs[i]), float(xs[i + 1]), fo._BISECT_TOL)
                roots.append((r, len(flat) + i + 1))
                if v1 != 0.0:
                    brackets.setdefault(r, (v0, v1))
        if vals[-1] == 0.0:
            roots.append((float(xs[-1]), len(flat) + len(xs)))
        flat.extend(vals)

    def verdict(split):
        before = [v for v in flat[:split] if v != 0.0]
        after = [v for v in flat[split:] if v != 0.0]
        return fo.FAIL if before and after and before[-1] > 0 > after[0] else fo.PASS

    plateaus = []
    i = 0
    while i < len(plateau_flags):
        if plateau_flags[i]:
            j = i
            while j + 1 < len(plateau_flags) and plateau_flags[j + 1]:
                j += 1
            plateaus.append((edges[i], edges[j + 1], starts[i]))
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
    for p_lo, p_hi, split in plateaus:
        out.append({"second_order": verdict(split), "residual": 0.0,
                    "at_jump": False, "plateau": [p_lo, p_hi]})
        taken.extend([p_lo, p_hi])
    first_split = {}
    for r, split in roots:
        first_split.setdefault(r, split)
    for r in sorted(first_split):
        if near_existing(r, taken):
            continue
        out.append({"second_order": verdict(first_split[r]), "residual": g(r),
                    "at_jump": False, "location": r})
        if r in brackets:
            out[-1]["bracket"] = brackets[r]
        taken.append(r)
    for s in jumps + fo._shifted(pair.discontinuities, eps, kind):
        if not lo < s < hi or near_existing(s, taken):
            continue
        out.append({"second_order": fo.INCONCLUSIVE, "residual": g(s),
                    "at_jump": True, "location": s})
        taken.append(s)

    out.sort(key=lambda d: d["plateau"][0] if "plateau" in d else d["location"])
    return out


def unique_samples(pair, eps: float, kind: str, a: float, b: float, m: int) -> np.ndarray:
    """The points ``conditions._samples`` must give on the scan segment [a, b]:
    ``m`` evenly spaced points just inside it, and mu - sigma, mu and
    mu + sigma (shifted by -+eps) of every Gaussian the defect reads that lie
    strictly between the first and the last of them, merged by ``np.unique``
    over all the points; the evenly spaced points as they are when no extra
    point lies inside."""
    from advbayes.density import Gaussian

    inset = (b - a) * 1e-9
    xs = np.linspace(a + inset, b - inset, m)
    plus, minus = (1, 0) if kind == "a" else (0, 1)
    classes = (pair.class0, pair.class1)
    extra = [c.mu + k * c.sigma + shift
             for which, shift in ((plus, -eps), (minus, eps))
             for c in classes[which] if isinstance(c, Gaussian)
             for k in (-1.0, 0.0, 1.0)]
    extra = [x for x in extra if xs[0] < x < xs[-1]]
    return np.unique(np.concatenate([xs, extra])) if extra else xs


def per_segment_reading(pair, eps: float, kind: str, window):
    """The first-order scan's segments read one at a time, as ``(a, b, xs,
    vals, is_plateau)``: each segment's points from ``unique_samples``,
    each class density read on them with its own ``pdf_array`` call, and off
    a plateau the log-density gap where both densities are subnormal or 0.
    ``conditions._segments`` reads all segments of a kind at once and must
    match this bit for bit."""
    from advbayes import conditions as fo
    from advbayes.density import TINY, log_gap

    plus, minus = (1, 0) if kind == "a" else (0, 1)
    lo, hi = fo._scan_bounds(pair, eps, window)
    if not lo < hi:
        return []
    edges = [lo] + [s for s in fo._shifted(pair.breakpoints, eps, kind) if lo < s < hi] + [hi]
    out = []
    for a, b in zip(edges, edges[1:]):
        m = max(9, int(round(fo.GRID_N * (b - a) / (hi - lo))) + 1)
        xs = unique_samples(pair, eps, kind, a, b, m)
        p_plus, p_minus = pair.pdf_array(plus, xs + eps), pair.pdf_array(minus, xs - eps)
        vals = p_plus - p_minus
        is_plateau = bool(np.max(np.abs(vals)) <= fo.TAU_PLATEAU)
        under = (p_plus < TINY) & (p_minus < TINY)
        if not is_plateau and under.any():
            vals[under] = log_gap(pair, plus, xs[under] + eps, minus, xs[under] - eps)
        out.append((a, b, xs, vals, is_plateau))
    return out


def per_run_sign_changes(sign, runs):
    """``conditions._sign_changes`` read one run of samples at a time: ``runs``
    is a list of ``(xs, vals)``, and each root's count runs on across runs.
    Within a run, a zero sample not between two zero samples is a root, and
    so is the run's last sample when zero; each pair of neighbours of
    opposite sign brackets a root found by ``itp_root``."""
    from advbayes import conditions as fo

    roots, n = [], 0
    for xs, vals in runs:
        for i in range(len(xs)):
            if vals[i] == 0.0:
                inner = 0 < i < len(xs) - 1 and vals[i - 1] == 0.0 and vals[i + 1] == 0.0
                if not inner:
                    roots.append((float(xs[i]), n + i + 1))
            elif i + 1 < len(xs) and (vals[i] > 0) != (vals[i + 1] > 0):
                roots.append((fo.itp_root(sign, float(xs[i]), float(xs[i + 1]), fo._BISECT_TOL),
                              n + i + 1))
        n += len(xs)
    return roots


# -- structure check across radii ---------------------------------------------------


def literal_monotonicity(pair, report1, report2) -> bool:
    """The structure check ``solver.check_monotonicity`` once was, verbatim
    but for its result: it builds a clipped ``IntervalSet`` per piece inside
    the loop over representative pairs, tests containment with
    ``contains_set``, and collects every violation.  Returns whether none
    was found (with the same errors for unordered reports and unmet
    assumptions)."""
    from advbayes.intervals import IntervalSet
    from advbayes.solver import AssumptionUnmet

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
        return ok

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
    return not violations


# -- report writer ---------------------------------------------------------------


def _literal_fmt_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if x == math.inf:
        return '"inf"'
    if x == -math.inf:
        return '"-inf"'
    return format(float(x), ".17g")


def literal_dumps(obj, indent: int = 0) -> str:
    """``reportio.dumps`` as it once was, verbatim: recursive, building each
    nested object's text as a string, and escaping only backslashes and
    double quotes in values (keys not at all).  On text without control
    characters, quotes or backslashes in keys, the one-pass writer must give
    the same bytes."""
    pad = " " * indent
    child = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _literal_fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: kv[0])
        rows = [f'{child}"{k}": {literal_dumps(v, indent + 2)}' for k, v in items]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{child}{literal_dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
