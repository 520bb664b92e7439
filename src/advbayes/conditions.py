"""Stationarity conditions for endpoints of optimal robust classifiers.

A left endpoint ``a`` of a candidate classifier must satisfy
``p1(a+eps) - p0(a-eps) = 0`` wherever both densities are continuous at the
shifted points, and a right endpoint ``b`` must satisfy
``p0(b+eps) - p1(b-eps) = 0``.  This module finds every solution inside the
admissible window: isolated roots by bracketing and the ITP root finder,
whole plateaus where the defect vanishes identically, and the
discontinuity-shifted points where the conditions are vacuous and any
endpoint location is admissible.

Each defect is the derivative of the adversarial risk in that endpoint, so
a candidate is a local maximum of the risk, never a minimizer's endpoint,
where the defect falls through it.  The scan reads that off its own
samples: a candidate's ``second_order`` is FAIL when the nearest nonzero
sample before it is positive and the nearest one after it is negative,
read across segment edges and past plateaus (for an ITP root these are
its bracket's ends), and PASS otherwise.  Jump points stay INCONCLUSIVE.

The scan cuts its range at the shifted density breakpoints and samples each
segment at evenly spaced points plus mu - sigma, mu and mu + sigma of every
Gaussian the defect reads.  The segments of both scan kinds are sampled as
one array, so each class density is read once per scan (the a-kind reads
class 1 at x + eps, the b-kind at x - eps, and class 0 the other way round),
and one pass over each kind's non-plateau samples finds its brackets.

On a pair with no Gaussian component, a segment where each component reads
one constant or linear row, nowhere clamped at 0, has a defect within a
rounding bound of a line, so its ends fix the sign of most samples: such a
segment reads its two ends, and on a sloped line also the samples around a
root that the ends cannot sign (``_undecided``).  A sample left unread has
the value of both read neighbours on a constant segment, and on a sloped
one their strict sign and |value| > TAU_PLATEAU, so the brackets, the
verdicts, the jumps and the plateau flags are those of the dense read.
Rows of degree 2 or more, clamped rows and Gaussian pairs read every
sample.

At eps = 0 the a-kind defect is ``p1 - p0``, so the same segment samples give
the boundary of the Bayes classifier {p1 > p0}; ``bayes_classifier`` reads
the a-kind segments only, and also splits each bracket between two samples
of one sign that it cannot prove root-free.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import (TINY, DistributionPair, Gaussian, PiecewisePoly, itp_root, log_gap,
                      signed_gap)
from .intervals import INF, Interval, IntervalSet

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

TAU_ROOT = 1e-10
TAU_PLATEAU = 1e-11
_BISECT_TOL = 1e-12
GRID_N = 2048  # defect samples per scan, spread over the scanned range
_SPLIT_BUDGET = 32  # midpoints read per same-sign bracket bayes_classifier cannot prove root-free
_LOG_SLACK = 1e-12  # relative rounding slack on log-density bounds


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


class ScanOverflow(ValueError):
    """The scanned range at a radius is too wide to sample in floats."""


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


def _gaussian_points(pair: DistributionPair, eps: float, kind: str) -> np.ndarray:
    """mu - sigma, mu and mu + sigma of every Gaussian the defect reads,
    shifted by -+eps like the breakpoints, sorted: a narrow bump, or a
    narrow piece of one sign around a mean, can lie between two evenly
    spaced samples."""
    plus, minus = _reads(kind)
    classes = (pair.class0, pair.class1)
    return np.array(sorted(c.mu + k * c.sigma + shift
                           for which, shift in ((plus, -eps), (minus, eps))
                           for c in classes[which] if isinstance(c, Gaussian)
                           for k in (-1.0, 0.0, 1.0)), dtype=float)


def _samples(extra: np.ndarray, a: float, b: float, m: int) -> np.ndarray:
    """Sample points of the scan segment [a, b]: ``m`` evenly spaced points
    just inside it, and the points of the sorted ``extra``
    (``_gaussian_points``) strictly between the first and the last of them.

    Each extra point goes where ``searchsorted`` puts it among the evenly
    spaced ones, and a point equal to the one before it is dropped, so the
    result is ``np.unique`` of both; with no extra point inside, the evenly
    spaced points as they are.
    """
    inset = (b - a) * 1e-9
    xs = np.linspace(a + inset, b - inset, m)
    inside = extra[np.searchsorted(extra, xs[0], side="right"):
                   np.searchsorted(extra, xs[-1], side="left")]
    if not len(inside):
        return xs
    at = np.searchsorted(xs, inside) + np.arange(len(inside))  # indices in the merged array
    merged = np.empty(len(xs) + len(inside))
    merged[at] = inside
    rest = np.ones(len(merged), dtype=bool)
    rest[at] = False
    merged[rest] = xs
    np.not_equal(merged[1:], merged[:-1], out=rest[1:])
    rest[0] = True
    return merged[rest]


def _fixed_row(poly: PiecewisePoly, y0: float, y1: float) -> tuple[float, float] | None:
    """``(c0, c1)`` of the line ``poly`` reads at every point of [y0, y1],
    ``(0.0, 0.0)`` where all of them lie outside its cells, or None: the
    ends lie in different cells, the cell's row has degree 2 or more, or its
    value at an end is below 0, where ``pdf`` clamps it."""
    j = poly._cell_index(y0)
    if j != poly._cell_index(y1):
        return None
    if j is None:  # outside the cells at both ends: on one side of them, or around them
        return (0.0, 0.0) if y1 < poly.breakpoints[0] or y0 > poly.breakpoints[-1] else None
    row = poly.coeffs[j]
    if any(row[2:]):
        return None
    c0, c1 = row[0], (row[1] if len(row) > 1 else 0.0)
    if c1 * y0 + c0 < 0.0 or c1 * y1 + c0 < 0.0:
        return None
    return c0, c1


def _undecided(classes, eps: float, kind: str, a: float, b: float, m: int) -> np.ndarray | None:
    """The samples of ``_samples(extra, a, b, m)`` that ``_segments`` reads
    on a pair with no Gaussian component, or None where it reads all ``m``.

    Sample k of ``np.linspace(start, stop, m)`` is ``k*step + start`` and
    the last is ``stop``, so any of them can be placed alone, with its
    bits; where the step rounds to 0 numpy takes another formula, and all
    are read.  Every class component is a ``PiecewisePoly``, and
    ``fl(x ± eps)`` is monotone in x, so where each component reads the same
    cell at the shifted first and last sample (``_fixed_row``) it reads that
    cell at every sample between.  If each such row is a line whose
    computed value is >= 0 at both ends, the computed rows are monotone and
    never clamped, and the computed defect is within ``delta`` of the exact
    line f(x) = sum of c0 + c1*(x ± eps) at every sample: ``delta`` bounds
    the rounding of x ± eps times each slope, of Horner's two steps
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, ch. 5), of the class sums and of their difference.

    - With every slope 0 each sample reads the same constants, so every
      value equals the two ends' bit for bit: only the ends are read.
    - Otherwise the value v(k) of a sample with |v(k)| > t = TAU_PLATEAU +
      2*delta has |f| > TAU_PLATEAU + delta there.  Between two such samples
      of one sign the line f keeps that bound, so every value there has
      their sign and |value| > TAU_PLATEAU, and is not read.  The ends are
      read, and where the first end is beyond t, a search over the indices
      finds a sample on its side beyond t whose next sample is not (where
      the last end is, one whose previous sample is not); the samples from
      the one found to the other are read.  Each search first reads the two
      samples around where the line through the ends' values meets its
      level, then bisects.  No sample whose value is near 0, subnormal or
      log-gap signed is skipped.
    - An end beyond t has |value| > TAU_PLATEAU, so the segment is no
      plateau, read densely or not.  Where neither end is beyond t, all
      samples are read.
    """
    inset = (b - a) * 1e-9
    start, stop = a + inset, b - inset
    step = (stop - start) / (m - 1)
    if step == 0.0:
        return None
    last = m - 1
    plus, minus = _reads(kind)
    terms = ([], [])  # per side, each component's (c0, c1) at x + eps and at x - eps
    scale = 0.0  # sum of |c0| + |c1|*|y| over the components, y the larger end
    for side, which, shift in ((0, plus, eps), (1, minus, -eps)):
        y0, y1 = start + shift, stop + shift
        for poly in classes[which]:
            row = _fixed_row(poly, y0, y1)
            if row is None:
                return None
            terms[side].append(row)
            scale += abs(row[0]) + abs(row[1]) * max(abs(y0), abs(y1))
    if not any(c1 for rows in terms for _, c1 in rows):
        return np.array([start, stop])
    n = len(terms[0]) + len(terms[1])
    delta = (n + 4) * 2.0**-52 * scale + n * TINY

    def value(k: int) -> float:
        """The computed defect at sample k, read as ``pdf_array`` reads it."""
        x = k * step + start if k < last else stop
        sums = []
        for rows, y in zip(terms, (x + eps, x - eps)):
            acc = 0.0
            for c0, c1 in rows:
                acc += c1 * y + c0
            sums.append(acc)
        return sums[0] - sums[1]

    ends = value(0), value(last)
    t = TAU_PLATEAU + 2.0 * delta
    side = lambda v: 1 if v > t else -1 if v < -t else 0
    first, final = map(side, ends)
    if not (first or final):
        return None
    if first == final:
        return np.array([start, stop])

    def split(holds, lo: int, hi: int, level: float) -> tuple[int, int]:
        """Neighbours lo, lo + 1 between the given lo and hi where ``holds``
        is true at lo and false at hi: first at the two samples around where
        the line through the ends meets ``level``, then by bisection."""
        at = (level - ends[0]) / (ends[1] - ends[0])
        guess = math.floor(at * last) if 0.0 <= at <= 1.0 else -1
        probes = [guess + 1, guess]
        while hi - lo > 1:
            k = probes.pop() if probes else -1
            if not lo < k < hi:
                k = (lo + hi) // 2
            if holds(k):
                lo = k
            else:
                hi = k
        return lo, hi

    i, j = 0, last
    if first:
        i = split(lambda k: side(value(k)) == first, 0, last, first * t)[0]
    if final:
        j = split(lambda k: side(value(k)) != final, i, last, final * t)[1]
    kept = ([0] if i else []) + list(range(i, min(j, last - 1) + 1))
    return np.array([k * step + start for k in kept] + [stop])


def _near_defect(pair: DistributionPair, eps: float, kind: str, lo: float,
                 hi: float) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """The kind's defect on [lo, hi] as ``(raw, sign)``: ``defect`` and its
    ``signed_gap``, bit for bit, with each class read through its
    ``DistributionPair.near`` reader of the shifted interval, so a root
    finder's reads inside one bracket share one window."""
    plus, minus = _reads(kind)
    near = pair.near(plus, lo + eps, hi + eps), pair.near(minus, lo - eps, hi - eps)
    p_plus, p_minus = near[0].pdf, near[1].pdf
    return (lambda x: p_plus(x + eps) - p_minus(x - eps),
            lambda x: signed_gap(pair, plus, x + eps, minus, x - eps, near))


def _sign_changes(near, xs: np.ndarray, vals: np.ndarray,
                  ends: list[int]) -> list[tuple[float, int, Callable[[float], float]]]:
    """Zero samples, and a root found by ``itp_root`` between each pair of
    neighbouring samples of opposite sign; each root with the number of
    samples up to and including its bracket's left end (a zero sample is its
    own left end) and the bracket's ``raw`` defect.

    ``near(lo, hi)`` gives ``(raw, sign)`` on [lo, hi] (``_near_defect``);
    the root finder reads ``sign`` of the bracket, and a zero sample x gets
    ``near(x, x)``'s ``raw``.

    The samples are runs laid end to end, each ending before the index in
    ``ends``.  No bracket spans two runs, and a zero sample is read within its
    run: one between two zero samples is dropped, since it lies inside a run
    where the two densities agree to rounding, and like a plateau's inner
    points it would only add endpoints that tie with the run's ends.  A run's
    first and last samples have no neighbour inside it, so a zero there is
    always kept.
    """
    pos = vals > 0
    zero = vals == 0.0
    inner = np.zeros_like(zero)
    inner[1:-1] = zero[:-2] & zero[1:-1] & zero[2:]
    hits = set(np.flatnonzero((zero & ~inner)[:-1] | (pos[:-1] != pos[1:])).tolist())
    start = 0
    for end in ends:
        if start < end:
            if zero[start]:
                hits.add(start)
            if zero[end - 1]:
                hits.add(end - 1)
            else:
                hits.discard(end - 1)
        start = end
    roots: list[tuple[float, int, Callable[[float], float]]] = []
    for i in sorted(hits):
        lo = float(xs[i])
        if zero[i]:
            roots.append((lo, i + 1, near(lo, lo)[0]))
        else:
            hi = float(xs[i + 1])
            raw, sign = near(lo, hi)
            roots.append((itp_root(sign, lo, hi, _BISECT_TOL), i + 1, raw))
    return roots


def _verdict(vals: np.ndarray, k: int) -> str:
    """FAIL where the last nonzero value of ``vals[:k]`` is positive and the
    first nonzero value of ``vals[k:]`` negative, PASS otherwise.

    The walks from k read only the zeros next to it: an ITP root's bracket
    ends are nonzero, so it reads just those two values.
    """
    i, j = k - 1, k
    while i >= 0 and vals[i] == 0.0:
        i -= 1
    while j < len(vals) and vals[j] == 0.0:
        j += 1
    return FAIL if i >= 0 and j < len(vals) and vals[i] > 0.0 > vals[j] else PASS


def _segments(pair: DistributionPair, eps: float, kinds: str,
              window: Interval) -> list[list[tuple[float, float, np.ndarray, np.ndarray, bool]]]:
    """The scan's segments of each kind in ``kinds`` ("ab" or "a"), each as
    ``(a, b, xs, vals, is_plateau)``, left to right.

    The scanned range ``_scan_bounds`` is cut at the kind's shifted density
    breakpoints, and each segment gets ``_samples`` with a share of GRID_N
    samples in proportion to its length, and at least 9, and the kind's
    ``_gaussian_points`` (built once per kind) that fall inside it.  On a
    pair with no Gaussian component a segment of constant or linear rows
    reads only the ``_undecided`` ones of those samples: its ends, and the
    samples around a root whose sign a rounding bound cannot fix.  A sample
    it leaves out has the value of the read samples on both sides, or their
    strict sign with |value| > TAU_PLATEAU (so never a log-gap value), and
    the ends decide the plateau flag as all samples would.  The
    samples of every segment of every kind form one array, so the scan reads
    each class density once: class 1 at x + eps for the a-kind and at x - eps
    for the b-kind, class 0 the other way round (an all-Gaussian class only on
    the points within each component's reach, which ``_GaussianSums`` finds
    after sorting the kinds' two sorted runs into one).  Each segment's ``xs`` and
    ``vals`` are views into it.  ``vals`` is the defect, and a segment is a
    plateau where |vals| <= TAU_PLATEAU at every sample.  Off a plateau, where
    both shifted densities are subnormal or 0 the value is the log-density
    gap of the kind, which carries the sign.  Only the sign of each sample
    picks the brackets of ``_sign_changes``; ``itp_root`` evaluates their
    ends again with the scalar ``signed_gap``'s bits, so roots equal a
    scalar-sampled scan's unless a sample is within rounding of zero (np.exp
    and math.exp may differ by one ulp).

    Empty lists when the range is empty; ``ScanOverflow`` when GRID_N times
    its width overflows.
    """
    lo, hi = _scan_bounds(pair, eps, window)
    if not lo < hi:
        return [[] for _ in kinds]
    if math.isinf(GRID_N * (hi - lo)):
        raise ScanOverflow(f"eps={eps!r} is too large: the scanned range [{lo!r}, {hi!r}] "
                           "is too wide to sample")
    # With no Gaussian component every segment may read a subset of its samples.
    classes = None if pair.has_gaussian(0) or pair.has_gaussian(1) else (pair.class0, pair.class1)
    spans, pieces = [], []  # per kind: (kind, edges, index of its first segment)
    for kind in kinds:
        edges = [lo] + [s for s in _shifted(pair.breakpoints, eps, kind) if lo < s < hi] + [hi]
        extra = _gaussian_points(pair, eps, kind)
        spans.append((kind, edges, len(pieces)))
        for a, b in zip(edges, edges[1:]):
            m = max(9, int(round(GRID_N * (b - a) / (hi - lo))) + 1)
            xs = None if classes is None else _undecided(classes, eps, kind, a, b, m)
            pieces.append(_samples(extra, a, b, m) if xs is None else xs)
    starts = list(itertools.accumulate(map(len, pieces), initial=0))
    xs = np.concatenate(pieces)
    # Each kind's samples, end to end, as a slice of xs: the a-kind reads
    # class 1 at x + eps and class 0 at x - eps, the b-kind the other way round.
    reads = [(slice(starts[first], starts[first + len(edges) - 1]), _reads(kind))
             for kind, edges, first in spans]
    at = np.empty_like(xs)
    p = []  # each class's density at its read points
    for c in (0, 1):
        for part, (plus, _) in reads:
            (np.add if c == plus else np.subtract)(xs[part], eps, out=at[part])
        p.append(pair.pdf_array(c, at))
    vals, under = np.empty_like(xs), np.empty(len(xs), dtype=bool)
    for part, (plus, minus) in reads:
        np.subtract(p[plus][part], p[minus][part], out=vals[part])
        np.logical_and(p[plus][part] < TINY, p[minus][part] < TINY, out=under[part])
    flat = (np.maximum.reduceat(np.abs(vals), starts[:-1]) <= TAU_PLATEAU).tolist()
    for s, e, is_plateau in zip(starts, starts[1:], flat):
        if is_plateau:
            under[s:e] = False
    out = []
    for (kind, edges, first), (part, (plus, minus)) in zip(spans, reads):
        u = under[part]
        if u.any():
            x = xs[part][u]
            vals[part][u] = log_gap(pair, plus, x + eps, minus, x - eps)
        bounds = starts[first:first + len(edges)]
        out.append([(a, b, xs[s:e], vals[s:e], is_plateau) for a, b, s, e, is_plateau
                    in zip(edges, edges[1:], bounds, bounds[1:], flat[first:])])
    return out


def _scan_kind(pair: DistributionPair, eps: float, kind: str,
               segments: list[tuple[float, float, np.ndarray, np.ndarray, bool]]
               ) -> list[CandidatePoint]:
    """The kind's candidates, read off its ``_segments``."""
    g = lambda x: defect(pair, eps, kind, x)
    if not segments:
        return []
    lo, hi = segments[0][0], segments[-1][1]

    # Each root and plateau with the number of non-plateau samples before its
    # right side: the verdicts read the samples on both sides of it.  A root
    # also keeps its bracket's defect, which gives its residual.
    roots: dict[float, tuple[int, Callable[[float], float]]] = {}
    # Maximal plateau runs, reported as closed hulls of their segments.
    plateaus: list[tuple[float, float, int]] = []
    # Sign changes across a defect breakpoint: the endpoint location is
    # admissible there even though the defect never vanishes.
    jumps: list[float] = []
    runs_x: list[np.ndarray] = []  # the non-plateau segments' samples
    runs_v: list[np.ndarray] = []  # and their values
    ends: list[int] = []  # the number of non-plateau samples up to each run's end
    n = 0
    prev = 0.0  # the previous segment's last value, 0 after a plateau
    for a, b, xs, vals, is_plateau in segments:
        if is_plateau:
            if plateaus and plateaus[-1][1] == a:
                plateaus[-1] = (plateaus[-1][0], b, n)
            else:
                plateaus.append((a, b, n))
            prev = 0.0
            continue
        if prev != 0.0 and vals[0] != 0.0 and (prev > 0) != (vals[0] > 0):
            jumps.append(a)
        prev = float(vals[-1])
        runs_x.append(xs)
        runs_v.append(vals)
        n += len(vals)
        ends.append(n)
    values = np.zeros(0)
    if runs_v:
        values = np.concatenate(runs_v)
        near = functools.partial(_near_defect, pair, eps, kind)
        for r, k, raw in _sign_changes(near, np.concatenate(runs_x), values, ends):
            roots.setdefault(r, (k, raw))

    out: list[CandidatePoint] = []
    taken: list[float] = []  # kept sorted
    for p_lo, p_hi, k in plateaus:
        out.append(CandidatePoint(kind=kind, plateau=(p_lo, p_hi),
                                  second_order=_verdict(values, k), residual=0.0))
        bisect.insort(taken, p_lo)
        bisect.insort(taken, p_hi)
    for r, (k, raw) in sorted(roots.items()):
        if near_sorted(taken, r, 1e-11, relative=True):
            continue
        out.append(CandidatePoint(kind=kind, location=r, second_order=_verdict(values, k),
                                  residual=raw(r)))
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
    a_segments, b_segments = _segments(pair, eps, "ab", window)
    return FirstOrderScan(a_candidates=_scan_kind(pair, eps, "a", a_segments),
                          b_candidates=_scan_kind(pair, eps, "b", b_segments),
                          window=window, window_widened=widened)


def bayes_classifier(pair: DistributionPair) -> IntervalSet:
    """Open set where class 1 is the more likely label, read off the a-kind
    scan segments at eps = 0, where the defect is p1 - p0.

    The critical points are the density breakpoints and the sign changes of
    every segment's samples, plateau segments included: there |p1 - p0| <=
    TAU_PLATEAU, but the sign can still change where both densities are that
    small.  Plateau samples are raw p1 - p0, and a sample where that is 0
    takes the log-density gap, which carries the sign where both densities
    underflow to 0.  Samples still 0 (both densities vanish identically, or
    their logs tie) are not scanned: such a run is bridged by its
    neighbours, and a crossing inside it is found on the log-density gap.
    The samples hold every Gaussian's mu and mu +- sigma, like the
    first-order scan's, and ``_split_same_sign`` adds one inside each
    bracket of one sign where it finds a stretch of the other: a stretch
    narrower than the sample step can lie between two samples.  The set is
    literal on the scanned range [lo_ext - 1, hi_ext + 1] of
    ``finite_extent`` and constant on each side of it: a crossing beyond that
    range is dropped even where the densities have not underflowed to 0.
    """
    near = functools.partial(_near_defect, pair, 0.0, "a")
    pts = set(pair.breakpoints(0)) | set(pair.breakpoints(1))
    plateaus: list[tuple[float, float]] = []
    runs_x: list[np.ndarray] = []
    runs_v: list[np.ndarray] = []
    ends: list[int] = []
    n = 0
    [segments] = _segments(pair, 0.0, "a", scan_window(pair, 0.0)[0])
    for a, b, xs, vals, is_plateau in segments:
        if is_plateau:
            plateaus.append((a, b))
            zero = vals == 0.0
            if zero.any():
                vals[zero] = log_gap(pair, 1, xs[zero], 0, xs[zero])
            keep = vals != 0.0
            xs, vals = xs[keep], vals[keep]
        runs_x.append(xs)
        runs_v.append(vals)
        n += len(vals)
        ends.append(n)
    if n:
        xs, vals, ends = _split_same_sign(pair, near, np.concatenate(runs_x),
                                          np.concatenate(runs_v), ends)
        pts.update(r for r, _, _ in _sign_changes(near, xs, vals, ends))
    return _positive_set(pair, sorted(pts), plateaus)


class _LogRange:
    """Bounds on one class's log-density over each bracket of sorted points.

    A component is monotone between its ``turning_points``, so on [u, v] it
    lies between the least and the greatest of its values at u, v and the
    turning points inside; the class's bounds are the log-sums of the
    components' bounds.
    """

    def __init__(self, components):
        self.parts = []
        for c in components:
            tx, tv = np.array(c.turning_points()).T
            with np.errstate(divide="ignore"):
                self.parts.append((c, tx, np.log(tv)))

    def bounds(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Least and greatest log-density on each [xs[i], xs[i+1]]."""
        lows, highs = [], []
        for c, tx, tlog in self.parts:
            with np.errstate(over="ignore", divide="ignore"):
                v = c.logpdf_array(xs)
            lo, hi = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
            i = np.searchsorted(xs, tx) - 1  # xs[i] < tx <= xs[i + 1]
            inside = (i >= 0) & (i < len(xs) - 1)
            np.minimum.at(lo, i[inside], tlog[inside])
            np.maximum.at(hi, i[inside], tlog[inside])
            lows.append(lo)
            highs.append(hi)
        return np.logaddexp.reduce(lows, axis=0), np.logaddexp.reduce(highs, axis=0)


def _above(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``lo`` exceeds ``hi`` by more than a rounding slack of 1e-12 relative."""
    return lo > hi + _LOG_SLACK * (1.0 + np.abs(np.where(np.isfinite(hi), hi, 0.0)))


def _root_free(ranges: tuple[_LogRange, _LogRange], xs: np.ndarray,
               positive: np.ndarray) -> np.ndarray:
    """Brackets [xs[i], xs[i+1]] where p1 - p0 provably keeps the sign
    ``positive[i]``: the two classes' log-density ranges there are apart."""
    lo0, hi0 = ranges[0].bounds(xs)
    lo1, hi1 = ranges[1].bounds(xs)
    return np.where(positive, _above(lo1, hi0), _above(lo0, hi1))


def _split_same_sign(pair: DistributionPair, near, xs: np.ndarray, vals: np.ndarray,
                     ends: list[int]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The samples of ``_sign_changes``, with a sample of the other sign (or
    0) added inside each same-sign bracket that holds one.

    A bracket between two nonzero samples of one sign is root-free where
    ``_root_free`` says so.  Otherwise it is halved, breadth first, and each
    midpoint's sign read (``near``'s, as in ``_sign_changes``), until a
    midpoint of the other sign or 0 is found, every piece is root-free, or
    _SPLIT_BUDGET midpoints are spent; the last leaves the bracket as it
    was, as a touch point (a double root of p1 - p0) always does.
    """
    ranges = (_LogRange(pair.class0), _LogRange(pair.class1))
    pos = vals > 0
    same = (vals[:-1] != 0.0) & (vals[1:] != 0.0) & (pos[:-1] == pos[1:])
    last = np.array(ends[:-1], dtype=int) - 1
    same[last[last >= 0]] = False  # no bracket spans two runs
    i_same = np.flatnonzero(same)
    open_ = i_same[~_root_free(ranges, xs, pos[:-1])[i_same]]
    at, added = [], []
    for i in open_.tolist():
        u, v = float(xs[i]), float(xs[i + 1])
        found = _search_bracket(ranges, near(u, v)[1], u, v, bool(pos[i]))
        if found is not None:
            at.append(i + 1)
            added.append(found)
    if not at:
        return xs, vals, ends
    new_x, new_v = np.array(added).T
    shift = np.searchsorted(at, ends, side="right")
    return (np.insert(xs, at, new_x), np.insert(vals, at, new_v),
            [e + k for e, k in zip(ends, shift.tolist())])


def _search_bracket(ranges: tuple[_LogRange, _LogRange], sign, u: float, v: float,
                    positive: bool) -> tuple[float, float] | None:
    """``(x, sign(x))`` for a midpoint in (u, v) whose sign is not
    ``positive``'s, or None; see ``_split_same_sign``."""
    queue = collections.deque([(u, v)])
    for _ in range(_SPLIT_BUDGET):
        if not queue:
            return None
        a, b = queue.popleft()
        m = 0.5 * (a + b)
        if not a < m < b:
            continue
        s = sign(m)
        if s == 0.0 or (s > 0.0) != positive:
            return m, s
        pieces = np.array([a, m, b])
        free = _root_free(ranges, pieces, np.array([positive, positive]))
        queue.extend(piece for piece, f in zip([(a, m), (m, b)], free.tolist()) if not f)
    return None


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
