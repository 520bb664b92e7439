"""Independent verification: grid primal minimizer and a discretized dual.

The primal side minimizes the adversarial risk over every classifier that
is a union of at most ``maxK`` intervals with endpoints on a uniform grid
(plus ∅ and ℝ).  The minimum is computed by a layered shortest-path pass
that is value-equivalent to literally enumerating all such unions: risk
contributions are local to consecutive endpoints, including the exact
mass corrections when nearby pieces' dilations overlap.

The dual side places one atom per grid cell at the cell midpoint and
matches class-0 against class-1 atom mass at midpoint distance at most
2*eps + h (h the grid step); matched mass counts toward the dual value.
On a line this is a transportation matching, solved exactly by the
leftmost-first greedy, written as one recurrence over the class-0 atoms in
cumulative class-1 mass.  Points of two matched cells can lie 2*eps + 2*h
apart, so the dual value is no floor under the continuous risk: on
``degenerate`` at eps 0.05 and h 1e-3 it is 0.04040 against a solver
minimum of 0.04000.  The gap therefore says how closely the two
discretizations agree, not that either is optimal; a dual that is a true
lower bound (midpoints within 2*eps - h) is ROADMAP item 2.

Both halves are linear in the grid size: the primal's sliding window
minimum is the van Herk / Gil-Werman block prefix/suffix minimum, and the
dual makes one pass over the atoms.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .density import DistributionPair, itp_root
from .intervals import INF, Interval, IntervalSet

# Float64 values the grid primal may hold at once (400 MB).  The DP keeps
# 2 * max_k layers of n values plus scratch arrays of n values: measured at
# 8.4 to 13 of them, the most when the dilation window spans the grid.
WORK_BUDGET = 50_000_000
_DP_SCRATCH = 14
_SWEEP_CHUNK = 8192  # class-0 atoms per pass of the dual loop


class BudgetExceeded(RuntimeError):
    """The grid primal would hold more values than the configured budget."""


def dp_slots(n: int, max_k: int) -> int:
    """Float64 values the grid primal holds at once on n grid points."""
    return n * (2 * max_k + _DP_SCRATCH)


@dataclass(frozen=True)
class AtomList:
    positions: np.ndarray
    masses: np.ndarray
    klass: int

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        mas = np.asarray(self.masses, dtype=float)
        if pos.shape != mas.shape or pos.ndim != 1:
            raise ValueError("positions and masses must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(mas))):
            raise ValueError("positions and masses must be finite")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if np.any(mas < 0):
            raise ValueError("masses must be nonnegative")
        if self.klass not in (0, 1):
            raise ValueError("klass must be 0 or 1")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    def __len__(self) -> int:
        return len(self.positions)

    def total(self) -> float:
        return float(math.fsum(self.masses))


@dataclass
class DualCertificate:
    """The dual value and the class-1 mass each class-0 atom consumed.

    Class-0 atom ``rows[t]`` consumed the stretch ``(start[t], end[t])`` of
    cumulative class-1 mass ``c1``; class-1 atoms from ``hi[t]`` on are out
    of its reach.  A pair is a class-1 atom whose cell
    ``(c1[j], c1[j + 1])`` overlaps that stretch by a positive length, and
    the overlap is its mass.  ``matching`` expands the pairs each time it
    is read.
    """

    dual_value: float
    grid_h: float
    pairing_radius: float
    c1: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)
    end: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)

    def _cell_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per stretch, the class-1 atoms ``first <= j < stop`` it can overlap.

        A stretch starts at or above the cells left of its reach, so only
        ``stop`` needs a bound: rounding can put ``end`` an ulp past
        ``c1[hi]``.
        """
        first = np.searchsorted(self.c1[1:], self.start, "right")
        stop = np.minimum(np.searchsorted(self.c1[:-1], self.end, "left"), self.hi)
        return first, np.maximum(first, stop)

    @property
    def matching(self) -> list[tuple[int, int, float]]:
        """(class-0 index, class-1 index, mass) for every pair, in sweep order."""
        first, stop = self._cell_ranges()
        counts = stop - first
        owner = np.repeat(np.arange(len(counts)), counts)
        j = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts) + first[owner]
        mass = (np.minimum(self.c1[j + 1], self.end[owner])
                - np.maximum(self.c1[j], self.start[owner]))
        keep = mass > 0.0
        return list(zip(self.rows[owner[keep]].tolist(), j[keep].tolist(), mass[keep].tolist()))

    def matching_stats(self) -> dict:
        # The overlap is positive exactly on the nonempty cells of each range.
        first, stop = self._cell_ranges()
        nonempty = np.concatenate([[0], np.cumsum(self.c1[1:] > self.c1[:-1])])
        return {
            "n_pairs": int(np.sum(nonempty[stop] - nonempty[first])),
            "matched_mass": self.dual_value,
            "max_pair_distance": self.pairing_radius,
        }


@dataclass
class GapReport:
    primal: float
    dual: float
    gap: float
    argmin: IntervalSet
    certificate: DualCertificate
    grid_h: float
    max_k: int


def _quantile(pair: DistributionPair, which: int, q: float) -> float:
    """x with cdf(x) = q * total to 1e-12, by ``itp_root`` over the finite extent."""
    lo, hi = pair.finite_extent()
    target = q * pair.total_mass(which)
    return itp_root(lambda x: pair.cdf(which, x) - target, lo, hi, 1e-12)


def _tight_window(pair: DistributionPair, tail: float = 1e-7) -> tuple[float, float]:
    """Window leaving at most ``tail`` of each class's mass per side."""
    lo = min(_quantile(pair, 0, tail), _quantile(pair, 1, tail))
    hi = max(_quantile(pair, 0, 1.0 - tail), _quantile(pair, 1, 1.0 - tail))
    return lo, hi


def discretize(pair: DistributionPair, grid_h: float) -> tuple[AtomList, AtomList]:
    """Cell-midpoint atoms with exact cell masses for both classes.

    The cells tile ``pair.finite_extent()``: it spans 10 sigma each side of
    every Gaussian and the hull of every piecewise component, so it leaves
    out about 1.5e-23 of each component's weight.
    """
    if grid_h <= 0:
        raise ValueError("grid_h must be positive")
    lo, hi = pair.finite_extent()
    n_cells = max(1, int(math.ceil((hi - lo) / grid_h - 1e-12)))
    edges = np.linspace(lo, hi, n_cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = []
    for which in (0, 1):
        cdf = pair.cdf_array(which, edges)
        masses = np.diff(cdf)
        keep = masses > 0
        out.append(AtomList(positions=mids[keep], masses=masses[keep], klass=which))
    return out[0], out[1]


def dual_value(
    class0: AtomList,
    class1: AtomList,
    eps: float,
    grid_h: float = 0.0,
) -> DualCertificate:
    """Maximum mass matchable between the classes at distance <= 2*eps + grid_h.

    The leftmost-first greedy: sweep the class-0 atoms left to right, each
    feeding the leftmost compatible class-1 atoms that still have capacity;
    an exchange argument gives optimality for the two-sided-window
    compatibility structure.  In cumulative class-1 mass ``C1`` the greedy
    consumes a growing prefix, so with ``L_i <= j < R_i`` the class-1 atoms
    within reach of atom i (two ``searchsorted`` calls) it is one
    recurrence on the consumed frontier ``u``:

        u = max(u, C1[L_i]);  take_i = min(m0_i, C1[R_i] - u);  u += take_i

    for the positive takes.  The dual value is the ``math.fsum`` of the
    takes as the moves of ``u`` they make, so it is the mass the consumed
    stretches cover; the certificate keeps each stretch and expands the
    pairs only when ``matching`` is read.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    radius = 2.0 * eps + grid_h
    pos0, pos1 = class0.positions, class1.positions
    c1 = np.concatenate([[0.0], np.cumsum(class1.masses)])
    lo = np.searchsorted(pos1, pos0 - radius, "left")
    hi = np.searchsorted(pos1, pos0 + radius, "right")
    # Python floats run the loop fastest; chunks keep their lists short, and
    # array buffers keep the result compact.
    rows, ends = array("q"), array("d")
    u = 0.0
    for s in range(0, len(pos0), _SWEEP_CHUNK):
        part = slice(s, s + _SWEEP_CHUNK)
        for i, (m, floor, ceil) in enumerate(zip(class0.masses[part].tolist(),
                                                 c1[lo[part]].tolist(),
                                                 c1[hi[part]].tolist()), s):
            if u < floor:
                u = floor
            take = ceil - u
            if m < take:
                take = m
            if take > 0.0 and u + take > u:  # a take below the rounding of u moves nothing
                rows.append(i)
                u += take
                ends.append(u)
    idx = np.frombuffer(rows, dtype=np.int64)
    end = np.frombuffer(ends, dtype=float)
    # C1[L_i] never decreases, so u before a stretch is the larger of the
    # previous stretch's end and the atom's own floor.
    start = np.maximum(np.concatenate([[0.0], end[:-1]]), c1[lo[idx]])
    return DualCertificate(
        dual_value=float(math.fsum((end - start).tolist())),
        grid_h=grid_h,
        pairing_radius=radius,
        c1=c1,
        rows=idx,
        start=start,
        end=end,
        hi=hi[idx],
    )


# -- grid primal --------------------------------------------------------------


def _prefix_min_shifted(v: np.ndarray, shift: int) -> np.ndarray:
    """out[k] = min(v[0 .. k-shift]), +inf where the range is empty."""
    n = len(v)
    out = np.full(n, np.inf)
    if shift < n:
        pm = np.minimum.accumulate(v)
        out[shift:] = pm[: n - shift]
    return out


def _window_min(v: np.ndarray, width: int) -> np.ndarray:
    """out[k] = min(v[k-width .. k-1]), +inf where the range is empty.

    The van Herk / Gil-Werman block minimum, O(n) for any width: on
    ``u = [inf] * width + v``, padded with +inf to whole blocks of
    ``width``, a window ``u[k .. k+width-1]`` is the tail of one block and
    the head of the next, so its minimum is that of the block's backward
    running minimum at k and the forward one at k + width - 1.
    """
    n = len(v)
    width = min(width, n)
    if width <= 0:
        return np.full(n, np.inf)
    blocks = -(-(n + width) // width)
    u = np.full(blocks * width, np.inf)
    u[width:width + n] = v
    u = u.reshape(blocks, width)
    forward = np.minimum.accumulate(u, axis=1).ravel()
    backward = np.minimum.accumulate(u[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(backward[:n], forward[width - 1:width - 1 + n])


class _PrimalDP:
    """Layered shortest path over alternating grid endpoints.

    ``layers[L][i]`` is the least cost of the pieces up to the L-th
    endpoint (counting from 0) when that endpoint sits at ``xs[i]``.  Even layers are left
    endpoints: a class-1 complement piece just ended, and ``L // 2``
    intervals are complete.  Odd layers are right endpoints: a class-0
    interval just ended, and ``(L + 1) // 2`` intervals are complete.
    Layer 0 starts with the leading complement ``(-inf, xs[i])``, and
    layer 1 may start with the leading interval ``(-inf, xs[i])``.  Edge
    costs carry the mass of the dilated piece in its class, with the
    overlap of consecutive dilations subtracted exactly (it is nonzero only
    within ``floor(2*eps/h)`` grid steps, which keeps transitions
    separable).
    """

    def __init__(self, pair: DistributionPair, eps: float, xs: np.ndarray, max_k: int):
        self.xs = xs
        self.max_k = max_k
        n = len(xs)
        # Per class c: cdf at xs + eps, cdf at xs - eps, total mass.
        self.fp = tuple(pair.cdf_array(c, xs + eps) for c in (0, 1))
        self.fm = tuple(pair.cdf_array(c, xs - eps) for c in (0, 1))
        self.m = (pair.total_mass(0), pair.total_mass(1))
        h = xs[1] - xs[0] if n > 1 else 1.0
        self.d_steps = int(math.floor(2.0 * eps / h + 1e-9))

    def _step(self, prev: np.ndarray, c: int) -> np.ndarray:
        """Next layer, whose edges add a dilated piece of class ``c``."""
        fp, fm, op, om = self.fp[c], self.fm[c], self.fp[1 - c], self.fm[1 - c]
        sep = _prefix_min_shifted(prev - fm, self.d_steps + 1)
        win = _window_min(prev - fm - op, self.d_steps) + om
        return fp + np.minimum(sep, win)

    def _edge_costs(self, prev: np.ndarray, k: int, c: int) -> np.ndarray:
        """Costs of reaching node ``k`` of the next layer from each ``prev[:k]``."""
        fp, fm, op, om = self.fp[c], self.fm[c], self.fp[1 - c], self.fm[1 - c]
        v = prev[:k] - fm[:k]
        lo = max(0, k - self.d_steps)
        v[lo:] -= op[lo:k] - om[k]
        return v + fp[k]

    def run(self) -> tuple[float, IntervalSet]:
        layers = [self.fp[1]]
        for layer in range(1, 2 * self.max_k):
            nxt = self._step(layers[-1], (layer + 1) % 2)
            if layer == 1:
                nxt = np.minimum(nxt, self.fp[0])  # leading half-infinite interval
            layers.append(nxt)

        best, argmin, state = self.m[1], IntervalSet.empty(), None
        if self.m[0] < best:
            best, argmin = self.m[0], IntervalSet.reals()
        # Right-endpoint layers first, then left-endpoint layers: the strict
        # ``<`` keeps the first of tied minima.  The trailing piece is a
        # class-1 complement after a right endpoint, a class-0 interval
        # after a left one.
        n_layers = len(layers)
        for layer in [*range(1, n_layers, 2), *range(0, n_layers, 2)]:
            t = layer % 2
            totals = layers[layer] + (self.m[t] - self.fm[t])
            j = int(np.argmin(totals))
            if totals[j] < best:
                best, state = float(totals[j]), (layer, j)
        if state is not None:
            argmin = self._reconstruct(layers, *state)
        return best, argmin

    def _reconstruct(self, layers: list[np.ndarray], layer: int, idx: int) -> IntervalSet:
        xs = self.xs
        pieces: list[Interval] = []
        right = INF  # right end of the interval that a left endpoint opens
        while True:
            if layer % 2 == 0:
                pieces.append(Interval(xs[idx], right))
                if layer == 0:
                    break  # leading complement (-inf, xs[idx])
            else:
                right = xs[idx]
            costs = self._edge_costs(layers[layer - 1], idx, (layer + 1) % 2)
            if layer == 1 and (idx == 0 or self.fp[0][idx] <= float(np.min(costs)) + 1e-15):
                pieces.append(Interval(-INF, right))
                break
            idx = int(np.argmin(costs))
            layer -= 1
        return IntervalSet(reversed(pieces))


def primal_bruteforce(
    pair: DistributionPair,
    eps: float,
    grid_h: float,
    max_k: int = 2,
    window: tuple[float, float] | None = None,
) -> tuple[float, IntervalSet]:
    """Minimum adversarial risk over unions of <= max_k grid-endpoint intervals."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    if grid_h <= 0:
        raise ValueError("grid_h must be positive")
    if window is None:
        # Finite endpoints never help deep in the tails: a half-infinite
        # piece covers them, so a 1e-7-per-side quantile window is exact to
        # well below the certification tolerance.
        lo, hi = _tight_window(pair)
        lo, hi = lo - eps, hi + eps
    else:
        lo, hi = window
    n = int(round((hi - lo) / grid_h)) + 1
    slots = dp_slots(n, max_k)
    if slots > WORK_BUDGET:
        raise BudgetExceeded(f"grid primal needs {slots:.2e} values (n = {n}, max_k = {max_k}), "
                             f"over the budget of {WORK_BUDGET:.0e}")
    xs = lo + grid_h * np.arange(n)
    return _PrimalDP(pair, eps, xs, max_k).run()


def duality_gap(
    pair: DistributionPair,
    eps: float,
    grid_h: float = 1e-3,
    max_k: int = 2,
) -> GapReport:
    """Primal grid minimum, dual matched mass, and their difference."""
    primal, argmin = primal_bruteforce(pair, eps, grid_h, max_k)
    atoms0, atoms1 = discretize(pair, grid_h)
    cert = dual_value(atoms0, atoms1, eps, grid_h)
    return GapReport(
        primal=primal,
        dual=cert.dual_value,
        gap=primal - cert.dual_value,
        argmin=argmin,
        certificate=cert,
        grid_h=grid_h,
        max_k=max_k,
    )
