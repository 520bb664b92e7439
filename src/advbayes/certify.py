"""Independent verification: grid primal minimizer and a discretized dual.

The primal side minimizes the adversarial risk over every classifier that
is a union of at most ``maxK`` intervals with endpoints on a uniform grid
(plus ∅ and ℝ).  Both sides lay one lattice over the pair's 5.2-sigma
extent (``_lattice_extent``).  By default the primal's grid is the lattice
``k * h - eps`` (h the grid step) over that extent widened by eps.  The
minimum is computed by a layered shortest-path pass that is
value-equivalent to literally enumerating all such unions: risk
contributions are local to consecutive endpoints, including the exact mass
corrections when nearby pieces' dilations overlap.

The dual side tiles the extent with the cells [k * h, (k + 1) * h], each
exactly one step wide; the first and the last cell also carry the class
mass beyond them, so no mass is lost.  It matches class-0 against class-1
cell mass at midpoint distance at most 2*eps + h; matched mass counts
toward the dual value.  Midpoints of cells k steps apart lie k * h apart,
so every cell reaches the same whole number of cells on each side, the
largest k with k * h <= 2*eps + h, decided exactly on the float inputs.
On a line this is a transportation matching, solved exactly by the
leftmost-first greedy, whose step for each class-0 cell is a clamp map in
cumulative class-1 mass.  Points of two matched cells can lie 2*eps + 2*h
apart, so the dual value is no floor under the continuous risk: on
``degenerate`` at eps 0.05 and h 1e-3 it is 0.04040 against a solver
minimum of 0.04000.  The gap therefore says how closely the two
discretizations agree, not that either is optimal; a dual that is a true
lower bound (midpoints within 2*eps - h, so that on cells one step wide
every two points of matched cells lie within 2*eps) is ROADMAP item 4.

``duality_gap`` reads each class CDF once on the lattice ``k * h``: the
primal's grid points plus eps and the dual's cell ends are the same points.
Its only other read is the primal's, at the grid points minus eps.
``discretize`` and ``dual_value`` give the same dual on atoms at the cell
midpoints, whose reach two ``searchsorted`` calls find; where 2*eps / h is
a whole number, rounding of the midpoints decides their reach atom by atom.

The primal is linear in the grid size: its sliding window minimum is the
van Herk / Gil-Werman block prefix/suffix minimum, taken in place in
scratch reused by every layer.  Its running minima and the greedy's
running maximum are ``np.fmin`` / ``np.fmax`` accumulates, which give
``np.minimum`` / ``np.maximum``'s values faster but skip NaN, so every CDF
read is refused if it holds one.  The dual is a prefix scan of the clamp
maps (Hillis-Steele), log2(n) numpy passes of ``max`` and ``min`` with no
Python step per cell or atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import DistributionPair
from .intervals import INF, Interval, IntervalSet

# Float64 values the grid primal or the cell dual may hold at once (400 MB).
# Besides its 2 * max_k layers of n values the primal holds the grid, four
# CDF arrays, two scratch arrays and a window-minimum pad of under 2 n;
# reading the CDF arrays peaks higher at max_k = 1.  tracemalloc measured at
# most 9.4 arrays of n values besides the layers on the built-ins at
# n >= 2,000.
WORK_BUDGET = 50_000_000
_DP_SCRATCH = 10
# Float64 values the cell dual holds per cell, its two lattice reads
# included: tracemalloc measured at most 22.6 on the built-ins at h = 1e-3
# and 1e-4, by either ``discretize`` and ``dual_value`` or ``duality_gap``.
_DUAL_SLOTS = 23


class BudgetExceeded(RuntimeError):
    """The grid primal or the cell dual would hold more values than the budget."""


def dp_slots(n: float, max_k: int) -> float:
    """Float64 values the grid primal holds at once on n grid points."""
    return n * (2 * max_k + _DP_SCRATCH)


def _within_budget(what: str, n: float, per_point: float, sizes: str) -> int:
    """``int(n)``, once n points of ``per_point`` values each fit ``WORK_BUDGET``.

    n is a float, so a grid_h tiny enough to make it huge or infinite is
    refused here, before anything is allocated.
    """
    slots = n * per_point
    if slots > WORK_BUDGET:
        raise BudgetExceeded(f"{what} needs {slots:.2e} values ({sizes}), "
                             f"over the budget of {WORK_BUDGET:.0e}")
    return int(n)


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
    """The dual value and the class-1 mass each class-0 entry consumed.

    The entries are atoms for ``dual_value``; in density mode
    (``duality_gap``) they are lattice cells, ``rows`` and the class-1
    indices counting cells from the extent's lower end.  Class-0 entry
    ``rows[t]`` consumed the stretch ``(start[t], end[t])`` of cumulative
    class-1 mass ``c1``, a stretch inside its reach ``c1[L] .. c1[R]``
    (``L .. R - 1`` the class-1 entries within the pairing radius).  A pair
    is a class-1 entry whose cell ``(c1[j], c1[j + 1])`` overlaps that
    stretch by a positive length, and the overlap is its mass.
    ``matching`` expands the pairs each time it is read.
    """

    dual_value: float
    pairing_radius: float
    c1: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    start: np.ndarray = field(repr=False)
    end: np.ndarray = field(repr=False)

    def _cell_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per stretch, the class-1 entries ``first <= j < stop`` it can overlap.

        A stretch is not empty and lies inside its reach ``c1[L] .. c1[R]``,
        so ``L <= first < stop <= R``.
        """
        first = np.searchsorted(self.c1[1:], self.start, "right")
        return first, np.searchsorted(self.c1[:-1], self.end, "left")

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


@dataclass
class GapReport:
    primal: float
    gap: float
    argmin: IntervalSet
    certificate: DualCertificate
    grid_h: float
    max_k: int


def _lattice_extent(pair: DistributionPair, grid_h: float) -> tuple[float, float]:
    """``pair.extent(5.2)``, its lower end moved down onto the lattice ``k * grid_h``.

    Both halves of the certificate lay their grids from here: the primal's
    default window widens it by eps, and the dual's cells tile it.  Past 5.2
    sigma a Gaussian leaves ndtr(-5.2) = 9.96e-8 of its weight, so each class
    leaves at most 1e-7 of its mass per side.  np.floor keeps a tiny grid_h's
    infinite k for the primal's budget check.
    """
    lo, hi = pair.extent(5.2)
    return grid_h * float(np.floor(lo / grid_h)), hi


def _cell_count(lo: float, hi: float, grid_h: float) -> int:
    """Cells [k * grid_h, (k + 1) * grid_h] that tile ``lo .. hi``, within the budget."""
    cells = np.ceil((hi - lo) / grid_h)  # a float: a tiny grid_h makes it huge or inf
    return _within_budget("cell dual", cells, _DUAL_SLOTS, f"{cells:.6g} cells")


def _read_cdf(pair: DistributionPair, which: int, xs: np.ndarray) -> np.ndarray:
    """``pair.cdf_array(which, xs)``, refused with ``ValueError`` if it holds NaN.

    The running extrema of the grid primal and of the greedy are ``np.fmin``
    and ``np.fmax`` accumulates, which skip a NaN that ``np.minimum`` would
    pass on, so a NaN read would otherwise give a wrong value silently.
    """
    cdf = pair.cdf_array(which, xs)
    if np.isnan(cdf).any():
        raise ValueError(f"class {which} CDF reads NaN on the certificate's grid")
    return cdf


def _cell_masses(pair: DistributionPair, which: int, cdf: np.ndarray) -> np.ndarray:
    """Class mass of each cell between consecutive lattice reads ``cdf``.

    The first and the last cell also carry the class mass beyond them, so
    the cells hold the class's whole mass.
    """
    return np.diff(np.concatenate([[0.0], cdf[1:-1], [pair.total_mass(which)]]))


def discretize(pair: DistributionPair, grid_h: float) -> tuple[AtomList, AtomList]:
    """Cell-midpoint atoms with exact cell masses for both classes.

    The cells are [k * grid_h, (k + 1) * grid_h], the primal's lattice
    shifted by eps, over ``_lattice_extent``; the end cells carry the class
    mass beyond them.  Cells of no mass give no atom.
    """
    if not 0 < grid_h < math.inf:
        raise ValueError(f"grid_h must be finite and positive, got {grid_h!r}")
    lo, hi = _lattice_extent(pair, grid_h)
    edges = lo + grid_h * np.arange(_cell_count(lo, hi, grid_h) + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = []
    for which in (0, 1):
        masses = _cell_masses(pair, which, _read_cdf(pair, which, edges))
        keep = masses > 0
        out.append(AtomList(positions=mids[keep], masses=masses[keep], klass=which))
    return out[0], out[1]


def _reach(eps: float, grid_h: float) -> int:
    """The largest k with k * grid_h <= 2 * eps + grid_h, decided exactly.

    Cells k steps apart have midpoints k * grid_h apart, so every cell
    reaches the cells within this many steps on both sides.  The float
    inputs are compared as the rationals they are, so a radius where
    2 * eps / grid_h is a whole number gives one reach for every cell.
    """
    p, q = eps.as_integer_ratio()
    s, t = grid_h.as_integer_ratio()
    return 2 * p * t // (q * s) + 1


def _compose_clamps(a: np.ndarray, b: np.ndarray) -> None:
    """In place, map i becomes the composition of the clamp maps 0 .. i.

    Map i is ``w -> clamp(w, a[i], b[i])`` with ``a[i] <= b[i]``.  Map
    ``(a, b)`` followed by ``(a', b')`` is ``(clamp(a, a', b'), clamp(b, a', b'))``,
    so the Hillis-Steele scan composes every prefix in ``log2(n)`` passes of
    ``max`` and ``min``, which round nothing.
    """
    n = len(a)
    ta, tb = np.empty(n), np.empty(n)
    d = 1
    while d < n:
        k = n - d
        np.maximum(a[:k], a[d:], out=ta[:k])
        np.maximum(b[:k], a[d:], out=tb[:k])
        np.minimum(ta[:k], b[d:], out=a[d:])
        np.minimum(tb[:k], b[d:], out=b[d:])
        d *= 2


def _greedy(m0: np.ndarray, c1: np.ndarray, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray,
            radius: float) -> DualCertificate:
    """The leftmost-first greedy, as a prefix scan of clamp maps.

    Class-0 entry i has mass ``m0[i]`` and reaches the class-1 entries
    ``lo[i] <= j < hi[i]`` of cumulative mass ``c1``; ``rows[i]`` names it
    in the certificate.  In cumulative class-1 mass the greedy consumes a
    growing prefix.  With ``F_i = c1[lo_i]`` and ``C_i = c1[hi_i]`` the
    consumed frontier after entry i is

        u_i = min(max(u_{i-1}, F_i) + m_i, C_i),

    as ``u`` never passes ``C_i``.  Relative to the cumulative class-0 mass
    ``S``, ``w_i = u_i - S_i`` is a clamp of ``w_{i-1}`` to
    ``[min(F_i - S_{i-1}, b_i), b_i]`` with ``b_i = C_i - S_i``.  Clamp maps
    compose by ``max`` and ``min`` alone, so a prefix scan of them gives
    every ``u_i`` without a Python step per entry, and rounds no take into
    ``u`` on the way.

    Entry i consumed the stretch from ``max(u_0 .. u_{i-1}, F_i)`` to
    ``u_i`` when that is not empty.  A stretch starts where the one before
    it ended or later, so the stretches form runs that abut; the dual value
    is the ``math.fsum`` of each run's last end and minus its first start,
    which is the exact sum of the stretch lengths rounded once.
    """
    floor, ceil = c1[lo], c1[hi]
    s = np.cumsum(m0)
    b = ceil - s
    a = np.empty_like(b)
    a[:1] = floor[:1]
    np.subtract(floor[1:], s[:-1], out=a[1:])
    np.minimum(a, b, out=a)
    _compose_clamps(a, b)
    # From w = 0 before the first entry, then back to u, kept within reach.
    u = np.maximum(a, 0.0, out=a)
    np.minimum(u, b, out=u)
    u += s
    np.minimum(u, ceil, out=u)
    # Rounding can dip u by an ulp; the running maximum keeps stretches apart.
    start = np.empty_like(u)
    start[:1] = 0.0
    np.fmax.accumulate(u[:-1], out=start[1:])
    np.maximum(start, floor, out=start)
    idx = np.flatnonzero(u > start)
    start, end = start[idx], u[idx]
    opens = np.ones(len(idx), dtype=bool)
    np.not_equal(start[1:], end[:-1], out=opens[1:])
    closes = np.ones_like(opens)
    closes[:-1] = opens[1:]
    return DualCertificate(
        dual_value=math.fsum([*end[closes].tolist(), *(-start[opens]).tolist()]),
        pairing_radius=radius,
        c1=c1,
        rows=rows[idx],
        start=start,
        end=end,
    )


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
    compatibility structure.  Each atom's reach is found by two
    ``searchsorted`` calls on the positions, and ``_greedy`` runs the sweep
    as one prefix scan.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if not 0 <= grid_h < math.inf:  # 0 is atom mode: reach exactly 2*eps
        raise ValueError(f"grid_h must be finite and nonnegative, got {grid_h!r}")
    radius = 2.0 * eps + grid_h
    pos0, pos1 = class0.positions, class1.positions
    c1 = np.concatenate([[0.0], np.cumsum(class1.masses)])
    lo = np.searchsorted(pos1, pos0 - radius, "left")
    hi = np.searchsorted(pos1, pos0 + radius, "right")
    return _greedy(class0.masses, c1, lo, hi, np.arange(len(pos0)), radius)


def _cell_dual(m0: np.ndarray, m1: np.ndarray, eps: float, grid_h: float) -> DualCertificate:
    """``dual_value`` on cell masses, each cell reaching ``_reach`` cells each way.

    Cells of no mass (or of a negative rounded difference) add nothing to
    the cumulative class-1 mass, so its partial sums are those of the
    atoms ``discretize`` keeps; class-0 cells of no mass are left out of
    the scan.  The certificate's rows and class-1 indices are cells.
    """
    r = min(_reach(eps, grid_h), len(m1))
    rows = np.flatnonzero(m0 > 0)
    c1 = np.concatenate([[0.0], np.cumsum(np.maximum(m1, 0.0))])
    lo = np.maximum(rows - r, 0)
    hi = np.minimum(rows + (r + 1), len(m1))
    return _greedy(m0[rows], c1, lo, hi, rows, 2.0 * eps + grid_h)


# -- grid primal --------------------------------------------------------------


def _prefix_min_shifted(v: np.ndarray, shift: int, out: np.ndarray) -> np.ndarray:
    """out[k] = min(v[0 .. k-shift]), +inf where the range is empty."""
    n = len(v)
    shift = min(shift, n)
    out[:shift] = np.inf
    np.fmin.accumulate(v[:n - shift], out=out[shift:])
    return out


def _pad_size(n: int, width: int) -> int:
    """Values ``_window_min`` pads n values to: whole blocks of ``width``."""
    width = min(width, n)
    return -(-n // width) * width if width > 0 else 0


def _window_min(v: np.ndarray, width: int, out: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """out[k] = min(v[k-width .. k-1]), +inf where the range is empty.

    The van Herk / Gil-Werman block minimum, O(n) for any width: cut ``v``
    into blocks of ``width``, padded with +inf to whole blocks in ``pad``
    (``_pad_size`` values).  A window ``v[k-width .. k-1]`` is the tail of
    one block and the head of the next, so its minimum is that of the
    block's backward running minimum at k - width and the forward one at
    k - 1.  Both running minima are taken in place in ``pad``.
    """
    n = len(v)
    width = min(width, n)
    if width <= 0:
        out.fill(np.inf)
        return out
    size = _pad_size(n, width)
    rows = pad[:size].reshape(-1, width)
    pad[n:size] = np.inf
    pad[:n] = v
    backward = rows[:, ::-1]
    np.fmin.accumulate(backward, axis=1, out=backward)
    out[:width] = np.inf
    out[width:] = pad[:n - width]
    pad[:n] = v
    np.fmin.accumulate(rows, axis=1, out=rows)
    np.minimum(out[1:], pad[:n - 1], out=out[1:])
    return out


class _PrimalDP:
    """Layered shortest path over alternating grid endpoints.

    ``layers[L][i]`` is the least cost of the pieces up to the L-th
    endpoint (counting from 0) when that endpoint sits at grid point
    ``xs[i] = x0 + i * grid_h``.  Even layers are left
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

    def __init__(self, pair: DistributionPair, eps: float, x0: float, grid_h: float,
                 max_k: int, fp: tuple[np.ndarray, np.ndarray]):
        self.x0, self.grid_h = x0, grid_h
        self.max_k = max_k
        n = len(fp[0])
        # Per class c: cdf at xs + eps (read by the caller), cdf at xs - eps,
        # total mass, with xs = x0 + k * grid_h.
        self.fp = fp
        xs_minus = x0 + grid_h * np.arange(n)
        xs_minus -= eps
        self.fm = tuple(_read_cdf(pair, c, xs_minus) for c in (0, 1))
        self.m = (pair.total_mass(0), pair.total_mass(1))
        self.d_steps = int(math.floor(2.0 * eps / grid_h + 1e-9))
        # Scratch that every step and every edge-cost read reuses.
        self._v, self._win = np.empty(n), np.empty(n)
        self._pad = np.empty(_pad_size(n, self.d_steps))

    def _step(self, prev: np.ndarray, c: int) -> np.ndarray:
        """Next layer, whose edges add a dilated piece of class ``c``."""
        fp, fm, op, om = self.fp[c], self.fm[c], self.fp[1 - c], self.fm[1 - c]
        v, win = self._v, self._win
        out = _prefix_min_shifted(np.subtract(prev, fm, out=v), self.d_steps + 1,
                                  np.empty(len(prev)))
        v -= op
        _window_min(v, self.d_steps, win, self._pad)
        win += om
        np.minimum(out, win, out=out)
        return np.add(fp, out, out=out)

    def _edge_costs(self, prev: np.ndarray, k: int, c: int) -> np.ndarray:
        """Costs of reaching node ``k`` of the next layer from each ``prev[:k]``."""
        fp, fm, op, om = self.fp[c], self.fm[c], self.fp[1 - c], self.fm[1 - c]
        v = np.subtract(prev[:k], fm[:k], out=self._v[:k])
        lo = max(0, k - self.d_steps)
        v[lo:] -= np.subtract(op[lo:k], om[k], out=self._win[:k - lo])
        v += fp[k]
        return v

    def run(self) -> tuple[float, IntervalSet]:
        layers = [self.fp[1]]
        for layer in range(1, 2 * self.max_k):
            nxt = self._step(layers[-1], (layer + 1) % 2)
            if layer == 1:
                np.minimum(nxt, self.fp[0], out=nxt)  # leading half-infinite interval
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
            totals = np.subtract(self.m[t], self.fm[t], out=self._v)
            totals += layers[layer]
            j = int(np.argmin(totals))
            if totals[j] < best:
                best, state = float(totals[j]), (layer, j)
        if state is not None:
            argmin = self._reconstruct(layers, *state)
        return best, argmin

    def _reconstruct(self, layers: list[np.ndarray], layer: int, idx: int) -> IntervalSet:
        def xs(k: int) -> float:
            return self.x0 + self.grid_h * k

        pieces: list[Interval] = []
        right = INF  # right end of the interval that a left endpoint opens
        while True:
            if layer % 2 == 0:
                pieces.append(Interval(xs(idx), right))
                if layer == 0:
                    break  # leading complement (-inf, xs[idx])
            else:
                right = xs(idx)
            costs = self._edge_costs(layers[layer - 1], idx, (layer + 1) % 2)
            if layer == 1 and (idx == 0 or self.fp[0][idx] <= float(np.min(costs)) + 1e-15):
                pieces.append(Interval(-INF, right))
                break
            idx = int(np.argmin(costs))
            layer -= 1
        return IntervalSet(reversed(pieces))


def _check_grid(eps: float, grid_h: float, max_k: int) -> None:
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    if not 0 < grid_h < math.inf:
        raise ValueError(f"grid_h must be finite and positive, got {grid_h!r}")


def _primal_points(lo: float, hi: float, grid_h: float, max_k: int) -> int:
    """Grid points ``lo + k * grid_h`` up to ``hi``, within the budget."""
    n = round((hi - lo) / grid_h, 0) + 1  # a float: a tiny grid_h makes it huge or inf
    return _within_budget("grid primal", n, dp_slots(1, max_k), f"n = {n:.6g}, max_k = {max_k}")


def _lattice_cdfs(pair: DistributionPair, lo: float, grid_h: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each class CDF at the lattice points ``lo + k * grid_h``, k < n."""
    points = lo + grid_h * np.arange(n)
    return _read_cdf(pair, 0, points), _read_cdf(pair, 1, points)


def primal_bruteforce(
    pair: DistributionPair,
    eps: float,
    grid_h: float,
    max_k: int = 2,
    window: tuple[float, float] | None = None,
) -> tuple[float, IntervalSet]:
    """Minimum adversarial risk over unions of <= max_k grid-endpoint intervals.

    The grid steps by ``grid_h`` from the lower end of ``window``, which is
    taken as given.  The default window is ``pair.extent(5.2)`` widened by
    eps, its lower end moved down onto the lattice ``k * grid_h - eps``: the
    window decides where the grid stops, never where its points sit.  There
    the grid's +eps side is the lattice ``k * grid_h`` itself, read once.
    """
    _check_grid(eps, grid_h, max_k)
    if window is None:
        # Finite endpoints never help deep in the tails: a half-infinite
        # piece covers them.
        lo, hi = _lattice_extent(pair, grid_h)
        n = _primal_points(lo - eps, hi + eps, grid_h, max_k)
        return _PrimalDP(pair, eps, lo - eps, grid_h, max_k,
                         _lattice_cdfs(pair, lo, grid_h, n)).run()
    lo, hi = window
    n = _primal_points(lo, hi, grid_h, max_k)
    return _PrimalDP(pair, eps, lo, grid_h, max_k,
                     _lattice_cdfs(pair, lo + eps, grid_h, n)).run()


def duality_gap(
    pair: DistributionPair,
    eps: float,
    grid_h: float = 1e-3,
    max_k: int = 2,
) -> GapReport:
    """Primal grid minimum, dual matched mass, and their difference.

    One read of each class CDF on the lattice ``k * grid_h`` feeds both
    halves: the primal's +eps side, and the dual's cell ends.
    """
    _check_grid(eps, grid_h, max_k)
    lo, hi = _lattice_extent(pair, grid_h)
    n = _primal_points(lo - eps, hi + eps, grid_h, max_k)
    cells = _cell_count(lo, hi, grid_h)
    reads = _lattice_cdfs(pair, lo, grid_h, max(n, cells + 1))
    primal, argmin = _PrimalDP(pair, eps, lo - eps, grid_h, max_k,
                               (reads[0][:n], reads[1][:n])).run()
    cert = _cell_dual(*(_cell_masses(pair, c, reads[c][:cells + 1]) for c in (0, 1)),
                      eps, grid_h)
    return GapReport(
        primal=primal,
        gap=primal - cert.dual_value,
        argmin=argmin,
        certificate=cert,
        grid_h=grid_h,
        max_k=max_k,
    )
