"""Independent verification: grid primal minimizer and a discretized dual.

The primal side minimizes the adversarial risk over every classifier that
is a union of at most ``maxK`` intervals with endpoints on a uniform grid
(plus ∅ and ℝ).  The minimum is computed by a layered shortest-path pass
that is value-equivalent to literally enumerating all such unions: risk
contributions are local to consecutive endpoints, including the exact
mass corrections when nearby pieces' dilations overlap.

The dual side perturbs each class's atoms by at most eps toward common
meeting points; mass from opposite classes that meets contributes its
minimum to the dual value.  On a line this is a transportation matching
with pairing radius 2*eps (plus one grid step of slack for midpoint
placement), solved exactly by a left-to-right greedy sweep.  Weak duality
makes the dual value a floor under every classifier's risk, so a small
primal-dual gap certifies both computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DistributionPair
from .intervals import INF, Interval, IntervalSet

WORK_BUDGET = 100_000_000
_COVERAGE = 1.0 - 1e-6


class BudgetExceeded(RuntimeError):
    """Grid search work estimate exceeds the configured budget."""


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
    dual_value: float
    matching: list[tuple[int, int, float]]
    grid_h: float
    pairing_radius: float

    def matching_stats(self) -> dict:
        return {
            "n_pairs": len(self.matching),
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


def _covers(pair: DistributionPair, lo: float, hi: float) -> bool:
    """True when [lo, hi] holds the _COVERAGE share of each class's mass."""
    return all(
        pair.cdf(which, hi) - pair.cdf(which, lo) >= _COVERAGE * pair.total_mass(which)
        for which in (0, 1)
    )


def _mass_window(pair: DistributionPair) -> tuple[float, float]:
    lo, hi = pair.finite_extent()
    for _ in range(60):
        if _covers(pair, lo, hi):
            return lo, hi
        width = hi - lo
        lo -= 0.5 * width
        hi += 0.5 * width
    raise RuntimeError("could not find a window covering the required mass")


def _quantile(pair: DistributionPair, which: int, q: float) -> float:
    """x with cdf(x) = q * total, by bisection over the finite extent."""
    lo, hi = pair.finite_extent()
    target = q * pair.total_mass(which)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
        if pair.cdf(which, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _tight_window(pair: DistributionPair, tail: float = 1e-7) -> tuple[float, float]:
    """Window leaving at most ``tail`` of each class's mass per side."""
    lo = min(_quantile(pair, 0, tail), _quantile(pair, 1, tail))
    hi = max(_quantile(pair, 0, 1.0 - tail), _quantile(pair, 1, 1.0 - tail))
    return lo, hi


def discretize(
    pair: DistributionPair,
    grid_h: float,
    window: tuple[float, float] | None = None,
) -> tuple[AtomList, AtomList]:
    """Cell-midpoint atoms with exact cell masses for both classes."""
    if grid_h <= 0:
        raise ValueError("grid_h must be positive")
    if window is None:
        lo, hi = _mass_window(pair)
    else:
        lo, hi = float(window[0]), float(window[1])
        if not _covers(pair, lo, hi):
            mlo, mhi = _mass_window(pair)
            lo, hi = min(lo, mlo), max(hi, mhi)
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

    Sweeps class-0 atoms left to right, always feeding the leftmost
    compatible class-1 atom that still has capacity; an exchange argument
    gives optimality for the two-sided-window compatibility structure.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    radius = 2.0 * eps + grid_h
    pos0, m0 = class0.positions, class0.masses
    pos1 = class1.positions
    rem = class1.masses.copy()
    matches: list[tuple[int, int, float]] = []
    lo = 0
    n1 = len(pos1)
    for i in range(len(pos0)):
        p = pos0[i]
        budget = m0[i]
        while lo < n1 and (rem[lo] <= 0.0 or pos1[lo] < p - radius):
            lo += 1
        k = lo
        while budget > 1e-18 and k < n1 and pos1[k] <= p + radius:
            if rem[k] > 0.0:
                take = min(budget, rem[k])
                matches.append((i, k, float(take)))
                rem[k] -= take
                budget -= take
            k += 1
    value = float(math.fsum(t for _, _, t in matches))
    return DualCertificate(
        dual_value=value, matching=matches, grid_h=grid_h, pairing_radius=radius
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
    """out[k] = min(v[k-width .. k-1]), +inf where the range is empty."""
    n = len(v)
    width = min(width, n)
    if width <= 0:
        return np.full(n, np.inf)
    vpad = np.concatenate([np.full(width, np.inf), v])
    sw = np.lib.stride_tricks.sliding_window_view(vpad, width)
    return sw.min(axis=1)[:n]


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
    if not 1 <= max_k <= 3:
        raise ValueError("max_k must be between 1 and 3")
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
    xs = lo + grid_h * np.arange(n)
    d = int(math.floor(2.0 * eps / grid_h + 1e-9))
    work = 2 * max_k * n * (d + 2)
    if work > WORK_BUDGET:
        raise BudgetExceeded(f"estimated work {work:.2e} exceeds budget {WORK_BUDGET:.0e}")
    dp = _PrimalDP(pair, eps, xs, max_k)
    return dp.run()


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
