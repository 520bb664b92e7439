"""Class-conditional densities: weighted Gaussians and piecewise polynomials.

A distribution pair carries the two class densities p0 and p1 as component
lists.  All mass computations go through exact antiderivatives (polynomial
primitives per cell, the normal CDF for Gaussian components), so risks
downstream are accurate to the CDF's ~1e-15 relative error and ties can be
resolved at 1e-9.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy.special import ndtr

from .intervals import INF, Interval, IntervalSet

MASS_TOL = 1e-9
MAX_POLY_DEGREE = 5
_BREAKPOINT_SNAP = 1e-12
_ROOT_REFINE_TOL = 1e-13


class BreakpointDerivative(ValueError):
    """Requested a derivative at a piecewise-polynomial breakpoint."""


class OutsideSupport(ValueError):
    """Requested a conditional class probability where both densities vanish."""


@dataclass(frozen=True)
class Gaussian:
    """Weighted normal density ``weight * N(mu, sigma^2)``."""

    weight: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"gaussian weight must be in (0, 1], got {self.weight}")
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"gaussian sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise ValueError("gaussian mean must be finite")

    def pdf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return self.weight * math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        z = (xs - self.mu) / self.sigma
        return self.weight * np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def dpdf(self, x: float) -> float:
        return -(x - self.mu) / (self.sigma**2) * self.pdf(x)

    def cdf(self, x: float) -> float:
        if x == INF:
            return self.weight
        if x == -INF:
            return 0.0
        return self.weight * float(ndtr((x - self.mu) / self.sigma))

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        out = self.weight * ndtr((xs - self.mu) / self.sigma)
        return np.where(xs == INF, self.weight, np.where(xs == -INF, 0.0, out))

    @property
    def total_mass(self) -> float:
        return self.weight

    @property
    def sup_density(self) -> float:
        return self.weight / (self.sigma * math.sqrt(2.0 * math.pi))


def _poly_eval(coeffs: Sequence[float], x: float | np.ndarray) -> float | np.ndarray:
    """Horner evaluation; on an ndarray each element gets the scalar's exact bits."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def _poly_antiderivative(coeffs: Sequence[float]) -> tuple[float, ...]:
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(coeffs))


# -- root finding ------------------------------------------------------------


def _bisect(f, lo: float, hi: float, flo: float, tol: float) -> float:
    """Root of ``f`` in [lo, hi] by bisection; ``flo = f(lo)`` must be nonzero.

    Stops once the bracket is no wider than ``tol`` and returns its midpoint.
    """
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _poly_trim(c: Sequence[float]) -> list[float]:
    out = list(c)
    while out and abs(out[-1]) == 0.0:
        out.pop()
    return out


def _poly_div(num: list[float], den: list[float]) -> list[float]:
    """Remainder of polynomial division (ascending coefficients)."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    while dn >= dd and any(num):
        factor = num[dn] / den[dd]
        for i in range(dd + 1):
            num[dn - dd + i] -= factor * den[i]
        num[dn] = 0.0
        num = _poly_trim(num)
        dn = len(num) - 1
    return num


def _sturm_chain(coeffs: Sequence[float]) -> list[list[float]]:
    p0 = _poly_trim(coeffs)
    p1 = _poly_trim([i * c for i, c in enumerate(p0)][1:])
    chain = [p0, p1]
    while chain[-1]:
        rem = _poly_div(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_variations(chain: list[list[float]], x: float) -> int:
    signs = []
    for c in chain:
        v = _poly_eval(c, x)
        if v != 0.0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def poly_roots_in_cell(coeffs: Sequence[float], lo: float, hi: float) -> list[float]:
    """Isolated real roots in (lo, hi) via Sturm bracketing plus bisection."""
    chain = _sturm_chain(coeffs)
    if len(chain) < 2:
        return []
    f = lambda x: _poly_eval(coeffs, x)

    def count(a: float, b: float) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    roots: list[float] = []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        n = count(a, b)
        if n == 0:
            continue
        if n == 1 or b - a <= _ROOT_REFINE_TOL:
            fa, fb = f(a), f(b)
            if fa == 0.0:
                roots.append(a)
            elif fb == 0.0:
                roots.append(b)
            elif (fa > 0) != (fb > 0):
                roots.append(_bisect(f, a, b, fa, _ROOT_REFINE_TOL))
            else:
                roots.append(0.5 * (a + b))  # even-multiplicity touch
            continue
        mid = 0.5 * (a + b)
        stack.extend([(a, mid), (mid, b)])
    return sorted(roots)


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial density: one coefficient row per cell.

    Row ``(c0, c1, ...)`` means ``c0 + c1*x + ...`` on ``[x_{j-1}, x_j)``;
    the density is zero outside ``[x_0, x_k]`` and the last breakpoint
    evaluates through the final cell's polynomial.
    """

    breakpoints: tuple[float, ...]
    coeffs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        bp = self.breakpoints
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if any(not math.isfinite(b) for b in bp):
            raise ValueError("breakpoints must be finite")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.coeffs) != len(bp) - 1:
            raise ValueError("need exactly one coefficient row per cell")
        for row in self.coeffs:
            if len(row) == 0 or len(row) - 1 > MAX_POLY_DEGREE:
                raise ValueError(f"cell degree must be between 0 and {MAX_POLY_DEGREE}")
            if any(not math.isfinite(c) for c in row):
                raise ValueError("coefficients must be finite")
        self._check_nonnegative()

    def _check_nonnegative(self) -> None:
        # 64 samples per cell plus sign probes around interior roots.
        for (lo, hi), row in zip(zip(self.breakpoints, self.breakpoints[1:]), self.coeffs):
            probes = np.array(sorted([lo, hi] + poly_roots_in_cell(row, lo, hi)))
            xs = np.concatenate([np.linspace(lo, hi, 64), (probes[:-1] + probes[1:]) / 2.0])
            # Unvalidated rows may overflow: silently, as in float arithmetic;
            # the mass check of DistributionPair rejects them.
            with np.errstate(over="ignore", invalid="ignore"):
                vals = _poly_eval(row, xs)
            if vals.min() < -1e-12:
                raise ValueError(f"density is negative on cell [{lo}, {hi}]")

    def _cell_index(self, x: float) -> int | None:
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return None
        if x == bp[-1]:
            return len(bp) - 2
        lo, hi = 0, len(bp) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if x < bp[mid]:
                hi = mid
            else:
                lo = mid
        return lo

    def _cell_indices(self, xs: np.ndarray) -> np.ndarray:
        """``_cell_index`` elementwise, clipped to the first and last cell."""
        bp = self.breakpoints
        return np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, len(bp) - 2)

    def pdf(self, x: float) -> float:
        j = self._cell_index(x)
        if j is None:
            return 0.0
        return _poly_eval(self.coeffs[j], x)

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        j = self._cell_indices(xs)
        j[(xs < self.breakpoints[0]) | (xs > self.breakpoints[-1])] = -1
        out = np.zeros_like(xs)
        for cell, row in enumerate(self.coeffs):
            mask = j == cell
            if mask.any():
                out[mask] = _poly_eval(row, xs[mask])
        return out

    def dpdf(self, x: float) -> float:
        for b in self.breakpoints:
            if abs(x - b) <= _BREAKPOINT_SNAP * max(1.0, abs(b)):
                raise BreakpointDerivative(f"x={x} is a breakpoint of the density")
        j = self._cell_index(x)
        if j is None:
            return 0.0
        return _poly_eval(_poly_derivative(self.coeffs[j]), x)

    @functools.cached_property
    def _cell_masses(self) -> tuple[float, ...]:
        masses = []
        for (lo, hi), row in zip(zip(self.breakpoints, self.breakpoints[1:]), self.coeffs):
            anti = _poly_antiderivative(row)
            masses.append(_poly_eval(anti, hi) - _poly_eval(anti, lo))
        return tuple(masses)

    @functools.cached_property
    def _cum_masses(self) -> tuple[float, ...]:
        acc, out = 0.0, [0.0]
        for m in self._cell_masses:
            acc += m
            out.append(acc)
        return tuple(out)

    def cdf(self, x: float) -> float:
        bp = self.breakpoints
        if x <= bp[0]:
            return 0.0
        if x >= bp[-1]:
            return self.total_mass
        j = self._cell_index(x)
        assert j is not None
        anti = _poly_antiderivative(self.coeffs[j])
        return self._cum_masses[j] + _poly_eval(anti, x) - _poly_eval(anti, bp[j])

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        bp = np.asarray(self.breakpoints)
        j = self._cell_indices(xs)
        out = np.asarray(self._cum_masses, dtype=float)[j]
        for cell, row in enumerate(self.coeffs):
            mask = j == cell
            if not mask.any():
                continue
            anti = np.asarray(_poly_antiderivative(row))
            vals = np.polynomial.polynomial.polyval(xs[mask], anti)
            out[mask] += vals - np.polynomial.polynomial.polyval(bp[cell], anti)
        out[xs <= bp[0]] = 0.0
        out[xs >= bp[-1]] = self.total_mass
        return out

    @property
    def total_mass(self) -> float:
        return self._cum_masses[-1]

    @property
    def sup_density(self) -> float:
        best = 0.0
        for (lo, hi), row in zip(zip(self.breakpoints, self.breakpoints[1:]), self.coeffs):
            pts = [lo, hi] + poly_roots_in_cell(_poly_derivative(row), lo, hi)
            best = max(best, max(_poly_eval(row, p) for p in pts))
        return best

    def discontinuities(self) -> list[float]:
        """Breakpoints where the density value jumps."""
        out = []
        bp, rows = self.breakpoints, self.coeffs
        for j, b in enumerate(bp):
            left = 0.0 if j == 0 else _poly_eval(rows[j - 1], b)
            right = 0.0 if j == len(bp) - 1 else _poly_eval(rows[j], b)
            if abs(left - right) > 1e-12:
                out.append(b)
        return out

    def support(self) -> IntervalSet:
        cells = []
        for (lo, hi), row in zip(zip(self.breakpoints, self.breakpoints[1:]), self.coeffs):
            if any(c != 0.0 for c in row):
                cells.append(Interval(lo, hi, True, True))
        return IntervalSet(cells)


DensityComponent = Union[Gaussian, PiecewisePoly]


@dataclass(frozen=True)
class DistributionPair:
    """The two class-conditional densities of a binary distribution."""

    class0: tuple[DensityComponent, ...]
    class1: tuple[DensityComponent, ...]

    def __init__(
        self,
        class0: Sequence[DensityComponent],
        class1: Sequence[DensityComponent],
    ):
        object.__setattr__(self, "class0", tuple(class0))
        object.__setattr__(self, "class1", tuple(class1))
        if not self.class0 or not self.class1:
            raise ValueError("both classes need at least one density component")
        total = self.total_mass(0) + self.total_mass(1)
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValueError(f"class masses must sum to 1, got {total!r}")

    def _components(self, which: int) -> tuple[DensityComponent, ...]:
        if which == 0:
            return self.class0
        if which == 1:
            return self.class1
        raise ValueError(f"class index must be 0 or 1, got {which}")

    # -- pointwise evaluation ------------------------------------------------

    def pdf(self, which: int, x: float) -> float:
        return sum(c.pdf(x) for c in self._components(which))

    def pdf_array(self, which: int, xs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xs, dtype=float)
        for c in self._components(which):
            out += c.pdf_array(xs)
        return out

    def derivative(self, which: int, x: float) -> float:
        return sum(c.dpdf(x) for c in self._components(which))

    def eta(self, x: float) -> float:
        p0, p1 = self.pdf(0, x), self.pdf(1, x)
        if p0 + p1 <= 0.0:
            raise OutsideSupport(f"p0+p1 vanishes at x={x}")
        return p1 / (p0 + p1)

    # -- mass ------------------------------------------------------------------

    def cdf(self, which: int, x: float) -> float:
        return sum(c.cdf(x) for c in self._components(which))

    def cdf_array(self, which: int, xs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xs, dtype=float)
        for c in self._components(which):
            out += c.cdf_array(xs)
        return out

    def mass(self, which: int, interval: Interval) -> float:
        """Probability mass on an interval; endpoint flags are irrelevant."""
        if interval.lo >= interval.hi:
            return 0.0
        return self.cdf(which, interval.hi) - self.cdf(which, interval.lo)

    def mass_set(self, which: int, s: IntervalSet) -> float:
        return sum(self.mass(which, iv) for iv in s)

    def total_mass(self, which: int) -> float:
        return sum(c.total_mass for c in self._components(which))

    # -- structure ----------------------------------------------------------

    def support(self) -> IntervalSet:
        out = IntervalSet.empty()
        for which in (0, 1):
            for c in self._components(which):
                if isinstance(c, Gaussian):
                    return IntervalSet.reals()
                out = out.union(c.support())
        return out

    def breakpoints(self, which: int) -> list[float]:
        pts: set[float] = set()
        for c in self._components(which):
            if isinstance(c, PiecewisePoly):
                pts.update(c.breakpoints)
        return sorted(pts)

    def discontinuities(self, which: int) -> list[float]:
        pts: set[float] = set()
        for c in self._components(which):
            if isinstance(c, PiecewisePoly):
                pts.update(c.discontinuities())
        return sorted(pts)

    def has_gaussian(self, which: int) -> bool:
        return any(isinstance(c, Gaussian) for c in self._components(which))

    def sup_density(self, which: int) -> float:
        return sum(c.sup_density for c in self._components(which))

    @functools.cached_property
    def eta_degenerate_on_support(self) -> bool:
        """True when one class density vanishes identically on a cell of the support."""
        support = self.support()
        breaks = sorted(
            set(self.breakpoints(0)) | set(self.breakpoints(1)) | set(support.boundary_points())
        )
        for lo, hi in zip(breaks, breaks[1:]):
            if hi - lo <= 0:
                continue
            cell = IntervalSet((Interval(lo, hi, True, True),))
            if not support.contains_set(cell):
                continue
            for which in (0, 1):
                if self.has_gaussian(which):
                    continue
                xs = np.linspace(lo, hi, 8)[1:-1]
                if self.pdf_array(which, xs).max() <= 1e-15:
                    return True
        return False

    def finite_extent(self) -> tuple[float, float]:
        """Finite range holding everything that matters numerically."""
        los, his = [], []
        for which in (0, 1):
            for c in self._components(which):
                if isinstance(c, Gaussian):
                    los.append(c.mu - 10.0 * c.sigma)
                    his.append(c.mu + 10.0 * c.sigma)
                else:
                    los.append(c.breakpoints[0])
                    his.append(c.breakpoints[-1])
        return min(los), max(his)


# -- config schema -----------------------------------------------------------


def component_from_dict(d: dict) -> DensityComponent:
    kind = d.get("type")
    if kind == "gaussian":
        return Gaussian(weight=float(d["weight"]), mu=float(d["mu"]), sigma=float(d["sigma"]))
    if kind == "piecewise_poly":
        return PiecewisePoly(
            breakpoints=tuple(float(b) for b in d["breakpoints"]),
            coeffs=tuple(tuple(float(c) for c in row) for row in d["coeffs"]),
        )
    raise ValueError(f"unknown density component type: {kind!r}")


def component_to_dict(c: DensityComponent) -> dict:
    if isinstance(c, Gaussian):
        return {"type": "gaussian", "weight": c.weight, "mu": c.mu, "sigma": c.sigma}
    return {
        "type": "piecewise_poly",
        "breakpoints": list(c.breakpoints),
        "coeffs": [list(row) for row in c.coeffs],
    }


def pair_from_dict(d: dict) -> DistributionPair:
    return DistributionPair(
        class0=[component_from_dict(c) for c in d["class0"]],
        class1=[component_from_dict(c) for c in d["class1"]],
    )


def pair_to_dict(pair: DistributionPair) -> dict:
    return {
        "class0": [component_to_dict(c) for c in pair.class0],
        "class1": [component_to_dict(c) for c in pair.class1],
    }
