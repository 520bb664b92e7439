"""Class-conditional densities: weighted Gaussians and piecewise polynomials.

A distribution pair carries the two class densities p0 and p1 as component
lists.  All mass computations go through exact antiderivatives (polynomial
primitives per cell, the normal CDF for Gaussian components), so risks
downstream are accurate to the CDF's ~1e-15 relative error and ties can be
resolved at 1e-9.

The normal CDF is scipy's ``ndtr``.  ``scipy.special`` is imported on the
first Gaussian CDF read, not with this module, so a process that reads
none never loads it.

Scalar sums over components or intervals are written as left folds from
0, one rounding per term, as the array reads add and as ``sum`` adds up to
Python 3.11: from 3.12 on ``sum`` compensates float sums, so its bits
would depend on the version.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .intervals import INF, Interval, IntervalSet

MASS_TOL = 1e-9
MAX_POLY_DEGREE = 5
_ROOT_REFINE_TOL = 1e-13
TINY = np.finfo(float).tiny  # smallest normal float; below it a density is subnormal or 0
ARRAY_CDF_POINTS = 24  # shortest list that cdf_points sends to cdf_array: 8 to 24 scalar CDFs' cost


@functools.cache
def _special():
    """``scipy.special``, imported on the first call and kept."""
    import scipy.special

    return scipy.special


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
        # ``pdf``'s operations in its order, in place on one temporary.
        z = xs - self.mu
        z /= self.sigma
        t = z * -0.5
        t *= z
        np.exp(t, out=t)
        t *= self.weight
        t /= self.sigma * math.sqrt(2.0 * math.pi)
        return t

    def logpdf_array(self, xs: np.ndarray) -> np.ndarray:
        z = (xs - self.mu) / self.sigma
        return math.log(self.weight / (self.sigma * math.sqrt(2.0 * math.pi))) - 0.5 * z * z

    def cdf(self, x: float) -> float:
        return self.weight * float(_special().ndtr((x - self.mu) / self.sigma))

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        return self.weight * _special().ndtr((xs - self.mu) / self.sigma)

    @property
    def total_mass(self) -> float:
        return self.weight

    @property
    def sup_density(self) -> float:
        return self.weight / (self.sigma * math.sqrt(2.0 * math.pi))

    def turning_points(self) -> list[tuple[float, float]]:
        """``(x, value)`` at the mean: the density rises up to it and falls after."""
        return [(self.mu, self.sup_density)]


def _poly_eval(coeffs: Sequence[float], x: float | np.ndarray) -> float | np.ndarray:
    """Horner evaluation; on an ndarray each element gets the scalar's exact bits."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_rows(columns: Sequence[np.ndarray], j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``_poly_eval`` of row ``j[i]`` of ``_columns`` at ``x[i]``, with the
    same bits; one power is gathered at a time, in place, so a grid-sized
    read holds two temporaries rather than one per power."""
    acc = x * 0.0
    acc += columns[-1][j]
    for col in reversed(columns[:-1]):
        acc *= x
        acc += col[j]
    return acc


def _poly_derivative(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def _poly_antiderivative(coeffs: Sequence[float]) -> tuple[float, ...]:
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(coeffs))


def _columns(rows: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """Rows padded with high-order zeros to the widest, one array per power."""
    width = max(map(len, rows))
    return list(np.array([list(row) + [0.0] * (width - len(row)) for row in rows]).T.copy())


# -- root finding ------------------------------------------------------------


def itp_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of ``f`` in [lo, hi]: Brent's steps inside ITP's bisection envelope.

    Evaluates ``f(lo)`` and ``f(hi)`` itself.  Unless they have strictly
    opposite signs, returns the endpoint with the smaller ``|f|`` (``lo`` on a
    tie), so a zero endpoint is returned as is.  Otherwise narrows the bracket
    until it is no wider than ``tol`` (up to the rounding of its ends) and
    returns its midpoint, or returns a point where ``f`` is exactly 0.

    Each step is Brent's (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4): inverse quadratic interpolation through the
    last three points, or the secant through two, taken from the bracket
    end with the smaller ``|f|`` when it lands within 3/4 of the way to the
    other end and is shorter than half the step before last; the midpoint
    otherwise.  A step shorter than ``tol / 2`` is lengthened to ``tol / 2``
    towards the other end, so a root that close ends the search at once.
    Infinite or nan interpolants fail the acceptance test and give the
    midpoint.  The point is then projected, as in ITP (Oliveira & Takahashi,
    ACM TOMS 47(1), 2021), onto the radius of the midpoint that keeps the
    bracket after step j no wider than ``tol * 2^(n - j) / 2``, with n
    bisection's step count plus n0 = 1.

    So the search ends within bisection's steps + 1, whatever ``f``.  Where
    the early steps cut the bracket well, as on a smooth ``f`` near a simple
    root, the projection leaves Brent's steps as they are and they converge
    superlinearly; where they cut it little (a steep one-sided ``f``, such as
    a CDF far in its tail), the projection takes over and the search runs at
    bisection's pace.
    """
    flo, fhi = f(lo), f(hi)
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        return lo if abs(flo) <= abs(fhi) else hi
    n_max = max(0, math.ceil(math.log2((hi - lo) / tol))) + 1  # bisection's steps + n0
    # (tol / 2) * 2^(n_max - j) at step j: no bracket after step j is wider.
    radius = 0.5 * tol * 2.0**n_max
    least = 0.5 * tol
    # b and c are the bracket's ends, a the point b held before the last step;
    # d is the last step and e the one before it.
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc, d = a, fa, b - a
    e = d
    for _ in range(n_max):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        half, mid = 0.5 * (c - b), 0.5 * (b + c)
        if abs(c - b) <= tol or mid == b or mid == c:
            break
        step = half
        if abs(fa) > abs(fb) and abs(e) >= least:
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # Brent's acceptance test; its products may underflow to 0 or be
            # nan, and then it fails, so p / q never divides by 0.
            if 2.0 * p < 3.0 * half * q - abs(least * q) and 2.0 * p < abs(e * q):
                step = p / q
        if abs(step) < least:
            step = least if half > 0.0 else -least
        # ITP's projection onto the bisection envelope.
        x, reach = b + step, radius - abs(half)
        if x < mid - reach:
            x = mid - reach
        if x > mid + reach:  # also where rounding leaves reach below 0
            x = mid + reach
        if not (b < x < c or c < x < b):
            x = mid
        if x == b + step and step != half:
            e, d = d, step
        else:  # a midpoint or a projected step
            e = d = x - b
        fx = f(x)
        if fx == 0.0:
            return x
        a, fa, b, fb = b, fb, x, fx
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
        radius *= 0.5
    return 0.5 * (b + c)


def _cell_extrema(coeffs: Sequence[float], lo: float, hi: float) -> list[float]:
    """Points of (lo, hi) where the polynomial's derivative changes sign, in order.

    Between the cell ends and the derivative's own such points the derivative
    is monotone, so a strict sign change there brackets exactly one extremum,
    which ``itp_root`` finds.  An inner knot where the derivative is exactly
    0 is skipped when looking for the sign change; if the derivative's sign
    changes across it, the first such knot is the extremum.  A root that
    lands on a cell end is dropped: callers read the ends anyway.  Each
    level lowers the degree by one, so rows of degree at most
    ``MAX_POLY_DEGREE`` recurse at most 4 deep.
    """
    slope = _poly_derivative(coeffs)
    if len(slope) < 2:
        return []
    f = lambda x: _poly_eval(slope, x)
    knots = _cell_extrema(slope, lo, hi) + [hi]
    out, a, fa, zero = [], lo, f(lo), None
    for b in knots:
        fb = f(b)
        if fb == 0.0 and b != hi:
            zero = b if zero is None else zero
            continue
        if fa < 0.0 < fb or fb < 0.0 < fa:
            out.append(itp_root(f, a, b, _ROOT_REFINE_TOL) if zero is None else zero)
        a, fa, zero = b, fb, None
    return [x for x in out if lo < x < hi]


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial density: one coefficient row per cell.

    Row ``(c0, c1, ...)`` means ``c0 + c1*x + ...`` on ``[x_{j-1}, x_j)``;
    the density is zero outside ``[x_0, x_k]`` and the last breakpoint
    evaluates through the final cell's polynomial.  A row may dip to -1e-12
    (validation rounding); ``pdf`` and ``pdf_array`` read it as 0 there.
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

    def _cells(self) -> Iterator[tuple[float, float, tuple[float, ...]]]:
        """(lo, hi, row) of each cell."""
        return zip(self.breakpoints, self.breakpoints[1:], self.coeffs)

    @functools.cached_property
    def _cell_points(self) -> list[list[tuple[float, float]]]:
        """Per cell the row's ``(x, value)`` at its ends and inner extrema: its
        least and greatest values on the cell are among them."""
        return [[(x, _poly_eval(row, x)) for x in [lo, hi] + _cell_extrema(row, lo, hi)]
                for lo, hi, row in self._cells()]

    def _check_nonnegative(self) -> None:
        for (lo, hi, _), points in zip(self._cells(), self._cell_points):
            if any(v < -1e-12 for _, v in points):
                raise ValueError(f"density is negative on cell [{lo}, {hi}]")

    def turning_points(self) -> list[tuple[float, float]]:
        """``(x, value)`` at every cell end and inner extremum, read as 0 where
        the row dips below it; each cell's row takes both its values at its
        ends, so a jump's two sides are both here.  Between neighbouring
        points the density is monotone."""
        return [(x, max(v, 0.0)) for points in self._cell_points for x, v in points]

    def _cell_index(self, x: float) -> int | None:
        """Cell holding x, the last one for the last breakpoint; None outside."""
        bp = self.breakpoints
        if x < bp[0] or x > bp[-1]:
            return None
        return min(bisect.bisect_right(bp, x) - 1, len(bp) - 2)

    def pdf(self, x: float) -> float:
        j = self._cell_index(x)
        if j is None:
            return 0.0
        return max(_poly_eval(self.coeffs[j], x), 0.0)

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        bp, rows, _, _, _ = self._table
        out = np.zeros_like(xs)
        inside = ~((xs < bp[0]) | (xs > bp[-1]))
        x = xs[inside]
        j = np.minimum(np.searchsorted(bp, x, side="right") - 1, len(bp) - 2)
        v = _eval_rows(rows, j, x)
        out[inside] = np.maximum(v, 0.0, out=v)
        return out

    def logpdf_array(self, xs: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.pdf_array(xs))

    @functools.cached_property
    def _primitives(self) -> tuple[list[tuple[float, ...]], list[float], list[float]]:
        """Per cell the antiderivative row and its value at the cell's left end,
        and the mass below each breakpoint."""
        antis = [_poly_antiderivative(row) for row in self.coeffs]
        starts = [_poly_eval(anti, lo) for anti, lo in zip(antis, self.breakpoints)]
        cum = [0.0]
        for anti, start, hi in zip(antis, starts, self.breakpoints[1:]):
            cum.append(cum[-1] + (_poly_eval(anti, hi) - start))
        return antis, starts, cum

    def cdf(self, x: float) -> float:
        bp = self.breakpoints
        if x <= bp[0]:
            return 0.0
        if x >= bp[-1]:
            return self.total_mass
        j = self._cell_index(x)
        assert j is not None
        antis, starts, cum = self._primitives
        return cum[j] + _poly_eval(antis[j], x) - starts[j]

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray],
                              np.ndarray, np.ndarray]:
        """The cells as arrays for ``pdf_array`` and ``cdf_array``: the
        breakpoints; the coefficient rows and the antiderivative rows, padded
        with high-order zeros to the widest row, one array per power; and
        ``_primitives``' starts and cum.  The padding zeros leave Horner's
        accumulator at +0.0, so a padded row gives the row's bits at any
        finite x."""
        antis, starts, cum = self._primitives
        return (np.asarray(self.breakpoints), _columns(self.coeffs), _columns(antis),
                np.asarray(starts), np.asarray(cum))

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        bp, _, antis, starts, cum = self._table
        out = np.where(xs <= bp[0], 0.0, self.total_mass)
        inside = ~((xs <= bp[0]) | (xs >= bp[-1]))
        x = xs[inside]
        j = np.minimum(np.searchsorted(bp, x, side="right") - 1, len(bp) - 2)
        # Summed in the scalar cdf's order: (cum + antiderivative) - start.
        v = _eval_rows(antis, j, x)
        v += cum[j]
        v -= starts[j]
        out[inside] = v
        return out

    @property
    def total_mass(self) -> float:
        return self._primitives[2][-1]

    @property
    def sup_density(self) -> float:
        return max(0.0, *(v for points in self._cell_points for _, v in points))

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
        for lo, hi, row in self._cells():
            if any(c != 0.0 for c in row):
                cells.append(Interval(lo, hi, True, True))
        return IntervalSet(cells)


DensityComponent = Union[Gaussian, PiecewisePoly]


class _ComponentSums:
    """Density of one class: the sum over its components, in their order."""

    def __init__(self, components: tuple[DensityComponent, ...]):
        self.components = components

    def pdf(self, x: float) -> float:
        acc = 0
        for c in self.components:
            acc += c.pdf(x)
        return acc

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xs, dtype=float)
        # Far out on a huge radius's range a Gaussian's z * z overflows to inf,
        # and its term is then exactly 0, as in the scalar ``pdf``.
        with np.errstate(over="ignore"):
            for c in self.components:
                out += c.pdf_array(xs)
        return out

    def near(self, lo: float, hi: float) -> Callable[[float], float]:
        """A density callable with this class's bits on [lo, hi]: ``pdf``."""
        return self.pdf


_Row = tuple[float, float, float, float]


def _row_sum(rows: Sequence[_Row], x: float) -> float:
    """``Gaussian.pdf`` of each ``(mu, sigma, weight, sigma*sqrt(2*pi))`` row
    at x, in its operation order, added left to right from 0.0."""
    acc, exp = 0.0, math.exp
    for mu, sigma, weight, norm in rows:
        z = (x - mu) / sigma
        acc += weight * exp(-0.5 * z * z) / norm
    return acc


class _GaussianSums(_ComponentSums):
    """``_ComponentSums`` of an all-Gaussian class, bit for bit, summed only
    over the components within reach.

    A component more than 40·sigma_max from x has ``exp(-0.5*z*z) == 0.0``
    (it underflows past z = 38.6), so its term is exactly +0.0, and leaving
    such a term out changes no bit.  The rest are added in component order.
    Three reads use this:

    - ``pdf(x)`` sums the rows of ``_window(x, x)``, each term
      ``Gaussian.pdf``'s expression in its operation order, from one
      precomputed ``(mu, sigma, weight, sigma*sqrt(2*pi))`` row;
    - ``near(lo, hi)`` fixes the rows of ``_window(lo, hi)`` once, for a
      root finder's many reads inside one bracket: each row left out is
      beyond reach of every point of [lo, hi], and each row kept that is
      beyond reach of a point adds +0.0 there;
    - ``pdf_array`` adds each component's ``Gaussian.pdf_array`` only on
      the sorted points within its reach, one ``searchsorted`` slice per
      component, in component order.

    A class whose means all lie within one reach of one another leaves
    nothing out near them, so it is read as ``_ComponentSums`` reads it.
    """

    def __init__(self, components: tuple[Gaussian, ...]):
        super().__init__(components)
        self._rows = [(g.mu, g.sigma, g.weight, g.sigma * math.sqrt(2.0 * math.pi))
                      for g in components]
        self._order = sorted(range(len(components)), key=lambda i: components[i].mu)
        self._in_order = self._order == list(range(len(components)))
        self._mus = [components[i].mu for i in self._order]
        sigma = max(g.sigma for g in components)
        top = max(abs(mu) for mu in self._mus)
        # With every mean within 2^40·sigma of 0, x ± reach rounds by far less
        # than the 40 versus 38.6 sigma margin wherever a mean is that close.
        self._reach = 40.0 * sigma if top <= 2.0**40 * sigma else INF
        # The window is taken on finite intervals; at ±inf and nan every
        # component is summed.  Means that all lie within the reach of one
        # another leave nothing out near them: no window then.
        self._limit = INF if self._mus[-1] - self._mus[0] > self._reach else 0.0
        # Each component's reach, in component order, for ``pdf_array``.
        self._spans = np.array([[g.mu - self._reach for g in components],
                                [g.mu + self._reach for g in components]])

    def _window(self, lo: float, hi: float) -> Sequence[_Row]:
        """The rows within reach of [lo, hi], in component order."""
        if not (-self._limit < lo and hi < self._limit):
            return self._rows
        i = bisect.bisect_left(self._mus, lo - self._reach)
        j = bisect.bisect_right(self._mus, hi + self._reach)
        if self._in_order:
            return self._rows[i:j]
        rows = self._rows
        return [rows[k] for k in sorted(self._order[i:j])]

    def pdf(self, x: float) -> float:
        return _row_sum(self._window(x, x), x)

    def near(self, lo: float, hi: float) -> Callable[[float], float]:
        return functools.partial(_row_sum, self._window(lo, hi))

    def pdf_array(self, xs: np.ndarray) -> np.ndarray:
        if not self._limit:
            return super().pdf_array(xs)
        xs = np.asarray(xs, dtype=float)
        flat = xs.ravel()
        order = None
        if not (flat[:-1] <= flat[1:]).all():  # unsorted, or holding nan
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
        out = np.zeros_like(flat)
        # nan sorts last and lies in no slice; it reads every component below.
        starts = np.searchsorted(flat, self._spans[0], side="left").tolist()
        stops = np.searchsorted(flat, self._spans[1], side="right").tolist()
        with np.errstate(over="ignore"):  # as in ``_ComponentSums.pdf_array``
            for g, i, j in zip(self.components, starts, stops):
                if i < j:
                    out[i:j] += g.pdf_array(flat[i:j])
        n = int(np.searchsorted(flat, INF, side="right"))
        if n < len(flat):
            out[n:] = super().pdf_array(flat[n:])
        if order is not None:
            out[order] = out.copy()
        return out.reshape(xs.shape)


def _class_index_error(which: int) -> ValueError:
    return ValueError(f"class index must be 0 or 1, got {which}")


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

    @functools.cached_property
    def _class_sums(self) -> tuple[_ComponentSums, _ComponentSums]:
        """Each class's pointwise evaluator, the windowed one for an all-Gaussian class."""
        return tuple((_GaussianSums if all(isinstance(c, Gaussian) for c in comps)
                      else _ComponentSums)(comps) for comps in (self.class0, self.class1))

    def _components(self, which: int) -> tuple[DensityComponent, ...]:
        if which == 0:
            return self.class0
        if which == 1:
            return self.class1
        raise _class_index_error(which)

    # -- pointwise evaluation ------------------------------------------------

    def pdf(self, which: int, x: float) -> float:
        if which == 0 or which == 1:
            return self._class_sums[which].pdf(x)
        raise _class_index_error(which)

    def pdf_array(self, which: int, xs: np.ndarray) -> np.ndarray:
        """``pdf`` at every point of ``xs``, with its bits: an all-Gaussian
        class whose means spread beyond one reach adds each component only on
        the points within its reach (``_GaussianSums``), any other class every
        component on every point."""
        if which == 0 or which == 1:
            return self._class_sums[which].pdf_array(xs)
        raise _class_index_error(which)

    def near(self, which: int, lo: float, hi: float) -> Callable[[float], float]:
        """A density callable of class ``which`` that equals ``pdf(which, x)``
        bit for bit at every x in [lo, hi]: the sum over an all-Gaussian class's
        rows within reach of the interval, fixed once, or the class's ``pdf``."""
        if which == 0 or which == 1:
            return self._class_sums[which].near(lo, hi)
        raise _class_index_error(which)

    def logpdf_array(self, which: int, xs: np.ndarray) -> np.ndarray:
        """log pdf, finite where a Gaussian tail underflows ``pdf_array`` to 0.

        A one-component class's log density is returned as it is; several
        are reduced with ``np.logaddexp``, as ``conditions._LogRange`` does.
        """
        logs = [c.logpdf_array(xs) for c in self._components(which)]
        return logs[0] if len(logs) == 1 else np.logaddexp.reduce(logs, axis=0)

    def eta(self, x: float) -> float:
        p0, p1 = self.pdf(0, x), self.pdf(1, x)
        if p0 + p1 <= 0.0:
            raise OutsideSupport(f"p0+p1 vanishes at x={x}")
        return p1 / (p0 + p1)

    # -- mass ------------------------------------------------------------------

    @functools.cached_property
    def _cdf_memo(self) -> tuple[dict[float, float], dict[float, float]]:
        return {}, {}

    def cdf(self, which: int, x: float) -> float:
        """Mass of class ``which`` below ``x``, memoized per class and point.

        The solver reads the same CDFs at the same dilated endpoints in
        every stage, so each distinct (class, point) costs one sum of
        component CDFs per pair; ``cdf_points`` reads a whole endpoint pool,
        with one array call when it is long.  The memo keeps every point
        asked for, so it grows with the endpoint pools of all radii solved
        on the pair: at most 302 points per class over a built-in's
        40-radius sweep (``degenerate``), 129 for a 64-bump solve and 513
        for a 256-bump one.
        """
        components = self._components(which)
        memo = self._cdf_memo[which]
        v = memo.get(x)
        if v is None:
            v = 0
            for c in components:
                v += c.cdf(x)
            memo[x] = v
        return v

    def cdf_array(self, which: int, xs: np.ndarray) -> np.ndarray:
        out = np.zeros_like(xs, dtype=float)
        for c in self._components(which):
            out += c.cdf_array(xs)
        return out

    def cdf_points(self, which: int, xs: list[float]) -> list[float]:
        """``[self.cdf(which, x) for x in xs]``, and every point joins the memo.

        From ``ARRAY_CDF_POINTS`` points on, one ``cdf_array`` call, which
        gives the same bits, computes them all.  Its numpy calls cost about
        as much as 8 scalar class CDFs on the Gaussian built-ins, 12 to 16
        on the multi-cell piecewise ones and 16 Gaussian bumps, and 24 on
        ``degenerate``'s one-cell class 0, so shorter lists take the
        scalar path.
        """
        if len(xs) < ARRAY_CDF_POINTS:
            return [self.cdf(which, x) for x in xs]
        values = self.cdf_array(which, np.array(xs, dtype=float)).tolist()
        self._cdf_memo[which].update(zip(xs, values))
        return values

    def mass(self, which: int, interval: Interval) -> float:
        """Probability mass on an interval; endpoint flags are irrelevant."""
        if interval.lo >= interval.hi:
            return 0.0
        return self.cdf(which, interval.hi) - self.cdf(which, interval.lo)

    def mass_set(self, which: int, s: IntervalSet) -> float:
        acc = 0
        for iv in s:
            acc += self.mass(which, iv)
        return acc

    def total_mass(self, which: int) -> float:
        acc = 0
        for c in self._components(which):
            acc += c.total_mass
        return acc

    # -- structure ----------------------------------------------------------

    @functools.cached_property
    def _support(self) -> IntervalSet:
        out = IntervalSet.empty()
        for which in (0, 1):
            for c in self._components(which):
                if isinstance(c, Gaussian):
                    return IntervalSet.reals()
                out = out.union(c.support())
        return out

    def support(self) -> IntervalSet:
        """Where either density may be nonzero; built once per pair."""
        return self._support

    @functools.cached_property
    def _breakpoints(self) -> tuple[list[float], list[float]]:
        return tuple(sorted({x for c in comps if isinstance(c, PiecewisePoly)
                             for x in c.breakpoints})
                     for comps in (self.class0, self.class1))

    @functools.cached_property
    def _discontinuities(self) -> tuple[list[float], list[float]]:
        return tuple(sorted({x for c in comps if isinstance(c, PiecewisePoly)
                             for x in c.discontinuities()})
                     for comps in (self.class0, self.class1))

    def breakpoints(self, which: int) -> list[float]:
        """Sorted cell ends of the class's piecewise components; built once
        per pair and shared, so callers must not mutate it."""
        if which == 0 or which == 1:
            return self._breakpoints[which]
        raise _class_index_error(which)

    def discontinuities(self, which: int) -> list[float]:
        """Sorted points where a piecewise component of the class jumps;
        built once per pair and shared, so callers must not mutate it."""
        if which == 0 or which == 1:
            return self._discontinuities[which]
        raise _class_index_error(which)

    def has_gaussian(self, which: int) -> bool:
        return any(isinstance(c, Gaussian) for c in self._components(which))

    def sup_density(self, which: int) -> float:
        acc = 0
        for c in self._components(which):
            acc += c.sup_density
        return acc

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

    def extent(self, sigmas: float) -> tuple[float, float]:
        """Range spanning ``mu +- sigmas * sigma`` of every Gaussian component
        and the first to last breakpoint of every piecewise one."""
        los, his = [], []
        for which in (0, 1):
            for c in self._components(which):
                if isinstance(c, Gaussian):
                    los.append(c.mu - sigmas * c.sigma)
                    his.append(c.mu + sigmas * c.sigma)
                else:
                    los.append(c.breakpoints[0])
                    his.append(c.breakpoints[-1])
        return min(los), max(his)

    def finite_extent(self) -> tuple[float, float]:
        """``extent(10.0)``, the range holding everything that matters
        numerically; built once per pair."""
        return self._finite_extent

    @functools.cached_property
    def _finite_extent(self) -> tuple[float, float]:
        return self.extent(10.0)


# -- signed density differences -------------------------------------------------


def log_gap(pair: DistributionPair, plus: int, xp: np.ndarray, minus: int,
            xm: np.ndarray) -> np.ndarray:
    """log p_plus(xp) - log p_minus(xm), and 0 where both densities vanish identically."""
    with np.errstate(invalid="ignore"):
        gap = pair.logpdf_array(plus, xp) - pair.logpdf_array(minus, xm)
    return np.where(np.isnan(gap), 0.0, gap)


def signed_gap(pair: DistributionPair, plus: int, xp: float, minus: int, xm: float,
               near: tuple | None = None) -> float:
    """p_plus(xp) - p_minus(xm), or ``log_gap`` where both densities are below the
    normal range: there the difference of subnormals loses the sign.

    ``near``, the two classes' ``DistributionPair.near`` callables of intervals
    holding xp and xm, reads the densities with the same bits and less work.
    """
    if near is None:
        hi, lo = pair.pdf(plus, xp), pair.pdf(minus, xm)
    else:
        hi, lo = near[0](xp), near[1](xm)
    if hi < TINY and lo < TINY:
        return float(log_gap(pair, plus, np.array([xp]), minus, np.array([xm]))[0])
    return hi - lo


# -- config schema -----------------------------------------------------------


def json_number(value, field: str) -> float:
    """``value`` as a float when it is a JSON number; a bool, a string or any
    other value is never coerced, and neither is an integer beyond float
    range.  The ``TypeError`` names ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"'{field}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"'{field}' is an integer beyond float range") from None


def component_from_dict(d: dict) -> DensityComponent:
    kind = d.get("type")
    if kind == "gaussian":
        return Gaussian(**{key: json_number(d[key], key) for key in ("weight", "mu", "sigma")})
    if kind == "piecewise_poly":
        return PiecewisePoly(
            breakpoints=tuple(json_number(b, "breakpoints") for b in d["breakpoints"]),
            coeffs=tuple(tuple(json_number(c, "coeffs") for c in row) for row in d["coeffs"]),
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
