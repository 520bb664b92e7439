"""Exact set algebra on finite unions of extended-real intervals.

Endpoint-inclusion flags are tracked exactly.  Dilating an interval by a
closed ball of radius ``eps`` preserves each endpoint's closure flag
(``(0,1)`` dilates to ``(-eps, 1+eps)``, ``[0,1]`` to ``[-eps, 1+eps]``),
complementation flips flags, and two pieces merge only when their union
actually covers the meeting point.  Under these rules the dilation and
erosion composites satisfy literal set identities such as
``expand(contract(expand(A, e), e), e) == expand(A, e)`` rather than
identities that hold only up to measure zero, and the contraction of a
closed interval of length exactly ``2*eps`` is a single point.

Merging uses exact float equality (tolerance zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

INF = math.inf


@dataclass(frozen=True)
class Interval:
    """One extended-real interval with endpoint-inclusion flags."""

    lo: float
    hi: float
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo == INF or self.hi == -INF:
            raise ValueError(f"empty endpoint configuration ({self.lo}, {self.hi})")
        if math.isinf(self.lo) and self.lo_closed:
            raise ValueError("-inf endpoint must be open")
        if math.isinf(self.hi) and self.hi_closed:
            raise ValueError("+inf endpoint must be open")
        if self.lo > self.hi:
            raise ValueError(f"lo={self.lo} exceeds hi={self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed on both sides")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def strictly_contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _hi_key(iv: Interval) -> tuple[float, bool]:
    return (iv.hi, iv.hi_closed)


def _mergeable(a: Interval, b: Interval) -> bool:
    """True when a ∪ b is one interval (a starts no later than b)."""
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return a.hi_closed or b.lo_closed
    return False


class IntervalSet:
    """Canonical finite union of disjoint, non-adjacent intervals."""

    __slots__ = ("intervals",)

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval] = ()):
        items = sorted(intervals, key=lambda iv: (iv.lo, not iv.lo_closed))
        merged: list[Interval] = []
        for iv in items:
            if merged and _mergeable(merged[-1], iv):
                last = merged[-1]
                if _hi_key(iv) > _hi_key(last):
                    merged[-1] = Interval(last.lo, iv.hi, last.lo_closed, iv.hi_closed)
            else:
                merged.append(iv)
        object.__setattr__(self, "intervals", tuple(merged))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def reals(cls) -> "IntervalSet":
        return cls((Interval(-INF, INF),))

    @classmethod
    def point(cls, x: float) -> "IntervalSet":
        return cls((Interval(x, x, True, True),))

    @classmethod
    def open(cls, lo: float, hi: float) -> "IntervalSet":
        if lo >= hi:
            return cls.empty()
        return cls((Interval(lo, hi, False, False),))

    @classmethod
    def closed(cls, lo: float, hi: float) -> "IntervalSet":
        return cls((Interval(lo, hi, lo > -INF, hi < INF),))

    @classmethod
    def of_open(cls, *pairs: tuple[float, float]) -> "IntervalSet":
        return cls(Interval(lo, hi) for lo, hi in pairs if lo < hi)

    # -- basic queries -----------------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.intervals:
            return "IntervalSet(∅)"
        return "IntervalSet(" + " ∪ ".join(repr(iv) for iv in self.intervals) + ")"

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def n_components(self) -> int:
        return len(self.intervals)

    def contains_point(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    def interior_contains(self, x: float) -> bool:
        return any(iv.strictly_contains(x) for iv in self.intervals)

    def contains_set(self, other: "IntervalSet") -> bool:
        """True when ``other`` ⊆ ``self`` (flags included)."""
        return other.intersect(self.complement()).is_empty

    def boundary_points(self) -> list[float]:
        pts: set[float] = set()
        for iv in self.intervals:
            if not math.isinf(iv.lo):
                pts.add(iv.lo)
            if not math.isinf(iv.hi):
                pts.add(iv.hi)
        return sorted(pts)

    def lebesgue_length(self) -> float:
        total = 0.0
        for iv in self.intervals:
            if math.isinf(iv.lo) or math.isinf(iv.hi):
                return INF
            total += iv.length
        return total

    # -- set operations ----------------------------------------------------

    def complement(self) -> "IntervalSet":
        pieces: list[Interval] = []
        cursor = -INF
        cursor_closed = False  # whether `cursor` itself belongs to the complement
        for iv in self.intervals:
            if cursor < iv.lo or (cursor == iv.lo and cursor_closed and not iv.lo_closed):
                pieces.append(Interval(cursor, iv.lo, cursor_closed, not iv.lo_closed))
            cursor = iv.hi
            cursor_closed = not iv.hi_closed
        if cursor < INF:
            pieces.append(Interval(cursor, INF, cursor_closed, False))
        elif not self.intervals:
            pieces.append(Interval(-INF, INF))
        return IntervalSet(pieces)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            u, v = a[i], b[j]
            lo, lo_closed = max(
                (u.lo, u.lo_closed), (v.lo, v.lo_closed), key=lambda t: (t[0], not t[1])
            )
            hi, hi_closed = min(
                (u.hi, u.hi_closed), (v.hi, v.hi_closed), key=lambda t: (t[0], t[1])
            )
            if lo < hi or (lo == hi and lo_closed and hi_closed):
                out.append(Interval(lo, hi, lo_closed, hi_closed))
            if _hi_key(u) < _hi_key(v):
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def sym_diff(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other).union(other.difference(self))

    # -- dilation / erosion -------------------------------------------------

    def expand(self, eps: float) -> "IntervalSet":
        """Minkowski sum with the closed ball of radius ``eps``."""
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if eps == 0 or self.is_empty:
            return self
        out = []
        for iv in self.intervals:
            lo = iv.lo if math.isinf(iv.lo) else iv.lo - eps
            hi = iv.hi if math.isinf(iv.hi) else iv.hi + eps
            out.append(Interval(lo, hi, iv.lo_closed, iv.hi_closed))
        return IntervalSet(out)

    def contract(self, eps: float) -> "IntervalSet":
        """Points whose closed ``eps``-ball lies inside the set."""
        return self.complement().expand(eps).complement()

    def is_regular(self, eps: float) -> bool:
        """Every component of the set and of its complement is longer than 2·eps."""
        for iv in self.intervals:
            if not math.isinf(iv.length) and iv.length <= 2 * eps:
                return False
        for iv in self.complement().intervals:
            if not math.isinf(iv.length) and iv.length <= 2 * eps:
                return False
        return True

    # -- serialization -------------------------------------------------------

    def to_rows(self) -> list[list]:
        rows: list[list] = []
        for iv in self.intervals:
            lo = "-inf" if math.isinf(iv.lo) else iv.lo
            hi = "inf" if math.isinf(iv.hi) else iv.hi
            rows.append([lo, hi, iv.lo_closed, iv.hi_closed])
        return rows

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "IntervalSet":
        out = []
        for lo, hi, lc, hc in rows:
            lo_f = -INF if lo == "-inf" else float(lo)
            hi_f = INF if hi == "inf" else float(hi)
            out.append(Interval(lo_f, hi_f, bool(lc), bool(hc)))
        return cls(out)
