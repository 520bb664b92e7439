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

The public ``Interval`` and ``IntervalSet`` constructors check and
canonicalize what they are given.  ``complement``, ``intersect``,
``expand``, ``union`` with an empty side and ``boundary_points`` instead
build their results directly (``_canonical``), because a canonical input
already orders their pieces: the complement's pieces are the gaps between
consecutive components, each separated from the next by a component; the
intersection's pieces come out of one left-to-right sweep, each inside a
different pair of components, so two of them are apart wherever those
components are; and a dilation keeps the components' order (x - eps and
x + eps are monotone in x), so ``expand`` only merges, left to right, the
dilated pieces that now overlap or touch.  ``contract``, ``difference`` and
``sym_diff`` are built from these.
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

    def __repr__(self) -> str:
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
        """The finite endpoints in increasing order, each once: the
        components' endpoints are already in order, and only an open one
        shared by two components, or a point's two ends, repeat."""
        pts: list[float] = []
        for iv in self.intervals:
            for p in (iv.lo, iv.hi):
                if not math.isinf(p) and not (pts and pts[-1] == p):
                    pts.append(p)
        return pts

    def lebesgue_length(self) -> float:
        total = 0.0
        for iv in self.intervals:
            if math.isinf(iv.lo) or math.isinf(iv.hi):
                return INF
            total += iv.length
        return total

    # -- set operations ----------------------------------------------------

    def complement(self) -> "IntervalSet":
        pieces: list[tuple] = []
        cursor = -INF
        cursor_closed = False  # whether `cursor` itself belongs to the complement
        for iv in self.intervals:
            if cursor < iv.lo or (cursor == iv.lo and cursor_closed and not iv.lo_closed):
                pieces.append((cursor, iv.lo, cursor_closed, not iv.lo_closed))
            cursor = iv.hi
            cursor_closed = not iv.hi_closed
        if cursor < INF:
            pieces.append((cursor, INF, cursor_closed, False))
        elif not self.intervals:
            pieces.append((-INF, INF, False, False))
        return _canonical(pieces)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[tuple] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            u, v = a[i], b[j]
            # The later start and the earlier end, an open end winning a tie;
            # on a full tie u's, which may differ from v's bits (-0.0 and 0.0).
            if u.lo > v.lo or (u.lo == v.lo and (v.lo_closed or not u.lo_closed)):
                lo, lo_closed = u.lo, u.lo_closed
            else:
                lo, lo_closed = v.lo, v.lo_closed
            if u.hi < v.hi or (u.hi == v.hi and (v.hi_closed or not u.hi_closed)):
                hi, hi_closed = u.hi, u.hi_closed
            else:
                hi, hi_closed = v.hi, v.hi_closed
            if lo < hi or (lo == hi and lo_closed and hi_closed):
                out.append((lo, hi, lo_closed, hi_closed))
            if u.hi < v.hi or (u.hi == v.hi and v.hi_closed and not u.hi_closed):
                i += 1
            else:
                j += 1
        return _canonical(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        return IntervalSet(self.intervals + other.intervals)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def sym_diff(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other).union(other.difference(self))

    # -- dilation / erosion -------------------------------------------------

    def expand(self, eps: float) -> "IntervalSet":
        """Minkowski sum with the closed ball of radius ``eps``.

        The dilated pieces keep the components' order, so each one either
        starts a new piece or merges into the one before it, as
        ``IntervalSet.__init__`` would merge them: where two start at the same
        point (rounding can make them), the closed start wins.
        """
        if not eps >= 0:
            raise ValueError("eps must be nonnegative")
        if eps == 0 or self.is_empty:
            return self
        out: list[tuple] = []
        for iv in self.intervals:
            lo = iv.lo if math.isinf(iv.lo) else iv.lo - eps
            hi = iv.hi if math.isinf(iv.hi) else iv.hi + eps
            lo_closed, hi_closed = iv.lo_closed, iv.hi_closed
            if (lo_closed and lo == -INF) or (hi_closed and hi == INF):
                raise ValueError(f"eps={eps!r} moves a closed endpoint past the float range")
            if out:
                p_lo, p_hi, p_lo_closed, p_hi_closed = out[-1]
                if lo < p_hi or (lo == p_hi and (p_hi_closed or lo_closed)):
                    hi, hi_closed = max((p_hi, p_hi_closed), (hi, hi_closed))
                    out[-1] = (p_lo, hi, p_lo_closed or (lo == p_lo and lo_closed), hi_closed)
                    continue
            out.append((lo, hi, lo_closed, hi_closed))
        return _canonical(out)

    def contract(self, eps: float) -> "IntervalSet":
        """Points whose closed ``eps``-ball lies inside the set."""
        return self.complement().expand(eps).complement()

    def is_regular(self, eps: float) -> bool:
        """Every component of the set and of its complement is longer than 2·eps."""
        ivs = self.intervals
        for iv in ivs:
            if not math.isinf(iv.length) and iv.length <= 2 * eps:
                return False
        # The bounded components of the complement are the gaps between
        # consecutive components (a shared endpoint is a one-point gap).
        return all(nxt.lo - iv.hi > 2 * eps for iv, nxt in zip(ivs, ivs[1:]))

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


def _canonical(rows: Iterable[tuple[float, float, bool, bool]]) -> IntervalSet:
    """The set whose components are the ``(lo, hi, lo_closed, hi_closed)``
    ``rows`` as they are.

    The set operations above call this with pieces that are valid intervals,
    sorted, disjoint and non-adjacent, so neither ``Interval``'s checks nor
    ``IntervalSet.__init__``'s sort and merge run: each ``Interval`` gets its
    fields directly (a frozen dataclass keeps them in its ``__dict__``).
    """
    out = []
    for lo, hi, lo_closed, hi_closed in rows:
        iv = object.__new__(Interval)
        iv.__dict__.update(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)
        out.append(iv)
    s = object.__new__(IntervalSet)
    s.intervals = tuple(out)
    return s
