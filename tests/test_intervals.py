import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advbayes.intervals import INF, Interval, IntervalSet


def iset(*pairs):
    return IntervalSet(Interval(lo, hi, lc, hc) for lo, hi, lc, hc in pairs)


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)
        with pytest.raises(ValueError):
            Interval(0.0, 0.0)  # point must be closed
        with pytest.raises(ValueError):
            Interval(-INF, 0.0, lo_closed=True)
        with pytest.raises(ValueError):
            Interval(0.0, math.nan)
        assert Interval(0.0, 0.0, True, True).is_point

    def test_contains(self):
        iv = Interval(0.0, 1.0, True, False)
        assert iv.contains(0.0) and iv.contains(0.5) and not iv.contains(1.0)


class TestCanonical:
    def test_merge_overlap(self):
        s = iset((0, 1, False, False), (0.5, 2, False, False))
        assert s == IntervalSet.open(0, 2)

    def test_adjacent_merge_needs_cover(self):
        # (0,1) and (1,2) leave the point 1 uncovered: no merge.
        s = iset((0, 1, False, False), (1, 2, False, False))
        assert s.n_components == 2
        t = iset((0, 1, False, False), (1, 2, True, False))
        assert t == IntervalSet.open(0, 2)

    def test_point_absorbed(self):
        s = iset((0, 1, False, False), (1, 1, True, True))
        assert s.n_components == 1
        assert s.intervals[0].hi_closed


class TestOperations:
    def test_complement_open(self):
        s = IntervalSet.open(0, 1).complement()
        assert s == iset((-INF, 0, False, True), (1, INF, True, False))

    def test_complement_involution(self):
        s = iset((-INF, 0, False, False), (1, 2, True, False), (3, 3, True, True))
        assert s.complement().complement() == s

    def test_union_adjacency(self):
        a = IntervalSet.open(0, 1)
        b = iset((1, 2, True, False))
        assert a.union(b) == IntervalSet.open(0, 2)

    def test_sym_diff_self_empty(self):
        a = iset((0, 1, True, False), (2, 3, False, True))
        assert a.sym_diff(a).is_empty

    def test_components(self):
        assert IntervalSet.empty().n_components == 0
        assert iset((-INF, 1, False, False), (2, 3, False, False)).n_components == 2
        assert IntervalSet.reals().n_components == 1

    def test_lebesgue_length(self):
        assert IntervalSet.empty().lebesgue_length() == 0
        assert iset((0, 1, False, False), (2, 4, False, False)).lebesgue_length() == 3
        assert iset((-INF, 0, False, False)).lebesgue_length() == INF

    def test_contains_set(self):
        big = IntervalSet.open(0, 10)
        assert big.contains_set(IntervalSet.open(1, 2))
        assert not big.contains_set(IntervalSet.closed(0, 2))  # 0 excluded from big


class TestExpandContract:
    def test_expand_empty(self):
        assert IntervalSet.empty().expand(1.0).is_empty

    def test_expand_open_interval(self):
        # Dilation by a closed ball preserves endpoint flags: the image of
        # (0,1) is (-0.5, 1.5), open, since -0.5 itself is never attained.
        s = IntervalSet.open(0, 1).expand(0.5)
        assert s == IntervalSet.open(-0.5, 1.5)

    def test_expand_merges(self):
        s = IntervalSet.of_open((0, 1), (1.5, 2)).expand(0.3)
        assert s.n_components == 1
        assert s.intervals[0].lo == -0.3 and s.intervals[0].hi == 2.3

    def test_expand_zero_is_identity(self):
        s = iset((0, 1, True, False), (2, 3, False, False))
        assert s.expand(0.0) == s

    def test_contract_reals(self):
        assert IntervalSet.reals().contract(5.0) == IntervalSet.reals()

    def test_contract_open_interval_dies(self):
        assert IntervalSet.open(0, 1).contract(0.5).is_empty

    def test_contract_closed_interval_to_point(self):
        assert IntervalSet.closed(0, 1).contract(0.5) == IntervalSet.point(0.5)

    def test_is_regular(self):
        assert IntervalSet.open(0, 1).is_regular(0.4)
        assert not IntervalSet.open(0, 1).is_regular(0.5)
        assert IntervalSet.reals().is_regular(100.0)
        assert IntervalSet.empty().is_regular(100.0)
        # (0, 1) ∪ (1, 2) leaves the one-point gap {1}
        assert not iset((0, 1, False, False), (1, 2, False, False)).is_regular(0.1)

    def test_contract_erodes_components_separately(self):
        s = IntervalSet.of_open((0, 1), (2, 10))
        assert s.contract(0.5) == iset((2.5, 9.5, False, False))


class TestSerialization:
    def test_roundtrip(self):
        s = iset((-INF, 0, False, True), (1, 2, True, False), (3, 3, True, True))
        assert IntervalSet.from_rows(s.to_rows()) == s

    def test_sentinels(self):
        rows = IntervalSet.reals().to_rows()
        assert rows == [["-inf", "inf", False, False]]


# -- randomized structure properties ------------------------------------------

finite_points = st.integers(min_value=-51200, max_value=51200).map(lambda k: k / 1024.0)


@st.composite
def interval_sets(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    pts = sorted(draw(st.lists(finite_points, min_size=2 * n, max_size=2 * n, unique=True)))
    flags = draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))
    ivs = []
    for i in range(n):
        lo, hi = pts[2 * i], pts[2 * i + 1]
        ivs.append(Interval(lo, hi, flags[2 * i], flags[2 * i + 1]))
    if draw(st.booleans()) and ivs:
        first = ivs[0]
        ivs[0] = Interval(-INF, first.hi, False, first.hi_closed)
    return IntervalSet(ivs)


lattice_eps = st.integers(min_value=1, max_value=1024).map(lambda k: k / 1024.0)


@given(interval_sets())
@settings(deadline=None)
def test_double_complement(s):
    assert s.complement().complement() == s


@given(interval_sets(), interval_sets())
@settings(deadline=None)
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())
    assert a.intersect(b).complement() == a.complement().union(b.complement())


@given(interval_sets(), interval_sets(), st.floats(min_value=-60, max_value=60))
@settings(deadline=None)
def test_membership_semantics(a, b, x):
    assert a.union(b).contains_point(x) == (a.contains_point(x) or b.contains_point(x))
    assert a.intersect(b).contains_point(x) == (a.contains_point(x) and b.contains_point(x))
    assert a.sym_diff(b).contains_point(x) == (a.contains_point(x) != b.contains_point(x))
    assert a.complement().contains_point(x) != a.contains_point(x)


@given(interval_sets(), lattice_eps)
@settings(deadline=None)
def test_erode_dilate_inclusions(s, eps):
    # On the dyadic lattice every shift is exact, so the inclusions hold as
    # literal set containments.
    inner = s.contract(eps).expand(eps)
    outer = s.expand(eps).contract(eps)
    assert s.contains_set(inner)
    assert outer.contains_set(s)


@given(interval_sets(), lattice_eps)
@settings(deadline=None)
def test_erode_dilate_idempotence(s, eps):
    e = s.expand(eps)
    c = s.contract(eps)
    assert e.contract(eps).expand(eps) == e
    assert c.expand(eps).contract(eps) == c


@given(interval_sets(), lattice_eps, lattice_eps)
@settings(deadline=None)
def test_expand_additivity(s, e1, e2):
    assert s.expand(e1 + e2) == s.expand(e1).expand(e2)


@given(interval_sets(), lattice_eps)
@settings(deadline=None)
def test_regularized_components_not_small(s, eps):
    for iv in s.contract(eps).expand(eps):
        if not math.isinf(iv.length):
            assert iv.length >= 2 * eps


@given(interval_sets(), lattice_eps)
@settings(deadline=None)
def test_is_regular_matches_definition(s, eps):
    """Every bounded component of the set and of its complement is longer than 2*eps."""
    pieces = list(s.intervals) + list(s.complement().intervals)
    expected = all(math.isinf(iv.length) or iv.length > 2 * eps for iv in pieces)
    assert s.is_regular(eps) == expected


def test_expansion_matches_ball_characterization():
    # x is in the dilation iff the closed eps-ball around x meets the set.
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = np.sort(rng.integers(-2000, 2000, size=4)) / 64.0
        if len(set(pts)) < 4:
            continue
        s = IntervalSet.of_open((pts[0], pts[1]), (pts[2], pts[3]))
        eps = rng.integers(1, 128) / 64.0
        e = s.expand(eps)
        for x in rng.integers(-2200, 2200, size=30) / 64.0:
            ball_hits = not s.intersect(IntervalSet.closed(x - eps, x + eps)).is_empty
            assert e.contains_point(x) == ball_hits


# -- canonical results of the set operations --------------------------------------


@st.composite
def touching_sets(draw):
    """Sets built by the public constructor from lattice pieces that may
    share endpoints, be points, or run to -inf or +inf."""
    n = draw(st.integers(min_value=0, max_value=4))
    pts = sorted(draw(st.lists(finite_points, min_size=2 * n, max_size=2 * n)))
    ivs = []
    for i in range(n):
        lo, hi = pts[2 * i], pts[2 * i + 1]
        closed = draw(st.tuples(st.booleans(), st.booleans()))
        ivs.append(Interval(lo, hi, *closed) if lo < hi else Interval(lo, lo, True, True))
    if ivs and draw(st.booleans()):
        ivs[0] = Interval(-INF, ivs[0].hi, False, ivs[0].hi_closed)
    if ivs and draw(st.booleans()) and ivs[-1].lo > -INF:
        ivs[-1] = Interval(ivs[-1].lo, INF, ivs[-1].lo_closed, False)
    return IntervalSet(ivs)


def _ball_meets(s, x, eps):
    """The closed ball of radius eps around x meets s, read exactly."""
    lo, hi = Fraction(x) - Fraction(eps), Fraction(x) + Fraction(eps)
    for iv in s:
        left = iv.lo == -INF or Fraction(iv.lo) < hi or (Fraction(iv.lo) == hi and iv.lo_closed)
        right = iv.hi == INF or Fraction(iv.hi) > lo or (Fraction(iv.hi) == lo and iv.hi_closed)
        if left and right:
            return True
    return False


def _ball_inside(s, x, eps):
    """The closed ball of radius eps around x lies inside s, read exactly: a
    ball is connected, so it lies inside one component."""
    lo, hi = Fraction(x) - Fraction(eps), Fraction(x) + Fraction(eps)
    for iv in s:
        left = iv.lo == -INF or Fraction(iv.lo) < lo or (Fraction(iv.lo) == lo and iv.lo_closed)
        right = iv.hi == INF or Fraction(iv.hi) > hi or (Fraction(iv.hi) == hi and iv.hi_closed)
        if left and right:
            return True
    return False


def _probes(*sets):
    """Every finite endpoint of the sets, its two float neighbours, the
    midpoints between consecutive endpoints and a point beyond each end."""
    ends = sorted({p for s in sets for p in s.boundary_points()})
    if not ends:
        return [0.0]
    probes = [ends[0] - 1.0, ends[-1] + 1.0]
    probes += [0.5 * (u + v) for u, v in zip(ends, ends[1:])]
    for p in ends:
        probes += [p, math.nextafter(p, -INF), math.nextafter(p, INF)]
    return probes


@given(touching_sets(), touching_sets(), st.one_of(st.just(0.0), lattice_eps))
@settings(deadline=None, max_examples=300)
def test_operation_results_are_canonical(a, b, eps):
    """Each operation's result is what the public constructor makes of its
    pieces, and holds exactly the points its definition names."""
    results = {
        "complement": (a.complement(), lambda x: not a.contains_point(x)),
        "intersect": (a.intersect(b), lambda x: a.contains_point(x) and b.contains_point(x)),
        "union": (a.union(b), lambda x: a.contains_point(x) or b.contains_point(x)),
        "difference": (a.difference(b),
                       lambda x: a.contains_point(x) and not b.contains_point(x)),
        "sym_diff": (a.sym_diff(b), lambda x: a.contains_point(x) != b.contains_point(x)),
        "expand": (a.expand(eps), lambda x: _ball_meets(a, x, eps)),
        "contract": (a.contract(eps), lambda x: _ball_inside(a, x, eps)),
    }
    for name, (result, member) in results.items():
        rows = [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in result.intervals]
        again = IntervalSet(result.intervals)
        assert rows == [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in again], name
        for x in _probes(a, b, result):
            assert result.contains_point(x) == member(x), (name, x)


@pytest.mark.parametrize("args", [
    (math.nan, 1.0), (0.0, math.nan), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0, True, False),
    (0.0, 0.0, False, True), (-INF, 0.0, True, False), (0.0, INF, False, True), (INF, INF)])
def test_public_constructors_still_check(args):
    with pytest.raises(ValueError):
        Interval(*args)
    lo, hi = args[:2]
    with pytest.raises(ValueError):
        IntervalSet.from_rows([[lo, hi, *(args[2:] or (False, False))]])


def test_expand_past_the_float_range_raises():
    """A closed endpoint cannot dilate to -inf or +inf, which are never
    members of a set; an open one can."""
    with pytest.raises(ValueError):
        IntervalSet.closed(-1e308, 0.0).expand(1e308)
    with pytest.raises(ValueError):
        IntervalSet.closed(0.0, 1e308).expand(1e308)
    assert IntervalSet.open(0.0, 1e308).expand(1e308) == IntervalSet.open(-1e308, INF)
