import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import left_fold
from advbayes import examples
from advbayes.density import (
    ARRAY_CDF_POINTS,
    GAUSSIAN_ARRAY_CDF_POINTS,
    DistributionPair,
    Gaussian,
    OutsideSupport,
    PiecewisePoly,
    _cell_extrema,
    _GaussianSums,
    _poly_eval,
    itp_root,
    pair_from_dict,
    pair_to_dict,
)
from advbayes.intervals import INF, Interval, IntervalSet


class TestValidation:
    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            Gaussian(weight=0.5, mu=0.0, sigma=0.0)

    def test_weight_range(self):
        with pytest.raises(ValueError):
            Gaussian(weight=1.5, mu=0.0, sigma=1.0)

    def test_breakpoints_increasing(self):
        with pytest.raises(ValueError):
            PiecewisePoly(breakpoints=(0.0, 0.0), coeffs=((1.0,),))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePoly(breakpoints=(0.0, 1.0), coeffs=((-0.1,),))
        # dips negative in the middle even though endpoints are positive
        with pytest.raises(ValueError):
            PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((0.1, 0.0, -1.0, 0.0, 1.0),))

    def test_dip_between_samples_rejected(self):
        # Least value -1.05e-12 at x ~ 0.2934 (exact rational arithmetic),
        # while 64 evenly spaced samples of [-1, 1] all read above +2.4e-17.
        row = (5.445786818007798e-08, -7.873500412435802e-07, 4.265586338183105e-06,
               -1.0262679963375369e-05, 9.251399233796585e-06)
        assert _poly_eval(row, np.linspace(-1.0, 1.0, 64)).min() > 2e-17
        with pytest.raises(ValueError):
            PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=(row,))

    def test_rounding_dip_accepted_and_read_as_zero(self):
        # the guard admits a row down to -1e-12; pdf and pdf_array clamp it at 0
        poly = PiecewisePoly(breakpoints=(0.0, 1.0), coeffs=((-1e-12,),))
        assert poly.pdf(0.5) == 0.0
        assert poly.pdf_array(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 0.0, 0.0]
        assert poly.logpdf_array(np.array([0.5]))[0] == -INF
        with pytest.raises(ValueError):
            PiecewisePoly(breakpoints=(0.0, 1.0), coeffs=((-2e-12,),))

    def test_non_finite_coefficients(self):
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError):
                PiecewisePoly(breakpoints=(0.0, 1.0), coeffs=((c,),))

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            PiecewisePoly(breakpoints=(0.0, 1.0), coeffs=((1.0,) * 7,))

    def test_total_mass_must_be_one(self):
        with pytest.raises(ValueError):
            DistributionPair(
                class0=[Gaussian(weight=0.6, mu=0.0, sigma=1.0)],
                class1=[Gaussian(weight=0.6, mu=1.0, sigma=1.0)],
            )


class TestEval:
    def test_gaussian_peak(self):
        pair = examples.gaussians_equal_variances()
        assert pair.pdf(0, 0.0) == pytest.approx(0.5 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_ramp_value(self, nus_pair):
        assert nus_pair.pdf(0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_zero_outside_breakpoints(self, nus_pair):
        assert nus_pair.pdf(0, 1.5) == 0.0
        assert nus_pair.pdf(1, -2.0) == 0.0


class TestMass:
    def test_gaussian_total(self):
        g = Gaussian(weight=0.5, mu=0.0, sigma=1.0)
        assert g.cdf(INF) == 0.5

    def test_degenerate_center_mass(self, deg_pair):
        assert deg_pair.mass(0, Interval(-0.25, 0.25)) == pytest.approx(0.1, abs=1e-15)

    def test_nua_left_class1_mass(self, nua_pair):
        # oracle: quadrature of the reference density over (-inf, 0]
        ref = oracles.ref_non_uniqueness_all()
        expected = oracles.integrate(ref[1], -INF, 0.0, ref[2])
        assert expected == pytest.approx(0.125, abs=1e-12)
        assert nua_pair.mass(1, Interval(-INF, 0.0)) == pytest.approx(0.125, abs=1e-15)

    def test_additivity_random_partitions(self, nus_pair, eqvar_pair):
        rng = np.random.default_rng(11)
        for pair in (nus_pair, eqvar_pair):
            for _ in range(200):
                cuts = np.sort(rng.uniform(-3, 3, size=3))
                whole = pair.mass(0, Interval(cuts[0], cuts[2]))
                parts = pair.mass(0, Interval(cuts[0], cuts[1])) + pair.mass(
                    0, Interval(cuts[1], cuts[2])
                )
                assert abs(whole - parts) <= 1e-12

    def test_mass_against_quadrature(self, deg_pair, eqmeans_pair):
        for pair, ref in (
            (deg_pair, oracles.ref_degenerate()),
            (eqmeans_pair, oracles.ref_equal_means()),
        ):
            rng = np.random.default_rng(5)
            for _ in range(25):
                a, b = np.sort(rng.uniform(-2, 2, size=2))
                for which in (0, 1):
                    expected = oracles.integrate(ref[which], a, b, ref[2])
                    assert pair.mass(which, Interval(a, b)) == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_cdf_array_matches_scalar(self, nua_pair, eqmeans_pair, deg_pair, many_cells_pair):
        """The array CDF has the scalar CDF's bits, on multi-cell pairs too:
        ``degenerate`` class 1, both classes of the deg_eta counterexample
        and the 96-cell mixed-degree pair; at ±inf as well."""
        rng = np.random.default_rng(11)
        for pair in (nua_pair, eqmeans_pair, deg_pair, examples.deg_eta_0_1_counterexample(0.1),
                     many_cells_pair):
            lo, hi = pair.finite_extent()
            xs = np.concatenate([np.linspace(-3, 3, 101), rng.uniform(lo, hi, 4000),
                                 pair.breakpoints(0), pair.breakpoints(1), [-INF, INF]])
            for which in (0, 1):
                arr = pair.cdf_array(which, xs)
                scl = np.array([pair.cdf(which, float(x)) for x in xs])
                assert arr.tobytes() == scl.tobytes()


class TestPdfArray:
    """Array evaluators against the scalar ``pdf`` they mirror."""

    def test_piecewise_bit_identical(self, nus_pair, nua_pair, deg_pair, many_cells_pair):
        rng = np.random.default_rng(7)
        comps = [c for pair in (nus_pair, nua_pair, deg_pair, many_cells_pair)
                 for c in pair.class0 + pair.class1]
        comps.append(PiecewisePoly(breakpoints=(-1.0, 0.5, 2.0),
                                   coeffs=((0.1, 0.05, 0.2, 0.01), (0.3, -0.1, 0.05))))
        for c in comps:
            bp = np.asarray(c.breakpoints)
            xs = np.concatenate([
                rng.uniform(bp[0], bp[-1], size=200),   # interior
                bp,                                      # every breakpoint, the last included
                np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                [bp[0] - 1.0, bp[-1] + 1.0, -1e300, 1e300],  # outside the support
            ])
            arr = c.pdf_array(xs)
            assert arr.dtype == np.float64 and arr.shape == xs.shape
            assert arr.tolist() == [c.pdf(float(x)) for x in xs]

    def test_gaussian_within_1e15_relative(self):
        rng = np.random.default_rng(8)
        for g in (Gaussian(weight=0.5, mu=0.0, sigma=1.0),
                  Gaussian(weight=0.13, mu=-2.5, sigma=0.3),
                  Gaussian(weight=1.0, mu=4.0, sigma=7.0)):
            xs = g.mu + g.sigma * rng.uniform(-12.0, 12.0, size=2000)
            arr = g.pdf_array(xs)
            scl = np.array([g.pdf(float(x)) for x in xs])
            assert np.all(np.abs(arr - scl) <= 1e-15 * scl)

    def test_pair_sums_components(self, eqvar_pair, eqmeans_pair, nua_pair):
        mixed = DistributionPair(
            class0=[Gaussian(weight=0.25, mu=-1.0, sigma=0.5),
                    PiecewisePoly(breakpoints=(-1.0, 0.0, 1.0), coeffs=((0.125,), (0.125,)))],
            class1=[PiecewisePoly(breakpoints=(0.0, 2.0), coeffs=((0.0, 0.125),)),
                    Gaussian(weight=0.25, mu=1.5, sigma=2.0)],
        )
        xs = np.concatenate([np.linspace(-4.0, 4.0, 401), [-1.0, 0.0, 1.0, 2.0]])
        for pair in (eqvar_pair, eqmeans_pair, nua_pair, mixed):
            for which in (0, 1):
                arr = pair.pdf_array(which, xs)
                scl = np.array([pair.pdf(which, float(x)) for x in xs])
                assert np.all(np.abs(arr - scl) <= 1e-15 * scl)
                if not pair.has_gaussian(which):
                    assert arr.tolist() == scl.tolist()


@st.composite
def wide_classes(draw):
    """A pair whose classes hold 1-6 Gaussians each, means within ±1e3 in
    any order and sigmas from 1e-3 to 10 on a log scale; a class may also
    hold a piecewise cell, so that it is summed component by component."""
    share0 = draw(st.floats(0.2, 0.8))
    classes = []
    for share in (share0, 1.0 - share0):
        spread = draw(st.sampled_from([3.0, 1e3]))
        n = draw(st.integers(1, 6))
        cell = draw(st.booleans())
        weight = share / (n + cell)
        comps = [Gaussian(weight=weight, mu=draw(st.floats(-spread, spread)),
                          sigma=10.0 ** draw(st.floats(-3.0, 1.0))) for _ in range(n)]
        if cell:
            lo = draw(st.floats(-spread, spread))
            comps.insert(draw(st.integers(0, n)),
                         PiecewisePoly(breakpoints=(lo, lo + 2.0), coeffs=((0.5 * weight,),)))
        classes.append(comps)
    return DistributionPair(*classes)


def probe_points(draw, pair: DistributionPair) -> list[float]:
    """The means, points up to 60 sigmas from them (across the 38.6-sigma
    underflow of each term) and far tails, out to where (x - mu) / sigma
    overflows."""
    gaussians = [c for c in pair.class0 + pair.class1 if isinstance(c, Gaussian)]
    pts = [g.mu for g in gaussians] + [1.7e308, -1.7e308, 1e300, -1e300, 1e4, -1e4]
    for g in gaussians:
        for m in draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=4)):
            pts.append(g.mu + m * g.sigma)
        pts += [g.mu + 38.6 * g.sigma, g.mu - 40.0 * g.sigma]
    return pts


class TestScalarSums:
    """``pdf`` and the pool's CDF fill against the plain component sums, bit
    for bit."""

    @given(wide_classes(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_pdf_bits(self, pair, data):
        for x in probe_points(data.draw, pair) + [INF, -INF]:
            for which, comps in ((0, pair.class0), (1, pair.class1)):
                assert pair.pdf(which, x).hex() == left_fold(c.pdf(x) for c in comps).hex(), x

    @given(wide_classes(), st.data(), st.floats(0.0, 2.0))
    @settings(deadline=None, max_examples=50)
    def test_pool_fill_gives_scalar_cdfs(self, pair, data, eps):
        """The fill ``enumerate_candidates`` makes, one ``cdf_points`` list
        per class, long enough for ``cdf_array``: the values and the memo
        that ``cdf`` then reads have the component sums' bits."""
        lo, hi = pair.finite_extent()
        pts = [p for p in probe_points(data.draw, pair) if abs(p) <= 1e300]  # no overflow
        pts += np.linspace(lo, hi, ARRAY_CDF_POINTS).tolist()
        for which, comps in ((0, pair.class0), (1, pair.class1)):
            xs = [p + data.draw(st.sampled_from([-eps, eps])) for p in pts]
            expected = [left_fold(c.cdf(x) for c in comps).hex() for x in xs]
            assert [v.hex() for v in pair.cdf_points(which, xs)] == expected
            assert [pair.cdf(which, x).hex() for x in xs] == expected

    def test_cdf_points_path_from_the_class(self, monkeypatch):
        """An all-Gaussian class reads a list with ``cdf_array`` from
        ``GAUSSIAN_ARRAY_CDF_POINTS`` points on, any other class from
        ``ARRAY_CDF_POINTS`` on; lists one shorter take the scalar path, and
        both give the component sums' bits."""
        bumps = [Gaussian(weight=0.5 / 8, mu=4.0 * i, sigma=0.7) for i in range(8)]
        mixed = [Gaussian(weight=0.25, mu=1.0, sigma=2.0),
                 PiecewisePoly(breakpoints=(0.0, 2.0), coeffs=((0.125,),))]
        pairs = [examples.example_pair("gaussians_equal_variances"),
                 examples.example_pair("degenerate"), DistributionPair(bumps, mixed)]
        arrays = []
        cdf_array = DistributionPair.cdf_array
        monkeypatch.setattr(DistributionPair, "cdf_array", lambda self, which, xs:
                            arrays.append(len(xs)) or cdf_array(self, which, xs))
        for pair in pairs:
            lo, hi = pair.finite_extent()
            for which, comps in ((0, pair.class0), (1, pair.class1)):
                gaussian = all(isinstance(c, Gaussian) for c in comps)
                threshold = GAUSSIAN_ARRAY_CDF_POINTS if gaussian else ARRAY_CDF_POINTS
                for size in (threshold - 1, threshold):
                    xs = np.linspace(lo, hi, size).tolist()
                    expected = [left_fold(c.cdf(x) for c in comps).hex() for x in xs]
                    arrays.clear()
                    assert [v.hex() for v in pair.cdf_points(which, xs)] == expected
                    assert arrays == ([size] if size == threshold else [])
        with pytest.raises(ValueError, match="class index"):
            pairs[0].cdf_points(2, [0.0])


class TestLeftFolds:
    """The scalar reads add components (or intervals) left to right from 0,
    as the array reads do, on every Python version.  The class holds three
    uniform cells whose values 0.5, 2^-54 and 2^-54 sum to 0.5 left to
    right, but to 0.5 + 2^-53 rounded once (``math.fsum``) or compensated,
    as ``sum`` adds floats from Python 3.12 on."""

    TINY_ROW = 2.0**-54
    PAIR = DistributionPair([PiecewisePoly((0.0, 1.0), ((v,),)) for v in (0.5, TINY_ROW, TINY_ROW)],
                            [PiecewisePoly((2.0, 3.0), ((0.5,),))])

    def check(self, got: float, terms: list[float], array: float | None = None) -> None:
        assert math.fsum(terms) != left_fold(terms)  # the values tell the sums apart
        assert got.hex() == left_fold(terms).hex()
        if array is not None:
            assert got.hex() == array.hex()

    def test_pdf(self):
        comps = self.PAIR.class0
        self.check(self.PAIR.pdf(0, 0.5), [c.pdf(0.5) for c in comps],
                   float(self.PAIR.pdf_array(0, np.array([0.5]))[0]))

    def test_cdf(self):
        comps = self.PAIR.class0
        pair = DistributionPair(self.PAIR.class0, self.PAIR.class1)  # an empty memo
        self.check(pair.cdf(0, 0.5), [c.cdf(0.5) for c in comps],
                   float(pair.cdf_array(0, np.array([0.5]))[0]))

    def test_total_mass(self):
        comps = self.PAIR.class0
        self.check(self.PAIR.total_mass(0), [c.total_mass for c in comps],
                   float(self.PAIR.cdf_array(0, np.array([INF]))[0]))

    def test_sup_density(self):
        self.check(self.PAIR.sup_density(0), [c.sup_density for c in self.PAIR.class0])

    def test_mass_set(self):
        s = IntervalSet.of_open((0.0, 0.1), (0.2, 0.6), (0.7, 0.9))
        masses = [self.PAIR.mass(0, iv) for iv in s]
        los, his = (np.array([getattr(iv, end) for iv in s]) for end in ("lo", "hi"))
        by_array = (self.PAIR.cdf_array(0, his) - self.PAIR.cdf_array(0, los)).tolist()
        self.check(self.PAIR.mass_set(0, s), masses, left_fold(by_array))


@st.composite
def spread_classes(draw):
    """2-8 Gaussians listed in any order, with sigmas from 0.3 to 1.5 and
    means within ±10 or ±1e3, at least one pair of them beyond one reach
    (40 sigma_max) of each other: the windowed array read."""
    n = draw(st.integers(2, 8))
    spread = draw(st.sampled_from([10.0, 1e3]))
    comps = [Gaussian(weight=1.0 / n, mu=draw(st.floats(-spread, spread)),
                      sigma=draw(st.floats(0.3, 1.5))) for _ in range(n)]
    if max(g.mu for g in comps) - min(g.mu for g in comps) <= 40.0 * max(g.sigma for g in comps):
        comps[0] = Gaussian(weight=1.0 / n, mu=comps[1].mu + 61.0, sigma=comps[0].sigma)
    return comps


def plain_sum(comps, xs: np.ndarray) -> np.ndarray:
    """Every component on every point, added in component order."""
    out = np.zeros_like(xs)
    with np.errstate(over="ignore"):
        for c in comps:
            out += c.pdf_array(xs)
    return out


class TestWindowedPdfArray:
    """An all-Gaussian class whose means spread beyond one reach adds each
    component only on the points within it, with the plain sum's bits."""

    @given(spread_classes(), st.data())
    @settings(deadline=None, max_examples=150)
    def test_equals_plain_sum(self, comps, data):
        sums = _GaussianSums(tuple(comps))
        assert sums._limit == INF  # the windowed read, not the plain one
        pts = probe_points(data.draw, SimpleNamespace(class0=tuple(comps), class1=())) + [INF, -INF]
        pts += [g.mu + k * 40.0 * g.sigma for g in comps for k in (-1.0, 1.0)]
        xs = np.array(data.draw(st.one_of(st.permutations(pts), st.just(sorted(pts)))))
        assert sums.pdf_array(xs).tobytes() == plain_sum(comps, xs).tobytes()

    def test_nan_reads_every_component(self):
        comps = (Gaussian(0.5, 0.0, 0.5), Gaussian(0.5, 100.0, 1.5))
        xs = np.array([100.0, np.nan, 0.0, -INF])
        got = _GaussianSums(comps).pdf_array(xs)
        assert got.tobytes() == plain_sum(comps, xs).tobytes() and math.isnan(got[1])

    def test_pair_reads_windowed(self, monkeypatch):
        """``DistributionPair.pdf_array`` goes through the class's sums, and a
        class whose means lie within one reach takes the plain loop."""
        wide = (Gaussian(0.25, 0.0, 0.5), Gaussian(0.25, 100.0, 1.5))
        close = (Gaussian(0.25, 0.0, 0.5), Gaussian(0.25, 10.0, 1.5))
        pair = DistributionPair(wide, close)
        assert pair._class_sums[0]._limit == INF and pair._class_sums[1]._limit == 0.0
        xs = np.linspace(-50.0, 150.0, 401)
        for which, comps in ((0, wide), (1, close)):
            assert pair.pdf_array(which, xs).tobytes() == plain_sum(comps, xs).tobytes()


@st.composite
def root_brackets(draw):
    """``(f, lo, hi, tol, root)``: a bracket with one sign change of ``f`` at
    ``root``, strictly inside it.  ``f`` is smooth with a simple root (a
    monotone cubic, a steep exponential, a saturating tanh), a step with
    lopsided sides, or either with infinite values at the bracket's ends (a
    log-density gap against a zero density)."""
    lo = draw(st.floats(-100.0, 100.0))
    width = 10.0 ** draw(st.floats(-6.0, 3.0))
    hi = lo + width
    root = lo + width * draw(st.one_of(st.floats(1e-3, 1.0 - 1e-3),
                                       st.sampled_from([1e-9, 0.5, 1.0 - 1e-9])))
    assume(lo < root < hi)
    tol = 10.0 ** draw(st.floats(-12.0, -2.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    kind = draw(st.sampled_from(["cubic", "exp", "tanh", "step"]))
    k = 10.0 ** draw(st.floats(-2.0, 3.0))
    if kind == "cubic":
        f = lambda x: sign * (x - root) * (1.0 + k * (x - root) ** 2)
    elif kind == "exp":
        k = min(k, 500.0 / width)  # no overflow
        f = lambda x: sign * math.expm1(k * (x - root))
    elif kind == "tanh":
        f = lambda x: sign * math.tanh(k * (x - root))
    else:
        low, high = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(2))
        f = lambda x: sign * (-low if x < root else high)
    if draw(st.booleans()):
        smooth = f
        f = lambda x: sign * (-math.inf if x == lo else math.inf) if x in (lo, hi) else smooth(x)
    return f, lo, hi, tol, root


class TestItpRoot:
    """Bracketed root finder: the final bracket is no wider than ``tol`` (up
    to the rounding of its ends)."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        return g, calls

    @pytest.mark.parametrize("f, lo, hi, root", [
        (math.cos, 1.0, 2.0, 0.5 * math.pi),
        (lambda x: x**9 - 1e-9, -1.0, 2.0, 1e-1),
        (lambda x: math.exp(x) - 2.0, -30.0, 30.0, math.log(2.0)),
        # lopsided step: interpolation lands next to the wrong end every time
        (lambda x: -1e9 if x < 0.3 else 1e-9, 0.0, 1.0, 0.3),
        # infinite ends (a log-density gap against a zero density)
        (lambda x: -math.inf if x < 0.3 else math.inf, 0.0, 1.0, 0.3),
    ])
    @pytest.mark.parametrize("tol", [1e-12, 1e-6])
    def test_at_most_one_step_more_than_bisection(self, f, lo, hi, root, tol):
        g, calls = self.counted(f)
        x = itp_root(g, lo, hi, tol)
        assert abs(x - root) <= 0.5 * tol + 4 * math.ulp(root)
        # two end values, then at most n0 = 1 step more than bisection
        assert len(calls) <= 2 + math.ceil(math.log2((hi - lo) / tol)) + 1

    def test_smooth_root_in_few_steps(self):
        g, calls = self.counted(math.cos)
        itp_root(g, 1.0, 2.0, 1e-12)
        assert len(calls) <= 7  # bisection: 2 + 40; brentq: 7

    @given(root_brackets())
    @settings(deadline=None, max_examples=300)
    def test_drawn_brackets(self, case):
        """An exact zero, or the midpoint of a final bracket no wider than
        ``tol`` whose ends have opposite signs, within bisection's steps + 1."""
        f, lo, hi, tol, root = case
        g, calls = self.counted(f)
        x = itp_root(g, lo, hi, tol)
        assert calls[:2] == [lo, hi]
        assert len(calls) <= 2 + max(0, math.ceil(math.log2((hi - lo) / tol))) + 1
        if f(x) == 0.0:
            return
        sign_of = lambda u: (f(u) > 0.0) - (f(u) < 0.0)
        below = max(u for u in calls if u <= x and sign_of(u) == sign_of(lo))
        above = min(v for v in calls if v >= x and sign_of(v) == sign_of(hi))
        assert x == 0.5 * (below + above)
        assert above - below <= tol + 4.0 * math.ulp(max(abs(below), abs(above)))
        assert below <= root <= above

    def test_end_values_without_sign_change(self):
        # a zero end is returned as is; ends of one sign (a sample within an
        # ulp of zero that the array evaluator signed the other way) give the
        # end with the smaller |f|, without a further evaluation
        for f, expected in ((lambda x: x, 0.0), (lambda x: x - 1.0, 1.0),
                            (lambda x: 0.0, 0.0), (lambda x: 1.0 + x, 0.0),
                            (lambda x: 2.0 - x, 1.0), (lambda x: -1.0, 0.0)):
            g, calls = self.counted(f)
            assert itp_root(g, 0.0, 1.0, 1e-12) == expected
            assert calls == [0.0, 1.0]


def _row_from_slope_roots(roots, lead=1.0):
    """Ascending coefficients of a polynomial whose derivative is
    ``lead * prod(x - r)``."""
    slope = np.polynomial.polynomial.polyfromroots(roots) * lead
    return tuple(np.polynomial.polynomial.polyint(slope).tolist())


@st.composite
def cell_rows(draw):
    """A cell [lo, hi] and a row of degree 0-5 on it: normal coefficients,
    or a product of linear factors with roots in or near the cell, some
    near-double, shifted by a constant; scaled by 10^-50 to 10^50."""
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(1e-3, 3.0))
    degree = draw(st.integers(0, 5))
    if draw(st.booleans()):
        row = [draw(st.floats(-1.0, 1.0)) for _ in range(degree + 1)]
    else:
        roots = []
        while len(roots) < degree:
            r = draw(st.floats(lo - 0.5, hi + 0.5))
            roots.append(r)
            if len(roots) < degree and draw(st.booleans()):
                roots.append(r + 10.0 ** draw(st.floats(-12.0, -3.0)))
        row = np.polynomial.polynomial.polyfromroots(roots).tolist() if roots else [1.0]
        row[0] += draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6]))
    scale = 10.0 ** draw(st.integers(-50, 50))
    return lo, hi, tuple(c * scale for c in row)


class TestCellExtrema:
    """Extremes of a cell row: at the cell ends or at ``_cell_extrema``."""

    def test_cubic_slope(self):
        roots = [-0.4, 0.2, 0.9]
        got = _cell_extrema(_row_from_slope_roots(roots), -1.0, 1.0)
        assert len(got) == 3
        assert max(abs(g - r) for g, r in zip(got, roots)) <= 1e-12

    def test_monotone_rows_have_none(self):
        assert _cell_extrema((1.0, 1.0, 0.0, 1.0), -2.0, 2.0) == []  # x^3 + x + 1
        assert _cell_extrema((1.0, 0.0, 1.0), 0.5, 2.0) == []  # its minimum is at 0
        assert _cell_extrema((1.0, 0.0, 0.0, 1.0), -1.0, 1.0) == []  # flat at 0, no extremum
        assert _cell_extrema((3.0,), -1.0, 1.0) == _cell_extrema((3.0, 2.0), -1.0, 1.0) == []

    def test_quintic(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            roots = np.sort(rng.uniform(-0.9, 0.9, size=3))
            got = _cell_extrema(_row_from_slope_roots(list(roots) + [2.0]), -1.0, 1.0)
            assert len(got) == 3
            assert np.max(np.abs(np.array(got) - roots)) <= 1e-9

    @given(cell_rows())
    @settings(deadline=None, max_examples=400)
    # (x-1)^3 (x-1-1e-6): the slope is exactly 0 at the first inner knot
    # and changes sign across it, so that knot is the minimum.
    @example((0.0, 3.0, (1.000001, -4.0000029999999995, 6.000003, -4.000001, 1.0)))
    # The slope's root sits on the cell's left end: it is that end, not an inner point.
    @example((0.1766684700651136, 1.1766684700651135,
              (0.0, 31.21174831514794, -353.3369401302272, 1000.0)))
    def test_bounds_every_sample(self, cell):
        """The least and greatest row values over the ends and the extrema
        bound those of 4,097 evenly spaced samples, up to rounding at the
        row's scale; the guard and ``sup_density`` read the same points."""
        lo, hi, row = cell
        points = [lo, hi] + _cell_extrema(row, lo, hi)
        assert points[2:] == sorted(points[2:]) and all(lo < x < hi for x in points[2:])
        values = [_poly_eval(row, x) for x in points]
        samples = _poly_eval(row, np.linspace(lo, hi, 4097))
        reach = max(abs(lo), abs(hi))
        slack = 64 * np.finfo(float).eps * sum(abs(c) * reach**i for i, c in enumerate(row))
        assert min(values) <= samples.min() + slack
        assert max(values) >= samples.max() - slack
        if min(values) < -1e-12:
            with pytest.raises(ValueError):
                PiecewisePoly(breakpoints=(lo, hi), coeffs=(row,))
        else:
            poly = PiecewisePoly(breakpoints=(lo, hi), coeffs=(row,))
            assert poly.sup_density >= samples.max() - slack


class TestEta:
    def test_values(self, nua_pair, deg_pair):
        assert nua_pair.eta(0.5) == pytest.approx(0.75, abs=1e-15)
        assert deg_pair.eta(0.0) == 0.0

    def test_symmetric_half(self):
        pair = DistributionPair(
            class0=[Gaussian(weight=0.5, mu=0.0, sigma=1.0)],
            class1=[Gaussian(weight=0.5, mu=0.0, sigma=1.0)],
        )
        assert pair.eta(0.7) == pytest.approx(0.5, abs=1e-15)

    def test_outside_support_raises(self, nus_pair):
        with pytest.raises(OutsideSupport):
            nus_pair.eta(2.0)

    def test_range(self, eqmeans_pair, nus_pair):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-0.99, 0.99, size=300):
            assert 0.0 <= nus_pair.eta(x) <= 1.0
            assert 0.0 <= eqmeans_pair.eta(x) <= 1.0


class TestSupport:
    def test_gaussian_support_is_line(self, eqvar_pair):
        assert eqvar_pair.support() == IntervalSet.reals()

    def test_ramp_support(self, nus_pair):
        assert nus_pair.support() == IntervalSet.closed(-1.0, 1.0)

    def test_split_support(self):
        e = 0.1
        pair = examples.deg_eta_0_1_counterexample(e)
        expected = IntervalSet(
            [
                Interval(-3 * e, -2 * e, True, True),
                Interval(-e, e, True, True),
                Interval(2 * e, 3 * e, True, True),
            ]
        )
        assert pair.support() == expected


class TestConfigSchema:
    def test_roundtrip(self, nua_pair):
        again = pair_from_dict(pair_to_dict(nua_pair))
        assert again.total_mass(0) == nua_pair.total_mass(0)
        assert again.pdf(1, 0.3) == nua_pair.pdf(1, 0.3)

    def test_schema_shape(self):
        d = {
            "class0": [{"type": "gaussian", "weight": 0.5, "mu": 0.0, "sigma": 1.0}],
            "class1": [
                {
                    "type": "piecewise_poly",
                    "breakpoints": [-1.0, 1.0],
                    "coeffs": [[0.25]],
                }
            ],
        }
        pair = pair_from_dict(d)
        assert pair.total_mass(1) == pytest.approx(0.5, abs=1e-12)

    def test_total_mass_sums_to_one(self, eqvar_pair, deg_pair, nus_pair):
        for pair in (eqvar_pair, deg_pair, nus_pair):
            assert abs(pair.total_mass(0) + pair.total_mass(1) - 1.0) <= 1e-9
