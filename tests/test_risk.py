import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles
from advbayes import examples
from advbayes.conditions import (
    DegenerateTie,
    bayes_boundary_proximity,
    bayes_classifier,
    solve_first_order,
)
from advbayes.density import DistributionPair, Gaussian, PiecewisePoly
from advbayes.intervals import INF, Interval, IntervalSet
from advbayes.risk import (
    EndpointMismatch,
    adversarial_risk,
    risk_gap_bound,
)
from strategies import (NARROW_GAP_PAIR, gaussian_mixture_pairs, mixed_pairs,
                        piecewise_poly_pairs, wide_sigma_pairs)


def rand_sets(rng, n, half_infinite=True):
    out = []
    for _ in range(n):
        k = rng.integers(0, 4)
        pts = np.sort(rng.uniform(-1.6, 1.6, size=2 * int(k)))
        ivs = [Interval(pts[2 * i], pts[2 * i + 1]) for i in range(int(k)) if pts[2 * i] < pts[2 * i + 1]]
        if half_infinite and ivs and rng.random() < 0.3:
            ivs[-1] = Interval(ivs[-1].lo, INF)
        out.append(IntervalSet(ivs))
    return out


class TestStandardRisk:
    def test_full_line_costs_class0(self, nua_pair):
        assert adversarial_risk(nua_pair, IntervalSet.reals(), 0.0).total == pytest.approx(
            0.5, abs=1e-15)

    def test_empty_costs_class1(self, nua_pair):
        r = adversarial_risk(nua_pair, IntervalSet.empty(), 0.0)
        assert r.total == pytest.approx(nua_pair.total_mass(1), abs=1e-15)
        assert r.fp_mass == 0.0

    def test_one_sided_ramp_risk(self, nus_pair):
        # oracle: quadrature of the reference ramps split at 1/3
        ref = oracles.ref_non_uniqueness_single()
        expected = oracles.integrate(ref[1], 1 / 3, 1.0, ref[2]) + oracles.integrate(
            ref[0], -1.0, 1 / 3, ref[2]
        )
        assert expected == pytest.approx(2 / 9, abs=1e-12)
        got = adversarial_risk(nus_pair, IntervalSet.open(-INF, 1 / 3), 0.0).total
        assert got == pytest.approx(2 / 9, abs=1e-14)


class TestAdversarialRisk:
    def test_threshold_family_closed_form(self, nua_pair):
        for eps in (0.1, 0.2, 0.3):
            for y in (-eps, 0.0, eps):
                got = adversarial_risk(nua_pair, IntervalSet.open(y, INF), eps).total
                assert abs(got - (eps + 0.25 * (1 - eps))) <= 1e-12

    def test_excluded_middle_closed_form(self, deg_pair):
        for eps in (0.05, 0.1):
            a = IntervalSet.of_open((-INF, -0.25 + eps), (0.25 - eps, INF))
            assert abs(adversarial_risk(deg_pair, a, eps).total - 0.8 * eps) <= 1e-12

    def test_full_line_any_eps(self, deg_pair):
        for eps in (0.0, 0.3, 2.0):
            r = adversarial_risk(deg_pair, IntervalSet.reals(), eps)
            assert r.total == pytest.approx(deg_pair.total_mass(0), abs=1e-15)
            assert r.fn_mass == 0.0

    def test_matches_quadrature_oracle(self, eqvar_pair, deg_pair, nus_pair):
        rng = np.random.default_rng(23)
        cases = [
            (eqvar_pair, oracles.ref_equal_variances()),
            (deg_pair, oracles.ref_degenerate()),
            (nus_pair, oracles.ref_non_uniqueness_single()),
        ]
        for pair, ref in cases:
            for s in rand_sets(rng, 12):
                eps = float(rng.uniform(0, 0.8))
                pairs = [(iv.lo, iv.hi) for iv in s]
                expected = oracles.oracle_adv_risk(ref, pairs, eps)
                got = adversarial_risk(pair, s, eps).total
                assert got == pytest.approx(expected, abs=1e-8)

    def test_breakdown_consistency(self, eqmeans_pair):
        r = adversarial_risk(eqmeans_pair, IntervalSet.open(-1, 1), 0.25)
        assert r.total == r.fn_mass + r.fp_mass
        assert 0.0 <= r.fn_mass <= 1.0 and 0.0 <= r.fp_mass <= 1.0

    def test_flag_invariance(self, nua_pair):
        open_v = IntervalSet.open(-0.3, 0.7)
        closed_v = IntervalSet.closed(-0.3, 0.7)
        for eps in (0.0, 0.2):
            assert adversarial_risk(nua_pair, open_v, eps).total == pytest.approx(
                adversarial_risk(nua_pair, closed_v, eps).total, abs=1e-15
            )


# Gaussian-mixture, piecewise and mixed pairs for the memo and risk properties.
BATCH_PAIRS = [
    examples.gaussians_equal_variances(),
    examples.gaussians_equal_means(),
    examples.non_uniqueness_single(),
    examples.non_uniqueness_all(),
    examples.degenerate(),
    examples.deg_eta_0_1_counterexample(0.1),
    DistributionPair(
        class0=[Gaussian(weight=0.25, mu=-1.0, sigma=0.4), Gaussian(weight=0.25, mu=1.5, sigma=0.3)],
        class1=[Gaussian(weight=0.5, mu=0.5, sigma=0.6)],
    ),
    DistributionPair(
        class0=[PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((0.25,),))],
        class1=[Gaussian(weight=0.5, mu=0.0, sigma=0.5)],
    ),
]

# Dyadic endpoints repeat across sets, so risks reuse memo entries.
batch_points = st.one_of(
    st.integers(min_value=-48, max_value=48).map(lambda k: k / 16.0),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


@st.composite
def batch_sets(draw):
    """∅, ℝ, points, half-infinite pieces and components closer than 2*eps."""
    pts = sorted(set(draw(st.lists(batch_points, max_size=8))))
    flags = draw(st.lists(st.booleans(), min_size=2 * len(pts), max_size=2 * len(pts)))
    ivs = []
    for i, (lo, hi) in enumerate(zip(pts, pts[1:])):
        if draw(st.booleans()):
            ivs.append(Interval(lo, hi, flags[2 * i], flags[2 * i + 1]))
    if pts and draw(st.booleans()):
        ivs.append(Interval(pts[0], pts[0], True, True))
    if pts and draw(st.booleans()):
        ivs.append(Interval(-INF, pts[0], False, flags[-1]))
    if pts and draw(st.booleans()):
        ivs.append(Interval(pts[-1], INF, flags[-2], False))
    return IntervalSet(ivs)


@given(
    st.sampled_from(range(len(BATCH_PAIRS))),
    st.lists(st.one_of(batch_points, st.sampled_from([-INF, INF, 0.0, -0.0])),
             min_size=1, max_size=24),
)
@settings(max_examples=150, deadline=None)
def test_memoized_cdf_matches_component_sum(index, points):
    """First and repeated reads of the pair's CDF memo have the bits of a
    fresh component sum; 0.0 and -0.0 share an entry and give equal bits."""
    pair = DistributionPair(BATCH_PAIRS[index].class0, BATCH_PAIRS[index].class1)
    for x in points + points[::-1]:
        for which in (0, 1):
            assert repr(pair.cdf(which, x)) == repr(oracles.class_cdf(pair, which, x)), x


@given(
    st.sampled_from(range(len(BATCH_PAIRS))),
    st.lists(st.one_of(st.just(IntervalSet.empty()), st.just(IntervalSet.reals()), batch_sets()),
             min_size=1, max_size=12),
    st.one_of(st.just(0.0), st.integers(1, 16).map(lambda k: k / 32.0),
              st.floats(min_value=0.0, max_value=1.5, allow_nan=False)),
)
@settings(max_examples=150, deadline=None)
def test_adversarial_risk_matches_oracle(index, sets, eps):
    """Risks read from the memo have the bits of memo-free per-set masses."""
    pair = BATCH_PAIRS[index]
    for s in sets:
        r = adversarial_risk(pair, s, eps)
        assert repr((r.total, r.fn_mass, r.fp_mass)) == repr(oracles.mass_set_risk(pair, s, eps)), s
        assert r.epsilon == eps


def test_adversarial_risk_rejects_negative_eps(nua_pair):
    with pytest.raises(ValueError):
        adversarial_risk(nua_pair, IntervalSet.reals(), -0.1)


@pytest.mark.parametrize("which", [-1, 2])
def test_cdf_rejects_bad_class_index(nua_pair, eqvar_pair, which):
    for pair in (nua_pair, eqvar_pair):
        for evaluate in (pair.cdf, pair.pdf, pair.derivative):
            with pytest.raises(ValueError, match="class index"):
                evaluate(which, 0.5)


class TestRiskProperties:
    def test_monotone_in_eps(self, nua_pair, eqvar_pair):
        rng = np.random.default_rng(9)
        for pair in (nua_pair, eqvar_pair):
            for s in rand_sets(rng, 40):
                e1, e2 = np.sort(rng.uniform(0, 1, size=2))
                r1 = adversarial_risk(pair, s, float(e1)).total
                r2 = adversarial_risk(pair, s, float(e2)).total
                assert r2 >= r1 - 1e-12

    def test_regularization_never_hurts(self, nua_pair, deg_pair):
        rng = np.random.default_rng(10)
        for pair in (nua_pair, deg_pair):
            for s in rand_sets(rng, 40):
                eps = float(rng.uniform(0.01, 0.6))
                base = adversarial_risk(pair, s, eps).total
                assert adversarial_risk(pair, s.contract(eps).expand(eps), eps).total <= base + 1e-12
                assert adversarial_risk(pair, s.expand(eps).contract(eps), eps).total <= base + 1e-12

    def test_subadditive(self, nua_pair, eqvar_pair):
        rng = np.random.default_rng(12)
        for pair in (nua_pair, eqvar_pair):
            for _ in range(40):
                a, b = rand_sets(rng, 2)
                eps = float(rng.uniform(0, 0.7))
                ra = adversarial_risk(pair, a, eps).total
                rb = adversarial_risk(pair, b, eps).total
                ru = adversarial_risk(pair, a.union(b), eps).total
                ri = adversarial_risk(pair, a.intersect(b), eps).total
                assert ru + ri <= ra + rb + 1e-12


class TestBayesClassifier:
    def test_equal_variance_midpoint(self, eqvar_pair):
        b = bayes_classifier(eqvar_pair)
        assert b.n_components == 1
        assert b.intervals[0].lo == pytest.approx(1.0, abs=1e-12)
        assert b.intervals[0].hi == INF

    def test_equal_means_interval(self, eqmeans_pair):
        b = bayes_classifier(eqmeans_pair)
        expected = examples.equal_means_interval_endpoint(0.0)
        assert b.n_components == 1
        assert b.intervals[0].lo == pytest.approx(-expected, abs=1e-12)
        assert b.intervals[0].hi == pytest.approx(expected, abs=1e-12)

    def test_uniform_split(self, nua_pair):
        # literal {p1 > p0} is (0, 1); it differs from the one-sided
        # classifier only by the null set [1, inf).
        assert bayes_classifier(nua_pair) == IntervalSet.open(0.0, 1.0)

    def test_pure_labels(self, deg_pair):
        assert bayes_classifier(deg_pair) == IntervalSet.of_open((-1.0, -0.25), (0.25, 1.0))

    def test_ramp_crossing(self, nus_pair):
        b = bayes_classifier(nus_pair)
        assert b.n_components == 1
        assert b.intervals[0].hi == pytest.approx(1 / 3, abs=1e-10)

    def test_degenerate_tie(self):
        from advbayes.density import DistributionPair, Gaussian

        pair = DistributionPair(
            class0=[Gaussian(weight=0.5, mu=0.0, sigma=1.0)],
            class1=[Gaussian(weight=0.5, mu=0.0, sigma=1.0)],
        )
        with pytest.raises(DegenerateTie):
            bayes_classifier(pair)


class TestBayesSampleScan:
    """Pairs with an active Gaussian component: sign scan plus bisection."""

    @staticmethod
    def crossings(ref, guesses, half_width):
        p0, p1, _ = ref
        d = lambda x: p1(x) - p0(x)
        return [brentq(d, g - half_width, g + half_width, xtol=1e-15) for g in guesses]

    def test_alternating_bumps(self, bump_pair):
        bayes = bayes_classifier(bump_pair(3))
        assert bayes.n_components == 3 and bayes.intervals[-1].hi == INF
        expected = self.crossings(oracles.ref_bumps(3), [1.0, 3.0, 5.0, 7.0, 9.0], 1.0)
        got = bayes.boundary_points()
        assert len(got) == 5
        assert np.max(np.abs(np.array(got) - expected)) <= 1e-12

    def test_gaussian_against_uniform(self):
        pair = DistributionPair(
            class0=[PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((0.25,),))],
            class1=[Gaussian(weight=0.5, mu=0.0, sigma=0.5)],
        )
        bayes = bayes_classifier(pair)
        assert bayes.n_components == 3
        r_lo, r_hi = self.crossings(oracles.ref_gaussian_vs_uniform(), [-0.5, 0.5], 0.4)
        got = bayes.boundary_points()
        assert len(got) == 4 and got[0] == -1.0 and got[3] == 1.0
        assert np.max(np.abs(np.array(got[1:3]) - [r_lo, r_hi])) <= 1e-12


class TestBayesUnderflow:
    """Both densities underflow to 0 between far-apart bumps; log-densities
    still order them."""

    @staticmethod
    def log_gap(x):
        log_p0, log_p1 = oracles.ref_far_bumps_log()
        return log_p1(x) - log_p0(x)

    def test_far_bump_crossing(self):
        pair = DistributionPair(
            class0=[Gaussian(weight=0.25, mu=0.0, sigma=0.1), Gaussian(weight=0.25, mu=100.0, sigma=0.1)],
            class1=[Gaussian(weight=0.5, mu=1.0, sigma=0.1)],
        )
        assert pair.pdf(0, 50.0) == 0.0 and pair.pdf(1, 50.0) == 0.0
        expected = [brentq(self.log_gap, lo, hi, xtol=1e-15) for lo, hi in ((0.2, 0.8), (40.0, 60.0))]
        bayes = bayes_classifier(pair)
        assert bayes.n_components == 1
        assert np.max(np.abs(np.array(bayes.boundary_points()) - expected)) <= 1e-12


class TestBayesLiteralSign:
    """Fixed pairs against literal formulas."""

    def test_crossing_near_scan_end(self):
        # p0 > p1 only on (-12.297, -1.776); the left crossing lies in
        # (lo_ext - 1, lo_ext) = (-12.3, -11.3), next to the left end of the
        # scanned range
        pair = DistributionPair(
            class0=[Gaussian(weight=0.5, mu=-3.3, sigma=0.8)],
            class1=[Gaussian(weight=0.3, mu=2.7, sigma=0.85), Gaussian(weight=0.2, mu=-0.6, sigma=1.05)],
        )
        log_gap = lambda x: oracles.literal_logpdf(pair, 1, x) - oracles.literal_logpdf(pair, 0, x)
        expected = oracles.sign_change_roots(log_gap, -40.0, 40.0, 8001)
        assert len(expected) == 2
        bayes = bayes_classifier(pair)
        assert bayes.n_components == 2
        assert bayes.intervals[0].lo == -INF and bayes.intervals[-1].hi == INF
        assert np.max(np.abs(np.array(bayes.boundary_points()) - expected)) <= 1e-12

    def test_zero_density_gaps(self):
        # both densities vanish on (-2eps, -eps) and (eps, 2eps): no tie there
        eps = 0.1
        pair = examples.deg_eta_0_1_counterexample(eps)
        p0, p1, pts = oracles.ref_deg_eta(eps)
        expected = [(a, b) for a, b in zip(pts, pts[1:]) if p1(0.5 * (a + b)) > p0(0.5 * (a + b))]
        bayes = bayes_classifier(pair)
        assert bayes.n_components == len(expected) == 3
        assert not any(iv.lo_closed or iv.hi_closed for iv in bayes)
        assert np.max(np.abs(np.array(bayes.boundary_points()) - np.ravel(expected))) <= 1e-12
        # every Bayes boundary point is on the boundary of the support
        scan = solve_first_order(pair, eps)
        records = bayes_boundary_proximity(pair, eps, scan.a_candidates + scan.b_candidates)
        assert records and all(r["nearest_boundary"] is None for r in records)

    def test_touch_point_at_piece_midpoint(self):
        # p1 - p0 = 48x^2 on (-0.25, 0.25) touches 0 at the piece's midpoint
        # without a sign change; like a touch point anywhere else in a piece,
        # it stays inside the set
        pair = DistributionPair(
            class0=[PiecewisePoly(breakpoints=(0.25, 2.0), coeffs=((2.0 / 7.0,),))],
            class1=[PiecewisePoly(breakpoints=(-0.25, 0.25), coeffs=((0.0, 0.0, 48.0),))],
        )
        assert bayes_classifier(pair) == IntervalSet.of_open((-0.25, 0.25))

    def test_bump_narrower_than_sample_step(self):
        # sigma ratio 1000: the scan's even spacing over [-101, 101] is about
        # 0.099, wider than the whole class-1 set (0.013, 0.087)
        pair = DistributionPair(
            class0=[Gaussian(weight=0.5, mu=0.0, sigma=10.0)],
            class1=[Gaussian(weight=0.5, mu=0.05, sigma=0.01)],
        )
        log_gap = lambda x: oracles.literal_logpdf(pair, 1, x) - oracles.literal_logpdf(pair, 0, x)
        expected = [brentq(log_gap, -1.0, 0.05, xtol=1e-15), brentq(log_gap, 0.05, 1.0, xtol=1e-15)]
        bayes = bayes_classifier(pair)
        assert bayes.n_components == 1
        assert np.max(np.abs(np.array(bayes.boundary_points()) - expected)) <= 1e-12

    def test_rounding_dip_outside_set(self):
        # class 0 is 5e-324 x on [-1, 0], below 0 by a subnormal; read as 0,
        # it leaves p1 - p0 = 0 there, not 5e-324 > 0
        pair = DistributionPair(
            class0=[PiecewisePoly(breakpoints=(-1.0, 0.0, 1.0), coeffs=((0.0, 5e-324), (0.5,)))],
            class1=[PiecewisePoly(breakpoints=(1.0, 2.0), coeffs=((0.5,),))],
        )
        assert bayes_classifier(pair) == IntervalSet.of_open((1.0, 2.0))

    @pytest.mark.parametrize("slope1, crossing", [(2e-12, 4.0 / 3.0), (1e-12, 1.5)])
    def test_crossing_where_both_densities_are_tiny(self, slope1, crossing):
        # on [1, 2] p0 = 1e-12 (2 - x) and p1 = slope1 (x - 1): |p1 - p0| stays
        # below TAU_PLATEAU, yet p1 > p0 only right of the crossing; at 1.5
        # the crossing sits on the piece's midpoint
        pair = DistributionPair(
            class0=[PiecewisePoly(breakpoints=(0.0, 1.0, 2.0), coeffs=((0.5,), (2e-12, -1e-12)))],
            class1=[PiecewisePoly(breakpoints=(1.0, 2.0, 3.0),
                                  coeffs=((-slope1, slope1), (0.5 - 0.5 * slope1,)))],
        )
        bayes = bayes_classifier(pair)
        assert bayes.n_components == 1
        assert np.max(np.abs(np.array(bayes.boundary_points()) - [crossing, 3.0])) <= 1e-12


@given(st.one_of(gaussian_mixture_pairs(), gaussian_mixture_pairs(60.0, (0.1, 0.5)),
                 piecewise_poly_pairs()))
@example(NARROW_GAP_PAIR)
@settings(deadline=None, max_examples=150)
def test_bayes_matches_literal_sign(pair):
    _bayes_matches_literal_sign(pair)


@given(wide_sigma_pairs())
@settings(deadline=None, max_examples=100)
def test_bayes_matches_literal_sign_wide_sigmas(pair):
    _bayes_matches_literal_sign(pair)


@given(mixed_pairs())
# (11, 69) is a plateau where p0 underflows to 0 past 38.6 and p1 below 41.4;
# only the nonzero samples around that run bracket the crossing 40 + ln2/80
@example(DistributionPair(
    class0=[Gaussian(weight=0.25, mu=0.0, sigma=1.0),
            PiecewisePoly(breakpoints=(10.0, 11.0), coeffs=((0.25,),))],
    class1=[Gaussian(weight=0.125, mu=80.0, sigma=1.0),
            PiecewisePoly(breakpoints=(69.0, 70.0), coeffs=((0.375,),))]))
@settings(deadline=None, max_examples=60)
def test_bayes_matches_literal_sign_mixed_pairs(pair):
    _bayes_matches_literal_sign(pair)


def _bayes_matches_literal_sign(pair):
    """Off the boundary points, the Bayes set holds exactly the points where
    log p1 > log p0 among a grid over the scanned range and the Gaussian
    means, which a bump narrower than the grid spacing needs; a tie is raised
    only where both densities agree to 1e-11 relative and are nonzero on an
    interval.

    Skipped: points within 1e-9 of the set's boundary or of a density
    breakpoint, where the literal set may hold an isolated point that no open
    set holds; and points where log p1 and log p0 agree to 1e-12, touch points
    of p1 - p0 that no sign change reveals or gaps below the rounding of the
    densities' sum (a Gaussian tail on top of a piecewise cell)."""
    lo_ext, hi_ext = pair.finite_extent()
    means = {c.mu for c in pair.class0 + pair.class1 if isinstance(c, Gaussian)}
    xs = sorted({float(x) for x in np.linspace(lo_ext - 1.0, hi_ext + 1.0, 997)} | means)
    logs = [(oracles.literal_logpdf(pair, 0, x), oracles.literal_logpdf(pair, 1, x)) for x in xs]
    try:
        bayes = bayes_classifier(pair)
    except DegenerateTie:
        tied = [math.isfinite(l0) and abs(l1 - l0) <= 1e-11 for l0, l1 in logs]
        assert any(t and u for t, u in zip(tied, tied[1:]))
        return
    edges = bayes.boundary_points() + pair.breakpoints(0) + pair.breakpoints(1)
    for x, (l0, l1) in zip(xs, logs):
        gap = l1 - l0  # nan where both densities vanish
        if any(abs(x - z) <= 1e-9 for z in edges) or abs(gap) <= 1e-12:
            continue
        assert bayes.contains_point(x) == (gap > 0), x


class TestRiskGapBound:
    def test_identical_sets(self, eqvar_pair):
        b = IntervalSet.open(1.0, INF)
        gap, bound, holds = risk_gap_bound(eqvar_pair, b, b, 0.5, 1.0, 1)
        assert gap == 0.0 and holds

    def test_equal_variance_no_tradeoff(self, eqvar_pair):
        # adversarial and plain optimum coincide: zero gap at any radius
        b = IntervalSet.open(1.0, INF)
        k = max(eqvar_pair.sup_density(0), eqvar_pair.sup_density(1))
        gap, bound, holds = risk_gap_bound(eqvar_pair, b, b, 0.9, k, 1)
        assert holds and gap == 0.0

    def test_equal_means_endpoints_escape(self, eqmeans_pair):
        # the optimal interval's endpoints move faster than eps here, so the
        # matched-components hypothesis fails
        eps = 0.5
        b_eps = examples.equal_means_interval_endpoint(eps)
        b_0 = examples.equal_means_interval_endpoint(0.0)
        assert b_eps - b_0 > eps
        adv = IntervalSet.open(-b_eps, b_eps)
        bay = IntervalSet.open(-b_0, b_0)
        with pytest.raises(EndpointMismatch):
            risk_gap_bound(eqmeans_pair, adv, bay, eps, 1.0, 1)

    def test_component_count_mismatch(self, eqvar_pair):
        with pytest.raises(EndpointMismatch):
            risk_gap_bound(
                eqvar_pair, IntervalSet.open(1.0, INF), IntervalSet.empty(), 0.5, 1.0, 1
            )

    def test_bound_holds_when_matched(self, nua_pair):
        eps = 0.2
        adv = IntervalSet.open(eps, INF)
        bay = IntervalSet.open(0.0, INF)
        k = 0.375
        gap, bound, holds = risk_gap_bound(nua_pair, adv, bay, eps, k, 1)
        assert holds
        assert bound == pytest.approx(2 * eps * k, abs=1e-15)
