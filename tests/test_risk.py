
import numpy as np
import pytest
from scipy.optimize import brentq

import oracles
from advbayes import examples
from advbayes.density import DistributionPair, Gaussian, PiecewisePoly
from advbayes.intervals import INF, Interval, IntervalSet
from advbayes.risk import (
    DegenerateTie,
    EndpointMismatch,
    adversarial_risk,
    bayes_classifier,
    poly_roots_in_cell,
    risk_gap_bound,
    standard_risk,
)


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
        assert standard_risk(nua_pair, IntervalSet.reals()).total == pytest.approx(0.5, abs=1e-15)

    def test_empty_costs_class1(self, nua_pair):
        r = standard_risk(nua_pair, IntervalSet.empty())
        assert r.total == pytest.approx(nua_pair.total_mass(1), abs=1e-15)
        assert r.fp_mass == 0.0

    def test_one_sided_ramp_risk(self, nus_pair):
        # oracle: quadrature of the reference ramps split at 1/3
        ref = oracles.ref_non_uniqueness_single()
        expected = oracles.integrate(ref[1], 1 / 3, 1.0, ref[2]) + oracles.integrate(
            ref[0], -1.0, 1 / 3, ref[2]
        )
        assert expected == pytest.approx(2 / 9, abs=1e-12)
        got = standard_risk(nus_pair, IntervalSet.open(-INF, 1 / 3)).total
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

    def test_zero_eps_equals_standard(self, nua_pair):
        rng = np.random.default_rng(4)
        for s in rand_sets(rng, 25):
            assert adversarial_risk(nua_pair, s, 0.0).total == standard_risk(nua_pair, s).total

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


class TestSturm:
    def test_cubic_roots(self):
        c = np.polynomial.polynomial.polyfromroots([0.2, -0.4, 0.9])
        roots = poly_roots_in_cell(list(c), -1.0, 1.0)
        assert len(roots) == 3
        for r, e in zip(roots, [-0.4, 0.2, 0.9]):
            assert abs(r - e) <= 1e-12

    def test_no_roots(self):
        assert poly_roots_in_cell([1.0, 0.0, 1.0], -2.0, 2.0) == []

    def test_quintic(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            roots = np.sort(rng.uniform(-0.9, 0.9, size=3))
            c = np.polynomial.polynomial.polyfromroots(list(roots) + [2.0, -2.0])
            got = poly_roots_in_cell(list(c), -1.0, 1.0)
            assert len(got) == 3
            assert np.max(np.abs(np.array(got) - roots)) <= 1e-9


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
