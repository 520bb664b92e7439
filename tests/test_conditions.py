import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles
from strategies import (NARROW_GAP_PAIR, gaussian_mixture_pairs, linear_piecewise_pairs,
                        mixed_pairs, piecewise_poly_pairs, wide_sigma_pairs)
from advbayes import conditions, examples
from advbayes.density import TINY, DistributionPair, Gaussian, PiecewisePoly, log_gap
from advbayes.conditions import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    WindowEmpty,
    bayes_classifier,
    defect,
    scan_window,
    solve_first_order,
)
from advbayes.intervals import INF, IntervalSet
from advbayes.risk import TAU_RISK, adversarial_risk
from advbayes.solver import solve


def locations(cands):
    out = []
    for c in cands:
        out.extend(c.enumeration_points())
    return sorted(out)


def interior_bayes_boundary(pair):
    """Boundary points of the Bayes set {p1 > p0} inside the support.

    For a pair with eta in {0, 1} these are the boundary points of the region
    where class 1 is certain."""
    support = pair.support()
    return [z for z in bayes_classifier(pair).boundary_points() if support.interior_contains(z)]


def boundary_distance(boundary, x):
    """Distance from ``x`` to the nearest point of ``boundary``."""
    return min(abs(x - z) for z in boundary)


def verify_no_missed_sign_changes(pair, eps, kind, cands, lo, hi, n=20480):
    """10x-finer grid: every sign change must be near a reported candidate."""
    g = lambda x: defect(pair, eps, kind, x)
    xs = np.linspace(lo + 1e-9, hi - 1e-9, n)
    vals = np.array([g(float(x)) for x in xs])
    covered = locations(cands)
    for i in range(n - 1):
        if vals[i] != 0.0 and vals[i + 1] != 0.0 and (vals[i] > 0) != (vals[i + 1] > 0):
            mid = 0.5 * (xs[i] + xs[i + 1])
            width = xs[i + 1] - xs[i]
            assert any(abs(mid - c) <= width for c in covered), (kind, mid)


class TestScanWindow:
    def test_full_line(self, eqvar_pair):
        w, widened = scan_window(eqvar_pair, 0.5)
        assert (w.lo, w.hi) == (-INF, INF) and not widened

    def test_contracted_interval(self, nus_pair):
        w, widened = scan_window(nus_pair, 0.1)
        assert w.lo == pytest.approx(-0.9) and w.hi == pytest.approx(0.9)
        assert not widened

    def test_split_support_widens(self):
        pair = examples.deg_eta_0_1_counterexample(0.1)
        w, widened = scan_window(pair, 0.1)
        assert widened
        assert w.lo == pytest.approx(-0.4) and w.hi == pytest.approx(0.4)

    def test_window_empty(self, nus_pair):
        with pytest.raises(WindowEmpty):
            solve_first_order(nus_pair, 1.5)

    @given(st.one_of(gaussian_mixture_pairs(), piecewise_poly_pairs(), mixed_pairs(),
                     wide_sigma_pairs()), st.floats(0.0, 1.5))
    @settings(deadline=None, max_examples=150)
    def test_candidates_lie_in_window(self, pair, eps):
        """The solver enumerates the scan's points unfiltered: every one
        already lies in the endpoint window."""
        try:
            scan = solve_first_order(pair, eps)
        except WindowEmpty:
            return
        for c in scan.a_candidates + scan.b_candidates:
            assert all(scan.window.lo <= x <= scan.window.hi for x in c.enumeration_points()), c


class TestFirstOrder:
    def test_equal_variances_both_kinds_at_midpoint(self, eqvar_pair):
        scan = solve_first_order(eqvar_pair, 0.5)
        a = [c for c in scan.a_candidates if c.location is not None]
        b = [c for c in scan.b_candidates if c.location is not None]
        assert len(a) == 1 and abs(a[0].location - 1.0) <= 1e-9
        assert a[0].second_order == PASS
        assert len(b) == 1 and abs(b[0].location - 1.0) <= 1e-9
        assert b[0].second_order == FAIL

    def test_equal_means_roots_match_brentq_oracle(self, eqmeans_pair):
        ref0, ref1, _ = oracles.ref_equal_means()
        for eps in (0.0, 0.5, 1.0):
            g_b = lambda x: ref0(x + eps) - ref1(x - eps)
            b_lo = brentq(g_b, 1.0, 6.0, xtol=1e-14)
            scan = solve_first_order(eqmeans_pair, eps)
            passing = [
                c.location
                for c in scan.b_candidates
                if c.location is not None and c.second_order == PASS
            ]
            assert any(abs(r - b_lo) <= 1e-9 for r in passing)
            # closed form agrees with the independent root
            assert abs(examples.equal_means_interval_endpoint(eps) - b_lo) <= 1e-9

    def test_equal_means_second_root_fails(self, eqmeans_pair):
        scan = solve_first_order(eqmeans_pair, 0.5)
        fails = [c for c in scan.b_candidates if c.second_order == FAIL]
        assert len(fails) == 1
        # the rejected root is the smaller one
        assert fails[0].location < min(
            c.location for c in scan.b_candidates if c.second_order == PASS
        )

    def test_plateau_non_uniqueness_all(self, nua_pair):
        scan = solve_first_order(nua_pair, 0.2)
        plats = [c for c in scan.a_candidates if c.plateau is not None]
        assert len(plats) == 1
        lo, hi = plats[0].plateau
        assert lo == pytest.approx(-0.2, abs=1e-12) and hi == pytest.approx(0.2, abs=1e-12)
        assert plats[0].second_order == PASS

    def test_ramp_roots(self, nus_pair):
        eps = 0.1
        scan = solve_first_order(nus_pair, eps)
        a = [c for c in scan.a_candidates if c.location is not None]
        b = [c for c in scan.b_candidates if c.location is not None]
        assert len(a) == 1 and abs(a[0].location - (1 - eps) / 3) <= 1e-9
        assert a[0].second_order == FAIL
        assert len(b) == 1 and abs(b[0].location - (1 + eps) / 3) <= 1e-9
        assert b[0].second_order == PASS

    def test_ramp_roots_match_brentq_oracle(self, nus_pair):
        ref0, ref1, _ = oracles.ref_non_uniqueness_single()
        eps = 0.15
        g_a = lambda x: ref1(x + eps) - ref0(x - eps)
        root = brentq(g_a, -0.5, 0.7, xtol=1e-14)
        scan = solve_first_order(nus_pair, eps)
        got = [c.location for c in scan.a_candidates if c.location is not None]
        assert any(abs(r - root) <= 1e-9 for r in got)

    def test_jump_candidates_degenerate(self, deg_pair):
        eps = 0.05
        scan = solve_first_order(deg_pair, eps)
        a_locs = locations(scan.a_candidates)
        b_locs = locations(scan.b_candidates)
        for expected in (-0.25 - eps, -0.25 + eps, 0.25 - eps, 0.25 + eps):
            assert any(abs(x - expected) <= 1e-9 for x in a_locs)
            assert any(abs(x - expected) <= 1e-9 for x in b_locs)

    def test_residual_small_at_true_roots(self, eqmeans_pair, nus_pair):
        for pair, eps in ((eqmeans_pair, 0.3), (nus_pair, 0.1)):
            scan = solve_first_order(pair, eps)
            for c in scan.a_candidates + scan.b_candidates:
                if c.location is not None and not c.at_jump:
                    assert abs(c.residual) <= conditions.TAU_ROOT

    def test_root_completeness_fine_grid(self, eqvar_pair, eqmeans_pair, deg_pair):
        cases = [(eqvar_pair, 0.5, -4, 6), (eqmeans_pair, 0.5, -8, 8), (deg_pair, 0.05, -0.95, 0.95)]
        for pair, eps, lo, hi in cases:
            scan = solve_first_order(pair, eps)
            verify_no_missed_sign_changes(pair, eps, "a", scan.a_candidates, lo, hi)
            verify_no_missed_sign_changes(pair, eps, "b", scan.b_candidates, lo, hi)


class TestSecondOrder:
    """A candidate's verdict is read off the scan's samples on both sides of
    it: FAIL where the defect (the risk's slope in the endpoint) falls from
    positive to negative through it, PASS otherwise, INCONCLUSIVE at jumps."""

    @staticmethod
    def verdicts(cands):
        return [(c.plateau or c.location, c.second_order) for c in cands]

    def test_equal_variance_b_fails(self, eqvar_pair):
        scan = solve_first_order(eqvar_pair, 0.5)
        [(a, a_verdict)] = self.verdicts(scan.a_candidates)
        [(b, b_verdict)] = self.verdicts(scan.b_candidates)
        assert a == pytest.approx(1.0, abs=1e-9) and a_verdict == PASS
        assert b == pytest.approx(1.0, abs=1e-9) and b_verdict == FAIL

    def test_flat_distribution_boundary_case(self, nua_pair):
        # The defects vanish on [-eps, eps], whose ends are shifted density
        # kinks, and are constant beside it: the a-defect rises through its
        # plateau and the b-defect falls through its own.
        for eps in (0.1, 0.2):
            scan = solve_first_order(nua_pair, eps)
            assert self.verdicts(scan.a_candidates) == [((-eps, eps), PASS)]
            assert self.verdicts(scan.b_candidates) == [((-eps, eps), FAIL)]

    @pytest.mark.parametrize("scale", [
        1.0, 1e-3,
        pytest.param(1e11, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 10: TAU_PLATEAU bounds the defect absolutely, so "
            "densities of 2.5e-12 make every segment a plateau"))),
    ])
    def test_plateaus_scale_with_the_pair(self, scale):
        # Uniform 0.25/S on [0, 2S] against uniform 0.25/S on [S, 3S] at eps
        # 0.1 S: the a-defect vanishes on (0.9 S, 2.1 S) and rises through it,
        # the b-defect vanishes on (1.1 S, 1.9 S) and falls through it.
        S = scale
        pair = DistributionPair(
            class0=[PiecewisePoly(breakpoints=(0.0, 2 * S), coeffs=((0.25 / S,),))],
            class1=[PiecewisePoly(breakpoints=(S, 3 * S), coeffs=((0.25 / S,),))])
        scan = solve_first_order(pair, 0.1 * S)
        assert self.verdicts(scan.a_candidates) == [(pytest.approx((0.9 * S, 2.1 * S)), PASS)]
        assert self.verdicts(scan.b_candidates) == [(pytest.approx((1.1 * S, 1.9 * S)), FAIL)]

    def test_breakpoint_inconclusive(self, deg_pair):
        # Candidates at shifted density jumps keep no verdict.
        scan = solve_first_order(deg_pair, 0.05)
        jumps = [c for c in scan.a_candidates + scan.b_candidates if c.at_jump]
        assert jumps and all(c.second_order == INCONCLUSIVE for c in jumps)
        assert all(c.second_order != INCONCLUSIVE
                   for c in scan.a_candidates + scan.b_candidates if not c.at_jump)

    def test_ramp_a_fails(self, nus_pair):
        eps = 0.1
        a = self.verdicts(solve_first_order(nus_pair, eps).a_candidates)
        assert a == [(pytest.approx((1 - eps) / 3, abs=1e-9), FAIL)]

    def test_falling_tail_crossing_fails(self):
        # 0.75 N(0, 0.25^2) over 0.25 N(0, 0.25^2): far in the tail the
        # a-defect falls through 0 at x = 1.7166 with slope about -1e-11.
        pair = DistributionPair(class0=[Gaussian(weight=0.25, mu=0.0, sigma=0.25)],
                                class1=[Gaussian(weight=0.75, mu=0.0, sigma=0.25)])
        scan = solve_first_order(pair, 0.02)
        assert self.verdicts(scan.a_candidates) == [(pytest.approx(1.7166, abs=1e-4), FAIL)]
        assert self.verdicts(scan.b_candidates) == [(pytest.approx(-1.7166, abs=1e-4), FAIL)]

    def test_sides_skip_zero_samples(self):
        values = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 2.0])
        # Split k puts values[:k] before it: a zero run between + and - falls,
        # and a split with no nonzero value on one side does not.
        assert [conditions._verdict(values, k) for k in range(7)] == [
            PASS, FAIL, FAIL, FAIL, PASS, PASS, PASS]


class TestProximity:
    def test_equal_variance_zero_distance(self, eqvar_pair):
        eps = 0.5
        boundary = interior_bayes_boundary(eqvar_pair)
        dists = [boundary_distance(boundary, x)
                 for x in locations(solve_first_order(eqvar_pair, eps).a_candidates)]
        assert max(dists) <= eps + 1e-12
        assert dists[0] <= 1e-9

    def test_plateau_ends_at_eps_distance(self, nua_pair):
        eps = 0.2
        boundary = interior_bayes_boundary(nua_pair)
        dists = [boundary_distance(boundary, x)
                 for x in locations(solve_first_order(nua_pair, eps).a_candidates)]
        assert max(dists) == pytest.approx(eps, abs=1e-9)
        assert max(dists) <= eps + 1e-12

    def test_pure_label_boundary(self, deg_pair):
        eps = 0.05
        boundary = interior_bayes_boundary(deg_pair)
        inner = [x for x in locations(solve_first_order(deg_pair, eps).a_candidates)
                 if abs(abs(x) - (0.25 - eps)) <= 1e-9]
        assert inner
        for x in inner:
            nearest = min(boundary, key=lambda z: abs(x - z))
            assert abs(nearest) == pytest.approx(0.25, abs=1e-9)
            assert boundary_distance(boundary, x) == pytest.approx(eps, abs=1e-9)

    @pytest.mark.parametrize("name, eps, distance", [
        ("gaussians_equal_variances", 0.5, 0.0),
        ("non_uniqueness_all", 0.2, 0.2),
        ("degenerate", 0.05, 0.05),
        ("non_uniqueness_single", 0.1, 0.1 / 3),  # b = (1 + eps)/3 against 1/3
    ])
    def test_minimizer_endpoints(self, name, eps, distance):
        # every finite endpoint of every representative, the minimizers the
        # paper's claim is about, lies the same distance from the boundary
        pair = examples.example_pair(name)
        boundary = interior_bayes_boundary(pair)
        ends = [x for c in solve(pair, eps).classes for x in c.representative.boundary_points()]
        assert ends
        for x in ends:
            assert boundary_distance(boundary, x) == pytest.approx(distance, abs=1e-9)
        assert distance <= eps

    def test_minimizer_without_interior_boundary(self):
        # eta is 0 or 1 wherever a density is positive: the Bayes boundary
        # lies on the support's boundary, and the minimizer is all of R
        eps = 0.1
        pair = examples.deg_eta_0_1_counterexample(eps)
        assert interior_bayes_boundary(pair) == []
        assert [c.representative for c in solve(pair, eps).classes] == [IntervalSet.reals()]

    def test_soln_within_eps_of_crossing(self, eqvar_pair):
        # opposed monotone densities around the crossing: some candidate
        # lies within eps of every Bayes boundary point
        for eps in (0.1, 0.4):
            scan = solve_first_order(eqvar_pair, eps)
            cands = locations(scan.a_candidates) + locations(scan.b_candidates)
            for z in bayes_classifier(eqvar_pair).boundary_points():
                assert min(abs(c - z) for c in cands) <= eps + 1e-9

    def test_equal_means_is_the_exception(self, eqmeans_pair):
        # both densities decrease past the crossing, so the within-eps
        # guarantee does not apply; the stationary points genuinely escape
        eps = 0.1
        scan = solve_first_order(eqmeans_pair, eps)
        cands = locations(scan.a_candidates) + locations(scan.b_candidates)
        z = examples.equal_means_interval_endpoint(0.0)
        assert min(abs(c - z) for c in cands) > eps


class TestFirstOrderUnderflow:
    """Both shifted densities underflow to 0 between far-apart bumps; the scan
    signs those samples by log-densities instead of reading them as roots."""

    EPS = 0.2

    @staticmethod
    def pair():
        return DistributionPair(
            class0=[Gaussian(weight=0.25, mu=0.0, sigma=0.1),
                    Gaussian(weight=0.25, mu=100.0, sigma=0.1)],
            class1=[Gaussian(weight=0.5, mu=1.0, sigma=0.1)],
        )

    def test_roots_match_brentq_on_log_difference(self):
        pair, eps = self.pair(), self.EPS
        assert pair.pdf(1, 50.5 + eps) == 0.0 and pair.pdf(0, 50.5 - eps) == 0.0
        scan = solve_first_order(pair, eps)
        assert not scan.truncated
        log_p0, log_p1 = oracles.ref_far_bumps_log()
        for cands, log_plus, log_minus in ((scan.a_candidates, log_p1, log_p0),
                                           (scan.b_candidates, log_p0, log_p1)):
            expected = oracles.sign_change_roots(
                lambda x: log_plus(x + eps) - log_minus(x - eps), -3.0, 103.0, 20001)
            assert len(expected) == 2
            assert np.max(np.abs(np.array(locations(cands)) - expected)) <= 1e-10

    def test_scan_matches_scalar_oracle(self):
        _scan_matches_oracle(self.pair(), self.EPS)


class TestFirstOrderRoundingTie:
    """Both classes hold the same uniform cell on [-1.75, 2] plus a Gaussian
    at 0.  Past x = 1.77 the Gaussians' difference is below the rounding of
    the cell's density, so p1 - p0 reads exactly 0 at about 80 samples in a
    row.  Each zero sample was a root, and the walk listed every subset of
    those points as a tied minimizer, without bound."""

    @staticmethod
    def pair():
        cell = PiecewisePoly(breakpoints=(-1.75, 2.0), coeffs=((0.06666666666666667,),))
        return DistributionPair(class0=[cell, Gaussian(weight=0.1, mu=0.0, sigma=0.2)],
                                class1=[cell, Gaussian(weight=0.4, mu=0.0, sigma=0.2)])

    def test_zero_run_gives_its_ends(self):
        scan = solve_first_order(self.pair(), 0.0)
        for cands in (scan.a_candidates, scan.b_candidates):
            got = [c.location for c in cands if c.plateau is None]
            assert len(got) == 2 and 1.77 < got[0] < 1.78 and got[1] == pytest.approx(2.0)

    def test_scan_matches_scalar_oracle(self):
        _scan_matches_oracle(self.pair(), 0.0)


class TestFirstOrderSubnormal:
    """Near x = 14.2 both shifted densities are subnormal (5e-324 apart), so
    their raw difference has no sign to give; the scan reads log-densities
    there, whose difference crosses 0 once, at 14.20195."""

    EPS = 0.25
    SPURIOUS = 14.2026  # the root a raw-difference scan reports

    @staticmethod
    def pair():
        return DistributionPair(
            class0=[Gaussian(weight=0.25, mu=26.0, sigma=0.3125),
                    Gaussian(weight=0.25, mu=0.0, sigma=0.25)],
            class1=[Gaussian(weight=1 / 6, mu=0.0, sigma=0.375),
                    Gaussian(weight=1 / 6, mu=0.0, sigma=0.25),
                    Gaussian(weight=1 / 6, mu=0.0, sigma=0.25)],
        )

    def log_gap(self, x):
        pair, eps = self.pair(), self.EPS
        return oracles.literal_logpdf(pair, 1, x + eps) - oracles.literal_logpdf(pair, 0, x - eps)

    def test_no_root_from_subnormal_difference(self):
        pair, eps = self.pair(), self.EPS
        assert 0.0 < pair.pdf(1, self.SPURIOUS + eps) < 1e-320
        assert 0.0 < pair.pdf(0, self.SPURIOUS - eps) < 1e-320
        expected = brentq(self.log_gap, 14.0, 14.5, xtol=1e-15)
        got = [x for x in locations(solve_first_order(pair, eps).a_candidates)
               if 14.0 < x < 14.5]
        assert len(got) == 1 and abs(got[0] - expected) <= 1e-10
        assert abs(got[0] - self.SPURIOUS) > 1e-4

    def test_samples_signed_by_log_densities(self):
        pair, eps = self.pair(), self.EPS
        [[(_, _, xs, vals, is_plateau)]] = conditions._segments(pair, eps, "a",
                                                                 scan_window(pair, eps)[0])
        assert not is_plateau
        near = (xs > 14.1) & (xs < 14.3)
        assert np.array_equal(np.sign(vals[near]), np.sign([self.log_gap(x) for x in xs[near]]))

    def test_scan_matches_scalar_oracle(self):
        _scan_matches_oracle(self.pair(), self.EPS)


class TestFirstOrderNarrowBump:
    """A class-1 bump a thousand times narrower than class 0 lies between two
    evenly spaced samples of the scan (spacing about 0.099 over [-101, 101]);
    the scan also samples every Gaussian's mu and mu +- sigma."""

    EPS = 0.01  # the a-kind set (0.003, 0.077) holds no evenly spaced sample

    @staticmethod
    def pair():
        return DistributionPair(
            class0=[Gaussian(weight=0.5, mu=0.0, sigma=10.0)],
            class1=[Gaussian(weight=0.5, mu=0.05, sigma=0.01)],
        )

    def test_roots_match_brentq_on_log_difference(self):
        pair, eps = self.pair(), self.EPS
        a_cands = solve_first_order(pair, eps).a_candidates
        log_gap = lambda x: (oracles.literal_logpdf(pair, 1, x + eps)
                             - oracles.literal_logpdf(pair, 0, x - eps))
        peak = 0.05 - eps
        expected = [brentq(log_gap, peak - 1.0, peak, xtol=1e-15),
                    brentq(log_gap, peak, peak + 1.0, xtol=1e-15)]
        assert np.max(np.abs(np.array(locations(a_cands)) - expected)) <= 1e-10

    def test_scan_matches_scalar_oracle(self):
        _scan_matches_oracle(self.pair(), self.EPS)


class TestFirstOrderNarrowGap:
    """p1 - p0 is positive on (-0.0151, 0.0041) only, narrower than the
    sample spacing, around a mean shared by two Gaussians that are wider
    than it; the scan sees the piece at the sampled means."""

    def test_roots_match_brentq_on_log_difference(self):
        pair = NARROW_GAP_PAIR
        log_gap = lambda x: oracles.literal_logpdf(pair, 1, x) - oracles.literal_logpdf(pair, 0, x)
        expected = [brentq(log_gap, -0.02, -0.01, xtol=1e-15),
                    brentq(log_gap, 0.0, 0.01, xtol=1e-15)]
        scan = solve_first_order(pair, 0.0)
        for cands in (scan.a_candidates, scan.b_candidates):
            got = [x for x in locations(cands) if -0.02 < x < 0.01]
            assert len(got) == 2 and np.max(np.abs(np.array(got) - expected)) <= 1e-12

    def test_solve_reaches_bayes_risk(self):
        pair = NARROW_GAP_PAIR
        bayes_risk = adversarial_risk(pair, bayes_classifier(pair), 0.0).total
        assert abs(solve(pair, 0.0).min_risk - bayes_risk) <= TAU_RISK


# -- array scan against the literal scalar scan ---------------------------------


def _scan_matches_oracle(pair, eps):
    expected = oracles.literal_first_order(pair, eps)
    if expected is None:
        with pytest.raises(WindowEmpty):
            solve_first_order(pair, eps)
        return
    scan = solve_first_order(pair, eps)
    for d in expected[0] + expected[1]:
        left, right = d.pop("bracket", (0.0, 0.0))
        if left and right:  # an ITP root: its verdict is its bracket's direction
            assert d["second_order"] == (FAIL if left > 0 > right else PASS), d
    got = ([c.to_dict() for c in scan.a_candidates],
           [c.to_dict() for c in scan.b_candidates])
    assert got == expected
    assert all(c.kind == "a" for c in scan.a_candidates)
    assert all(c.kind == "b" for c in scan.b_candidates)


@given(gaussian_mixture_pairs(), st.floats(0.02, 1.0))
@settings(deadline=None, max_examples=40)
def test_scan_matches_scalar_oracle_gaussian_mixtures(pair, eps):
    _scan_matches_oracle(pair, eps)


# Both densities underflow near x = -11.95, where the a-kind root lies on the
# log-density gap; its last bit once differed with the oracle's log constant.
_LOG_DOMAIN_ROOT_PAIR = DistributionPair(
    class0=[Gaussian(weight=0.10107594957691564, mu=0.0, sigma=0.25),
            Gaussian(weight=0.041908278005852534, mu=0.0, sigma=0.25),
            Gaussian(weight=0.020351670452465682, mu=-38.0, sigma=0.5),
            Gaussian(weight=0.07140134790818771, mu=5.0, sigma=0.37084536924373557)],
    class1=[Gaussian(weight=0.7652627540565784, mu=0.0, sigma=0.234375)])


@given(gaussian_mixture_pairs(mu=60.0, sigma=(0.1, 0.5)), st.floats(0.02, 1.0))
@example(_LOG_DOMAIN_ROOT_PAIR, 0.75)
@settings(deadline=None, max_examples=25)
def test_scan_matches_scalar_oracle_far_apart_mixtures(pair, eps):
    _scan_matches_oracle(pair, eps)


@given(piecewise_poly_pairs(), st.floats(0.02, 1.0))
@settings(deadline=None, max_examples=60)
def test_scan_matches_scalar_oracle_piecewise_pairs(pair, eps):
    _scan_matches_oracle(pair, eps)


@pytest.mark.parametrize("name, eps", [
    ("gaussians_equal_variances", 0.5), ("non_uniqueness_all", 0.2), ("degenerate", 0.05)])
def test_scan_samples_without_scalar_pdf(monkeypatch, name, eps):
    """Samples go through ``pdf_array``; scalar ``pdf`` serves only jump
    points (the root finder and residuals read ``DistributionPair.near``).
    Sampling with scalar ``pdf`` takes about 8,200 calls on each of these."""
    calls = []
    pdf = DistributionPair.pdf

    def counted(self, which, x):
        calls.append(x)
        return pdf(self, which, x)

    monkeypatch.setattr(DistributionPair, "pdf", counted)
    solve_first_order(getattr(examples, name)(), eps)
    assert len(calls) < 512


@pytest.mark.parametrize("name, eps", [
    ("gaussians_equal_variances", 0.5), ("gaussians_equal_means", 0.5),
    ("non_uniqueness_single", 0.1), ("non_uniqueness_all", 0.2), ("degenerate", 0.05),
    ("deg_eta_0_1_counterexample", 0.1)])
def test_scan_reads_each_class_once(monkeypatch, name, eps):
    """Every segment of both scan kinds is sampled as one array, so a scan
    makes one ``pdf_array`` call per class.  Reading each kind on its own
    made 4 calls; reading each segment on its own made 40 on
    ``deg_eta_0_1_counterexample``, 20 on ``degenerate`` and 12 on
    ``non_uniqueness_all``."""
    calls = [0]
    pdf_array = DistributionPair.pdf_array

    def counted(self, which, xs):
        calls[0] += 1
        return pdf_array(self, which, xs)

    pair = examples.example_pair(name, eps)
    monkeypatch.setattr(DistributionPair, "pdf_array", counted)
    solve_first_order(pair, eps)
    assert calls[0] == 2


def _read_indices(xs, ref_xs):
    """The index in ``ref_xs`` of each sample of ``xs``, matched in order by
    its bits: ``xs`` must be a subsequence of ``ref_xs`` holding its ends.
    Samples that round to one float are matched to the first unmatched."""
    ref = [x.hex() for x in ref_xs.tolist()]
    *inner, last = xs.tolist()
    at, i = [], 0
    for x in inner:
        while i < len(ref) - 1 and ref[i] != x.hex():
            i += 1
        assert i < len(ref) - 1, (x, ref_xs)
        at.append(i)
        i += 1
    assert at[:1] == [0] and ref[-1] == last.hex()
    return at + [len(ref) - 1]


def _segments_match_per_segment_reading(pair, eps):
    """Each segment of ``_segments`` reads a subset of the dense reference's
    samples, its ends included: each read sample's position and value have
    the reference's bits at its index, and the plateau flags are equal.  A
    sample left unread has the value of both read neighbours on a plateau;
    off one, it has their strict sign, |value| > TAU_PLATEAU, and is not
    where both densities are below TINY (a log-gap signed sample)."""
    window, _ = scan_window(pair, eps)
    if window is None:
        return
    for kind, got in zip("ab", conditions._segments(pair, eps, "ab", window)):
        plus, minus = conditions._reads(kind)
        want = oracles.per_segment_reading(pair, eps, kind, window)
        assert [(a, b, flat) for a, b, _, _, flat in got] == \
            [(a, b, flat) for a, b, _, _, flat in want]
        for (_, _, xs, vals, flat), (_, _, ref_xs, ref_vals, _) in zip(got, want):
            at = _read_indices(xs, ref_xs)
            assert vals.tobytes() == ref_vals[at].tobytes()
            if len(at) == len(ref_xs):
                continue
            under = ((pair.pdf_array(plus, ref_xs + eps) < TINY)
                     & (pair.pdf_array(minus, ref_xs - eps) < TINY))
            for i, j in zip(at, at[1:]):
                for k in range(i + 1, j):
                    v = ref_vals[k]
                    if flat:
                        assert v.tobytes() == ref_vals[i].tobytes() == ref_vals[j].tobytes()
                    else:
                        assert min(v, ref_vals[i], ref_vals[j]) > 0.0 or \
                            max(v, ref_vals[i], ref_vals[j]) < 0.0, (k, v)
                        assert abs(v) > conditions.TAU_PLATEAU and not under[k], (k, v)


# On (11 + eps, 20 - eps) both Gaussian tails underflow to 0, so the a-kind
# segment there is a plateau whose log-density gap is nonzero: plateau values
# stay the raw difference.
_UNDERFLOW_PLATEAU_PAIR = DistributionPair(
    class0=[Gaussian(weight=0.25, mu=0.0, sigma=0.1),
            PiecewisePoly(breakpoints=(10.0, 11.0), coeffs=((0.25,),))],
    class1=[Gaussian(weight=0.25, mu=0.05, sigma=0.1),
            PiecewisePoly(breakpoints=(20.0, 21.0), coeffs=((0.25,),))])


@given(st.one_of(mixed_pairs(), piecewise_poly_pairs()), st.floats(0.0, 1.0))
@example(_UNDERFLOW_PLATEAU_PAIR, 0.1)
@settings(deadline=None, max_examples=60)
def test_segments_match_per_segment_reading(pair, eps):
    _segments_match_per_segment_reading(pair, eps)


@pytest.mark.parametrize("name", examples.EXAMPLE_NAMES)
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.2, 0.45])
def test_builtin_segments_match_per_segment_reading(name, eps):
    # deg_eta_0_1_counterexample is built for its own radius, 0.1 at eps 0.
    pair = examples.example_pair(name, eps or 0.1)
    _segments_match_per_segment_reading(pair, eps)


@given(linear_piecewise_pairs(),
       st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.floats(0.0, 1.0)))
@settings(deadline=None, max_examples=60)
def test_linear_segments_match_both_oracles(pair, eps):
    """On pairs of constant and linear rows most segments read only some of
    their samples; the scan's candidates still equal the literal scalar
    scan's bit for bit, and the samples read equal the dense reference's."""
    _segments_match_per_segment_reading(pair, eps)
    _scan_matches_oracle(pair, eps)


def _reads_per_segment(pair, eps):
    window, _ = scan_window(pair, eps)
    return [[(b - a, len(xs)) for a, b, xs, _, _ in segments]
            for segments in conditions._segments(pair, eps, "ab", window)]


@pytest.mark.parametrize("name", ["non_uniqueness_all", "degenerate",
                                  "deg_eta_0_1_counterexample"])
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.2, 0.45])
def test_constant_rows_read_segment_ends(name, eps):
    """Where every row is a constant each segment reads its first and last
    sample only; the densely read scan read 9 to 2,049 per segment.  A
    segment a few ulps wide can read two cells of a density at its ends,
    and reads all of its samples."""
    pair = examples.example_pair(name, eps or 0.1)
    for kind in _reads_per_segment(pair, eps):
        assert kind and all(n == 2 for width, n in kind if width > 1e-12), kind


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45])
def test_opposing_ramps_read_few_samples(eps):
    """``non_uniqueness_single``'s two ramps give one linear segment per
    kind, with one root: the scan reads its ends and the samples around the
    root, where the densely read scan read 2,049."""
    for kind in _reads_per_segment(examples.non_uniqueness_single(), eps):
        assert 0 < sum(n for _, n in kind) <= 64, kind


# -- root refinement ------------------------------------------------------------


def _roots_straddle_literal_sign_change(pair, eps):
    """The literal defect (log-densities of ``oracles.literal_logpdf``) changes
    sign or vanishes across [r - _BISECT_TOL, r + _BISECT_TOL] for every
    isolated root r of the scan; jump points need no sign change there.

    Skipped: roots where, at r -+ _BISECT_TOL, one density is below 1e-12
    and the other is not 0.  There the sign of the difference can be rounding
    noise: a polynomial cell near a double zero is off by about 1e-16 of its
    coefficients, and a subnormal density by its spacing of 5e-324.  Where
    both vanish the scan compares log-densities, which is checked.  Returns
    how many roots were checked."""
    try:
        scan = solve_first_order(pair, eps)
    except WindowEmpty:
        return 0
    tol, checked = conditions._BISECT_TOL, 0
    for plus, minus, cands in ((1, 0, scan.a_candidates), (0, 1, scan.b_candidates)):
        def gap(x):
            g = (oracles.literal_logpdf(pair, plus, x + eps)
                 - oracles.literal_logpdf(pair, minus, x - eps))
            return 0.0 if math.isnan(g) else g  # both densities vanish

        def noisy(x):
            low, high = sorted((pair.pdf(plus, x + eps), pair.pdf(minus, x - eps)))
            return low < 1e-12 and high > 0.0

        for c in cands:
            if c.location is None or c.at_jump:
                continue
            ends = (c.location - tol, c.location + tol)
            if any(noisy(x) for x in ends):
                continue
            left, at, right = gap(ends[0]), gap(c.location), gap(ends[1])
            assert 0.0 in (left, at, right) or (left > 0) != (right > 0), (c, left, right)
            checked += 1
    return checked


@given(st.one_of(gaussian_mixture_pairs(), piecewise_poly_pairs(), wide_sigma_pairs()),
       st.floats(0.02, 1.0))
@settings(deadline=None, max_examples=120)
def test_roots_straddle_literal_sign_change(pair, eps):
    _roots_straddle_literal_sign_change(pair, eps)


def test_root_finder_evaluations_per_bracket(bump_pair, monkeypatch):
    """The 16-bump pair at eps 0.3 has 35 brackets.  Refining each from one
    sample spacing down to _BISECT_TOL takes 6.6 defect evaluations on
    average, both ends included; bisection took 36 and ITP's regula falsi
    steps 10.5.  Each evaluation is counted where the root finder makes it,
    whichever density reader serves it."""
    brackets, calls = [0], [0]
    find = conditions.itp_root

    def counted_find(f, *args):
        brackets[0] += 1

        def counted(x):
            calls[0] += 1
            return f(x)

        return find(counted, *args)

    monkeypatch.setattr(conditions, "itp_root", counted_find)
    solve_first_order(bump_pair(16), 0.3)
    assert brackets[0] > 0
    assert calls[0] <= 7 * brackets[0]


def _near_defect_matches_full_sums(pair, eps, kind, lo, hi, inner):
    """``_near_defect`` on [lo, hi] reads, at lo, hi and each inner point,
    the bits of the kind's defect and of its ``signed_gap`` summed over every
    component of each class."""
    raw, sign = conditions._near_defect(pair, eps, kind, lo, hi)
    plus, minus = conditions._reads(kind)
    classes = (pair.class0, pair.class1)
    for x in [lo, hi] + inner:
        p, m = (oracles.left_fold(c.pdf(y) for c in classes[which])
                for which, y in ((plus, x + eps), (minus, x - eps)))
        assert raw(x).hex() == (p - m).hex(), x
        if p < TINY and m < TINY:
            gap = log_gap(pair, plus, np.array([x + eps]), minus, np.array([x - eps]))[0]
            assert sign(x).hex() == float(gap).hex(), x
        else:
            assert sign(x).hex() == (p - m).hex(), x


@given(st.one_of(gaussian_mixture_pairs(mu=60.0, sigma=(0.1, 0.5)), gaussian_mixture_pairs(),
                 mixed_pairs(), wide_sigma_pairs()),
       st.floats(0.0, 1.0), st.sampled_from("ab"), st.data())
@settings(deadline=None, max_examples=150)
def test_near_defect_bits(pair, eps, kind, data):
    """A bracket's ``_near_defect`` sums each class only over its components
    within reach of the bracket, with the full sums' bits inside it."""
    lo_ext, hi_ext = pair.finite_extent()
    # Out to 50 sigmas past the extent: across every component's reach.
    far = 50.0 * max([c.sigma for c in pair.class0 + pair.class1
                      if isinstance(c, Gaussian)], default=1.0)
    lo = data.draw(st.floats(lo_ext - far, hi_ext + far))
    hi = lo + 10.0 ** data.draw(st.floats(-6.0, 1.5))
    inner = [min(hi, lo + (hi - lo) * u)
             for u in data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))]
    _near_defect_matches_full_sums(pair, eps, kind, lo, hi, inner)


def test_near_defect_bits_between_clusters():
    """Two clusters 150 apart: midway both densities underflow to 0 and no
    component is within reach of the bracket, so the log-density gap signs
    the defect there."""
    pair = DistributionPair(
        class0=[Gaussian(weight=0.3, mu=150.0, sigma=1.5), Gaussian(weight=0.2, mu=0.0, sigma=0.3)],
        class1=[Gaussian(weight=0.25, mu=2.0, sigma=1.5), Gaussian(weight=0.25, mu=148.0, sigma=0.5)])
    for kind in "ab":
        _near_defect_matches_full_sums(pair, 0.2, kind, 74.0, 76.5, [74.9, 75.25, 76.0])


@st.composite
def segments_with_extras(draw):
    """``(extra, a, b, m)``: a segment and sorted extra points, some repeated,
    some on the segment's evenly spaced points, some outside it."""
    a = draw(st.floats(-100.0, 100.0))
    b = a + 10.0 ** draw(st.floats(-14.0, 2.0))
    assume(a < b)
    m = draw(st.integers(2, 40))
    inset = (b - a) * 1e-9
    grid = np.linspace(a + inset, b - inset, m).tolist()
    extra = draw(st.lists(st.one_of(st.floats(a - 1.0, b + 1.0), st.sampled_from(grid)),
                          max_size=12))
    extra += draw(st.lists(st.sampled_from(extra), max_size=4)) if extra else []
    return np.array(sorted(extra), dtype=float), a, b, m


@given(segments_with_extras())
@example((np.array([]), 0.0, 1.0, 9))
@example((np.array([0.0, 1.0, 2.0]), 0.0, 1.0, 9))  # the extras lie on the segment's ends
@example((np.array([0.5, 0.5, 0.5]), 0.0, 1.0, 9))  # one repeated extra on a grid point
def test_samples_equal_unique_merge(case):
    """``_samples`` merges the extra points strictly inside its evenly
    spaced points by ``searchsorted``; the result is ``np.unique`` of both,
    or the evenly spaced points as they are when no extra point is inside."""
    extra, a, b, m = case
    inset = (b - a) * 1e-9
    xs = np.linspace(a + inset, b - inset, m)
    inside = [x for x in extra.tolist() if xs[0] < x < xs[-1]]
    expected = np.unique(np.concatenate([xs, inside])) if inside else xs
    assert conditions._samples(extra, a, b, m).tobytes() == expected.tobytes()


@given(st.lists(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.0, 1.0, 3.0]), max_size=7),
                min_size=1, max_size=5))
def test_sign_changes_read_run_by_run(runs):
    """One pass over runs laid end to end finds each run's roots as a pass
    over that run alone would: no bracket spans two runs, and a zero at a
    run's edge is a root whatever lies across the edge."""
    vals = np.array([v for run in runs for v in run])
    xs = np.arange(len(vals), dtype=float)
    sign = lambda x: float(np.interp(x, xs, vals))
    ends = list(itertools.accumulate(len(run) for run in runs))
    starts = [0] + ends[:-1]
    expected = oracles.per_run_sign_changes(
        sign, [(xs[s:e], vals[s:e]) for s, e in zip(starts, ends)])
    got = conditions._sign_changes(lambda lo, hi: (sign, sign), xs, vals, ends)
    assert [(r, k) for r, k, _ in got] == expected


def test_bracket_ends_read_with_scalar_sign():
    """The array samples pick the bracket; its ends are read again with the
    scalar sign.  Where that reading gives both ends one sign (a sample
    within an ulp of zero), the end nearer zero is the root."""
    xs, vals = np.array([0.0, 0.5, 1.0]), np.array([-1e-300, 1.0, 2.0])
    read = []

    def sign(x):
        read.append(x)
        return 1e-300 + x

    got = conditions._sign_changes(lambda lo, hi: (sign, sign), xs, vals, [3])
    assert [(r, k) for r, k, _ in got] == [(0.0, 1)]
    assert read == [0.0, 0.5]


@given(st.one_of(gaussian_mixture_pairs(), piecewise_poly_pairs(), mixed_pairs()), st.data())
@settings(deadline=None, max_examples=100)
def test_log_range_bounds_every_sample(pair, data):
    """Each class's log-density bounds on a bracket hold its density at 65
    evenly spaced points of the bracket, up to rounding at the density's scale."""
    lo_ext, hi_ext = pair.finite_extent()
    points = data.draw(st.lists(st.floats(lo_ext - 1.0, hi_ext + 1.0), min_size=2, max_size=12))
    xs = np.unique(np.array(points))
    assume(len(xs) >= 2)
    for which in (0, 1):
        components = pair.class0 if which == 0 else pair.class1
        low, high = conditions._LogRange(components).bounds(xs)
        slack = 1e-12 * sum(c.sup_density for c in components)
        for a, b, lo, hi in zip(xs, xs[1:], np.exp(low), np.exp(high)):
            vals = pair.pdf_array(which, np.linspace(a, b, 65))
            assert np.all(vals >= lo * (1.0 - 1e-9) - slack)
            assert np.all(vals <= hi * (1.0 + 1e-9) + slack)

