import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles
from strategies import (NARROW_GAP_PAIR, gaussian_mixture_pairs, mixed_pairs,
                        piecewise_poly_pairs, wide_sigma_pairs)
from advbayes import conditions, examples
from advbayes.density import DistributionPair, Gaussian, PiecewisePoly
from advbayes.conditions import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    WindowEmpty,
    bayes_boundary_proximity,
    bayes_classifier,
    check_second_order,
    defect,
    scan_window,
    solve_first_order,
)
from advbayes.intervals import INF
from advbayes.risk import TAU_RISK, adversarial_risk
from advbayes.solver import solve


def locations(cands):
    out = []
    for c in cands:
        out.extend(c.enumeration_points())
    return sorted(out)


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
        assert plats[0].second_order == INCONCLUSIVE

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
    def test_equal_variance_b_fails(self, eqvar_pair):
        assert check_second_order(eqvar_pair, 0.5, 1.0, "b") == FAIL
        assert check_second_order(eqvar_pair, 0.5, 1.0, "a") == PASS

    def test_flat_distribution_boundary_case(self, nua_pair):
        # both derivative combinations vanish in cell interiors: PASS
        assert check_second_order(nua_pair, 0.1, 0.5, "a") == PASS

    def test_breakpoint_inconclusive(self, nua_pair):
        # x - eps hits the density kink at 0
        assert check_second_order(nua_pair, 0.2, 0.2, "a") == INCONCLUSIVE

    def test_ramp_a_fails(self, nus_pair):
        eps = 0.1
        assert check_second_order(nus_pair, eps, (1 - eps) / 3, "a") == FAIL


class TestProximity:
    def test_equal_variance_zero_distance(self, eqvar_pair):
        scan = solve_first_order(eqvar_pair, 0.5)
        recs = bayes_boundary_proximity(eqvar_pair, 0.5, scan.a_candidates)
        assert all(r["within_eps"] for r in recs)
        assert recs[0]["distance"] <= 1e-9

    def test_plateau_ends_at_eps_distance(self, nua_pair):
        eps = 0.2
        scan = solve_first_order(nua_pair, eps)
        recs = bayes_boundary_proximity(nua_pair, eps, scan.a_candidates)
        dists = sorted(r["distance"] for r in recs)
        assert dists[-1] == pytest.approx(eps, abs=1e-9)
        assert all(r["within_eps"] for r in recs)

    def test_pure_label_boundary(self, deg_pair):
        eps = 0.05
        scan = solve_first_order(deg_pair, eps)
        inner = [
            r
            for r in bayes_boundary_proximity(deg_pair, eps, scan.a_candidates)
            if abs(abs(r["location"]) - (0.25 - eps)) <= 1e-9
        ]
        assert inner
        for r in inner:
            assert abs(r["nearest_boundary"]) == pytest.approx(0.25, abs=1e-9)
            assert r["distance"] == pytest.approx(eps, abs=1e-9)
            assert r["within_eps"]

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
        xs, vals, is_plateau = conditions._sample_defect(pair, eps, "a", 0.0, 20.0, 8001)
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
    """Samples go through ``pdf_array``; scalar ``pdf`` serves only the
    root finder, residuals and jump points.  Sampling with scalar ``pdf``
    takes about 8,200 calls on each of these."""
    calls = []
    pdf = DistributionPair.pdf

    def counted(self, which, x):
        calls.append(x)
        return pdf(self, which, x)

    monkeypatch.setattr(DistributionPair, "pdf", counted)
    solve_first_order(getattr(examples, name)(), eps)
    assert len(calls) < 512


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
    """The 16-bump pair at eps 0.3 has 61 brackets; bisecting each from one
    sample spacing down to _BISECT_TOL took 36 defect evaluations, two scalar
    ``pdf`` calls each."""
    brackets, calls, inside = [0], [0], [False]
    find, pdf = conditions.itp_root, DistributionPair.pdf

    def counted_find(*args):
        brackets[0] += 1
        inside[0] = True
        try:
            return find(*args)
        finally:
            inside[0] = False

    def counted_pdf(self, which, x):
        calls[0] += inside[0]
        return pdf(self, which, x)

    monkeypatch.setattr(conditions, "itp_root", counted_find)
    monkeypatch.setattr(DistributionPair, "pdf", counted_pdf)
    solve_first_order(bump_pair(16), 0.3)
    assert brackets[0] > 0
    assert calls[0] / 2 <= 16 * brackets[0]


def test_bracket_ends_read_with_scalar_sign():
    """The array samples pick the bracket; its ends are read again with the
    scalar sign.  Where that reading gives both ends one sign (a sample
    within an ulp of zero), the end nearer zero is the root."""
    xs, vals = np.array([0.0, 0.5, 1.0]), np.array([-1e-300, 1.0, 2.0])
    read = []

    def sign(x):
        read.append(x)
        return 1e-300 + x

    assert conditions._sign_changes(sign, xs, vals) == [0.0]
    assert read == [0.0, 0.5]
