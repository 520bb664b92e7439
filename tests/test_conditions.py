import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import oracles
from advbayes import conditions, examples
from advbayes.density import DistributionPair, Gaussian, PiecewisePoly
from advbayes.conditions import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    WindowEmpty,
    bayes_boundary_proximity,
    check_second_order,
    defect,
    scan_window,
    solve_first_order,
)
from advbayes.intervals import INF


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
        from advbayes.risk import bayes_classifier

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


# -- array scan against the literal scalar scan ---------------------------------


@st.composite
def gaussian_mixture_pairs(draw):
    share0 = draw(st.floats(0.2, 0.8))
    classes = []
    for share in (share0, 1.0 - share0):
        raw = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
        classes.append([Gaussian(weight=share * w / sum(raw), mu=draw(st.floats(-4.0, 4.0)),
                                 sigma=draw(st.floats(0.2, 2.0))) for w in raw])
    return DistributionPair(*classes)


@st.composite
def piecewise_poly_pairs(draw):
    """Nonnegative cells: constants and lines from few end values (so plateaus
    and jumps occur) and shifted parabolas, each class scaled to mass 1/2."""
    classes = []
    for _ in range(2):
        n = draw(st.integers(1, 4))
        ticks = draw(st.lists(st.integers(-8, 8), min_size=n + 1, max_size=n + 1, unique=True))
        bp = [0.25 * t for t in sorted(ticks)]
        rows = []
        for lo, hi in zip(bp, bp[1:]):
            if draw(st.booleans()):
                vlo, vhi = (draw(st.sampled_from([0.0, 1.0, 2.0, 3.0])) for _ in range(2))
                slope = (vhi - vlo) / (hi - lo)
                rows.append((vlo - slope * lo, slope) if slope else (vlo,))
            else:
                a, b = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 1.0))
                r = draw(st.floats(lo, hi))
                rows.append((a * r * r + b, -2.0 * a * r, a))
        poly = PiecewisePoly(breakpoints=tuple(bp), coeffs=tuple(rows))
        if poly.total_mass < 1e-3:
            rows = [(1.0,)] * n
            poly = PiecewisePoly(breakpoints=tuple(bp), coeffs=tuple(rows))
        scale = 0.5 / poly.total_mass
        classes.append([PiecewisePoly(breakpoints=tuple(bp),
                                      coeffs=tuple(tuple(c * scale for c in row) for row in rows))])
    return DistributionPair(*classes)


def _scan_matches_oracle(pair, eps):
    expected = oracles.literal_first_order(pair, eps)
    if expected is None:
        with pytest.raises(WindowEmpty):
            solve_first_order(pair, eps)
        return
    scan = solve_first_order(pair, eps)
    got = ([c.to_dict() for c in scan.a_candidates],
           [c.to_dict() for c in scan.b_candidates], scan.truncated)
    assert got == expected


@given(gaussian_mixture_pairs(), st.floats(0.02, 1.0))
@settings(deadline=None, max_examples=40)
def test_scan_matches_scalar_oracle_gaussian_mixtures(pair, eps):
    _scan_matches_oracle(pair, eps)


@given(piecewise_poly_pairs(), st.floats(0.02, 1.0))
@settings(deadline=None, max_examples=60)
def test_scan_matches_scalar_oracle_piecewise_pairs(pair, eps):
    _scan_matches_oracle(pair, eps)


@pytest.mark.parametrize("name, eps", [
    ("gaussians_equal_variances", 0.5), ("non_uniqueness_all", 0.2), ("degenerate", 0.05)])
def test_scan_samples_without_scalar_pdf(monkeypatch, name, eps):
    """Samples go through ``pdf_array``; scalar ``pdf`` serves only the
    bisection, residuals and jump points.  Sampling with scalar ``pdf``
    takes about 8,200 calls on each of these."""
    calls = []
    pdf = DistributionPair.pdf

    def counted(self, which, x):
        calls.append(x)
        return pdf(self, which, x)

    monkeypatch.setattr(DistributionPair, "pdf", counted)
    solve_first_order(getattr(examples, name)(), eps)
    assert len(calls) < 512
