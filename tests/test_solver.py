import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from advbayes import cli, conditions, examples, reportio, solver
from advbayes.conditions import FAIL
from advbayes.density import DistributionPair, Gaussian, PiecewisePoly
from advbayes.intervals import INF, Interval, IntervalSet
from advbayes.regressions import _DEFAULT_EPS
from advbayes.risk import TAU_RISK, RiskBreakdown, adversarial_risk
from advbayes.solver import (
    AssumptionUnmet,
    CandidateClassifier,
    DegenerateReport,
    EquivalenceClass,
    SolveReport,
    are_equivalent,
    check_monotonicity,
    degenerate_report,
    min_risk_stage,
    solve,
)
from strategies import gaussian_mixture_pairs, mixed_pairs, piecewise_poly_pairs, wide_sigma_pairs


def record_enumeration(monkeypatch) -> list[tuple]:
    """Record (pool, result) of every ``solver.enumerate_candidates`` call;
    the pool is (a_points, b_points, eps)."""
    calls = []
    enumerate_ = solver.enumerate_candidates

    def recorded(pair, a_pts, b_pts, eps):
        result = enumerate_(pair, a_pts, b_pts, eps)
        calls.append(((a_pts, b_pts, eps), result))
        return result

    monkeypatch.setattr(solver, "enumerate_candidates", recorded)
    return calls


class TestEnumerate:
    """The exhaustive DFS oracle the solver's minimizers are checked against."""

    def test_single_shared_point(self):
        sets, truncated = oracles.enumerate_regular_sets([1.0], [1.0], 0.5)
        assert not truncated
        as_tuples = {tuple((iv.lo, iv.hi) for iv in s.intervals) for s in sets}
        assert as_tuples == {
            (),
            ((-INF, INF),),
            ((1.0, INF),),
            ((-INF, 1.0),),
        }

    def test_empty_pools(self):
        sets, _ = oracles.enumerate_regular_sets([], [], 0.3)
        assert {s.n_components for s in sets} == {0, 1}
        assert len(sets) == 2  # ∅ and ℝ

    def test_degenerate_pools_produce_excluded_middle(self):
        eps = 0.05
        pts = [-0.25 - eps, -0.25 + eps, 0.25 - eps, 0.25 + eps]
        sets, _ = oracles.enumerate_regular_sets(pts, pts, eps)
        target = IntervalSet.of_open((-INF, -0.25 + eps), (0.25 - eps, INF))
        assert any(s == target for s in sets)

    def test_separation_enforced(self):
        # interval of length exactly 2*eps must not appear
        sets, _ = oracles.enumerate_regular_sets([-0.2], [0.2], 0.2)
        assert all(
            all(iv.length > 0.4 or math.isinf(iv.length) for iv in s.intervals)
            for s in sets
        )

    def test_cap(self):
        pts = list(np.linspace(0, 100, 26))
        sets, truncated = oracles.enumerate_regular_sets(pts, pts, 0.001, cap=50)
        assert truncated and len(sets) <= 50


class TestPoolDP:
    @staticmethod
    def tie_pair():
        """Class 0 only beyond |x| = 2: the 2*eps-long set (-0.2, 0.2) would tie ∅."""
        return DistributionPair(
            class0=[PiecewisePoly(breakpoints=(-3.0, -2.0, 2.0, 3.0),
                                  coeffs=((0.35,), (0.0,), (0.35,)))],
            class1=[PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((0.15,),))],
        )

    def test_separation_is_strict(self):
        pair = self.tie_pair()
        tied = IntervalSet.open(-0.2, 0.2)
        assert oracles.mass_set_risk(pair, tied, 0.2)[0] == pytest.approx(0.3, abs=1e-15)
        sets, risks = solver.enumerate_candidates(pair, [-0.2], [0.2], 0.2)
        assert sets == [IntervalSet.empty()]
        assert risks[0].total == pytest.approx(0.3, abs=1e-15)

    def test_lists_near_minimizers_of_the_oracle(self):
        pair, eps = self.tie_pair(), 0.2
        # (a, b) with -1.8 <= a <= -1.2 and 1.2 <= b <= 1.8 all have risk 0.
        pool = ([-1.7, -1.3, -0.2, 0.5], [-0.5, 0.2, 1.3, 1.7], eps)
        sets, risks = solver.enumerate_candidates(pair, *pool)
        everything, truncated = oracles.enumerate_regular_sets(*pool)
        exact = [oracles.mass_set_risk(pair, s, eps) for s in everything]
        low = min(r[0] for r in exact)
        assert not truncated and len(everything) > 10 and len(sets) > 1
        assert sets == [s for s, r in zip(everything, exact) if r[0] <= low + 2 * TAU_RISK]
        assert [r.total for r in risks] == [r[0] for s, r in zip(everything, exact) if s in sets]


class TestSolveGaussians:
    def test_equal_variances_small_eps(self, eqvar_pair):
        for eps in (0.25, 0.75):
            rep = solve(eqvar_pair, eps)
            assert rep.unique_up_to_degeneracy
            top = rep.classes[0].representative
            assert top.n_components == 1
            assert top.intervals[0].lo == pytest.approx(1.0, abs=1e-9)
            assert top.intervals[0].hi == INF
            # risk equals the left tail mass of the shifted class-1 gaussian
            expected = 0.5 * math.erfc((1.0 - eps) / math.sqrt(2)) / 1.0
            assert rep.min_risk == pytest.approx(expected, abs=1e-12)

    def test_equal_variances_large_eps(self, eqvar_pair):
        rep = solve(eqvar_pair, 1.5)
        assert not rep.unique_up_to_degeneracy
        assert len(rep.classes) == 2
        assert rep.has_minimizer(IntervalSet.reals())
        assert rep.has_minimizer(IntervalSet.empty())
        assert rep.min_risk == pytest.approx(0.5, abs=1e-12)

    def test_equal_means_all_eps(self, eqmeans_pair):
        for eps in (0.2, 0.8):
            rep = solve(eqmeans_pair, eps)
            assert rep.unique_up_to_degeneracy
            b = examples.equal_means_interval_endpoint(eps)
            top = rep.classes[0].representative
            assert top.intervals[0].lo == pytest.approx(-b, abs=1e-8)
            assert top.intervals[0].hi == pytest.approx(b, abs=1e-8)


class TestHugeRadius:
    def test_overflowing_scan_range_names_the_radius(self, eqvar_pair):
        with pytest.raises(ValueError, match=r"eps=1e\+308 is too large"):
            solve(eqvar_pair, 1e308)

    def test_infinite_radius_names_the_radius(self, nua_pair):
        with pytest.raises(ValueError, match=r"eps=inf is not a finite radius"):
            solve(nua_pair, math.inf)
        for eps in (-1.0, math.nan):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                solve(nua_pair, eps)

    def test_finite_scan_range_still_solves(self, eqvar_pair):
        # Beyond eps = 1 both ∅ and ℝ are optimal (risk 1/2).
        rep = solve(eqvar_pair, 1e200)
        assert rep.min_risk == pytest.approx(0.5, abs=1e-12) and len(rep.classes) == 2


class TestSolvePiecewise:
    def test_non_uniqueness_all_below_threshold(self, nua_pair):
        rep = solve(nua_pair, 0.2)
        assert not rep.unique_up_to_degeneracy
        assert len(rep.classes) == 2
        assert rep.min_risk == pytest.approx(0.4, abs=1e-12)
        reps = {str(c.representative) for c in rep.classes}
        assert rep.has_minimizer(IntervalSet.open(-0.2, INF))
        assert rep.has_minimizer(IntervalSet.open(0.2, INF))
        # plateau family: interior thresholds are spot-checked minimizers
        assert rep.plateau_checks and all(p.verified for p in rep.plateau_checks)

    def test_non_uniqueness_all_above_threshold(self, nua_pair):
        for eps in (0.35, 0.4):
            rep = solve(nua_pair, eps)
            assert rep.has_minimizer(IntervalSet.reals())
            assert rep.has_minimizer(IntervalSet.empty())

    def test_degenerate_below(self, deg_pair):
        rep = solve(deg_pair, 0.05)
        assert rep.unique_up_to_degeneracy
        assert rep.min_risk == pytest.approx(0.04, abs=1e-12)
        top = rep.classes[0].representative
        assert top.n_components == 2

    def test_degenerate_above(self, deg_pair):
        rep = solve(deg_pair, 0.2)
        assert rep.unique_up_to_degeneracy
        assert rep.classes[0].representative == IntervalSet.reals()
        assert rep.min_risk == pytest.approx(0.1, abs=1e-12)

    def test_failing_candidates_leave_the_pool(self, eqvar_pair, monkeypatch):
        """No candidate that fails the curvature check reaches its kind's pool."""
        calls = record_enumeration(monkeypatch)
        scan = solve(eqvar_pair, 0.5).first_order
        [(pool, _)] = calls
        for cands, kind_pool in ((scan.a_candidates, pool[0]), (scan.b_candidates, pool[1])):
            failing = {p for c in cands if c.second_order == FAIL for p in c.enumeration_points()}
            assert not failing & set(kind_pool)
        assert any(c.second_order == FAIL and c.location == pytest.approx(1.0, abs=1e-9)
                   for c in scan.b_candidates)

        # so no one-sided set ends at the curvature-rejected right endpoint
        assert not [
            s
            for s in oracles.enumerate_regular_sets(*pool)[0]
            if s.n_components == 1
            and s.intervals[0].lo == -INF
            and math.isfinite(s.intervals[0].hi)
        ]

    def test_window_empty_fallback(self, nus_pair, monkeypatch):
        calls = record_enumeration(monkeypatch)
        rep = solve(nus_pair, 1.5)
        assert rep.warnings
        [(pool, (sets, _))] = calls
        assert pool == ([], [], 1.5)
        assert {str(s) for s in sets} <= {str(IntervalSet.empty()), str(IntervalSet.reals())}
        assert rep.classes[0].representative == IntervalSet.reals()


class TestEquivalence:
    def test_reflexive(self, nua_pair):
        a = IntervalSet.open(0.1, INF)
        assert are_equivalent(nua_pair, 0.2, a, a)

    def test_degenerate_middle_flip(self, deg_pair):
        eps = 0.2
        mid = IntervalSet.closed(-0.25 + eps, 0.25 - eps)
        assert are_equivalent(deg_pair, eps, IntervalSet.reals(), mid.complement())

    def test_threshold_family_not_equivalent(self, nua_pair):
        eps = 0.2
        a1 = IntervalSet.open(-eps, INF)
        a2 = IntervalSet.open(eps, INF)
        assert not are_equivalent(nua_pair, eps, a1, a2)
        # the dilations differ by mass 0.375 * 2 * eps = 0.15 on class 0
        d0 = a1.expand(eps).sym_diff(a2.expand(eps))
        assert nua_pair.mass_set(0, d0) == pytest.approx(0.15, abs=1e-12)

    def test_symmetric(self, nua_pair):
        a1 = IntervalSet.open(-0.2, INF)
        a2 = IntervalSet.open(0.2, INF)
        assert are_equivalent(nua_pair, 0.2, a1, a2) == are_equivalent(
            nua_pair, 0.2, a2, a1
        )

    def test_transitivity_on_minimizers(self, deg_pair, nua_pair, eqvar_pair):
        for pair, eps in ((deg_pair, 0.2), (nua_pair, 0.25), (eqvar_pair, 1.0)):
            rep = solve(pair, eps)
            mins = [m.set for m in rep.minimizers]
            for x in mins:
                for y in mins:
                    for z in mins:
                        if are_equivalent(pair, eps, x, y) and are_equivalent(pair, eps, y, z):
                            assert are_equivalent(pair, eps, x, z)

    def test_unique_implies_equal_dilated_mass(self, eqmeans_pair, deg_pair):
        for pair, eps in ((eqmeans_pair, 0.5), (deg_pair, 0.05)):
            rep = solve(pair, eps)
            if not rep.unique_up_to_degeneracy:
                continue
            masses = [
                pair.mass_set(0, m.set.expand(eps)) for m in rep.minimizers
            ]
            assert max(masses) - min(masses) <= 1e-9


near_points = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                        st.floats(min_value=-1e6, max_value=1e6))


@given(
    st.lists(near_points, max_size=12),
    near_points,
    st.sampled_from([0.0, 1e-11, 1e-9, 0.1]),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
)
@settings(deadline=None)
def test_near_sorted_matches_linear_scan(points, p, tol, relative, nudge):
    """The two sorted neighbours decide nearness, with an absolute tolerance
    or one that scales with each entry (``tol * max(1, |y|)``)."""
    def tol_at(q):
        return tol * max(1.0, abs(q)) if relative else tol

    if points and nudge:  # land p within a few ulps or a tolerance of an entry
        q = points[abs(nudge) % len(points)]
        p = q + nudge * (tol_at(q) or 1e-15 * max(1.0, abs(q))) * 0.75
    expected = any(abs(p - q) <= tol_at(q) for q in points)
    assert conditions.near_sorted(sorted(points), p, tol, relative) == expected


def count_gaussian_cdfs(monkeypatch) -> list[float]:
    """Record the point of every ``Gaussian.cdf`` evaluation from now on,
    and every point of each ``Gaussian.cdf_array`` call."""
    calls = []
    cdf, cdf_array = Gaussian.cdf, Gaussian.cdf_array

    def counted(self, x):
        calls.append(x)
        return cdf(self, x)

    def counted_array(self, xs):
        calls.extend(np.ravel(xs).tolist())
        return cdf_array(self, xs)

    monkeypatch.setattr(Gaussian, "cdf", counted)
    monkeypatch.setattr(Gaussian, "cdf_array", counted_array)
    return calls


def test_candidate_risks_share_endpoint_cdfs(bump_pair, monkeypatch):
    """Candidate risks read the pair's CDF memo: the 2,584 regular sets of the
    8-bump pool have a few dozen distinct dilated endpoints.  Evaluating each
    set without the memo takes 39,348 class CDFs of 8 components each."""
    k = 8
    enumerations = record_enumeration(monkeypatch)
    calls = count_gaussian_cdfs(monkeypatch)
    solve(bump_pair(k), 0.3)
    monkeypatch.undo()
    [(pool, _)] = enumerations
    assert len(oracles.enumerate_regular_sets(*pool)[0]) == 2584
    assert len(calls) < 512 * k


@pytest.mark.parametrize("k", [32, 64])
def test_bump_pools_without_caps(bump_pair, monkeypatch, k):
    """k bumps have 2k-1 crossings per kind, past the old 64-candidate cap at
    k=64, and far more regular sets than the old 4,096-set enumeration cap;
    the DP over the whole pool finds the minimum with fewer than 16k class
    CDFs (16k * k component CDFs) and no warning."""
    enumerations = record_enumeration(monkeypatch)
    calls = count_gaussian_cdfs(monkeypatch)
    rep = solve(bump_pair(k), 0.3)
    monkeypatch.undo()
    assert not rep.warnings
    assert len(rep.first_order.a_candidates) == len(rep.first_order.b_candidates) == 2 * k - 1
    assert len(calls) < 16 * k * k
    [(pool, _)] = enumerations
    expected = oracles.pool_dp_min(oracles.ref_bumps_mass(k), *pool)
    assert abs(rep.min_risk - expected) <= 1e-12


@given(st.one_of(gaussian_mixture_pairs(), piecewise_poly_pairs()), st.floats(0.02, 1.0))
@settings(deadline=None, max_examples=200)
def test_minimizers_match_exhaustive_oracle(pair, eps):
    """On pools under the DFS oracle's cap, ``solve`` keeps exactly the
    oracle's minimizers, in order and with the bits of per-set risks."""
    with pytest.MonkeyPatch.context() as mp:
        calls = record_enumeration(mp)
        rep = solve(pair, eps)
    [(pool, _)] = calls
    sets, truncated = oracles.enumerate_regular_sets(*pool)
    assume(not truncated)
    risks = [oracles.mass_set_risk(pair, s, eps) for s in sets]
    low = min(r[0] for r in risks)
    expected = [(s, r) for s, r in zip(sets, risks) if r[0] <= low + TAU_RISK]
    assert [m.set for m in rep.minimizers] == [s for s, _ in expected]
    assert [repr((m.risk.total, m.risk.fn_mass, m.risk.fp_mass)) for m in rep.minimizers] == [
        repr(r) for _, r in expected]
    assert rep.min_risk == low


def gap_cells_pair(k: int) -> DistributionPair:
    """Class 1 uniform on [4i, 4i+1] and class 0 uniform on [4i+2, 4i+3],
    i < k: every class boundary sits in a zero-density gap."""
    def cells(offset: float) -> PiecewisePoly:
        bp = [4.0 * i + offset + d for i in range(k) for d in (0.0, 1.0)]
        rows = [(0.5 / k,) if j % 2 == 0 else (0.0,) for j in range(len(bp) - 1)]
        return PiecewisePoly(breakpoints=tuple(bp), coeffs=tuple(rows))

    return DistributionPair([cells(2.0)], [cells(0.0)])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_walk_lists_every_exact_tie(k):
    """With boundaries in zero-density gaps, 2^(2k-1) regular sets tie at
    the minimum to the bit; the pruned walk must list all of them, in the
    exhaustive oracle's order and with its risk bits.  The oracle lists
    1,072 and 17,152 regular sets at k = 2 and 3; at k = 4 its 274,432 sets
    take about 40 s, so there every listed set's oracle risk is checked and
    the count of 128 closes the list."""
    pair, eps = gap_cells_pair(k), 0.1
    with pytest.MonkeyPatch.context() as mp:
        calls = record_enumeration(mp)
        rep = solve(pair, eps)
    [(pool, _)] = calls
    got = [(m.set, repr((m.risk.total, m.risk.fn_mass, m.risk.fp_mass))) for m in rep.minimizers]
    assert len(got) == 2 ** (2 * k - 1)
    if k == 4:
        low = oracles.pool_dp_min(lambda c, lo, hi: (oracles.class_cdf(pair, c, hi)
                                                     - oracles.class_cdf(pair, c, lo)), *pool)
        assert rep.min_risk == low
        assert [s for s, _ in got] == sorted({s for s, _ in got}, key=solver._set_key)
        assert all(r == repr(oracles.mass_set_risk(pair, s, eps)) for s, r in got)
        assert all(s.is_regular(eps) for s, _ in got)
        return
    sets, truncated = oracles.enumerate_regular_sets(*pool, cap=10**5)
    assert not truncated
    risks = [oracles.mass_set_risk(pair, s, eps) for s in sets]
    low = min(r[0] for r in risks)
    assert got == [(s, repr(r)) for s, r in zip(sets, risks) if r[0] <= low + TAU_RISK]


class TestMinRiskStage:
    """``certify`` reads the minimum from ``min_risk_stage``, so it must be
    ``solve``'s ``min_risk`` to the bit."""

    @pytest.mark.parametrize("name", examples.EXAMPLE_NAMES)
    def test_builtins(self, name):
        eps = _DEFAULT_EPS[name]
        pair = examples.example_pair(name, eps)
        assert min_risk_stage(pair, eps).min_risk.hex() == solve(pair, eps).min_risk.hex()

    def test_window_empty(self, nus_pair):
        stage, rep = min_risk_stage(nus_pair, 1.5), solve(nus_pair, 1.5)
        assert stage.scan is None and stage.warnings == rep.warnings
        assert stage.min_risk.hex() == rep.min_risk.hex()

    @given(st.one_of(gaussian_mixture_pairs(), piecewise_poly_pairs(), mixed_pairs(),
                     wide_sigma_pairs()), st.floats(0.0, 1.5))
    @settings(deadline=None, max_examples=60)
    def test_strategy_pairs(self, pair, eps):
        assert min_risk_stage(pair, eps).min_risk.hex() == solve(pair, eps).min_risk.hex()


class TestDegenerateReport:
    def test_equal_means_boundary_only(self, eqmeans_pair):
        eps = 0.5
        b = examples.equal_means_interval_endpoint(eps)
        rep_set = IntervalSet.open(-b, b)
        d = degenerate_report(eqmeans_pair, eps, rep_set)
        assert d.assumptions_met
        assert d.maximal_degenerate == IntervalSet(
            [Interval(-b, -b, True, True), Interval(b, b, True, True)]
        )

    def test_degenerate_example_detection(self, deg_pair):
        eps = 0.2
        probes = [-0.25 - eps, -0.25 + eps, 0.25 - eps, 0.25 + eps]
        d = degenerate_report(deg_pair, eps, IntervalSet.reals(), probes)
        assert not d.assumptions_met
        assert len(d.detected_intervals) == 1
        iv = d.detected_intervals[0]
        assert iv.lo == pytest.approx(-0.05, abs=1e-12)
        assert iv.hi == pytest.approx(0.05, abs=1e-12)

    def test_one_report_per_class(self, nua_pair, deg_pair, monkeypatch):
        reported = []

        def counted(pair, eps, a, *args, **kwargs):
            reported.append(a)
            return degenerate_report(pair, eps, a, *args, **kwargs)

        monkeypatch.setattr(solver, "degenerate_report", counted)
        for pair, eps, n_classes in ((nua_pair, 0.2, 2), (deg_pair, 0.05, 1)):
            reported.clear()
            rep = solve(pair, eps)
            assert len(rep.classes) == n_classes
            assert len(reported) == n_classes
            assert set(reported) == set(rep.representatives())

    @pytest.mark.parametrize("name", ["non_uniqueness_all", "degenerate"])
    def test_eta_degeneracy_once_per_sweep(self, monkeypatch, capsys, name):
        prop = DistributionPair.eta_degenerate_on_support
        evaluated = []

        def counted(pair):
            evaluated.append(pair)
            return prop.func(pair)

        wrapped = functools.cached_property(counted)
        wrapped.__set_name__(DistributionPair, prop.attrname)
        monkeypatch.setattr(DistributionPair, prop.attrname, wrapped)
        argv = ["sweep", "--example", name, "--eps-min", "0.05", "--eps-max", "0.2",
                "--steps", "4"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(evaluated) == 1


class TestMinimizerClosure:
    def test_union_intersection_stay_optimal(self, nua_pair, eqvar_pair, deg_pair):
        for pair, eps in ((nua_pair, 0.2), (eqvar_pair, 1.2), (deg_pair, 0.15)):
            rep = solve(pair, eps)
            mins = [m.set for m in rep.minimizers]
            for x in mins:
                for y in mins:
                    for s in (x.union(y), x.intersect(y)):
                        r = adversarial_risk(pair, s, eps).total
                        assert r <= rep.min_risk + 1e-9


# eps is near TAU_RISK: the listed minimizers lie 0 to 9.3e-10 above min_risk,
# and one union lies 1.6e-9 above it, over TAU_RISK but under 2 * TAU_RISK.
_NEAR_TAU_PAIR = DistributionPair(
    [PiecewisePoly((-1.25, 0.25, 1.0, 2.0),
                   ((0.18086989232080386, 0.042557621722542086), (0.0,),
                    (0.08036986947409046, -0.13596922030364644, 0.05751314519660569))),
     Gaussian(0.3037452491565482, -0.2162342279723506, 0.9458543652328864)],
    [PiecewisePoly((-1.25, 0.25, 1.0, 2.0),
                   ((0.10422192206384746, -0.032068283711953055),
                    (0.0678105973768059, -0.08827605316497199, 0.06798730451334276),
                    (0.09084114227327797, -0.15903636167393492, 0.07951818083696745))),
     Gaussian(0.1962547508434518, -0.5315887047740014, 0.265910973103223)],
)


@given(st.one_of(gaussian_mixture_pairs(), piecewise_poly_pairs(), mixed_pairs()),
       st.floats(0.0, 1.0))
@example(_NEAR_TAU_PAIR, 1e-9)
@settings(deadline=None, max_examples=200)
def test_minimizers_form_a_lattice(pair, eps):
    """The risk is submodular on the listed minimizers, and their unions and
    intersections are minimizers up to 2 * TAU_RISK: each listed member may
    sit TAU_RISK above min_risk."""
    rep = solve(pair, eps)
    mins = rep.minimizers[:12]
    for i, a in enumerate(mins):
        for b in mins[i + 1:]:
            r_cup = adversarial_risk(pair, a.set.union(b.set), eps).total
            r_cap = adversarial_risk(pair, a.set.intersect(b.set), eps).total
            assert r_cup + r_cap <= a.risk.total + b.risk.total + 1e-15
            for r in (r_cup, r_cap):
                assert rep.min_risk - 1e-12 <= r <= rep.min_risk + 2 * TAU_RISK


class TestWeakDualityFloor:
    def test_minimizers_never_beat_dual(self, nua_pair, deg_pair, eqvar_pair):
        from advbayes.certify import discretize, dual_value

        h = 1e-3
        for pair, eps in ((nua_pair, 0.2), (deg_pair, 0.05), (eqvar_pair, 0.5)):
            rep = solve(pair, eps)
            a0, a1 = discretize(pair, h)
            dual = dual_value(a0, a1, eps, h).dual_value
            tol = 2.0 * max(pair.sup_density(0), pair.sup_density(1)) * h
            for m in rep.minimizers:
                assert m.risk.total >= dual - tol


class TestMonotonicity:
    def test_identical_representatives(self, eqvar_pair):
        r1 = solve(eqvar_pair, 0.3)
        r2 = solve(eqvar_pair, 0.6)
        assert check_monotonicity(eqvar_pair, r1, r2) is True

    def test_growing_interval(self, eqmeans_pair):
        r1 = solve(eqmeans_pair, 0.2)
        r2 = solve(eqmeans_pair, 0.8)
        assert check_monotonicity(eqmeans_pair, r1, r2) is True

    def test_collapse_to_full_line(self, nus_pair):
        r1 = solve(nus_pair, 0.1)
        r2 = solve(nus_pair, 0.3)
        assert check_monotonicity(nus_pair, r1, r2) is True

    def test_trivial_exemption(self, eqvar_pair):
        r1 = solve(eqvar_pair, 1.1)
        r2 = solve(eqvar_pair, 1.4)
        assert all(r1.has_minimizer(s) for s in (IntervalSet.empty(), IntervalSet.reals()))
        assert check_monotonicity(eqvar_pair, r1, r2) is True

    def test_assumption_unmet_pure_labels(self, deg_pair):
        r1 = solve(deg_pair, 0.05)
        r2 = solve(deg_pair, 0.1)
        with pytest.raises(AssumptionUnmet):
            check_monotonicity(deg_pair, r1, r2)

    def test_assumption_unmet_split_support(self):
        pair = examples.deg_eta_0_1_counterexample(0.1)
        r1 = solve(pair, 0.05)
        r2 = solve(pair, 0.1)
        with pytest.raises(AssumptionUnmet):
            check_monotonicity(pair, r1, r2)

    def test_ordering_enforced(self, eqvar_pair):
        r1 = solve(eqvar_pair, 0.3)
        r2 = solve(eqvar_pair, 0.6)
        with pytest.raises(ValueError):
            check_monotonicity(eqvar_pair, r2, r1)

    # On non_uniqueness_single (support [-1, 1]) at eps 0.1 and 0.5 the
    # dilated supports are I1 = [-1.1, 1.1] and I2 = [-1.5, 1.5].  Each
    # pair breaks one condition only.
    @pytest.mark.parametrize("a1, a2", [
        # components within I1 / I2: 1 < 2; gaps 1 and 1
        (((0.0, INF),), ((-INF, -1.3), (0.0, INF))),
        # gaps within I1 / I2: 1 < 2 ([-1.5, -1.3] and [0, 1.5]); components 1 and 1
        (((-INF, 0.0),), ((-1.3, 0.0),)),
        # the component (-inf, 0.6) holds the gap [-0.2, 0.2]; counts 2/1 and 2/1
        (((-INF, 0.6), (0.9, INF)), ((-INF, -0.2), (0.2, INF))),
        # the gap [-0.5, 0.5] holds the component (-0.2, 0.2); counts 2/3 and 1/2
        (((-1.05, -0.5), (0.5, 1.05)), ((-0.2, 0.2),)),
    ], ids=["components-grow", "gaps-grow", "component-holds-gap", "gap-holds-component"])
    def test_each_violation_fails(self, nus_pair, a1, a2):
        r1 = _bare_report(0.1, [IntervalSet.of_open(*a1)])
        r2 = _bare_report(0.5, [IntervalSet.of_open(*a2)])
        assert check_monotonicity(nus_pair, r1, r2) is False
        assert oracles.literal_monotonicity(nus_pair, r1, r2) is False
        # the eps1 representative itself passes at eps2
        assert check_monotonicity(nus_pair, r1, _bare_report(0.5, [r1.classes[0].representative]))

    def test_exemption_fails(self, nus_pair):
        """∅ and ℝ both optimal at eps1 but only ℝ at eps2: false, whatever
        the representatives."""
        empty, reals = IntervalSet.empty(), IntervalSet.reals()
        r1 = _bare_report(0.1, [empty, reals])
        r2 = _bare_report(0.5, [reals])
        assert check_monotonicity(nus_pair, r1, r2) is False
        assert oracles.literal_monotonicity(nus_pair, r1, r2) is False
        assert check_monotonicity(nus_pair, r1, _bare_report(0.5, [reals], [empty])) is True


def _bare_report(eps: float, reps: list[IntervalSet], others: tuple = ()) -> SolveReport:
    """A solve report holding one class per representative; ``others`` are
    further minimizers outside the classes.  Only what the structure check
    reads is filled in."""
    def member(s):
        return CandidateClassifier(s, RiskBreakdown(0.0, 0.0, 0.0), True)

    classes = [EquivalenceClass(s, [member(s)], DegenerateReport(IntervalSet.empty(), True))
               for s in reps]
    minimizers = [member(s) for s in [*reps, *others]]
    return SolveReport(eps, minimizers, classes, len(classes) == 1, 0.0, [])


_MONO_RADII = ((0.1, 0.2), (0.1, 0.3), (0.2, 0.5), (0.05, 0.1))
# Endpoints shared by both reports, including each dilated support end of
# the [-1, 1]-supported pairs.
_MONO_GRID = sorted({0.0, 0.5, -0.5, 1.0, -1.0} | {s * (1.0 + e) for pair in _MONO_RADII
                                                   for e in pair for s in (1.0, -1.0)})


@st.composite
def grid_sets(draw) -> IntervalSet:
    """A union of intervals with ends on ``_MONO_GRID`` and random flags;
    point pieces, half-infinite pieces, ∅ and ℝ all occur."""
    ends = sorted(draw(st.lists(st.sampled_from(_MONO_GRID), max_size=6)))
    ends = [-INF] * draw(st.booleans()) + ends
    ends += [INF] * (len(ends) % 2)
    pieces = []
    for lo, hi in zip(ends[::2], ends[1::2]):
        lo_closed = lo > -INF and (lo == hi or draw(st.booleans()))
        hi_closed = hi < INF and (lo == hi or draw(st.booleans()))
        pieces.append(Interval(lo, hi, lo_closed, hi_closed))
    return IntervalSet(pieces)


@st.composite
def bare_reports(draw, eps: float) -> SolveReport:
    reps = draw(st.lists(grid_sets(), min_size=1, max_size=3))
    others = [s for s in (IntervalSet.empty(), IntervalSet.reals()) if draw(st.booleans())]
    return _bare_report(eps, reps, others)


_MONO_PAIRS = (examples.gaussians_equal_variances(), examples.non_uniqueness_single(),
               examples.non_uniqueness_all())


@given(st.sampled_from(_MONO_PAIRS), st.sampled_from(_MONO_RADII), st.data())
@settings(max_examples=500, deadline=None)
def test_monotonicity_matches_literal_check(pair, radii, data):
    """The structure check agrees with the literal per-piece version on
    reports built from shared endpoints."""
    r1 = data.draw(bare_reports(radii[0]))
    r2 = data.draw(bare_reports(radii[1]))
    assert check_monotonicity(pair, r1, r2) is oracles.literal_monotonicity(pair, r1, r2)


class TestAgainstGridOracle:
    """The enumeration must never miss the grid-search optimum."""

    @staticmethod
    def _check(pair, eps, window=None):
        from advbayes.certify import primal_bruteforce

        rep = solve(pair, eps)
        h = 2e-3
        grid_val, _ = primal_bruteforce(pair, eps, h, 3, window=window)
        tol = 3 * max(pair.sup_density(0), pair.sup_density(1)) * h + 1e-9
        assert rep.min_risk <= grid_val + tol

    def test_random_piecewise_linear_pairs(self):
        rng = np.random.default_rng(123)
        done = 0
        while done < 10:
            k = int(rng.integers(2, 5))
            bp = np.sort(rng.choice(np.arange(-10, 11), size=k + 1, replace=False)) / 10.0

            def rand_rows():
                rows = []
                for lo, hi in zip(bp, bp[1:]):
                    if rng.random() < 0.25:
                        rows.append((0.0,))
                    else:
                        v0, v1 = rng.uniform(0.05, 1.0, size=2)
                        c1 = (v1 - v0) / (hi - lo)
                        rows.append((v0 - c1 * lo, c1))
                return rows

            def total(rows):
                t = 0.0
                for (lo, hi), row in zip(zip(bp, bp[1:]), rows):
                    c0 = row[0]
                    c1 = row[1] if len(row) > 1 else 0.0
                    t += c0 * (hi - lo) + c1 * (hi * hi - lo * lo) / 2
                return t

            rows0, rows1 = rand_rows(), rand_rows()
            t0, t1 = total(rows0), total(rows1)
            if t0 <= 1e-9 or t1 <= 1e-9:
                continue
            alpha = rng.uniform(0.2, 0.8)
            rows0 = [tuple(c * alpha / t0 for c in r) for r in rows0]
            rows1 = [tuple(c * (1 - alpha) / t1 for c in r) for r in rows1]
            try:
                pair = DistributionPair(
                    class0=[PiecewisePoly(breakpoints=tuple(bp), coeffs=tuple(rows0))],
                    class1=[PiecewisePoly(breakpoints=tuple(bp), coeffs=tuple(rows1))],
                )
            except ValueError:
                continue
            self._check(pair, float(rng.uniform(0.02, 0.5)), window=(-1.2, 1.2))
            done += 1

    def test_random_gaussian_mixtures(self):
        from advbayes.density import Gaussian

        rng = np.random.default_rng(321)
        for _ in range(6):
            def rand_class(total):
                n = int(rng.integers(1, 3))
                ws = rng.uniform(0.2, 1.0, size=n)
                ws = ws / ws.sum() * total
                return [
                    Gaussian(
                        weight=float(w),
                        mu=float(rng.uniform(-2, 2)),
                        sigma=float(rng.uniform(0.4, 1.5)),
                    )
                    for w in ws
                ]

            alpha = rng.uniform(0.25, 0.75)
            pair = DistributionPair(class0=rand_class(alpha), class1=rand_class(1 - alpha))
            self._check(pair, float(rng.uniform(0.05, 1.0)))


class TestReportShape:
    def test_min_risk_is_minimum(self, nua_pair, monkeypatch):
        calls = record_enumeration(monkeypatch)
        rep = solve(nua_pair, 0.15)
        [(pool, _)] = calls
        sets, truncated = oracles.enumerate_regular_sets(*pool)
        assert not truncated
        assert rep.min_risk == min(oracles.mass_set_risk(nua_pair, s, 0.15)[0] for s in sets)

    def test_unique_iff_one_class(self, deg_pair, nua_pair):
        for pair, eps in ((deg_pair, 0.05), (nua_pair, 0.2)):
            rep = solve(pair, eps)
            assert rep.unique_up_to_degeneracy == (len(rep.classes) == 1)

    def test_candidates_sorted(self, nua_pair, monkeypatch):
        calls = record_enumeration(monkeypatch)
        rep = solve(nua_pair, 0.2)
        [(_, (sets, _))] = calls
        keys = [solver._set_key(s) for s in sets]
        assert len(sets) > 1 and keys == sorted(keys)
        keys = [m.sort_key() for m in rep.minimizers]
        assert len(keys) > 1 and keys == sorted(keys)

    def test_all_enumerated_regular(self, deg_pair, nua_pair, monkeypatch):
        calls = record_enumeration(monkeypatch)
        for pair, eps in ((deg_pair, 0.05), (nua_pair, 0.2)):
            rep = solve(pair, eps)
            assert all(s.is_regular(eps) for s in calls[-1][1][0])
            assert all(m.set.is_regular(eps) for m in rep.minimizers)


def _key_paths(obj, prefix: str = "") -> set[str]:
    """Dotted paths of every object key; ``[]`` marks the objects of a list."""
    paths = set()
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | _key_paths(value, path)
    elif isinstance(obj, list):
        for value in obj:
            paths |= _key_paths(value, prefix + "[]")
    return paths


SOLVE_REPORT_PATHS = {
    "epsilon", "min_risk", "unique_up_to_degeneracy", "warnings",
    "classes", "classes[].representative", "classes[].members", "classes[].members[].set",
    "classes[].members[].risk", "classes[].members[].risk.total",
    "classes[].members[].risk.fn_mass", "classes[].members[].risk.fp_mass",
    "classes[].members[].second_order_clean",
    "classes[].degenerate", "classes[].degenerate.assumptions_met",
    "classes[].degenerate.maximal_degenerate", "classes[].degenerate.detected_intervals",
    "first_order", "first_order.window", "first_order.window_widened",
    *(f"first_order.{kind}_candidates{leaf}" for kind in "ab"
      for leaf in ("", "[].second_order", "[].residual", "[].at_jump", "[].location",
                   "[].plateau")),
    "plateau_checks", "plateau_checks[].kind", "plateau_checks[].plateau",
    "plateau_checks[].verified",
}


def test_solve_report_schema(nua_pair, deg_pair):
    """Each fact once: every minimizer's record sits in its class, and the
    report has exactly these keys.  The three runs cover plateaus and two
    classes (non_uniqueness_all), detected degenerate intervals (degenerate
    at 0.2) and 32 tied members in one class (gap cells, k=3)."""
    paths, reports = set(), []
    for pair, eps, n_members in ((nua_pair, 0.2, 2), (deg_pair, 0.2, 1),
                                 (gap_cells_pair(3), 0.1, 32)):
        rep = solve(pair, eps)
        data = json.loads(reportio.dumps(reportio.solve_report_to_dict(rep)))
        paths |= _key_paths(data)
        listed = [solver._set_key(IntervalSet.from_rows(m["set"]))
                  for c in data["classes"] for m in c["members"]]
        assert len(listed) == len(set(listed)) == len(rep.minimizers) == n_members
        assert set(listed) == {m.sort_key() for m in rep.minimizers}
        reports.append(data)
    assert paths == SOLVE_REPORT_PATHS
    nua, deg, _ = reports
    assert len(nua["classes"]) == 2 and nua["plateau_checks"]
    assert deg["classes"][0]["degenerate"]["detected_intervals"]
