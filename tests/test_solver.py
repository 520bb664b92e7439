import functools
import math

import numpy as np
import pytest

from advbayes import cli, examples, solver
from advbayes.density import DistributionPair, PiecewisePoly
from advbayes.intervals import INF, Interval, IntervalSet
from advbayes.risk import adversarial_risk
from advbayes.solver import (
    AssumptionUnmet,
    are_equivalent,
    check_monotonicity,
    degenerate_report,
    enumerate_candidates,
    solve,
)


class TestEnumerate:
    def test_single_shared_point(self):
        sets, truncated = enumerate_candidates([1.0], [1.0], 0.5)
        assert not truncated
        as_tuples = {tuple((iv.lo, iv.hi) for iv in s.intervals) for s in sets}
        assert as_tuples == {
            (),
            ((-INF, INF),),
            ((1.0, INF),),
            ((-INF, 1.0),),
        }

    def test_empty_pools(self):
        sets, _ = enumerate_candidates([], [], 0.3)
        assert {s.n_components for s in sets} == {0, 1}
        assert len(sets) == 2  # ∅ and ℝ

    def test_degenerate_pools_produce_excluded_middle(self):
        eps = 0.05
        pts = [-0.25 - eps, -0.25 + eps, 0.25 - eps, 0.25 + eps]
        sets, _ = enumerate_candidates(pts, pts, eps)
        target = IntervalSet.of_open((-INF, -0.25 + eps), (0.25 - eps, INF))
        assert any(s == target for s in sets)

    def test_separation_enforced(self):
        # interval of length exactly 2*eps must not appear
        sets, _ = enumerate_candidates([-0.2], [0.2], 0.2)
        assert all(
            all(iv.length > 0.4 or math.isinf(iv.length) for iv in s.intervals)
            for s in sets
        )

    def test_cap(self):
        pts = list(np.linspace(0, 100, 26))
        sets, truncated = enumerate_candidates(pts, pts, 0.001, cap=50)
        assert truncated and len(sets) <= 50


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

    def test_keep_all_retains_failing_candidates(self, eqvar_pair):
        slim = solve(eqvar_pair, 0.5)
        full = solve(eqvar_pair, 0.5, keep_all=True)
        assert len(full.candidates) > len(slim.candidates)
        # a one-sided set built from the curvature-rejected right endpoint
        def left_half_lines(report):
            return [
                c.set
                for c in report.candidates
                if c.set.n_components == 1
                and c.set.intervals[0].lo == -INF
                and math.isfinite(c.set.intervals[0].hi)
            ]

        assert any(
            s.intervals[0].hi == pytest.approx(1.0, abs=1e-9) for s in left_half_lines(full)
        )
        assert not left_half_lines(slim)

    def test_window_empty_fallback(self, nus_pair):
        rep = solve(nus_pair, 1.5)
        assert rep.warnings
        assert {str(c.set) for c in rep.candidates} == {
            str(IntervalSet.empty()),
            str(IntervalSet.reals()),
        }
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


class TestDegenerateReport:
    def test_equal_means_boundary_only(self, eqmeans_pair):
        eps = 0.5
        b = examples.equal_means_interval_endpoint(eps)
        rep_set = IntervalSet.open(-b, b)
        d = degenerate_report(eqmeans_pair, eps, rep_set)
        assert d.assumptions_met
        assert d.small_components.is_empty
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

    def test_small_component_listed(self, nua_pair):
        eps = 0.3
        a = IntervalSet.of_open((0.0, 0.6), (5.0, INF))
        d = degenerate_report(nua_pair, eps, a)
        assert any(
            iv.lo == pytest.approx(0.0) and iv.hi == pytest.approx(0.6)
            for iv in d.small_components
        )


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
        res = check_monotonicity(eqvar_pair, r1, r2)
        assert res.holds and not res.violations

    def test_growing_interval(self, eqmeans_pair):
        r1 = solve(eqmeans_pair, 0.2)
        r2 = solve(eqmeans_pair, 0.8)
        res = check_monotonicity(eqmeans_pair, r1, r2)
        assert res.holds

    def test_collapse_to_full_line(self, nus_pair):
        r1 = solve(nus_pair, 0.1)
        r2 = solve(nus_pair, 0.3)
        res = check_monotonicity(nus_pair, r1, r2)
        assert res.holds

    def test_trivial_exemption(self, eqvar_pair):
        r1 = solve(eqvar_pair, 1.1)
        r2 = solve(eqvar_pair, 1.4)
        res = check_monotonicity(eqvar_pair, r1, r2)
        assert res.holds and res.exempt

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
    def test_min_risk_is_minimum(self, nua_pair):
        rep = solve(nua_pair, 0.15)
        assert rep.min_risk == min(c.risk.total for c in rep.candidates)

    def test_unique_iff_one_class(self, deg_pair, nua_pair):
        for pair, eps in ((deg_pair, 0.05), (nua_pair, 0.2)):
            rep = solve(pair, eps)
            assert rep.unique_up_to_degeneracy == (len(rep.classes) == 1)

    def test_candidates_sorted(self, deg_pair):
        rep = solve(deg_pair, 0.05)
        keys = [c.sort_key() for c in rep.candidates]
        assert keys == sorted(keys)

    def test_all_enumerated_regular(self, deg_pair, nua_pair):
        for pair, eps in ((deg_pair, 0.05), (nua_pair, 0.2)):
            rep = solve(pair, eps)
            assert all(c.regular for c in rep.candidates)
