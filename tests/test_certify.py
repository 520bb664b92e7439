import numpy as np
import pytest

import oracles
from advbayes import examples
from advbayes.certify import (
    AtomList,
    BudgetExceeded,
    discretize,
    dual_value,
    duality_gap,
    primal_bruteforce,
)
from advbayes.density import DistributionPair, PiecewisePoly
from advbayes.intervals import IntervalSet
from advbayes.risk import adversarial_risk


def uniform_half_pair():
    # one class uniform with mass 1/2 on [-1, 1] per side
    half = PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((0.25,),))
    return DistributionPair(class0=[half], class1=[half])


class TestDiscretize:
    def test_uniform_atoms(self):
        pair = uniform_half_pair()
        a0, a1 = discretize(pair, 0.5, window=(-1.0, 1.0))
        assert len(a0) == 4
        assert np.allclose(a0.masses, 0.125)
        assert np.allclose(a0.positions, [-0.75, -0.25, 0.25, 0.75])

    def test_gaussian_totals(self, eqvar_pair):
        a0, a1 = discretize(eqvar_pair, 1e-3)
        assert a0.total() == pytest.approx(0.5, abs=1e-9)
        assert a1.total() == pytest.approx(0.5, abs=1e-9)

    def test_narrow_window_is_widened(self, eqvar_pair):
        a0, a1 = discretize(eqvar_pair, 1e-2, window=(-0.5, 0.5))
        assert a0.total() == pytest.approx(0.5, abs=1e-6)

    def test_positions_increasing(self, deg_pair):
        a0, a1 = discretize(deg_pair, 1e-3)
        assert np.all(np.diff(a0.positions) > 0)
        assert np.all(np.diff(a1.positions) > 0)

    def test_atomlist_validation(self):
        with pytest.raises(ValueError):
            AtomList(positions=np.array([0.0, 0.0]), masses=np.array([0.1, 0.1]), klass=0)
        with pytest.raises(ValueError):
            AtomList(positions=np.array([0.0]), masses=np.array([-0.1]), klass=0)
        for pos, mass in ((0.0, np.nan), (np.nan, 0.5), (0.0, np.inf), (-np.inf, 0.5)):
            with pytest.raises(ValueError):
                AtomList(positions=np.array([pos]), masses=np.array([mass]), klass=0)


class TestDualValue:
    def test_atomic_pair_exact_half(self):
        for eps in (0.05, 0.3, 1.0):
            a0, a1 = examples.atomic_pair(eps)
            cert = dual_value(a0, a1, eps)
            assert cert.dual_value == 0.5

    def test_atoms_just_out_of_reach(self):
        # positions 2 apart: both atoms moving eps toward each other meet
        # exactly when 2*eps reaches the distance
        a0 = AtomList(np.array([-1.0]), np.array([0.5]), 0)
        a1 = AtomList(np.array([1.0]), np.array([0.5]), 1)
        assert dual_value(a0, a1, 0.99).dual_value == 0.0
        assert dual_value(a0, a1, 1.0).dual_value == 0.5

    def test_eps_zero_colocated_overlap(self):
        a0 = AtomList(np.array([0.0, 1.0]), np.array([0.3, 0.2]), 0)
        a1 = AtomList(np.array([0.0, 2.0]), np.array([0.1, 0.4]), 1)
        assert dual_value(a0, a1, 0.0).dual_value == pytest.approx(0.1, abs=1e-15)

    def test_disjoint_support_zero(self):
        a0 = AtomList(np.array([-5.0]), np.array([0.5]), 0)
        a1 = AtomList(np.array([5.0]), np.array([0.5]), 1)
        assert dual_value(a0, a1, 1.0).dual_value == 0.0

    def test_matches_lp_on_random_instances(self):
        rng = np.random.default_rng(42)
        sizes = [(100, 100), (97, 53)] + [
            (int(rng.integers(1, 40)), int(rng.integers(1, 40))) for _ in range(23)
        ]
        for n0, n1 in sizes:
            pos0 = np.sort(rng.uniform(-3, 3, n0)) + np.arange(n0) * 1e-9
            pos1 = np.sort(rng.uniform(-3, 3, n1)) + np.arange(n1) * 1e-9
            assert np.all(np.diff(pos0) > 0) and np.all(np.diff(pos1) > 0)
            m0 = rng.uniform(0.01, 1.0, n0)
            m1 = rng.uniform(0.01, 1.0, n1)
            eps = float(rng.uniform(0, 1.5))
            got = dual_value(AtomList(pos0, m0, 0), AtomList(pos1, m1, 1), eps).dual_value
            expected = oracles.lp_matching_value(pos0, m0, pos1, m1, 2 * eps)
            assert got == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_eps(self, nua_pair):
        a0, a1 = discretize(nua_pair, 5e-3)
        vals = [dual_value(a0, a1, e).dual_value for e in (0.0, 0.1, 0.2, 0.3, 0.5)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_pair_distances_within_radius(self, deg_pair):
        eps, h = 0.1, 1e-2
        a0, a1 = discretize(deg_pair, h)
        cert = dual_value(a0, a1, eps, h)
        for i, j, m in cert.matching:
            assert abs(a0.positions[i] - a1.positions[j]) <= 2 * eps + h + 1e-12
            assert m > 0

    def test_matched_mass_within_capacity(self, nua_pair):
        eps, h = 0.2, 1e-2
        a0, a1 = discretize(nua_pair, h)
        cert = dual_value(a0, a1, eps, h)
        used0 = np.zeros(len(a0))
        used1 = np.zeros(len(a1))
        for i, j, m in cert.matching:
            used0[i] += m
            used1[j] += m
        assert np.all(used0 <= a0.masses + 1e-12)
        assert np.all(used1 <= a1.masses + 1e-12)


class TestPrimal:
    def test_threshold_family(self, nua_pair):
        eps = 0.2
        val, argmin = primal_bruteforce(nua_pair, eps, 1e-2, 1)
        assert val == pytest.approx(0.4, abs=1e-2 * 0.5)
        # any minimizer is risk-equivalent to a threshold in [-eps, eps]
        assert adversarial_risk(nua_pair, argmin, eps).total == pytest.approx(val, abs=1e-12)

    def test_degenerate_two_intervals(self, deg_pair):
        eps = 0.05
        val, argmin = primal_bruteforce(deg_pair, eps, 1e-3, 2)
        assert val == pytest.approx(0.04, abs=1e-3)
        assert argmin.n_components == 2

    def test_equal_variances_large_eps(self, eqvar_pair):
        val, argmin = primal_bruteforce(eqvar_pair, 1.5, 1e-2, 1)
        assert val == pytest.approx(0.5, abs=1e-9)
        assert argmin in (IntervalSet.empty(), IntervalSet.reals())

    def test_matches_literal_enumeration(self, nua_pair, deg_pair, nus_pair):
        for pair in (nua_pair, deg_pair, nus_pair):
            for eps in (0.07, 0.18, 0.33):
                lo, hi = -1.25, 1.25
                n = 29
                grid_h = (hi - lo) / (n - 1)
                xs = lo + grid_h * np.arange(n)
                for max_k in (1, 2):
                    dp_val, _ = primal_bruteforce(pair, eps, grid_h, max_k, window=(lo, hi))
                    lit_val = oracles.literal_bruteforce(pair, eps, xs, max_k)
                    assert dp_val == pytest.approx(lit_val, abs=1e-12)

    def test_monotone_in_max_k(self, deg_pair):
        vals = [
            primal_bruteforce(deg_pair, 0.05, 2e-3, k)[0] for k in (1, 2, 3)
        ]
        assert vals[1] <= vals[0] + 1e-15
        assert vals[2] <= vals[1] + 1e-15

    def test_argmin_risk_matches_value(self, eqmeans_pair, bump_pair):
        val, argmin = primal_bruteforce(eqmeans_pair, 0.5, 5e-3, 2)
        assert adversarial_risk(eqmeans_pair, argmin, 0.5).total == pytest.approx(
            val, abs=1e-9
        )
        # Bump argmins have min(k, max_k) components and a half-infinite piece
        # at one end, so reconstruction walks back through every layer.
        eps = 0.3
        for k in (2, 3):
            for flip in (False, True):
                pair = bump_pair(k, flip)
                for max_k in (1, 2, 3):
                    val, argmin = primal_bruteforce(pair, eps, 5e-3, max_k)
                    assert argmin.n_components == min(k, max_k)
                    assert abs(adversarial_risk(pair, argmin, eps).total - val) <= 1e-12

    def test_budget_guard(self, eqvar_pair):
        with pytest.raises(BudgetExceeded):
            primal_bruteforce(eqvar_pair, 1.0, 1e-6, 2)

    def test_max_k_guard(self, eqvar_pair):
        with pytest.raises(ValueError):
            primal_bruteforce(eqvar_pair, 0.5, 1e-2, 4)


class TestDualityGap:
    def test_identical_classes_half(self):
        pair = uniform_half_pair()
        gap = duality_gap(pair, 0.0, 1e-3, 1)
        assert gap.primal == pytest.approx(0.5, abs=1e-9)
        assert gap.dual == pytest.approx(0.5, abs=1e-9)

    def test_non_uniqueness_all(self, nua_pair):
        gap = duality_gap(nua_pair, 0.2, 1e-3, 2)
        assert abs(gap.gap) <= 1e-2
        assert gap.dual == pytest.approx(0.4, abs=5e-3)

    def test_equal_means(self, eqmeans_pair):
        gap = duality_gap(eqmeans_pair, 0.5, 1e-3, 2)
        assert abs(gap.gap) <= 5e-3

    def test_weak_duality_after_slack(self, nua_pair, deg_pair):
        # dual <= risk of any classifier + C * grid_h with C = 2 * sup density
        rng = np.random.default_rng(17)
        for pair in (nua_pair, deg_pair):
            h = 1e-3
            c = 2.0 * max(pair.sup_density(0), pair.sup_density(1))
            eps = 0.15
            a0, a1 = discretize(pair, h)
            dual = dual_value(a0, a1, eps, h).dual_value
            for _ in range(20):
                pts = np.sort(rng.uniform(-1.2, 1.2, size=4))
                s = IntervalSet.of_open((pts[0], pts[1]), (pts[2], pts[3]))
                assert dual <= adversarial_risk(pair, s, eps).total + c * h + 1e-12
