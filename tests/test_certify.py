import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import oracles
from advbayes import examples
from advbayes.cli import main
from advbayes.certify import (
    WORK_BUDGET,
    AtomList,
    BudgetExceeded,
    _pad_size,
    _window_min,
    discretize,
    dp_slots,
    dual_value,
    duality_gap,
    primal_bruteforce,
)
from advbayes.regressions import _DEFAULT_EPS
from advbayes.solver import solve
from advbayes.density import DistributionPair, PiecewisePoly
from advbayes.intervals import IntervalSet
from advbayes.risk import adversarial_risk
from strategies import (gaussian_mixture_pairs, linear_piecewise_pairs, mixed_pairs,
                        piecewise_poly_pairs, wide_sigma_pairs)
from test_solver import _key_paths


def uniform_half_pair():
    # one class uniform with mass 1/2 on [-1, 1] per side
    half = PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((0.25,),))
    return DistributionPair(class0=[half], class1=[half])


class TestDiscretize:
    def test_uniform_atoms(self):
        pair = uniform_half_pair()
        a0, a1 = discretize(pair, 0.5)
        assert len(a0) == 4
        assert np.allclose(a0.masses, 0.125)
        assert np.allclose(a0.positions, [-0.75, -0.25, 0.25, 0.75])

    def test_gaussian_totals(self, eqvar_pair):
        a0, a1 = discretize(eqvar_pair, 1e-3)
        assert a0.total() == pytest.approx(0.5, abs=1e-9)
        assert a1.total() == pytest.approx(0.5, abs=1e-9)

    @given(st.one_of(gaussian_mixture_pairs(), wide_sigma_pairs(), piecewise_poly_pairs(),
                     mixed_pairs()),
           st.sampled_from([0.05, 1e-2, 1e-3]))
    @settings(deadline=None, max_examples=100)
    def test_atoms_on_lattice(self, pair, grid_h):
        """Each atom sits at (k + 1/2) * grid_h, the midpoint of its cell
        [k * grid_h, (k + 1) * grid_h], up to the few roundings that place it."""
        reach = max(map(abs, pair.extent(5.2))) + 2.0 * grid_h
        for atoms in discretize(pair, grid_h):
            k = atoms.positions / grid_h - 0.5
            assert np.all(np.abs(k - np.round(k)) <= 8.0 * math.ulp(reach) / grid_h)

    @given(st.one_of(gaussian_mixture_pairs(), wide_sigma_pairs(), piecewise_poly_pairs(),
                     mixed_pairs()),
           st.sampled_from([0.05, 1e-2, 1e-3]))
    @settings(deadline=None, max_examples=100)
    def test_atoms_hold_total_mass(self, pair, grid_h):
        """The end cells carry the mass beyond them, so each class's atoms
        hold its ``total_mass`` up to one rounding per cell."""
        lo, hi = pair.extent(5.2)
        cells = math.ceil((hi - lo) / grid_h) + 1
        for which, atoms in enumerate(discretize(pair, grid_h)):
            assert abs(atoms.total() - pair.total_mass(which)) <= (cells + 1) * 2.0**-52

    @pytest.mark.parametrize("name", list(_DEFAULT_EPS))
    def test_cdf_points_within_extent(self, name, monkeypatch):
        """``discretize`` reads each class CDF at the cell ends over
        ``extent(5.2)`` only: at most ceil((hi - lo) / h) + 2 points."""
        pair, h = examples.example_pair(name, _DEFAULT_EPS[name]), 1e-3
        reads = {0: 0, 1: 0}
        cdf_array = DistributionPair.cdf_array

        def counted(self, which, xs):
            reads[which] += len(xs)
            return cdf_array(self, which, xs)

        monkeypatch.setattr(DistributionPair, "cdf_array", counted)
        discretize(pair, h)
        lo, hi = pair.extent(5.2)
        assert 0 < max(reads.values()) <= math.ceil((hi - lo) / h) + 2

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


class TestDefaultWindow:
    """The grid primal's default window: ``pair.extent(5.2)`` widened by eps,
    its lower end moved down onto the lattice ``k * grid_h - eps``."""

    @given(st.one_of(gaussian_mixture_pairs(), gaussian_mixture_pairs(60.0, (0.1, 0.5)),
                     wide_sigma_pairs(), piecewise_poly_pairs(), linear_piecewise_pairs(),
                     mixed_pairs()),
           st.sampled_from([0, 1]))
    @settings(deadline=None, max_examples=150)
    def test_tail_mass_outside_window(self, pair, which):
        """Each class leaves at most ndtr(-5.2) of its mass on each side of
        ``extent(5.2)``, which every default window contains; the slack
        allows for rounding in the sums of component CDFs."""
        lo, hi = pair.extent(5.2)
        total = pair.total_mass(which)
        n = len(pair.class0 if which == 0 else pair.class1)
        bound = float(ndtr(-5.2)) * total * (1.0 + 1e-12) + 4.0 * n * math.ulp(total)
        assert pair.cdf(which, lo) <= bound
        assert total - pair.cdf(which, hi) <= bound

    @pytest.mark.parametrize("name", list(_DEFAULT_EPS))
    def test_primal_reads_no_scalar_cdf(self, name, monkeypatch):
        calls = []
        cdf = DistributionPair.cdf
        monkeypatch.setattr(DistributionPair, "cdf",
                            lambda self, which, x: calls.append(x) or cdf(self, which, x))
        primal_bruteforce(examples.example_pair(name, _DEFAULT_EPS[name]), _DEFAULT_EPS[name],
                          1e-3)
        assert calls == []

    @pytest.mark.parametrize("grid_h", [1e-3, 3e-4])
    def test_argmin_endpoints_on_lattice(self, bump_pair, grid_h):
        """Every finite endpoint x has (x + eps) / grid_h an integer, up to
        the few roundings that place x."""
        cases = [(examples.example_pair(name, eps), eps) for name, eps in _DEFAULT_EPS.items()]
        cases += [(bump_pair(3), 0.3), (bump_pair(2, True), 0.17)]
        ends = 0
        for pair, eps in cases:
            _, argmin = primal_bruteforce(pair, eps, grid_h)
            reach = abs(pair.extent(5.2)[0]) + eps + grid_h  # bounds the grid's first point
            for x in argmin.boundary_points():
                ends += 1
                k = (x + eps) / grid_h
                assert abs(k - round(k)) <= 8.0 * math.ulp(abs(x) + reach) / grid_h
        assert ends >= 12

    def test_tiny_grid_h_exceeds_budget(self, eqvar_pair):
        """A grid_h so small that the lattice index overflows is refused by
        the budget, not by an overflow in the window."""
        with pytest.raises(BudgetExceeded, match="n = inf"):
            primal_bruteforce(eqvar_pair, 1.0, 1e-320)

    @pytest.mark.parametrize("grid_h", [1e-3, 1e-4])
    def test_lattice_holds_the_exact_minimizers(self, eqvar_pair, deg_pair, grid_h):
        """The minimizers' endpoints x have x + eps on the lattice, so the
        grid holds them and the primal meets the continuous minimum:
        Phi(-0.5) for the equal variances at eps 0.5, 4 * eps / 5 for
        ``degenerate`` at eps 0.05."""
        phi = 0.5 * math.erfc(0.5 / math.sqrt(2.0))
        assert primal_bruteforce(eqvar_pair, 0.5, grid_h)[0] == pytest.approx(phi, abs=1e-15)
        assert primal_bruteforce(deg_pair, 0.05, grid_h)[0] == pytest.approx(0.04, abs=1e-15)


class TestGridHGuard:
    """A NaN, negative or infinite grid step is rejected with an error naming grid_h."""

    @pytest.mark.parametrize("grid_h", [math.nan, -1.0, math.inf])
    def test_dual_value_rejects(self, grid_h):
        a0 = AtomList(np.array([0.0]), np.array([0.5]), 0)
        a1 = AtomList(np.array([0.1]), np.array([0.5]), 1)
        with pytest.raises(ValueError, match="grid_h must be finite and nonnegative"):
            dual_value(a0, a1, 0.1, grid_h)
        assert dual_value(a0, a1, 0.1, 0.0).dual_value == 0.5

    @pytest.mark.parametrize("grid_h", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize("grid_fn", [
        lambda pair, h: discretize(pair, h),
        lambda pair, h: primal_bruteforce(pair, 0.05, h),
        lambda pair, h: duality_gap(pair, 0.05, h),
    ], ids=["discretize", "primal_bruteforce", "duality_gap"])
    def test_grid_functions_reject(self, deg_pair, grid_fn, grid_h):
        with pytest.raises(ValueError, match="grid_h must be finite and positive"):
            grid_fn(deg_pair, grid_h)


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


# Dyadic positions and radii keep every distance exact, so ties at the
# pairing radius are decided alike here and in the LP oracle.
_MASSES = st.one_of(st.just(0.0), st.floats(1e-30, 1e-18), st.floats(0.01, 1.0))


@st.composite
def atom_lists(draw, klass):
    ticks = sorted(draw(st.lists(st.integers(-40, 40), max_size=12, unique=True)))
    masses = draw(st.lists(_MASSES, min_size=len(ticks), max_size=len(ticks)))
    return AtomList(np.array(ticks, dtype=float) / 8.0, np.array(masses), klass)


@given(atom_lists(0), atom_lists(1), st.integers(0, 48), st.sampled_from([0.0, 0.125]))
@settings(deadline=None, max_examples=150)
def test_dual_matches_lp_and_matching(a0, a1, eps16, grid_h):
    eps = eps16 / 16.0
    cert = dual_value(a0, a1, eps, grid_h)
    radius = 2 * eps + grid_h
    expected = oracles.lp_matching_value(a0.positions, a0.masses, a1.positions, a1.masses,
                                         radius)
    assert abs(cert.dual_value - expected) <= 1e-9
    matching = cert.matching
    assert len(matching) == cert.n_pairs
    used0, used1 = np.zeros(len(a0)), np.zeros(len(a1))
    for i, j, m in matching:
        assert abs(a0.positions[i] - a1.positions[j]) <= cert.pairing_radius
        assert m > 0
        used0[i] += m
        used1[j] += m
    assert np.all(used0 <= a0.masses + 1e-12)
    assert np.all(used1 <= a1.masses + 1e-12)
    assert abs(math.fsum(m for _, _, m in matching) - cert.dual_value) <= 1e-12


def _assert_matches_loop(a0, a1, eps, grid_h):
    """The scanned dual against the per-atom greedy loop.

    With ``r`` = 4 * 2^-53 of the total mass, the values agree to
    (n0 + n1) * r; each stretch lies inside its atom's reach and is no
    longer than the atom's mass plus r, the rounding of ``u = w + S``.
    """
    cert = dual_value(a0, a1, eps, grid_h)
    expected = oracles.greedy_dual_loop(a0.positions, a0.masses, a1.positions, a1.masses,
                                        cert.pairing_radius)
    r = 4 * 2.0**-53 * (a0.total() + a1.total())
    assert abs(cert.dual_value - expected) <= (len(a0) + len(a1)) * r
    pos = a0.positions[cert.rows]
    lo = np.searchsorted(a1.positions, pos - cert.pairing_radius, "left")
    hi = np.searchsorted(a1.positions, pos + cert.pairing_radius, "right")
    assert np.all(cert.c1[lo] <= cert.start)
    assert np.all(cert.end <= cert.c1[hi])
    assert np.all(cert.start < cert.end)
    assert np.all(cert.end - cert.start <= a0.masses[cert.rows] + r)


@given(atom_lists(0), atom_lists(1), st.integers(0, 48), st.sampled_from([0.0, 0.125]))
@settings(deadline=None, max_examples=300)
def test_dual_matches_loop_on_atom_lists(a0, a1, eps16, grid_h):
    _assert_matches_loop(a0, a1, eps16 / 16.0, grid_h)


@pytest.mark.parametrize("name, grid_h", [*((name, 1e-3) for name in examples.EXAMPLE_NAMES),
                                          ("degenerate", 1e-5)])
def test_dual_matches_loop_on_builtins(name, grid_h):
    eps = _DEFAULT_EPS[name]
    a0, a1 = discretize(examples.example_pair(name, eps), grid_h)
    _assert_matches_loop(a0, a1, eps, grid_h)


def _literal_window_min(v, width):
    return [min(v[max(0, k - width):k], default=math.inf) for k in range(len(v))]


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_window_min_matches_literal(data):
    # x + 0.0 turns -0.0 into 0.0, so the minimum's bytes do not depend on
    # which of two equal zeros comes first.
    entries = st.one_of(st.floats(-1e3, 1e3).map(lambda x: x + 0.0), st.just(math.inf))
    v = data.draw(st.lists(entries, max_size=40))
    width = data.draw(st.integers(0, len(v) + 5))
    got = _window_min(np.array(v, dtype=float), width, np.empty(len(v)),
                      np.empty(_pad_size(len(v), width)))
    assert got.tobytes() == np.array(_literal_window_min(v, width), dtype=float).tobytes()


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

    @pytest.mark.parametrize("eps, window", [
        (0.05, (-1.05, 1.05)),  # the dilation window is a twentieth of the grid
        (3.0, (-3.0, 3.0)),  # one step short of the grid: the widest pad
        (3.0, (-1.0, 1.0)),  # wider than the grid
    ])
    @pytest.mark.parametrize("max_k", [1, 2])
    def test_peak_memory_within_charge(self, deg_pair, eps, window, max_k):
        # The whole primal, its grid and CDF reads included, at h = 1e-4.
        h = 1e-4
        n = int(round((window[1] - window[0]) / h)) + 1
        tracemalloc.start()
        try:
            primal_bruteforce(deg_pair, eps, h, max_k, window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * dp_slots(n, max_k)

    def test_budget_guard(self, eqvar_pair):
        with pytest.raises(BudgetExceeded):
            primal_bruteforce(eqvar_pair, 1.0, 1e-6, 2)

    def test_max_k_guard(self, eqvar_pair):
        # max_k has no fixed cap: it is limited by the values the DP holds.
        for max_k in (0, -1):
            with pytest.raises(ValueError):
                primal_bruteforce(eqvar_pair, 0.5, 1e-2, max_k)
        with pytest.raises(BudgetExceeded):
            primal_bruteforce(eqvar_pair, 0.5, 1e-2, WORK_BUDGET)


    def test_bump_pair_matches_solver_at_seventeen_pieces(self, bump_pair):
        # 16 bumps need 16 intervals, past the old cap of 3; max_k = 17 leaves
        # the grid minimizer unconstrained.
        pair = bump_pair(16)
        for eps in (0.1, 0.3):
            val, argmin = primal_bruteforce(pair, eps, 1e-3, max_k=17)
            assert abs(solve(pair, eps).min_risk - val) <= 1e-7
            assert argmin.n_components == 16


class TestDualityGap:
    def test_identical_classes_half(self):
        pair = uniform_half_pair()
        gap = duality_gap(pair, 0.0, 1e-3, 1)
        assert gap.primal == pytest.approx(0.5, abs=1e-9)
        assert gap.certificate.dual_value == pytest.approx(0.5, abs=1e-9)

    def test_non_uniqueness_all(self, nua_pair):
        gap = duality_gap(nua_pair, 0.2, 1e-3, 2)
        assert abs(gap.gap) <= 1e-2
        assert gap.certificate.dual_value == pytest.approx(0.4, abs=5e-3)

    def test_equal_variances_closes(self, eqvar_pair):
        """On the one lattice the dual matches the primal's whole minimum,
        Phi(-0.5), at eps 0.5."""
        assert abs(duality_gap(eqvar_pair, 0.5, 1e-3).gap) <= 1e-12

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

    def test_gap_shrinks_with_grid_h(self, deg_pair):
        # The +h pairing slack dominates the gap, so it shrinks with each
        # decade of grid_h.
        gaps = [abs(duality_gap(deg_pair, 0.05, h, 2).gap) for h in (1e-3, 1e-4, 1e-5)]
        assert gaps[0] > gaps[1] > gaps[2]


CERTIFY_REPORT_PATHS = {
    "solver_min_risk", "solver_vs_primal", "tolerance", "gap_report",
    *(f"gap_report.{key}" for key in (
        "primal", "argmin", "gap", "grid_h", "max_k", "certificate",
        "certificate.dual_value", "certificate.pairing_radius", "certificate.n_pairs")),
}
ATOM_CERTIFY_REPORT_PATHS = {
    "mode", "certificate", "certificate.dual_value", "certificate.pairing_radius",
    "certificate.n_pairs", "certificate.matching",
}


def test_certify_report_schema(tmp_path):
    """Each fact once: the dual value, the pairing radius and the pair count
    sit in the certificate only, and atom mode always writes the matching."""
    reports = []
    for argv in (["--example", "degenerate", "--eps", "0.05", "--grid-h", "1e-3"],
                 ["--example", "non_equiv", "--eps", "0.3"]):
        out = tmp_path / "report.json"
        assert main(["certify", *argv, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    density, atoms = reports
    assert _key_paths(density) == CERTIFY_REPORT_PATHS
    assert _key_paths(atoms) == ATOM_CERTIFY_REPORT_PATHS
    assert atoms["mode"] == "atoms"
    assert len(atoms["certificate"]["matching"]) == atoms["certificate"]["n_pairs"]
