import math

import numpy as np
import pytest

import oracles
from advbayes import examples
from advbayes.density import (
    BreakpointDerivative,
    DistributionPair,
    Gaussian,
    OutsideSupport,
    PiecewisePoly,
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


class TestDerivative:
    def test_gaussian_derivative(self):
        g = Gaussian(weight=1.0, mu=0.0, sigma=1.0)
        assert g.dpdf(1.0) == pytest.approx(-oracles.normpdf(1.0, 0.0, 1.0), abs=1e-12)

    def test_ramp_slope(self, nus_pair):
        assert nus_pair.derivative(0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_constant_cell_zero(self, nua_pair):
        assert nua_pair.derivative(0, 0.5) == 0.0

    def test_breakpoint_raises(self, nua_pair):
        with pytest.raises(BreakpointDerivative):
            nua_pair.derivative(0, 0.0)

    def test_matches_finite_differences(self, eqmeans_pair, nus_pair):
        rng = np.random.default_rng(3)
        h = 1e-6
        for pair, lo, hi in ((eqmeans_pair, -6.0, 6.0), (nus_pair, -0.99, 0.99)):
            for x in rng.uniform(lo, hi, size=1000):
                for which in (0, 1):
                    fd = (pair.pdf(which, x + h) - pair.pdf(which, x - h)) / (2 * h)
                    assert abs(pair.derivative(which, x) - fd) < 1e-5


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

    def test_cdf_array_matches_scalar(self, nua_pair, eqmeans_pair):
        xs = np.linspace(-3, 3, 101)
        for pair in (nua_pair, eqmeans_pair):
            for which in (0, 1):
                arr = pair.cdf_array(which, xs)
                scl = np.array([pair.cdf(which, float(x)) for x in xs])
                assert np.max(np.abs(arr - scl)) <= 1e-14


class TestPdfArray:
    """Array evaluators against the scalar ``pdf`` they mirror."""

    def test_piecewise_bit_identical(self, nus_pair, nua_pair, deg_pair):
        rng = np.random.default_rng(7)
        comps = [c for pair in (nus_pair, nua_pair, deg_pair)
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
