"""Built-in benchmark distributions with pinned regression values.

These are code, not data files: they anchor the regression suite and the
``examples`` CLI command.  Where published closed-form values for a
distribution disagree with direct computation, both numbers are kept here;
the regressions assert the computed (oracle-verified) values and echo the
disputed ones for transparency.
"""

from __future__ import annotations

import math

from .certify import AtomList
from .density import DistributionPair, Gaussian, PiecewisePoly

EXAMPLE_NAMES = (
    "gaussians_equal_variances",
    "gaussians_equal_means",
    "non_uniqueness_single",
    "non_uniqueness_all",
    "degenerate",
    "deg_eta_0_1_counterexample",
)


class UnknownExample(KeyError):
    pass


def gaussians_equal_variances(
    mu0: float = 0.0, mu1: float = 2.0, sigma: float = 1.0, lam: float = 0.5
) -> DistributionPair:
    """Two Gaussians of equal spread; the optimal boundary sits at the midpoint.

    The single-threshold classifier stays optimal up to eps = (mu1-mu0)/2,
    beyond which ∅ and ℝ take over (both at risk 1/2 when lam = 1/2).
    """
    return DistributionPair(
        class0=[Gaussian(weight=1.0 - lam, mu=mu0, sigma=sigma)],
        class1=[Gaussian(weight=lam, mu=mu1, sigma=sigma)],
    )


def gaussians_equal_means(
    sigma0: float = 2.0, sigma1: float = 1.0, lam: float = 0.5
) -> DistributionPair:
    """Concentric Gaussians: a wide class 0 and a narrow, taller class 1.

    Requires sigma0 > sigma1 with lam/sigma1 > (1-lam)/sigma0 so the class-1
    peak dominates near the origin; the optimal classifier is a single
    symmetric interval for every eps.
    """
    if not (sigma0 > sigma1 and lam / sigma1 > (1.0 - lam) / sigma0):
        raise ValueError("need sigma0 > sigma1 and a dominant class-1 peak")
    return DistributionPair(
        class0=[Gaussian(weight=1.0 - lam, mu=0.0, sigma=sigma0)],
        class1=[Gaussian(weight=lam, mu=0.0, sigma=sigma1)],
    )


def equal_means_interval_endpoint(
    eps: float, sigma0: float = 2.0, sigma1: float = 1.0, lam: float = 0.5
) -> float:
    """Right endpoint of the optimal interval for the equal-means pair.

    Positive root of the stationarity condition p0(b+eps) = p1(b-eps):
    with u = 1/sigma1^2 - 1/sigma0^2, v = 1/sigma1^2 + 1/sigma0^2 and
    k = log((1-lam)*sigma1 / (lam*sigma0)),

        b(eps) = (eps*v + sqrt(4*eps^2/(sigma0^2*sigma1^2) - 2*u*k)) / u.
    """
    u = 1.0 / sigma1**2 - 1.0 / sigma0**2
    v = 1.0 / sigma1**2 + 1.0 / sigma0**2
    k = math.log((1.0 - lam) * sigma1 / (lam * sigma0))
    disc = 4.0 * eps**2 / (sigma0**2 * sigma1**2) - 2.0 * u * k
    return (eps * v + math.sqrt(disc)) / u


def non_uniqueness_single() -> DistributionPair:
    """Two opposing linear ramps on [-1, 1].

    p0 = (1+x)/6 and p1 = (1-x)/3.  Uniqueness fails at exactly one radius,
    where the one-sided classifier ties with ℝ.
    """
    return DistributionPair(
        class0=[PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((1.0 / 6.0, 1.0 / 6.0),))],
        class1=[PiecewisePoly(breakpoints=(-1.0, 1.0), coeffs=((1.0 / 3.0, -1.0 / 3.0),))],
    )


def non_uniqueness_all() -> DistributionPair:
    """Uniform total mass on [-1, 1] with class-1 probability 1/4 left of 0, 3/4 right.

    Every threshold in [-eps, eps] is optimal, and no two of them are
    interchangeable: uniqueness fails for every positive radius below 1/3.
    """
    return DistributionPair(
        class0=[PiecewisePoly(breakpoints=(-1.0, 0.0, 1.0), coeffs=((0.375,), (0.125,)))],
        class1=[PiecewisePoly(breakpoints=(-1.0, 0.0, 1.0), coeffs=((0.125,), (0.375,)))],
    )


def degenerate() -> DistributionPair:
    """Pure labels: class 1 on 1/4 < |x| <= 1, class 0 on |x| <= 1/4.

    Below eps = 1/8 the optimal set excludes a shrinking middle interval;
    at and above it ℝ wins, and any subset of [-1/4+eps, 1/4-eps] can be
    flipped without changing the risk.
    """
    return DistributionPair(
        class0=[PiecewisePoly(breakpoints=(-0.25, 0.25), coeffs=((0.2,),))],
        class1=[
            PiecewisePoly(
                breakpoints=(-1.0, -0.25, 0.25, 1.0),
                coeffs=((0.6,), (0.0,), (0.6,)),
            )
        ],
    )


def deg_eta_0_1_counterexample(eps: float = 0.1) -> DistributionPair:
    """Three-piece support tuned to the radius eps; the support is not an interval.

    Densities are constant on 2*eps <= |x| <= 3*eps and on |x| <= eps, with
    class masses 1/3 and 2/3.  Built per radius because the geometry scales
    with eps.  The smallest density is 1/(18*eps), so a radius past about
    1e307, where 18*eps overflows, cannot be built in floats.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    e = float(eps)
    if math.isinf(18 * e):
        raise ValueError(f"eps={eps!r} is too large for this example: "
                         "its density 1/(18*eps) underflows to 0")
    bp = (-3 * e, -2 * e, -e, e, 2 * e, 3 * e)
    return DistributionPair(
        class0=[
            PiecewisePoly(
                breakpoints=bp,
                coeffs=(
                    (1.0 / (9 * e),),
                    (0.0,),
                    (1.0 / (18 * e),),
                    (0.0,),
                    (1.0 / (9 * e),),
                ),
            )
        ],
        class1=[
            PiecewisePoly(
                breakpoints=bp,
                coeffs=(
                    (1.0 / (4 * e),),
                    (0.0,),
                    (1.0 / (12 * e),),
                    (0.0,),
                    (1.0 / (4 * e),),
                ),
            )
        ],
    )


def atomic_pair(eps: float) -> tuple[AtomList, AtomList]:
    """Point masses 1/2 at -eps (class 0) and +eps (class 1); dual value 1/2."""
    import numpy as np

    return (
        AtomList(positions=np.array([-eps]), masses=np.array([0.5]), klass=0),
        AtomList(positions=np.array([eps]), masses=np.array([0.5]), klass=1),
    )


def example_pair(name: str, eps: float | None = None) -> DistributionPair:
    if name == "gaussians_equal_variances":
        return gaussians_equal_variances()
    if name == "gaussians_equal_means":
        return gaussians_equal_means()
    if name == "non_uniqueness_single":
        return non_uniqueness_single()
    if name == "non_uniqueness_all":
        return non_uniqueness_all()
    if name == "degenerate":
        return degenerate()
    if name == "deg_eta_0_1_counterexample":
        return deg_eta_0_1_counterexample(eps if eps is not None else 0.1)
    raise UnknownExample(name)


# Published values that direct computation contradicts; regressions pin the
# computed numbers and echo these for comparison.
DISPUTED_VALUES = {
    "non_uniqueness_single": {
        "stated_left_root": "2/3*(1-eps)",
        "stated_right_root": "2/3+eps",
        "stated_interval_risk": "((1+eps)/2)^2",
        "stated_threshold": 2.0 / math.sqrt(3.0) - 1.0,
        "computed_left_root": "(1-eps)/3",
        "computed_right_root": "(1+eps)/3",
        "computed_interval_risk": "2*(1+eps)^2/9",
        "computed_threshold": math.sqrt(1.5) - 1.0,
    },
    "deg_eta_0_1_counterexample": {
        "stated_risk_full_line": 11.0 / 36.0,
        "stated_risk_empty_set": 20.0 / 36.0,
        "computed_risk_full_line": 1.0 / 3.0,
        "computed_risk_empty_set": 2.0 / 3.0,
        "stated_degenerate_interval": "[-eps, eps]",
        "note": "with the stated densities, flipping [-eps, eps] raises the risk "
        "by the class-1 mass of its dilation, so the full line is the unique "
        "minimizer up to removable boundary regions",
    },
}


def single_classifier_risk_non_uniqueness_all(eps: float) -> float:
    """Risk of any threshold classifier (y, inf) with |y| <= eps, eps <= 1/3."""
    return eps + 0.25 * (1.0 - eps)


def excluded_middle_risk_degenerate(eps: float) -> float:
    """Risk of (-inf, -1/4+eps) ∪ (1/4-eps, inf) for the pure-label pair."""
    return 4.0 * eps / 5.0


def interval_risk_non_uniqueness_single(eps: float) -> float:
    """Risk of (-inf, (1+eps)/3) for the opposing-ramps pair (eps < 1/2)."""
    return 2.0 * (1.0 + eps) ** 2 / 9.0
