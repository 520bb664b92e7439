"""Classification risks of interval-set classifiers.

The risk of a classifier ``A`` (the set predicted as class 1) is the mass of
class-1 data outside it plus the mass of class-0 data inside it.  Under an
attacker that may move points by up to ``eps``, both sets are dilated before
the masses are taken.  All masses are exact quadrature, so two risks that
agree to ~1e-15 are genuinely tied; ties are detected at TAU_RISK = 1e-9.
Each mass is a difference of ``DistributionPair.cdf`` values, which the pair
memoizes, so risks of many sets that share dilated endpoints cost one CDF
evaluation per distinct endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density import DistributionPair
from .intervals import IntervalSet

TAU_RISK = 1e-9


class EndpointMismatch(ValueError):
    """Component structures do not pair up within eps."""


@dataclass(frozen=True)
class RiskBreakdown:
    total: float
    fn_mass: float
    fp_mass: float

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "fn_mass": self.fn_mass,
            "fp_mass": self.fp_mass,
        }


def adversarial_risk(pair: DistributionPair, a: IntervalSet, eps: float) -> RiskBreakdown:
    """Risk when every point within ``eps`` of the decision boundary is lost."""
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    fn = pair.mass_set(1, a.complement().expand(eps))
    fp = pair.mass_set(0, a.expand(eps))
    return RiskBreakdown(total=fn + fp, fn_mass=fn, fp_mass=fp)


# -- accuracy-robustness diagnostic -------------------------------------------


def risk_gap_bound(
    pair: DistributionPair, a: IntervalSet, b: IntervalSet, eps: float
) -> tuple[float, float, bool]:
    """Bound the standard-risk gap of ``a`` over ``b`` by 2*eps*M*K.

    M is the larger class density bound and K is ``a``'s component count.
    Requires ``b`` to have K components whose endpoints pair up with ``a``'s
    within ``eps``; raises EndpointMismatch otherwise.
    """
    if a.n_components != b.n_components:
        raise EndpointMismatch(f"component counts {a.n_components} != {b.n_components}")
    tol = 1e-12
    for ia, ib in zip(a.intervals, b.intervals):
        for ea, eb in ((ia.lo, ib.lo), (ia.hi, ib.hi)):
            if math.isinf(ea) or math.isinf(eb):
                if ea != eb:
                    raise EndpointMismatch(f"endpoint {ea} vs {eb}")
            elif abs(ea - eb) > eps + tol:
                raise EndpointMismatch(f"|{ea} - {eb}| > eps={eps}")
    gap = adversarial_risk(pair, a, 0.0).total - adversarial_risk(pair, b, 0.0).total
    density_bound = max(pair.sup_density(0), pair.sup_density(1))
    bound = 2.0 * eps * a.n_components * density_bound
    return gap, bound, gap <= bound + 1e-12
