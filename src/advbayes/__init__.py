"""Enumerate and certify optimal robust classifiers on the line."""

from .conditions import bayes_classifier
from .density import (
    DistributionPair,
    Gaussian,
    OutsideSupport,
    PiecewisePoly,
)
from .intervals import Interval, IntervalSet
from .risk import RiskBreakdown, adversarial_risk
from .solver import SolveReport, are_equivalent, solve

__all__ = [
    "DistributionPair",
    "Gaussian",
    "Interval",
    "IntervalSet",
    "OutsideSupport",
    "PiecewisePoly",
    "RiskBreakdown",
    "SolveReport",
    "adversarial_risk",
    "are_equivalent",
    "bayes_classifier",
    "solve",
]

__version__ = "0.1.0"
