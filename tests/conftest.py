import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from advbayes import examples
from advbayes.density import DistributionPair, Gaussian, pair_from_dict


@pytest.fixture(scope="session")
def eqvar_pair():
    return examples.gaussians_equal_variances()


@pytest.fixture(scope="session")
def eqmeans_pair():
    return examples.gaussians_equal_means()


@pytest.fixture(scope="session")
def nus_pair():
    return examples.non_uniqueness_single()


@pytest.fixture(scope="session")
def nua_pair():
    return examples.non_uniqueness_all()


@pytest.fixture(scope="session")
def deg_pair():
    return examples.degenerate()


@pytest.fixture(scope="session")
def many_cells_pair():
    """The golden reports' 96-cell piecewise pair: constant, linear and
    quadratic rows in turn, the classes' breakpoints interleaved."""
    from test_golden_reports import many_cells_config
    return pair_from_dict(many_cells_config(96))


@pytest.fixture(scope="session")
def bump_pair():
    """k alternating bumps, class 0 at 4i and class 1 at 4i+2 (swapped if flip)."""
    def make(k: int, flip: bool = False) -> DistributionPair:
        bumps = [[Gaussian(weight=0.5 / k, mu=4.0 * i + offset, sigma=0.7) for i in range(k)]
                 for offset in (0.0, 2.0)]
        return DistributionPair(*(bumps[::-1] if flip else bumps))

    return make
