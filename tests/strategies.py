"""Hypothesis strategies for distribution pairs shared by the test modules."""

from hypothesis import strategies as st

from advbayes.density import DistributionPair, Gaussian, PiecewisePoly


@st.composite
def gaussian_mixture_pairs(draw, mu: float = 4.0, sigma: tuple[float, float] = (0.2, 2.0)):
    """1-4 components per class, means in [-mu, mu]; with wide means and small
    sigmas both densities underflow to 0 between components."""
    share0 = draw(st.floats(0.2, 0.8))
    classes = []
    for share in (share0, 1.0 - share0):
        raw = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
        classes.append([Gaussian(weight=share * w / sum(raw), mu=draw(st.floats(-mu, mu)),
                                 sigma=draw(st.floats(*sigma))) for w in raw])
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


@st.composite
def wide_sigma_pairs(draw):
    """1-2 components per class, means in [-4, 4] and sigmas from 0.001 to 10
    on a log scale, so bumps narrower than the first-order scan's sample
    spacing are common."""
    share0 = draw(st.floats(0.2, 0.8))
    classes = []
    for share in (share0, 1.0 - share0):
        n = draw(st.integers(1, 2))
        classes.append([Gaussian(weight=share / n, mu=draw(st.floats(-4.0, 4.0)),
                                 sigma=10.0 ** draw(st.floats(-3.0, 1.0))) for _ in range(n)])
    return DistributionPair(*classes)


def _halved(c):
    if isinstance(c, Gaussian):
        return Gaussian(weight=0.5 * c.weight, mu=c.mu, sigma=c.sigma)
    return PiecewisePoly(breakpoints=c.breakpoints,
                         coeffs=tuple(tuple(0.5 * x for x in row) for row in c.coeffs))


@st.composite
def mixed_pairs(draw):
    """Half of the mass from ``piecewise_poly_pairs``, half from
    ``gaussian_mixture_pairs`` with means in [-1, 1] or [-4, 4]."""
    cells = draw(piecewise_poly_pairs())
    bumps = draw(gaussian_mixture_pairs(draw(st.sampled_from([1.0, 4.0]))))
    return DistributionPair([_halved(c) for c in cells.class0 + bumps.class0],
                            [_halved(c) for c in cells.class1 + bumps.class1])
