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
