"""Hypothesis strategies for distribution pairs shared by the test modules."""

from hypothesis import strategies as st

from advbayes.density import DistributionPair, Gaussian, PiecewisePoly

# p1 - p0 is positive only on (-0.015, 0.004), narrower than the scan's
# sample spacing of about 0.038, around the mean 0 of two Gaussians wider
# than that spacing.  The scans see the piece only because they sample
# every Gaussian's mu and mu +- sigma.
NARROW_GAP_PAIR = DistributionPair(
    (Gaussian(0.0434543049313793, 0.6015625, 0.4375),
     Gaussian(0.4161585356889787, 0.4375, 0.109375),
     Gaussian(0.09961475143828115, 0.0, 0.259765625),
     Gaussian(0.2189428440773342, -27.0, 0.375)),
    (Gaussian(0.057768115589590274, 15.0, 0.5),
     Gaussian(0.04968057940704763, 0.78125, 0.359375),
     Gaussian(0.05661275327779847, 2.0, 0.5),
     Gaussian(0.057768115589590274, 0.0, 0.140625)))


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


@st.composite
def _linear_rows(draw, bp):
    """One row per cell of ``bp``, each a constant or a line, scaled so the
    class has mass 1/2: constants from few values (so classes tie), lines
    from end values, nearly flat lines (slopes down to 1e-16 relative), and
    lines that dip to -1e-12 at one cell end."""
    rows, dips = [], []
    for lo, hi in zip(bp, bp[1:]):
        shape = draw(st.sampled_from(["constant", "line", "flat", "dip"]))
        vlo = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
        if shape == "constant":
            vhi = vlo
        elif shape == "line":
            vhi = draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
        elif shape == "flat":
            vlo = vlo or 1.0
            vhi = vlo * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(9.0, 16.0)))
        else:
            vlo, vhi = 0.0, draw(st.sampled_from([1.0, 2.0]))
            if draw(st.booleans()):
                vlo, vhi = vhi, vlo
        slope = (vhi - vlo) / (hi - lo)
        rows.append((vlo - slope * lo, slope) if slope else (vlo,))
        dips.append(shape == "dip")
    poly = PiecewisePoly(breakpoints=tuple(bp), coeffs=tuple(rows))
    scale = 0.5 / poly.total_mass if poly.total_mass >= 1e-3 else None
    if scale is None:
        rows, dips, scale = [(1.0,)] * len(rows), [False] * len(rows), 0.5 / (bp[-1] - bp[0])
    scaled = []
    for (lo, hi), row, dip in zip(zip(bp, bp[1:]), rows, dips):
        row = tuple(c * scale for c in row)
        if dip:  # lower the line so that its end at 0 reads about -depth
            row = (row[0] - draw(st.floats(0.0, 0.99e-12)), row[1])
        scaled.append(row)
    return tuple(scaled)


def _nudged(draw, poly):
    """``poly`` with each row whose values stay above 1e-6 moved by a
    constant and a slope near TAU_PLATEAU or near rounding, or left as it is."""
    rows = []
    for lo, hi, row in zip(poly.breakpoints, poly.breakpoints[1:], poly.coeffs):
        low = min(row[0] + (row[1] if len(row) > 1 else 0.0) * x for x in (lo, hi))
        if low > 1e-6:
            c0 = draw(st.sampled_from([0.0, 1e-15, -1e-15, 5e-12, -5e-12, 1e-11, -1e-11,
                                       1.0001e-11, -0.9999e-11, 2e-11]))
            c1 = draw(st.sampled_from([0.0, 0.0, 1e-13, -1e-13, 1e-11, -1e-11]))
            row = (row[0] + c0, (row[1] if len(row) > 1 else 0.0) + c1)
        rows.append(row)
    return PiecewisePoly(breakpoints=poly.breakpoints, coeffs=tuple(rows))


@st.composite
def linear_piecewise_pairs(draw):
    """Pairs whose every row has degree at most 1, so the first-order scan
    reads only the samples it cannot sign from the segment's ends.  Each
    class has 1-2 components on cells of quarter-unit breakpoints in
    [-2, 2].  Class 1 is drawn like class 0, or is class 0 with its rows
    nudged (``_nudged``), so that defects near 0, near TAU_PLATEAU and with
    slopes near 0 are common; radii that are quarter units put segment
    edges, and roots, on shifted breakpoints."""
    def draw_class():
        n = draw(st.integers(1, 2))
        comps = []
        for _ in range(n):
            k = draw(st.integers(1, 4))
            ticks = draw(st.lists(st.integers(-8, 8), min_size=k + 1, max_size=k + 1, unique=True))
            bp = tuple(0.25 * t for t in sorted(ticks))
            rows = draw(_linear_rows(bp))
            comps.append(PiecewisePoly(breakpoints=bp,
                                       coeffs=tuple(tuple(c / n for c in r) for r in rows)))
        return comps

    class0 = draw_class()
    class1 = draw_class() if draw(st.booleans()) else [_nudged(draw, c) for c in class0]
    return DistributionPair(class0, class1)
