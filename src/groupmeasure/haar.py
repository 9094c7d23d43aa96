"""One-parameter transformation families and their invariant (Haar) weights.

A family is a composition law phi(a, b) with identity e and left-invariant weight
1 / (d phi(p, b) / d b at b = e).  It acts by translation on u, the weight's
integral, so the invariant measure of [l, x] is u(x) - u(l) and cdf(x) = (u(x) -
u(lower)) / normalizer (Jaynes, "Prior Probabilities", 1968).  A family's chart
gives this canonical coordinate u: x for translation, log x for scale, a GK15
table over the interval for a custom law.  A built-in's table is one exact panel.
A custom table also keeps, for each panel, the Chebyshev series of u from the
panel's left edge: the antiderivative of the degree-14 polynomial through the
weight at the panel's 15 Kronrod nodes.  Its cdf reads that series, within the
table's 1e-10 tolerance, and calls the law no more; its quantile takes ITP steps
on the same series, inside the panel that holds the level, until the cdf at x is
within one ulp of the level or the bracket is 1e-12 wide.

This module is floating point (binary64) throughout; tolerances are
declared per operation.  Everything is pure and immutable; sampling is
deterministic given an explicit seed.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from collections import namedtuple
from operator import mul
from typing import Callable

from .record import Record, uniform_stream

_COMPLEX_STEP = 2.0**-100  # a power of two, so that dividing it out is exact
_EPS = 2.0**-52
_FD_STEP = _EPS ** (1.0 / 3.0)  # cbrt of machine epsilon
_QUAD_REL_TOL = 1e-10
_FD_NOISE_CAP = 1e-6  # a central-difference weight noisier than this is refused
_QUAD_BUDGET = 15 * 10_000  # weight evaluations per custom density
_BISECT_WIDTH = 1e-12
_IDENTITY_TOL = 1e-9
_PROBE_POINTS = (0.5, 1.0, 2.0)

# A family's chart, its coordinate u: weight(f, p) = u'(p); panel(f, a, b) = (u(b) - u(a), error, node values),
# the node values None for an exact panel; point(d, q) solves u(x) = u(lower) + q * d.normalizer (closed form,
# or ITP steps on the panel's series for a custom table); affine(a, b): does a*x + b keep d in the family?
_Chart = namedtuple("_Chart", "name form weight panel point affine")


class OneParamFamily(Record):
    """A one-parameter transformation family: its chart, composition law and identity."""

    __slots__ = ("chart", "compose", "identity")

    def __init__(self, chart: _Chart, compose: Callable[[float, float], float], identity: float) -> None:
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "compose", compose)
        object.__setattr__(self, "identity", identity)


def translation_family() -> OneParamFamily:
    """Additive composition a + b with identity 0; weight constant."""
    return OneParamFamily(TRANSLATION, lambda a, b: a + b, 0.0)


def scale_family() -> OneParamFamily:
    """Multiplicative composition a * b with identity 1 on positive reals; weight 1/p."""
    return OneParamFamily(SCALE, lambda a, b: a * b, 1.0)


def custom_family(compose: Callable[[float, float], float], identity: float) -> OneParamFamily:
    """Family from a user law, real or complex-valued; checks phi(a, e) = a at the probe points."""
    for a in _PROBE_POINTS:
        value = compose(a, identity)
        if not abs(value - a) <= _IDENTITY_TOL * max(1.0, abs(a)):
            raise ValueError(
                f"compose({a}, {identity}) = {value}; identity parameter does not act trivially"
            )
    return OneParamFamily(CUSTOM, compose, identity)


class IntervalConstraint(Record):
    """Observation bounds: the value sought lies between lower and upper."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: float, upper: float) -> None:
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise ValueError("interval bounds must be finite")
        if not lower < upper:
            raise ValueError(f"degenerate interval [{lower}, {upper}]")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def haar_weight(f: OneParamFamily, p: float) -> float:
    """Left-invariant weight at parameter p: the derivative of f's canonical coordinate, from its chart."""
    if not math.isfinite(p):
        raise ValueError(f"parameter must be finite, got {p}")
    return f.chart.weight(f, p)


def haar_measure(f: OneParamFamily, c: IntervalConstraint) -> float:
    """Unnormalized invariant measure of the interval: integral of the weight."""
    return _weight_table(f, c)[1][-1]


class NormalizedDensity(Record):
    """The weight normalized to 1 over the support, with the chart's table: panel edges, the integral up to each,
    and for a quadrature table each panel's Chebyshev series of the integral from its left edge, per half-width."""

    __slots__ = ("family", "support", "normalizer", "edges", "cumulative", "series")

    def __init__(self, family: OneParamFamily, support: IntervalConstraint, normalizer: float, edges: tuple[float, ...],
                 cumulative: tuple[float, ...], series: tuple[tuple[float, ...], ...]) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "normalizer", normalizer)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "cumulative", cumulative)
        object.__setattr__(self, "series", series)

    @property
    def form(self) -> str:
        """Closed-form tag: 'constant', 'reciprocal', or 'custom'."""
        return self.family.chart.form

    def density_at(self, x: float) -> float:
        """Normalized weight at x, 0 outside the support; ValueError at nan or where it overflows binary64."""
        if math.isnan(x):
            raise ValueError("density at x=nan is undefined")
        if not self.support.lower <= x <= self.support.upper:
            return 0.0
        value = haar_weight(self.family, x) / self.normalizer
        if not math.isfinite(value):
            raise ValueError(f"density at x={x} overflows binary64")
        return value

    def cdf(self, x: float) -> float:
        """Mass below x: (u(x) - u(lower)) / normalizer, read as the table at the edge below x plus the rest.

        A built-in family's closed form gives the rest exactly.  A custom table reads its panel's
        Chebyshev series, within the table's 1e-10 tolerance, and calls the law not at all.
        """
        if math.isnan(x):
            raise ValueError("cdf at x=nan is undefined")
        if x <= self.support.lower:
            return 0.0
        if x >= self.support.upper:
            return 1.0
        i = bisect.bisect_right(self.edges, x) - 1
        a, b = self.edges[i], self.edges[i + 1]
        if self.series:
            half = 0.5 * (b - a)
            rest = half * _chebyshev_sum(self.series[i], (x - 0.5 * (a + b)) / half)
        else:
            rest = self.family.chart.panel(self.family, a, x)[0]
        return min(1.0, max(0.0, (self.cumulative[i] + rest) / self.normalizer))

    def quantile(self, q: float) -> float:
        """Inverse of cdf: the point of the chart at u(lower) + q * normalizer."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        lo, hi = self.support.lower, self.support.upper
        if q == 0.0 or q == 1.0:  # the closed forms round at the ends, the ITP steps stop inside the panel
            return hi if q else lo
        return min(max(self.family.chart.point(self, q), lo), hi)  # rounding can step outside the support

    def sample(self, seed: int, n: int) -> list[float]:
        """Inverse-transform sampling of ``uniform_stream(seed)``, the draws of ``random.Random(seed)``; the seed
        must be an int."""
        if n < 1:
            raise ValueError(f"sample count must be at least 1, got {n}")
        draw = uniform_stream(seed)
        return [self.quantile(draw()) for _ in range(n)]

    def pushforward_affine(self, a: float, b: float) -> NormalizedDensity:
        """Density of y = a*x + b, where the family's chart accepts the map.

        The translation family accepts any map, the scale family a pure positive rescaling (b = 0, a > 0).
        """
        if a == 0:
            raise ValueError("affine map with a=0 collapses the support to a point")
        if not self.family.chart.affine(a, b):
            raise ValueError(
                f"no closed-form pushforward for {self.family.chart.name} family under y = {a}*x + {b}"
            )
        ends = sorted((a * self.support.lower + b, a * self.support.upper + b))
        return normalize(self.family, IntervalConstraint(ends[0], ends[1]))


def normalize(f: OneParamFamily, c: IntervalConstraint) -> NormalizedDensity:
    """Normalize the invariant weight over the observation interval."""
    edges, cumulative, nodes = _weight_table(f, c)
    normalizer = cumulative[-1]
    if not math.isfinite(normalizer) or normalizer <= 0:
        raise ValueError(f"weight integral over [{c.lower}, {c.upper}] is {normalizer}")
    series = () if nodes[0] is None else tuple(map(_antiderivative, nodes))
    return NormalizedDensity(f, c, normalizer, edges, cumulative, series)


def von_mises_reduce(ratio_lower: float, ratio_upper: float) -> NormalizedDensity:
    """Constant density for the water fraction of a water/wine mixture whose water-to-wine ratio is bounded.

    With additive volumes the water fraction is r/(1+r) of the ratio r, the
    two fractions sum to 1, and the fraction transforms by translation, so
    the bounds map through r/(1+r) and the weight is constant.  For ratio
    bounds [1, 2] that gives support [1/2, 2/3] and density 6.
    """
    if not 0 < ratio_lower < ratio_upper:
        raise ValueError(f"need 0 < ratio_lower < ratio_upper, got [{ratio_lower}, {ratio_upper}]")
    lo = ratio_lower / (1.0 + ratio_lower)
    hi = ratio_upper / (1.0 + ratio_upper)
    return normalize(translation_family(), IntervalConstraint(lo, hi))


def _scale_weight(f: OneParamFamily, p: float) -> float:
    if p <= 0:
        raise ValueError(f"scale family is defined on positive reals, got {p}")
    return 1.0 / p


def _scale_panel(f: OneParamFamily, a: float, b: float) -> tuple[float, float, None]:
    """log(b / a) in closed form, error 0; a difference of logs only where the ratio overflows binary64."""
    if a <= 0:
        raise ValueError(f"scale family needs a positive interval, got lower={a}")
    ratio = b / a
    return (math.log(ratio) if ratio < math.inf else math.log(b) - math.log(a)), 0.0, None


def _scale_point(d: NormalizedDensity, q: float) -> float:
    lo, hi = d.support.lower, d.support.upper
    if hi / lo < math.inf:
        return lo * (hi / lo) ** q
    # a difference of logs, whose sum can round past log(hi) and overflow exp
    return math.exp(min(math.log(lo) + q * d.normalizer, math.log(hi)))


def _central_difference(f: OneParamFamily, p: float, h: float) -> tuple[float, float]:
    """The rate by central difference at step h, and its rounding bound eps (|phi(p, e + h)| + |phi(p, e - h)|) / 2h."""
    above, below = f.compose(p, f.identity + h), f.compose(p, f.identity - h)
    return (above - below) / (2.0 * h), _EPS * (abs(above) + abs(below)) / (2.0 * h)


def _rate_weight(f: OneParamFamily, p: float) -> float:
    """1 / rate, by the complex step Im compose(p, e + ih) / h, or by a central difference if b cannot be complex.

    The difference's rounding bound is the same at every node, so the quadrature's error estimate does not see
    it: past _FD_NOISE_CAP of |rate| the node is refused, and below it the bound sets the table's noise floor,
    ``_rate_noise``.  A law that overflows binary64 is refused at p."""
    try:
        try:
            rate = f.compose(p, complex(f.identity, _COMPLEX_STEP)).imag / _COMPLEX_STEP
        except TypeError:
            rate, rounding = _central_difference(f, p, _FD_STEP * max(abs(f.identity), 1.0))
            if rounding > _FD_NOISE_CAP * abs(rate):  # a rate that rounds to 0 is the rounding's fault
                ratio = rounding / abs(rate) if rate else math.inf
                raise ValueError(f"central difference at p={p} has relative rounding bound {ratio:.3g} > "
                                 f"{_FD_NOISE_CAP:g}; write the law with cmath so that it takes the complex step")
    except OverflowError as err:
        raise ValueError(f"composition law overflows binary64 at p={p}") from err
    if not math.isfinite(rate) or rate <= 0:
        raise ValueError(f"composition rate {rate} at p={p} gives no positive weight")
    return 1.0 / rate


def _rate_noise(f: OneParamFamily, c: IntervalConstraint) -> float:
    """0 if the law takes the complex step; else the largest relative rounding bound of the central difference
    at the 7 Gauss nodes of c.  The table's first panel has already kept each within _FD_NOISE_CAP."""
    center, half = 0.5 * (c.lower + c.upper), 0.5 * (c.upper - c.lower)
    try:
        f.compose(center, complex(f.identity, _COMPLEX_STEP))
    except TypeError:
        pass
    else:
        return 0.0
    h = _FD_STEP * max(abs(f.identity), 1.0)
    nodes = [center, *(center + side * half * x for x, _, wg in _GK15 if wg for side in (-1.0, 1.0))]
    return max(rounding / rate for rate, rounding in (_central_difference(f, p, h) for p in nodes))


def _itp_point(d: NormalizedDensity, q: float) -> float:
    """Root of cdf(x) - q in the table's panel that holds q * normalizer, by ``_itp_root``.  Strictly inside
    the panel, the residual is cdf(x) - q to the bit, read from the panel's series without re-entering cdf."""
    i = min(bisect.bisect_right(d.cumulative, q * d.normalizer), len(d.edges) - 1) - 1
    lo, hi = d.edges[i], d.edges[i + 1]
    series, below, normalizer = d.series[i], d.cumulative[i], d.normalizer
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def residual(x: float) -> float:
        return min(1.0, max(0.0, (below + half * _chebyshev_sum(series, (x - center) / half)) / normalizer)) - q

    return _itp_root(residual, lo, hi, below / normalizer - q, d.cumulative[i + 1] / normalizer - q, math.ulp(q))


def _itp_root(residual: Callable[[float], float], lo: float, hi: float, y_lo: float, y_hi: float,
              floor: float) -> float:
    """Root of the increasing residual in [lo, hi], where it is y_lo <= 0 <= y_hi, by ITP steps (Oliveira
    and Takahashi, ACM TOMS 47(1), 2020; kappa1 = 0.2 / width, kappa2 = 2): false position, moved
    kappa1 * (hi - lo)**2 toward the midpoint, then kept within reach - (hi - lo) / 2 of it, where
    reach starts at the width and halves each step.  So the bracket after step j is at most
    width / 2**j wide, and the _BISECT_WIDTH stop comes at most one step after halving's.  A step
    whose |residual| is at most floor is the root: past it, the steps would halve on rounding noise."""
    kappa, reach = 0.2 / (hi - lo), hi - lo
    while hi - lo > _BISECT_WIDTH:
        mid, radius, delta = 0.5 * (lo + hi), reach - 0.5 * (hi - lo), kappa * (hi - lo) * (hi - lo)
        x = (y_hi * lo - y_lo * hi) / (y_hi - y_lo) if y_lo < y_hi else mid
        x = min(x + delta, mid) if x < mid else max(x - delta, mid)
        x = min(max(x, mid - radius), mid + radius)
        if not lo < x < hi:  # the step left the bracket, or no float lies strictly inside it
            x = mid
        y = residual(x)
        if abs(y) <= floor:
            return x
        if y < 0:
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y
        reach *= 0.5
    return 0.5 * (lo + hi)


# Gauss-Kronrod 7/15 on [-1, 1] (Piessens et al., QUADPACK 1983): (node, Kronrod
# weight, Gauss weight) for the positive nodes; the rule is symmetric about 0.
_GK15 = (
    (0.991455371120812639, 0.022935322010529225, 0.0),
    (0.949107912342758525, 0.063092092629978553, 0.129484966168869693),
    (0.864864423359769073, 0.104790010322250184, 0.0),
    (0.741531185599394440, 0.140653259715525919, 0.279705391489276668),
    (0.586087235467691130, 0.169004726639267903, 0.0),
    (0.405845151377397167, 0.190350578064785410, 0.381830050505118945),
    (0.207784955007898468, 0.204432940075298892, 0.0),
)
_GK15_CENTER = (0.209482141084727828, 0.417959183673469388)


def _gk15(f: OneParamFamily, a: float, b: float) -> tuple[float, float, tuple[list[float], list[float]]]:
    """Kronrod 15-point integral of f's weight over [a, b], its distance from the Gauss 7-point one, and the
    weight v at the nodes x of [-1, 1]: the 8 sums v(-x) + v(x), x = 0 first, and the 7 differences v(x) - v(-x)."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    f_center = haar_weight(f, center)
    weight = f.chart.weight if math.isfinite(half) else haar_weight  # the nodes are finite if center and half are
    kronrod, gauss = _GK15_CENTER[0] * f_center, _GK15_CENTER[1] * f_center
    sums, differences = [f_center + f_center], []
    for x, wk, wg in _GK15:
        left, right = weight(f, center - half * x), weight(f, center + half * x)
        pair = left + right
        kronrod += wk * pair
        gauss += wg * pair
        sums.append(pair)
        differences.append(right - left)
    return half * kronrod, half * abs(kronrod - gauss), (sums, differences)


@functools.cache
def _antiderivative_rows() -> tuple[list[list[float]], list[list[float]]]:
    """Rows that take a panel's node values, as ``_gk15`` gives them, to the Chebyshev coefficients of
    U(t) = integral from -1 to t of p, where p is the degree-14 polynomial through them on [-1, 1].

    The even part of p, a_0 T_0 + a_2 T_2 + ... + a_14 T_14, is half of each sum at its x; the odd
    part, a_1 T_1 + ... + a_13 T_13, half of each difference.  Integrating T_k gives
    b_k = (c a_(k-1) - a_(k+1)) / 2k, c = 2 for k = 1 and 1 after.  So the odd b_k read the 8 sums
    and the even b_k the 7 differences, each row taking its half in its divisor; U(-1) = 0 fixes b_0.
    Both systems are well conditioned (infinity-norm condition numbers 11 and 6), so plain
    elimination in binary64 solves them.
    """
    angles = [math.acos(x) for x, _, _ in _GK15]  # T_k(cos angle) = cos(k angle)
    even = _inverse([[math.cos(k * a) for k in range(0, 15, 2)] for a in (0.5 * math.pi, *angles)]) + [[0.0] * 8]
    odd = _inverse([[math.cos(k * a) for k in range(1, 15, 2)] for a in angles]) + [[0.0] * 7]
    odd_rows = [[((2.0 if k == 0 else 1.0) * lo - hi) / (8 * k + 4) for lo, hi in zip(even[k], even[k + 1])]
                for k in range(8)]  # b_1, b_3, ..., b_15
    even_rows = [[(lo - hi) / (8 * k + 8) for lo, hi in zip(odd[k], odd[k + 1])]
                 for k in range(7)]  # b_2, b_4, ..., b_14
    return odd_rows, even_rows


def _inverse(matrix: list[list[float]]) -> list[list[float]]:
    """Inverse of a square matrix, by Gauss-Jordan elimination with partial pivoting."""
    n = len(matrix)
    rows = [[*row, *(float(i == j) for j in range(n))] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _antiderivative(nodes: tuple[list[float], list[float]]) -> tuple[float, ...]:
    """Chebyshev coefficients b_0..b_15, in t = (x - center) / half, of the integral of the weight from the
    panel's left edge to x, divided by half.

    Kronrod-15 is exact to degree 22, so its weights are the interpolatory ones: the series at t = 1 is the
    panel's Kronrod value, and cdf is continuous at every edge of the table.
    """
    sums, differences = nodes
    odd_rows, even_rows = _antiderivative_rows()
    series = [0.0] * 16
    series[1::2] = [sum(map(mul, row, sums)) for row in odd_rows]
    series[2::2] = [sum(map(mul, row, differences)) for row in even_rows]
    series[0] = sum(series[1::2]) - sum(series[2::2])
    return tuple(series)


def _chebyshev_sum(series: tuple[float, ...], t: float) -> float:
    """Sum of series[k] T_k(t), by Clenshaw's recurrence."""
    t2, b1, b2 = 2.0 * t, 0.0, 0.0
    for coefficient in reversed(series):
        b1, b2 = coefficient + t2 * b1 - b2, b1
    return b1 - t * b2


TRANSLATION = _Chart("translation", "constant", lambda f, p: 1.0, lambda f, a, b: (b - a, 0.0, None),
                     lambda d, q: d.support.lower + q * d.normalizer, lambda a, b: True)
SCALE = _Chart("scale", "reciprocal", _scale_weight, _scale_panel, _scale_point, lambda a, b: b == 0 and a > 0)
CUSTOM = _Chart("custom", "custom", _rate_weight, _gk15, _itp_point, lambda a, b: False)


def _weight_table(f: OneParamFamily, c: IntervalConstraint) -> tuple[tuple, tuple, tuple]:
    """Panel edges over c, the weight integral up to each and each panel's node values (None for an exact panel),
    halving the worst panel until the error estimate is within the tolerance or the noise floor ``_rate_noise``."""
    value, error, nodes = f.chart.panel(f, c.lower, c.upper)
    panels = [(-error, c.lower, c.upper, value, nodes)]
    total, total_error = value, error
    tolerance = _QUAD_REL_TOL
    if total_error > tolerance * total:  # a built-in panel is exact, so only a custom table asks for the floor
        tolerance = max(tolerance, _rate_noise(f, c))
    while total_error > tolerance * total:
        if 15 * (2 * len(panels) + 1) > _QUAD_BUDGET:  # the evaluations after one more halving
            raise ValueError(f"weight integral over [{c.lower}, {c.upper}] needs > {_QUAD_BUDGET} evaluations")
        neg_error, a, b, value, _ = heapq.heappop(panels)
        total, total_error = total - value, total_error + neg_error
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            value, error, nodes = f.chart.panel(f, lo, hi)
            heapq.heappush(panels, (-error, lo, hi, value, nodes))
            total, total_error = total + value, total_error + error
    panels.sort(key=lambda panel: panel[1])
    edges = (c.lower, *(panel[2] for panel in panels))
    return edges, (0.0, *itertools.accumulate(panel[3] for panel in panels)), tuple(panel[4] for panel in panels)
