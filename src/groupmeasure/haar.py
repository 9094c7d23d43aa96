"""One-parameter transformation families and their invariant (Haar) weights.

A family is a composition law phi(a, b) with identity parameter e.  The
left-invariant weight at p is 1 / (d phi(p, b) / d b at b = e): constant
for the translation family, 1/p for the scale family.  Normalizing the
weight over an observation interval gives the density used to answer
queries; the translation case is the classic uniform-on-an-interval
density, the scale case the 1/(x log ratio) density.

This module is floating point (binary64) throughout; tolerances are
declared per operation.  Everything is pure and immutable; sampling is
deterministic given an explicit seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

TRANSLATION = "translation"
SCALE = "scale"
CUSTOM = "custom"

_FD_STEP = float(2.0**-52) ** (1.0 / 3.0)  # cbrt of machine epsilon
_QUAD_TOL = 1e-12
_QUAD_MAX_DEPTH = 40
_BISECT_WIDTH = 1e-12
_IDENTITY_TOL = 1e-9
_PROBE_POINTS = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class OneParamFamily:
    """A one-parameter transformation family: kind tag, composition law, identity."""

    kind: str
    compose: Callable[[float, float], float]
    identity: float


def translation_family() -> OneParamFamily:
    """Additive composition a + b with identity 0; weight constant."""
    return OneParamFamily(TRANSLATION, lambda a, b: a + b, 0.0)


def scale_family() -> OneParamFamily:
    """Multiplicative composition a * b with identity 1 on positive reals; weight 1/p."""
    return OneParamFamily(SCALE, lambda a, b: a * b, 1.0)


def custom_family(compose: Callable[[float, float], float], identity: float) -> OneParamFamily:
    """Family from a user composition law; checks phi(a, e) = a at the probe points."""
    for a in _PROBE_POINTS:
        value = compose(a, identity)
        if not math.isfinite(value) or abs(value - a) > _IDENTITY_TOL * max(1.0, abs(a)):
            raise ValueError(
                f"compose({a}, {identity}) = {value}; identity parameter does not act trivially"
            )
    return OneParamFamily(CUSTOM, compose, identity)


@dataclass(frozen=True)
class IntervalConstraint:
    """Observation bounds: the value sought lies between lower and upper."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("interval bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"degenerate interval [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def haar_weight(f: OneParamFamily, p: float) -> float:
    """Left-invariant weight at parameter p.

    Closed form for the built-in families; central finite difference of the
    composition law (step scaled to p) for custom families.
    """
    if not math.isfinite(p):
        raise ValueError(f"parameter must be finite, got {p}")
    if f.kind == TRANSLATION:
        return 1.0
    if f.kind == SCALE:
        if p <= 0:
            raise ValueError(f"scale family is defined on positive reals, got {p}")
        return 1.0 / p
    h = _FD_STEP * max(abs(p), 1.0)
    rate = (f.compose(p, f.identity + h) - f.compose(p, f.identity - h)) / (2.0 * h)
    if not math.isfinite(rate) or rate <= 0:
        raise ValueError(f"composition rate {rate} at p={p} gives no positive weight")
    return 1.0 / rate


def haar_measure(f: OneParamFamily, c: IntervalConstraint) -> float:
    """Unnormalized invariant measure of the interval: integral of the weight."""
    if f.kind == TRANSLATION:
        return c.width
    if f.kind == SCALE:
        if c.lower <= 0:
            raise ValueError(f"scale family needs a positive interval, got lower={c.lower}")
        return math.log(c.upper / c.lower)
    return _adaptive_simpson(lambda x: haar_weight(f, x), c.lower, c.upper)


@dataclass(frozen=True)
class NormalizedDensity:
    """The invariant weight normalized to integrate to 1 over the support."""

    family: OneParamFamily
    support: IntervalConstraint
    normalizer: float

    @property
    def form(self) -> str:
        """Closed-form tag: 'constant', 'reciprocal', or 'custom'."""
        return {TRANSLATION: "constant", SCALE: "reciprocal"}.get(self.family.kind, "custom")

    def density_at(self, x: float) -> float:
        """Normalized weight at x, 0 outside the support; ValueError where it overflows binary64."""
        if not self.support.contains(x):
            return 0.0
        value = haar_weight(self.family, x) / self.normalizer
        if not math.isfinite(value):
            raise ValueError(f"density at x={x} overflows binary64")
        return value

    def cdf(self, x: float) -> float:
        if x <= self.support.lower:
            return 0.0
        if x >= self.support.upper:
            return 1.0
        if self.family.kind == TRANSLATION:
            return (x - self.support.lower) / self.normalizer
        if self.family.kind == SCALE:
            return math.log(x / self.support.lower) / self.normalizer
        partial = _adaptive_simpson(
            lambda t: haar_weight(self.family, t), self.support.lower, x
        )
        return min(1.0, max(0.0, partial / self.normalizer))

    def quantile(self, q: float) -> float:
        """Inverse of cdf; closed form where available, else bisection."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must lie in [0, 1], got {q}")
        lo, hi = self.support.lower, self.support.upper
        if self.family.kind == TRANSLATION:
            return lo + q * self.normalizer
        if self.family.kind == SCALE:
            return lo * (hi / lo) ** q
        while hi - lo > _BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample(self, seed: int, n: int) -> list[float]:
        """Inverse-transform sampling; deterministic given the seed."""
        if n < 1:
            raise ValueError(f"sample count must be at least 1, got {n}")
        rng = random.Random(seed)
        return [self.quantile(rng.random()) for _ in range(n)]

    def pushforward_affine(self, a: float, b: float) -> NormalizedDensity:
        """Density of y = a*x + b.

        Supported closed-form cases: any affine map of a constant-weight
        density, and pure positive rescaling of a scale-family density
        (which is again a scale-family density on the mapped support).
        """
        if a == 0:
            raise ValueError("affine map with a=0 collapses the support to a point")
        if self.family.kind == TRANSLATION:
            ends = sorted((a * self.support.lower + b, a * self.support.upper + b))
            return normalize(self.family, IntervalConstraint(ends[0], ends[1]))
        if self.family.kind == SCALE and b == 0 and a > 0:
            return normalize(
                self.family, IntervalConstraint(a * self.support.lower, a * self.support.upper)
            )
        raise ValueError(
            f"no closed-form pushforward for {self.family.kind} family under y = {a}*x + {b}"
        )


def normalize(f: OneParamFamily, c: IntervalConstraint) -> NormalizedDensity:
    """Normalize the invariant weight over the observation interval."""
    normalizer = haar_measure(f, c)
    if not math.isfinite(normalizer) or normalizer <= 0:
        raise ValueError(f"weight integral over [{c.lower}, {c.upper}] is {normalizer}")
    return NormalizedDensity(f, c, normalizer)


@dataclass(frozen=True)
class VonMisesScenario:
    """Water/wine mixture with additive volumes: bounds on the water-to-wine ratio."""

    ratio_lower: float
    ratio_upper: float

    def __post_init__(self) -> None:
        if not 0 < self.ratio_lower < self.ratio_upper:
            raise ValueError(
                f"need 0 < ratio_lower < ratio_upper, got [{self.ratio_lower}, {self.ratio_upper}]"
            )


def von_mises_reduce(s: VonMisesScenario) -> NormalizedDensity:
    """Constant density for the water fraction of the mixture.

    With additive volumes the water fraction is r/(1+r) of the ratio r, the
    two fractions sum to 1, and the fraction transforms by translation, so
    the bounds map through r/(1+r) and the weight is constant.  For ratio
    bounds [1, 2] that gives support [1/2, 2/3] and density 6.
    """
    lo = s.ratio_lower / (1.0 + s.ratio_lower)
    hi = s.ratio_upper / (1.0 + s.ratio_upper)
    return normalize(translation_family(), IntervalConstraint(lo, hi))


def _adaptive_simpson(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Adaptive Simpson quadrature to absolute tolerance 1e-12, max depth 40."""

    def simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth >= _QUAD_MAX_DEPTH or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        half = 0.5 * tol
        return recurse(a, m, fa, flm, fm, left, half, depth + 1) + recurse(
            m, b, fm, frm, fb, right, half, depth + 1
        )

    fa, fb = fn(lo), fn(hi)
    fm = fn(0.5 * (lo + hi))
    return recurse(lo, hi, fa, fm, fb, simpson(lo, hi, fa, fm, fb), _QUAD_TOL, 0)
