import bisect
import cmath
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from deadlines import deadline
from groupmeasure import haar
from groupmeasure.haar import (
    IntervalConstraint,
    NormalizedDensity,
    custom_family,
    haar_measure,
    haar_weight,
    normalize,
    scale_family,
    translation_family,
    von_mises_reduce,
)
from groupmeasure.oracle import integrate

TRANSLATION = translation_family()
SCALE = scale_family()

# Custom laws with a closed-form weight: composition, identity, weight.
CUSTOM_LAWS = {
    "a*b": (lambda a, b: a * b, 1.0, lambda p: 1.0 / p),
    "a+b+ab": (lambda a, b: a + b + a * b, 0.0, lambda p: 1.0 / (1.0 + p)),
    "a*exp(b)": (lambda a, b: a * math.exp(b), 0.0, lambda p: 1.0 / p),
}

moderate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


def test_translation_weight_is_constant():
    assert haar_weight(TRANSLATION, 17.3) == 1.0
    assert haar_weight(TRANSLATION, -400.0) == 1.0


def test_scale_weight_at_identity():
    assert haar_weight(SCALE, 1.0) == 1.0


def test_scale_weight_needs_positive_parameter():
    with pytest.raises(ValueError, match="positive"):
        haar_weight(SCALE, -2.0)


def test_custom_multiplicative_weight_matches_closed_form():
    family = custom_family(lambda a, b: a * b, identity=1.0)
    assert haar_weight(family, 2.0) == pytest.approx(0.5, abs=1e-6)


def test_custom_family_rejects_bogus_identity():
    with pytest.raises(ValueError, match="identity"):
        custom_family(lambda a, b: a * b + 1.0, identity=0.0)


def test_a_law_written_with_cmath_builds_and_normalizes():
    # A cmath law returns complex values even at real arguments; the identity probe must compare them.
    family = custom_family(lambda a, b: cmath.asinh(cmath.sinh(a) + cmath.sinh(b)), 0.0)  # weight cosh p
    for lower, upper in ((4.5, 5.5), (-6.0, -5.9), (-1.0, 1.0)):
        with deadline(1.0):
            d = normalize(family, IntervalConstraint(lower, upper))
        assert d.normalizer == pytest.approx(math.sinh(upper) - math.sinh(lower), rel=1e-10)


@pytest.mark.parametrize(
    "compose",
    [lambda a, b: math.nan, lambda a, b: a + b + 1e-3j, lambda a, b: a * b],
    ids=["nan", "imaginary_part", "not_an_identity"],
)
def test_the_identity_probe_refuses_a_value_that_is_not_a(compose):
    with pytest.raises(ValueError, match="identity parameter does not act trivially"):
        custom_family(compose, 0.0)


@pytest.mark.parametrize("law", ["a*b", "a+b+ab"])
def test_complex_step_weight_is_exact(law):
    compose, identity, weight = CUSTOM_LAWS[law]
    family = custom_family(compose, identity)
    for p in (1e-6, 0.3, 1.0, 2.0, 17.25, 3000.0, 1e6):
        assert haar_weight(family, p) == weight(p)


def test_finite_difference_step_scales_with_the_identity_not_p():
    # math.exp refuses a complex b, so this law takes the finite-difference path.
    family = custom_family(lambda a, b: a * math.exp(b), identity=0.0)
    for p in (3000.0, 1e5, 1e6):
        assert abs(haar_weight(family, p) * p - 1.0) <= 1e-10
    with deadline(1.0):
        d = normalize(family, IntervalConstraint(3.0, 3000.0))
    assert d.normalizer == pytest.approx(math.log(1000.0), rel=1e-10)


def test_a_finite_difference_law_normalizes_at_its_own_noise_floor():
    # math.asinh refuses a complex b, so this law takes the central difference; its weight is cosh p.
    # Where sinh p is large, the difference carries more relative noise than the 1e-10 tolerance.
    family = custom_family(lambda a, b: math.asinh(math.sinh(a) + math.sinh(b)), 0.0)
    for k in range(40):
        lower = -6.0 + 0.3 * k
        upper = lower + 0.1
        with deadline(0.05):
            d = normalize(family, IntervalConstraint(lower, upper))
        exact = math.sinh(upper) - math.sinh(lower)
        assert abs(d.normalizer - exact) <= 1e-8 * exact, (lower, upper)


@pytest.mark.parametrize("lower, bound", [(1e6, "3.67e-05"), (1e8, "0.00367")])
def test_a_central_difference_whose_rounding_bound_passes_the_noise_cap_is_refused(lower, bound):
    # Each difference carries a rounding error of about eps |phi| / h at every node alike, which neither
    # the error estimate nor the noise floor sees: at 1e8 the normalizer was 9.2e-4 off, silently.
    family = custom_family(lambda a, b: a + math.tanh(b), 0.0)
    with deadline(1.0), pytest.raises(ValueError, match=f"relative rounding bound {bound} > 1e-06"):
        normalize(family, IntervalConstraint(lower, lower + 1.0))


def test_a_central_difference_within_its_rounding_bound_still_normalizes():
    family = custom_family(lambda a, b: a + math.tanh(b), 0.0)
    with deadline(1.0):
        d = normalize(family, IntervalConstraint(1e3, 1e3 + 1.0))
    assert abs(d.normalizer - 1.0) <= 3.7e-8  # the bound there; the 40 asinh intervals above pass too


@pytest.mark.parametrize("lower, upper, center", [(1.0, 1e3, 500.5), (700.0, 720.0, 710.0)])
def test_a_rate_inside_its_own_rounding_is_refused_for_its_rounding(lower, upper, center):
    # sinh p swamps sinh(+-h): the difference rounds to exactly 0, which is the rounding's fault, not the law's.
    family = custom_family(lambda a, b: math.asinh(math.sinh(a) + math.sinh(b)), 0.0)
    with pytest.raises(ValueError, match=rf"^central difference at p={center} has relative rounding bound inf "
                                         r"> 1e-06; write the law with cmath"):
        normalize(family, IntervalConstraint(lower, upper))


@pytest.mark.parametrize("module", [math, cmath], ids=["math", "cmath"])
def test_a_law_that_overflows_binary64_is_refused_at_its_parameter(module):
    family = custom_family(lambda a, b: module.asinh(module.sinh(a) + module.sinh(b)), 0.0)
    with pytest.raises(ValueError, match=r"^composition law overflows binary64 at p=715\.0$"):
        haar_weight(family, 715.0)
    with pytest.raises(ValueError, match=r"^composition law overflows binary64 at p=1000\.5$"):
        normalize(family, IntervalConstraint(1e3, 1e3 + 1.0))


@pytest.mark.parametrize("rate", [lambda b: b, math.tanh], ids=["complex-step", "central-difference"])
def test_a_law_that_divides_by_zero_is_refused_at_its_node(rate):
    # The law's pole at a = 3 raised a bare ZeroDivisionError from haar_weight and from normalize.
    pole = custom_family(lambda a, b: a + rate(b) * (1.0 + 1.0 / (a - 3.0)), 0.0)
    with pytest.raises(ValueError, match=r"^composition law divides by zero at p=3\.0$"):
        haar_weight(pole, 3.0)
    with pytest.raises(ValueError, match=r"^composition law divides by zero at p=3\.0$"):
        normalize(pole, IntervalConstraint(2.0, 4.0))


def test_the_noise_floor_is_0_for_the_complex_step_and_the_rounding_bound_otherwise():
    with_math = custom_family(lambda a, b: math.asinh(math.sinh(a) + math.sinh(b)), 0.0)
    with_cmath = custom_family(lambda a, b: cmath.asinh(cmath.sinh(a) + cmath.sinh(b)), 0.0)
    noise = {lower: haar._rate_noise(with_math, IntervalConstraint(lower, lower + 0.1)) for lower in (0.0, 5.4)}
    assert noise[0.0] < 1e-10 < noise[5.4] < 1e-6
    assert all(haar._rate_noise(with_cmath, IntervalConstraint(lower, lower + 0.1)) == 0.0 for lower in noise)
    # Past the cap, the first panel's nodes are refused before the table could ask for its noise.
    with pytest.raises(ValueError, match=r"relative rounding bound 0\.179 > 1e-06"):
        normalize(with_math, IntervalConstraint(20.0, 20.1))


def test_a_central_difference_noise_floor_is_its_largest_bound_at_the_nested_rules_nodes():
    evaluations = []

    def law(a, b):
        value = math.asinh(math.sinh(a) + math.sinh(b))  # a complex b raises before it counts
        evaluations.append((a, b))
        return value

    family, c = custom_family(law, 0.0), IntervalConstraint(5.4, 5.5)
    evaluations.clear()
    noise = haar._rate_noise(family, c)
    assert len(evaluations) == 14  # one central difference at each node cos(j pi / 8) of the nested 7-point rule
    h = haar._FD_STEP
    nodes = sorted({a for a, _ in evaluations})
    assert len(nodes) == 7
    assert noise == max(rounding / rate for rate, rounding in (haar._central_difference(family, p, h) for p in nodes))


def test_a_panel_series_is_numpys_antiderivative_of_the_polynomial_through_its_nodes():
    # An independent check of the closed-form rows: numpy fits the degree-14 polynomial through the 15 node
    # values at cos(j pi / 16) and integrates it from -1.
    rng = np.random.default_rng(26)
    x = np.cos(np.arange(1, 16) * np.pi / 16)  # v[j - 1] is the value at x_j; x_8 = 0 and x_(16 - j) = -x_j
    for _ in range(20):
        v = rng.uniform(-1.0, 2.0, 15)
        sums = [v[7], *(v[15 - j] + v[j - 1] for j in range(1, 8))]
        differences = [v[j - 1] - v[15 - j] for j in range(1, 8)]
        expected = chebyshev.chebint(chebyshev.chebfit(x, v, 14), lbnd=-1)
        assert np.abs(np.array(haar._antiderivative((sums, differences))) - expected).max() <= 1e-13


def test_a_panel_integrates_a_degree_14_weight_exactly_and_estimates_its_error_from_the_last_two_terms():
    rng = np.random.default_rng(14)
    for _ in range(10):
        coefficients = rng.uniform(-1.0, 1.0, 15)
        coefficients[0] = 20.0  # a positive weight on [-1, 1]
        chart = haar.CUSTOM._replace(weight=lambda f, p: float(chebyshev.chebval(p, coefficients)))
        value, error, nodes = haar._panel(haar.OneParamFamily(chart, None, 0.0), -1.0, 1.0)
        series = chebyshev.chebint(coefficients, lbnd=-1)
        assert abs(value - chebyshev.chebval(1.0, series)) <= 1e-13
        assert error == pytest.approx(haar._FEJER_TAIL * (abs(series[14]) + abs(series[15])), rel=1e-12)
        assert np.abs(np.array(haar._antiderivative(nodes)) - series).max() <= 1e-13


def test_oscillating_weight_converges_or_is_refused_in_bounded_time():
    family = custom_family(lambda a, b: a + b * (1 + 0.5 * math.sin(1e4 * a)), identity=0.0)
    with deadline(1.0):
        try:
            d = normalize(family, IntervalConstraint(0.0, 1.0))
        except ValueError as refused:
            assert "evaluations" in str(refused)
        else:
            assert d.normalizer == pytest.approx(1.154577482912893, rel=1e-10)


@pytest.mark.parametrize(
    "lower, upper, node",
    [(-1.7e308, 1.7e308, "-inf"), (1e308, 1.5e308, "inf"), (-1.7976931348623157e308, -1e308, "-inf")],
    ids=["half-width-overflows", "midpoint-overflows", "width-overflows"],
)
def test_a_custom_panel_whose_nodes_overflow_is_refused(lower, upper, node):
    family = custom_family(lambda a, b: a + b, identity=0.0)
    with pytest.raises(ValueError, match=f"^parameter must be finite, got {node}$"):
        normalize(family, IntervalConstraint(lower, upper))


@pytest.mark.parametrize("lower, upper", [(1.0, 100.0), (0.01, 1.0), (1e-6, 1.0)])
def test_scale_law_over_a_wide_ratio_normalizes_in_bounded_time(lower, upper):
    family = custom_family(lambda a, b: a * b, identity=1.0)
    with deadline(1.0):
        d = normalize(family, IntervalConstraint(lower, upper))
    assert d.normalizer == pytest.approx(math.log(upper / lower), rel=1e-12)


def test_custom_weight_grid_matches_closed_forms():
    # The exponential law refuses a complex b: this checks the finite-difference fallback.
    additive = custom_family(lambda a, b: a + b, identity=0.0)
    multiplicative = custom_family(lambda a, b: a * b, identity=1.0)
    exponential = custom_family(lambda a, b: a * math.exp(b), identity=0.0)
    for i in range(41):
        p = 10.0 ** (-2.0 + i * 0.1)
        assert abs(haar_weight(additive, p) - 1.0) <= 1e-6
        assert abs(haar_weight(multiplicative, p) - 1.0 / p) <= 1e-6
        assert abs(haar_weight(exponential, p) - 1.0 / p) <= 1e-6


def test_translation_density_is_one_over_width():
    d = normalize(TRANSLATION, IntervalConstraint(2.0, 7.0))
    assert d.density_at(3.7) == pytest.approx(0.2, abs=1e-15)
    assert d.form == "constant"


def test_unit_translation_interval_has_unit_density():
    for a in (-13.5, 0.0, 2.25):
        d = normalize(TRANSLATION, IntervalConstraint(a, a + 1.0))
        assert d.density_at(a + 0.5) == pytest.approx(1.0, abs=1e-12)


def test_scale_density_on_unit_log_interval():
    d = normalize(SCALE, IntervalConstraint(1.0, math.e))
    assert d.density_at(1.0) == pytest.approx(1.0, abs=1e-12)
    assert d.form == "reciprocal"


def test_scale_interval_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        normalize(SCALE, IntervalConstraint(-1.0, 2.0))


def test_degenerate_interval_is_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        IntervalConstraint(3.0, 3.0)


@pytest.mark.parametrize(
    "call, words",
    [
        (lambda: IntervalConstraint(math.nan, 1.0), "interval bounds must be finite"),
        (lambda: normalize(SCALE, IntervalConstraint(1.0, 2.0)).sample(1, 0), "sample count must be at least 1, got 0"),
        # A float or a str count raised a bare TypeError, and True gave one draw.
        (lambda: normalize(SCALE, IntervalConstraint(1.0, 2.0)).sample(1, 2.5), r"sample count must be at least 1, got 2\.5"),
        (lambda: normalize(SCALE, IntervalConstraint(1.0, 2.0)).sample(1, "3"), "sample count must be at least 1, got '3'"),
        (lambda: normalize(SCALE, IntervalConstraint(1.0, 2.0)).sample(1, True), "sample count must be at least 1, got True"),
        (lambda: normalize(custom_family(lambda a, b: a - b, 0.0), IntervalConstraint(1.0, 2.0)),
         r"composition rate -1\.0 at p=1\.5 gives no positive weight"),
    ],
    ids=["interval_bound_nan", "sample_count_zero", "sample_count_float", "sample_count_str", "sample_count_bool",
         "custom_rate_negative"],
)
def test_a_call_outside_its_domain_is_refused_in_its_own_words(call, words):
    with pytest.raises(ValueError, match=f"^{words}$"):
        call()


def test_jeffreys_density_value():
    d = normalize(SCALE, IntervalConstraint(1.0, 2.0))
    assert d.density_at(1.5) == pytest.approx(1.0 / (1.5 * math.log(2.0)), abs=1e-12)
    assert d.density_at(0.5) == 0.0
    assert d.density_at(2.5) == 0.0


@pytest.mark.parametrize(
    "family, lower, upper, x",
    [(TRANSLATION, 0.0, 5e-324, 0.0), (SCALE, 1e-320, 1e-300, 1e-320)],
    ids=["translation-subnormal-width", "scale-subnormal-lower"],
)
def test_density_that_overflows_binary64_is_refused(family, lower, upper, x):
    d = normalize(family, IntervalConstraint(lower, upper))
    with pytest.raises(ValueError, match="overflows binary64"):
        d.density_at(x)


@pytest.mark.parametrize(
    "family",
    [TRANSLATION, SCALE, custom_family(lambda a, b: a * b, identity=1.0)],
    ids=["translation", "scale", "custom"],
)
def test_nan_point_is_refused(family):
    d = normalize(family, IntervalConstraint(1.0, 4.0))
    with pytest.raises(ValueError, match="nan"):
        d.cdf(math.nan)
    with pytest.raises(ValueError, match="nan"):
        d.density_at(math.nan)


def test_translation_cdf_is_proportional_length():
    d = normalize(TRANSLATION, IntervalConstraint(0.0, 10.0))
    assert d.cdf(2.5) == pytest.approx(0.25, abs=1e-15)
    assert d.cdf(-1.0) == 0.0
    assert d.cdf(11.0) == 1.0


def test_scale_cdf_halves_at_geometric_midpoint():
    d = normalize(SCALE, IntervalConstraint(1.0, 4.0))
    assert d.cdf(2.0) == pytest.approx(0.5, abs=1e-12)


def test_scale_family_beyond_the_binary64_ratio():
    # 1e300 / 1e-300 overflows binary64, but the log of the ratio does not.
    d = normalize(SCALE, IntervalConstraint(1e-300, 1e300))
    assert d.normalizer == pytest.approx(600 * math.log(10), rel=1e-15)
    assert d.cdf(1.0) == pytest.approx(0.5, rel=1e-14)
    assert d.quantile(0.5) == pytest.approx(1.0, rel=1e-12)
    assert d.quantile(1.0) == pytest.approx(1e300, rel=1e-12)


@pytest.mark.parametrize(
    "family, lower, upper",
    [
        (TRANSLATION, 48.97445511102119, 119.95167722991836),  # lo + 1 * (hi - lo) rounds above hi
        (SCALE, 1e-200, 1e250),  # the difference of logs misses the lower end
        (SCALE, 3e-310, 1e10),  # ... and the upper end
        (SCALE, 1e-76, 1.7976931348621712e308),  # ... and its exp overflowed at q = 1
        (TRANSLATION, -10.0, 0.0001),  # lo + 1 * (hi - lo) cancels below hi
        (SCALE, 1e-300, 1e300),  # the difference of logs misses both ends
        (custom_family(lambda a, b: a + b + a * b, 0.0), 1.0, 4.0),  # the ITP steps stop inside a panel
    ],
    ids=[
        "translation", "scale-low-end", "scale-high-end", "scale-near-the-float-max",
        "translation-cancelling", "scale-both-ends", "custom",
    ],
)
def test_quantile_at_levels_0_and_1_stays_in_the_support(family, lower, upper):
    d = normalize(family, IntervalConstraint(lower, upper))
    assert d.quantile(0.0) == lower
    assert d.quantile(1.0) == upper


# The closed forms of the built-in families, written out apart from haar.  The module must give
# them to the last bit: the goldens print 12 digits, so only this test sees a change in the low bits.
def _translation_forms(lo, hi):
    def quantile(q):
        return min(max(lo + q * (hi - lo), lo), hi)

    return hi - lo, lambda x: (x - lo) / (hi - lo), quantile, lambda x: 1.0 / (hi - lo)


def _scale_forms(lo, hi):
    def log_ratio(x):  # a difference of logs only where the ratio overflows binary64
        return math.log(x / lo) if x / lo < math.inf else math.log(x) - math.log(lo)

    def quantile(q):
        if hi / lo < math.inf:
            x = lo * (hi / lo) ** q
        else:
            x = math.exp(min(math.log(lo) + q * log_ratio(hi), math.log(hi)))
        return min(max(x, lo), hi)

    return log_ratio(hi), lambda x: log_ratio(x) / log_ratio(hi), quantile, lambda x: 1.0 / x / log_ratio(hi)


BIT_EXACT_LEVELS = (0.0, 2.0**-53, 1e-12, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0 - 1e-12, 1.0 - 2.0**-53, 1.0)


@pytest.mark.parametrize(
    "family, lower, upper",
    [
        ("translation", 0.0, 1.0),
        ("translation", 2.0, 7.0),
        ("translation", -13.5, -12.5),
        ("translation", -1e3, 1e-3),
        ("translation", 0.1, 0.7),
        ("translation", 48.97445511102119, 119.95167722991836),
        ("translation", -10.0, 0.0001),
        ("scale", 1.0, 4.0),
        ("scale", 0.3, 7.5),
        ("scale", 1e-6, 1.0),
        ("scale", 2.0, 250.0),
        ("scale", 1e-200, 1e250),
        ("scale", 3e-310, 1e10),
        ("scale", 1e-76, 1.7976931348621712e308),
        ("scale", 1e-300, 1e300),
    ],
)
def test_the_built_in_families_keep_their_closed_forms_to_the_bit(family, lower, upper):
    forms = _translation_forms if family == "translation" else _scale_forms
    normalizer, cdf, quantile, density = forms(lower, upper)
    d = normalize(TRANSLATION if family == "translation" else SCALE, IntervalConstraint(lower, upper))
    assert d.normalizer == normalizer
    for q in BIT_EXACT_LEVELS:
        assert d.quantile(q) == (lower if q == 0.0 else upper if q == 1.0 else quantile(q))
    if family == "translation":
        inside = [lower + t * (upper - lower) for t in BIT_EXACT_LEVELS]
    else:
        logs = [math.log(lower) + t * (math.log(upper) - math.log(lower)) for t in BIT_EXACT_LEVELS]
        inside = [math.exp(min(u, math.log(upper))) for u in logs]
    ends = [math.nextafter(lower, math.inf), math.nextafter(upper, -math.inf)]
    for x in [lower, upper, *ends, *(x for x in inside if lower < x < upper)]:
        assert d.cdf(x) == (0.0 if x <= lower else 1.0 if x >= upper else cdf(x))
        if math.isfinite(density(x)):
            assert d.density_at(x) == density(x)
        else:
            with pytest.raises(ValueError, match="overflows binary64"):
                d.density_at(x)
    for x in (lower - 1.0, 0.5 * lower, upper + 1.0, 2.0 * upper):
        if not lower <= x <= upper:
            assert d.cdf(x) == (0.0 if x < lower else 1.0)
            assert d.density_at(x) == 0.0


def test_translation_quantile_midpoint():
    d = normalize(TRANSLATION, IntervalConstraint(2.0, 7.0))
    assert d.quantile(0.5) == pytest.approx(4.5, abs=1e-12)


def test_scale_median_is_geometric_mean():
    for lo, hi in ((1.0, 4.0), (0.3, 7.5), (2.0, 250.0)):
        d = normalize(SCALE, IntervalConstraint(lo, hi))
        assert d.quantile(0.5) == pytest.approx(math.sqrt(lo * hi), abs=1e-8)
        # independent check: invert the quadrature cdf by bisection
        a, b = lo, hi
        while b - a > 1e-10:
            mid = 0.5 * (a + b)
            mass = integrate(d.density_at, lo, mid, 1e-12) if mid > lo else 0.0
            if mass < 0.5:
                a = mid
            else:
                b = mid
        assert d.quantile(0.5) == pytest.approx(0.5 * (a + b), abs=1e-8)


def test_quantile_level_must_be_in_unit_interval():
    d = normalize(TRANSLATION, IntervalConstraint(0.0, 1.0))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        d.quantile(1.5)


@pytest.mark.parametrize("family", [TRANSLATION, SCALE, custom_family(lambda a, b: a * b, 1.0)],
                         ids=["translation", "scale", "custom"])
@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1, -5])
def test_a_sample_is_the_quantiles_of_the_seeds_random_stream(family, seed):
    d = normalize(family, IntervalConstraint(1.0, 9.0))
    rng = random.Random(seed)
    assert d.sample(seed, 3) == [d.quantile(rng.random()) for _ in range(3)]


@pytest.mark.parametrize("seed", ["7", b"7", 7.0, None])
def test_a_sample_seed_must_be_an_int(seed):
    # random.Random seeds a str from its SHA-512 and a float from its hash; a chain's seed is refused the same way.
    d = normalize(SCALE, IntervalConstraint(1.0, 9.0))
    with pytest.raises(TypeError):
        d.sample(seed, 3)


def test_custom_family_density_cdf_quantile():
    # a * exp(b) composition has the same invariant density as the scale family.
    family = custom_family(lambda a, b: a * math.exp(b), identity=0.0)
    d = normalize(family, IntervalConstraint(1.0, 4.0))
    assert d.normalizer == pytest.approx(math.log(4.0), abs=1e-10)
    assert d.density_at(2.0) == pytest.approx(1.0 / (2.0 * math.log(4.0)), abs=1e-9)
    assert d.cdf(2.0) == pytest.approx(0.5, abs=1e-9)
    with deadline(1.0):
        median = d.quantile(0.5)
    assert median == pytest.approx(2.0, abs=1e-8)


def test_samples_stay_in_support():
    d = normalize(SCALE, IntervalConstraint(1.0, 4.0))
    values = d.sample(seed=5, n=1000)
    assert len(values) == 1000
    assert all(1.0 <= x <= 4.0 for x in values)


def test_sampling_is_deterministic_per_seed():
    d = normalize(TRANSLATION, IntervalConstraint(0.0, 1.0))
    assert d.sample(seed=11, n=50) == d.sample(seed=11, n=50)
    assert d.sample(seed=11, n=50) != d.sample(seed=12, n=50)


def test_translation_sample_mean():
    d = normalize(TRANSLATION, IntervalConstraint(0.0, 1.0))
    n = 30_000
    values = d.sample(seed=2024, n=n)
    standard_error = 1.0 / (math.sqrt(12.0) * math.sqrt(n))
    assert abs(sum(values) / n - 0.5) <= 4.0 * standard_error


def test_scale_sample_median_fraction():
    d = normalize(SCALE, IntervalConstraint(1.0, 4.0))
    n = 30_000
    values = d.sample(seed=99, n=n)
    below = sum(1 for x in values if x < 2.0) / n
    assert abs(below - 0.5) <= 4.0 * math.sqrt(0.25 / n)


def test_pushforward_identity_is_noop():
    d = normalize(TRANSLATION, IntervalConstraint(0.25, 1.25))
    same = d.pushforward_affine(1.0, 0.0)
    assert same.support == d.support
    assert same.normalizer == d.normalizer


def test_pushforward_doubles_support_halves_density():
    d = normalize(TRANSLATION, IntervalConstraint(0.0, 1.0))
    y = d.pushforward_affine(2.0, 0.0)
    assert (y.support.lower, y.support.upper) == (0.0, 2.0)
    assert y.density_at(1.0) == pytest.approx(0.5, abs=1e-15)


def test_pushforward_rejects_collapsing_map():
    d = normalize(TRANSLATION, IntervalConstraint(0.0, 1.0))
    with pytest.raises(ValueError, match="a=0"):
        d.pushforward_affine(0.0, 3.0)


def test_pushforward_scale_supports_pure_rescaling_only():
    d = normalize(SCALE, IntervalConstraint(1.0, 4.0))
    y = d.pushforward_affine(3.0, 0.0)
    assert y.normalizer == pytest.approx(d.normalizer, abs=1e-12)
    with pytest.raises(ValueError, match="pushforward"):
        d.pushforward_affine(1.0, 1.0)


def test_built_in_families_and_their_densities_are_values():
    # Each call used to make a new lambda for the law, so two calls gave families, and densities,
    # that compared unequal and hashed apart although they hold the same fields.
    assert translation_family() == translation_family()
    assert scale_family() == scale_family()
    assert translation_family() != scale_family()
    assert hash(translation_family()) == hash(translation_family())
    assert hash(scale_family()) == hash(scale_family())
    c = IntervalConstraint(1.0, 3.0)
    assert normalize(scale_family(), c) == normalize(scale_family(), c)
    assert hash(normalize(scale_family(), c)) == hash(normalize(scale_family(), c))
    assert von_mises_reduce(1, 2) == von_mises_reduce(1, 2)
    assert hash(von_mises_reduce(1, 2)) == hash(von_mises_reduce(1, 2))


def test_von_mises_classic_bounds():
    d = von_mises_reduce(1.0, 2.0)
    assert d.support.lower == pytest.approx(0.5, abs=1e-15)
    assert d.support.upper == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert d.density_at(0.6) == pytest.approx(6.0, abs=1e-12)
    assert d.cdf(7.0 / 12.0) == pytest.approx(0.5, abs=1e-12)
    assert d.quantile(0.5) == pytest.approx(7.0 / 12.0, abs=1e-12)


def test_von_mises_narrow_bounds_concentrate():
    eps = 1e-3
    d = von_mises_reduce(1.0, 1.0 + eps)
    assert d.support.lower == pytest.approx(0.5, abs=1e-12)
    width = d.support.upper - d.support.lower
    assert d.density_at(0.5 + width / 2) == pytest.approx(1.0 / width, rel=1e-9)


def test_von_mises_wider_bounds():
    d = von_mises_reduce(1.0, 3.0)
    assert d.support.upper == pytest.approx(0.75, abs=1e-15)
    assert d.density_at(0.6) == pytest.approx(4.0, abs=1e-12)


def test_von_mises_requires_ordered_positive_ratios():
    for lower, upper in ((2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 2.0)):
        with pytest.raises(ValueError, match="0 < ratio_lower < ratio_upper"):
            von_mises_reduce(lower, upper)


def test_von_mises_fraction_and_complement_agree():
    water = von_mises_reduce(1.0, 2.0)
    wine = water.pushforward_affine(-1.0, 1.0)
    assert wine.support.lower == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert wine.support.upper == pytest.approx(0.5, abs=1e-12)
    assert wine.density_at(0.4) == pytest.approx(6.0, abs=1e-12)
    p_water_below = water.cdf(7.0 / 12.0)
    p_wine_above = 1.0 - wine.cdf(5.0 / 12.0)
    assert p_water_below == pytest.approx(0.5, abs=1e-12)
    assert p_wine_above == pytest.approx(0.5, abs=1e-12)


ULP_1 = math.ulp(1.0)
ratios = st.one_of(st.floats(1e-6, 1e6), st.floats(-6.0, 6.0).map(lambda e: min(max(10.0**e, 1e-6), 1e6)))


@settings(max_examples=200, deadline=None)
@given(a=ratios, b=ratios)
@example(a=1e-6, b=1e-6 * 1.0156)  # a width tolerance of 1e-9 fails here: the ends near 1 round in binary64
@example(a=1e-6, b=1e6)
def test_relabelling_the_liquids_maps_the_water_density_to_the_wine_density(a, b):
    # Ratio bounds [a, b] of water to wine are bounds [1/b, 1/a] of wine to water.  The fractions
    # live in [0, 1], so both sides agree within a few ulp of 1, whatever the width.
    a, b = min(a, b), max(a, b)
    assume(b / (1.0 + b) - a / (1.0 + a) > 16 * ULP_1)
    wine = von_mises_reduce(a, b).pushforward_affine(-1.0, 1.0)
    relabelled = von_mises_reduce(1.0 / b, 1.0 / a)
    assert abs(relabelled.support.lower - wine.support.lower) <= 8 * ULP_1
    assert abs(relabelled.support.upper - wine.support.upper) <= 8 * ULP_1
    assert abs(relabelled.normalizer - wine.normalizer) <= 8 * ULP_1
    for d in (wine, relabelled):
        mid = 0.5 * (d.support.lower + d.support.upper)
        assert abs(d.density_at(mid) * d.normalizer - 1.0) <= 8 * ULP_1


@given(
    a=moderate,
    width=st.floats(min_value=1e-2, max_value=1e3, allow_nan=False),
    c=moderate,
)
def test_translation_measure_is_shift_invariant(a, width, c):
    original = haar_measure(TRANSLATION, IntervalConstraint(a, a + width))
    shifted = haar_measure(TRANSLATION, IntervalConstraint(a + c, a + width + c))
    assert abs(original - shifted) <= 1e-10


@given(
    a=positive,
    ratio=st.floats(min_value=1.01, max_value=1e3, allow_nan=False),
    k=positive,
)
def test_scale_measure_is_rescaling_invariant(a, ratio, k):
    original = haar_measure(SCALE, IntervalConstraint(a, a * ratio))
    rescaled = haar_measure(SCALE, IntervalConstraint(k * a, k * a * ratio))
    assert abs(original - rescaled) <= 1e-10


# A group element of each custom law, from one drawn number s in [-2, 2].  Near the edge of
# a+b+ab's domain p > -1, rounding phi(l, g) in binary64 alone moves a narrow interval's
# measure by more than 1e-9 of itself, so 1 + g stays at least 0.01 and ends a tenth of a decade apart.
GROUP_ELEMENTS = {
    "a*b": lambda s: 10.0**s,
    "a+b+ab": lambda s: 10.0**s - 1.0,
    "a*exp(b)": lambda s: s * math.log(10.0),
}


@pytest.mark.parametrize("law", sorted(CUSTOM_LAWS))
@settings(max_examples=100, deadline=None)
@given(
    ends=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2),
    s=st.floats(min_value=-2.0, max_value=2.0),
)
def test_custom_measure_is_invariant_under_its_own_group(law, ends, s):
    compose, identity, _ = CUSTOM_LAWS[law]
    assume(abs(ends[0] - ends[1]) >= 0.1)
    family = custom_family(compose, identity)
    lo, hi = 10.0 ** min(ends), 10.0 ** max(ends)
    g = GROUP_ELEMENTS[law](s)
    with deadline(1.0):
        original = haar_measure(family, IntervalConstraint(lo, hi))
        moved = haar_measure(family, IntervalConstraint(compose(lo, g), compose(hi, g)))
    assert abs(moved - original) <= 1e-9 * original


@settings(max_examples=30)
@given(
    lo=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    ratio=st.floats(min_value=1.1, max_value=50.0, allow_nan=False),
    kind=st.sampled_from(("translation", "scale")),
)
def test_every_density_integrates_to_one(lo, ratio, kind):
    family = TRANSLATION if kind == "translation" else SCALE
    d = normalize(family, IntervalConstraint(lo, lo * ratio))
    mass = integrate(d.density_at, d.support.lower, d.support.upper, 1e-12)
    assert abs(mass - 1.0) <= 1e-10


@given(
    x=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    kind=st.sampled_from(("translation", "scale")),
)
def test_quantile_inverts_cdf(x, kind):
    family = TRANSLATION if kind == "translation" else SCALE
    d = normalize(family, IntervalConstraint(1.0, 9.0))
    point = 1.0 + x * 8.0
    assert d.quantile(d.cdf(point)) == pytest.approx(point, abs=1e-8)


@settings(max_examples=30, deadline=250)
@given(
    law=st.sampled_from(sorted(CUSTOM_LAWS)),
    ends=st.lists(st.floats(min_value=-6.0, max_value=6.0), min_size=2, max_size=2),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=4),
)
def test_custom_cdf_matches_the_oracle_and_quantile_inverts_it(law, ends, fractions):
    compose, identity, weight = CUSTOM_LAWS[law]
    assume(abs(ends[0] - ends[1]) >= 1e-3)
    lo, hi = 10.0 ** min(ends), 10.0 ** max(ends)
    d = normalize(custom_family(compose, identity), IntervalConstraint(lo, hi))
    logs = sorted(math.log(lo) + t * math.log(hi / lo) for t in fractions)
    points = [min(hi, max(lo, math.exp(u))) for u in logs]
    masses = [d.cdf(x) for x in points]
    assert masses == sorted(masses)
    # The oracle integrates the closed-form weight, since the finite-difference weight
    # of a*exp(b) is noisier than its absolute tolerance; and it does so over u = log x,
    # where the weight times x stays bounded on intervals as wide as [1e-6, 1e6].
    def mass_density(u):
        return weight(math.exp(u)) * math.exp(u) / d.normalizer

    for u, mass in zip(logs, masses):
        reference = integrate(mass_density, math.log(lo), u, 1e-10) if u > math.log(lo) else 0.0
        assert abs(mass - reference) <= 1e-9
    # The custom quantile stops once its bracket is at most 1e-12 wide, an absolute
    # width: it never stops where float spacing exceeds that (from 8192 on), and it
    # resolves no finer than 1e-12 (ROADMAP numeric core, the quantile stop).
    if hi <= 4096.0 and hi - lo >= 1e-3:
        for x, mass in zip(points, masses):
            with deadline(1.0):
                found = d.quantile(mass)
            assert abs(found - x) <= 1e-9 * (hi - lo)


# The closed-form quantile of each custom law: u^-1(u(lo) + q (u(hi) - u(lo))) with its u.
CUSTOM_QUANTILES = {
    "a*b": lambda lo, hi, q: lo * (hi / lo) ** q,
    "a+b+ab": lambda lo, hi, q: (1.0 + lo) * ((1.0 + hi) / (1.0 + lo)) ** q - 1.0,
    "a*exp(b)": lambda lo, hi, q: lo * (hi / lo) ** q,
}


def _quantile_levels(d, rng):
    """Random levels, the two next to the ends, and every level at a panel boundary of d's table."""
    interior = [c / d.normalizer for c in d.cumulative[1:-1]]
    return [rng.random() for _ in range(20)] + [1e-15, 1.0 - 1e-15] + interior


@pytest.mark.parametrize("law", sorted(CUSTOM_QUANTILES))
def test_a_custom_quantile_reads_few_panels_and_never_many_more_than_halving(law, monkeypatch):
    compose, identity, _ = CUSTOM_LAWS[law]
    family = custom_family(compose, identity)
    calls = []
    counted = haar._chebyshev_sum

    def chebyshev_sum(series, t):
        calls.append(t)
        return counted(series, t)

    monkeypatch.setattr(haar, "_chebyshev_sum", chebyshev_sum)
    rng = random.Random(17)
    shares = []
    for lo, hi in [(1.0, 4.0), (0.5, 2.0), (1.0, 50.0), (0.02, 1.0), (20.0, 1000.0), (0.001, 0.05)]:
        d = normalize(family, IntervalConstraint(lo, hi))
        for q in _quantile_levels(d, rng):
            i = min(bisect.bisect_right(d.cumulative, q * d.normalizer), len(d.edges) - 1) - 1
            # Halving the panel that holds q down to the 1e-12 stop, and one step more.
            bound = math.ceil(math.log2((d.edges[i + 1] - d.edges[i]) / 1e-12)) + 1
            calls.clear()
            with deadline(1.0):
                found = d.quantile(q)
            assert abs(found - CUSTOM_QUANTILES[law](lo, hi, q)) <= 1e-9 * (hi - lo), (lo, hi, q)
            assert len(calls) <= bound, (lo, hi, q)
            shares.append(len(calls) / bound)
    assert statistics.median(shares) <= 1.0 / 3.0


@pytest.mark.parametrize("law", sorted(CUSTOM_QUANTILES))
def test_a_custom_quantile_reads_its_panel_series_and_never_calls_cdf(law, monkeypatch):
    compose, identity, _ = CUSTOM_LAWS[law]
    d = normalize(custom_family(compose, identity), IntervalConstraint(1.0, 50.0))
    calls = []
    counted = NormalizedDensity.cdf
    monkeypatch.setattr(NormalizedDensity, "cdf", lambda self, x: calls.append(x) or counted(self, x))
    for q in _quantile_levels(d, random.Random(5)):
        found = d.quantile(q)
        assert abs(found - CUSTOM_QUANTILES[law](1.0, 50.0, q)) <= 1e-9 * 49.0, q
    assert calls == []


# Monotone cdfs on [0, 1] on which false position moves one end by a sliver per step: cdf, root of cdf = q.
CRAWLING_CDFS = {
    "x**k": (lambda x, k: x**k, lambda q, k: q ** (1.0 / k)),
    "1-(1-x)**k": (lambda x, k: 1.0 - (1.0 - x) ** k, lambda q, k: 1.0 - (1.0 - q) ** (1.0 / k)),
}


@pytest.mark.parametrize("shape", sorted(CRAWLING_CDFS))
@pytest.mark.parametrize("k", [3, 30, 1000])
@pytest.mark.parametrize("q", [1e-6, 0.01, 0.5, 0.99])
def test_the_custom_point_keeps_its_step_bound_where_false_position_crawls(shape, k, q):
    # Without the projection into the shrinking radius, the steps took up to 362 panels here.
    cdf, root = CRAWLING_CDFS[shape]
    calls = []

    def residual(x):
        calls.append(x)
        return cdf(x, k) - q

    with deadline(1.0):
        found = haar._itp_root(residual, 0.0, 1.0, -q, 1.0 - q, math.ulp(q))
    assert abs(found - root(q, k)) <= 1e-11
    assert len(calls) <= math.ceil(math.log2(1.0 / 1e-12)) + 1


# Custom laws and their canonical coordinates u, on intervals whose tables have 1 to 8 panels.
SERIES_LAWS = {
    "a*b": (lambda a, b: a * b, 1.0, math.log),
    "a+b+ab": (lambda a, b: a + b + a * b, 0.0, math.log1p),
    "asinh": (lambda a, b: cmath.asinh(cmath.sinh(a) + cmath.sinh(b)), 0.0, math.sinh),
}
SERIES_INTERVALS = [
    *(("a*b", 1.0, hi) for hi in (1.5, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0)),
    ("a*b", 0.03, 1.0),
    *(("a+b+ab", 1.0, hi) for hi in (1.5, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)),
    *(("asinh", lo, hi) for lo, hi in ((-0.5, 0.5), (-3.0, 3.0), (0.0, 16.0), (-6.0, 6.0), (-10.0, 10.0),
                                       (-12.0, 12.0), (-20.0, 20.0))),
]


@pytest.mark.parametrize("law, lower, upper", SERIES_INTERVALS)
def test_a_custom_cdf_reads_its_panel_series_within_the_table_tolerance(law, lower, upper):
    compose, identity, u = SERIES_LAWS[law]
    d = normalize(custom_family(compose, identity), IntervalConstraint(lower, upper))
    assert 1 <= len(d.edges) - 1 <= 8
    grid = [lower + (upper - lower) * k / 999 for k in range(1000)]
    masses = [d.cdf(x) for x in grid]
    assert masses == sorted(masses)
    exact = u(upper) - u(lower)
    for x, mass in zip(grid, masses):
        assert abs(mass - (u(x) - u(lower)) / exact) <= 1e-10, x
    # The series starts at 0 on each edge and ends at the panel's Fejer value: cdf is continuous there.
    for edge, below in zip(d.edges[1:-1], d.cumulative[1:-1]):
        assert abs(d.cdf(edge) - below / d.normalizer) <= 1e-15
        assert abs(d.cdf(math.nextafter(edge, -math.inf)) - below / d.normalizer) <= 1e-15
    for x in grid[1:-1:20]:
        with deadline(1.0):
            assert abs(d.quantile(d.cdf(x)) - x) <= 1e-9 * (upper - lower)


def test_the_series_intervals_cover_every_table_size_from_1_to_8_panels():
    sizes = set()
    for law, lower, upper in SERIES_INTERVALS:
        compose, identity, _ = SERIES_LAWS[law]
        sizes.add(len(normalize(custom_family(compose, identity), IntervalConstraint(lower, upper)).edges) - 1)
    assert sizes == set(range(1, 9))


@pytest.mark.parametrize("law", sorted(SERIES_LAWS))
def test_after_normalize_cdf_quantile_and_sample_call_the_law_no_more(law):
    compose, identity, _ = SERIES_LAWS[law]
    calls = []

    def counted(a, b):
        calls.append(a)
        return compose(a, b)

    d = normalize(custom_family(counted, identity), IntervalConstraint(1.0, 5.0))
    assert calls
    calls.clear()
    d.cdf(2.0)
    d.quantile(0.3)
    d.sample(seed=3, n=5)
    assert calls == []
