"""Property tests over scenario documents: each renders in every format or is refused.

Hypothesis draws ``interval`` and ``spin_chain`` documents, hostile values
included: bounds across the whole binary64 range (ratios and widths that
overflow it, subnormals, signed zeros, neighbouring floats), non-finite
angles and the angles 0, -0, pi and -pi.  Every document must either run and render as table,
json and csv, or raise ``ScenarioError``, within the hypothesis deadline.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupmeasure.cli import render
from groupmeasure.scenarios import FAMILIES, ScenarioError, run, scenario_from_dict

FORMATS = ("table", "json", "csv")

magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-320, 307))
bounds = st.one_of(
    magnitudes, magnitudes.map(lambda x: -x), st.floats(allow_nan=False, allow_infinity=False)
)
levels = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1.0, -0.0, 1.5)))
chain_angles = st.one_of(
    st.sampled_from((0.0, -0.0, math.pi, -math.pi)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((math.nan, math.inf)),
)


def renders_or_refuses(doc):
    """The report of a document, rendered in every format, or None if it was refused."""
    try:
        report = run(scenario_from_dict(doc))
    except ScenarioError:
        return None
    for fmt in FORMATS:
        assert render(report, fmt).endswith("\n")
    return report


@st.composite
def interval_docs(draw):
    lower, upper = sorted(draw(st.lists(bounds, min_size=2, max_size=2)))
    doc = {"kind": "interval", "family": draw(st.sampled_from(FAMILIES)), "lower": lower, "upper": upper}
    if draw(st.booleans()):
        doc["at"] = draw(bounds)
    if draw(st.booleans()):
        doc["quantile"] = draw(levels)
    return doc


def interval(family, lower, upper):
    return {"kind": "interval", "family": family, "lower": lower, "upper": upper, "quantile": 1.0}


@settings(max_examples=150, deadline=500)
@given(doc=interval_docs())
@example(doc=interval("translation", 48.97445511102119, 119.95167722991836))
@example(doc=interval("scale", 1e-200, 1e250))
@example(doc=interval("scale", 3e-310, 1e10))
@example(doc=interval("scale", 1e-300, 1e300))
@example(doc=interval("translation", -1e308, 1e308))
@example(doc=interval("translation", -10.0, 0.0001))  # lo + 1 * (hi - lo) is 9.99999999998e-05
@example(doc=interval("scale", 1.5e-273, 1.0))  # lo * (hi / lo) ** 1 is 0.9999999999999999
@example(doc=interval("translation", 1.0, 1.0000000000000002))  # (1 - q) * lo + q * hi is not monotone
@example(doc=interval("scale", 1e-76, 1.7976931348621712e308))  # exp(log(lo) + q * N) overflowed
def test_interval_documents_render_or_are_refused(doc):
    report = renders_or_refuses(doc)
    if report is None:
        return
    xs = [x for x, _, _ in report.records]
    cdfs = [cdf for _, _, cdf in report.records]
    assert all(doc["lower"] <= x <= doc["upper"] for x in xs)
    assert (xs[0], xs[-1]) == (doc["lower"], doc["upper"])
    assert all(a <= b for a, b in zip(cdfs, cdfs[1:]))


@settings(max_examples=100, deadline=500)
@given(
    thetas=st.lists(chain_angles, min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**64),
    trials=st.integers(min_value=1, max_value=50),
)
@example(thetas=[0.0, -0.0, math.pi, -math.pi], seed=0, trials=50)
def test_chain_documents_render_or_are_refused(thetas, seed, trials):
    report = renders_or_refuses({"kind": "spin_chain", "thetas": thetas, "seed": seed, "trials": trials})
    if report is not None:
        assert len(report.records) == (len(thetas) if trials == 1 else 2)
