"""Property tests over scenario documents: each renders in every format or is refused.

Hypothesis draws documents of every kind, hostile values included: for
``interval`` and ``spin_chain``, bounds across the whole binary64 range (ratios
and widths that overflow it, subnormals, signed zeros, neighbouring floats),
non-finite angles and the angles 0, -0, pi and -pi; for ``coin``, ``die``,
``von_mises`` and ``spin``, any key holding extreme numbers, integers beyond the
float range, bools, strings, ``None`` or nested lists, and ``state`` amplitudes
as numbers, ``[re, im]`` pairs and pairs that overflow.  A ``Scenario`` built
in code from a document's values must be refused exactly when the document is,
in the same words.  Every document that parses must be accepted again by the
constructor from its own params, and round-trip through its canonical JSON form,
to an equal scenario with an equal hash; it must then either run and render as
table, json and csv, or raise ``ScenarioError``, within the hypothesis deadline.
"""

import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupmeasure.cli import render
from groupmeasure.scenarios import DIE_QUERIES, FAMILIES, KINDS, Scenario, ScenarioError, run, scenario_from_dict

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
    """The report of a document, rendered in every format, or None if it was refused.

    Unless it holds a null, which only parsing refuses (no drawn document has an unknown key),
    the constructor, given the document's values by position, refuses it exactly when parsing
    does, in the same words.  A document that parses must come back from its params, and from
    its canonical form, as the same scenario, with the same hash.
    """
    values = tuple(map(doc.get, KINDS[doc["kind"]].options))
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError as parsed:
        if None not in doc.values():
            with pytest.raises(ScenarioError, match=f"^{re.escape(str(parsed))}$"):
                Scenario(doc["kind"], values)
        return None
    assert Scenario(doc["kind"], values) == scenario
    assert Scenario(scenario.kind, scenario.params) == scenario
    back = scenario_from_dict(json.loads(scenario.canonical_json()))
    assert back == scenario and hash(back) == hash(scenario)
    try:
        report = run(scenario)
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
@example(thetas=[1e-320, -0.0], seed=2**64, trials=1)
def test_chain_documents_render_or_are_refused(thetas, seed, trials):
    report = renders_or_refuses({"kind": "spin_chain", "thetas": thetas, "seed": seed, "trials": trials})
    if report is not None:
        assert len(report.records) == (len(thetas) if trials == 1 else 2)


extremes = st.sampled_from((1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -0.0, 0.0, 10**400, -(10**400), math.inf))
scalars = st.one_of(st.sampled_from((None, True, False, "", "1", "joint")), extremes, st.integers(), st.floats())
junk = st.one_of(scalars, st.lists(st.one_of(scalars, st.lists(scalars, max_size=2)), max_size=3))
amplitudes = st.one_of(
    extremes,
    st.floats(-1.0, 1.0),
    st.lists(st.one_of(extremes, st.floats(-1.0, 1.0)), min_size=2, max_size=2),
    st.sampled_from(([1e308, 1e308], [1e200, 0.0], [0.0, -1e308], [0.6, 0.8])),
)
states = st.one_of(
    st.lists(amplitudes, min_size=2, max_size=2),
    st.sampled_from(([1, 0], [0.6, [0, 0.8]], [[0.6, 0], [0, 0.8]], [0, -1.0])),
    st.lists(amplitudes, max_size=3),
)
# Each key's plausible values; any key may hold junk instead, or be left out.
VALUES = {
    "query": st.sampled_from(DIE_QUERIES),
    "north": st.integers(-1, 8),
    "ratio_lower": st.one_of(st.floats(0.0, 1e6), magnitudes, bounds, extremes),
    "ratio_upper": st.one_of(st.floats(0.0, 1e6), magnitudes, bounds, extremes),
    "theta": st.one_of(chain_angles, extremes),
    "state": states,
}


@st.composite
def other_docs(draw):
    kind = draw(st.sampled_from(("coin", "die", "von_mises", "spin")))
    doc = {"kind": kind}
    for key in KINDS[kind].options:
        if draw(st.integers(0, 7)):  # absent one time in eight, junk one time in four
            doc[key] = draw(junk if draw(st.integers(0, 3)) == 0 else VALUES[key])
    return doc


@settings(max_examples=150, deadline=500)
@given(doc=other_docs())
@example(doc={"kind": "spin", "theta": 1e308, "state": [[1e308, 1e308], 0]})
@example(doc={"kind": "spin", "theta": -0.0, "state": [5e-324, [0.0, -1.0]]})
@example(doc={"kind": "von_mises", "ratio_lower": 1e308, "ratio_upper": 1.7976931348623157e308})
@example(doc={"kind": "von_mises", "ratio_lower": 5e-324, "ratio_upper": 1e-323})
@example(doc={"kind": "die", "query": "conditional_north", "north": 10**400})
@example(doc={"kind": "coin"})
def test_other_documents_render_or_are_refused(doc):
    renders_or_refuses(doc)
