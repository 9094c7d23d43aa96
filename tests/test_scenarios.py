import inspect
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from groupmeasure import spin
from groupmeasure.cli import render
from groupmeasure.scenarios import KINDS, Scenario, ScenarioError, parse_scenario, run, scenario_from_dict


def test_parse_die_marginal():
    s = parse_scenario('{"kind":"die","query":"marginal_up"}')
    assert s == Scenario("die", ("marginal_up", None))


def test_parse_scale_interval():
    s = parse_scenario('{"kind":"interval","family":"scale","lower":1,"upper":2}')
    assert s.kind == "interval"
    assert s.params == ("scale", 1.0, 2.0, None, None)


def test_a_parsed_scenario_cannot_change_and_hashes_by_value():
    sc = scenario_from_dict({"kind": "spin_chain", "thetas": [1.0], "trials": 5})
    with pytest.raises(TypeError):
        sc.params["trials"] = 0
    with pytest.raises(TypeError):
        sc.params[2] = 0
    twin = scenario_from_dict({"kind": "spin_chain", "thetas": [1.0], "trials": 5})
    assert hash(sc) == hash(twin)
    assert {sc, twin} == {sc}
    assert len({sc, twin, scenario_from_dict({"kind": "spin_chain", "thetas": [1.0]})}) == 2


def test_parse_rejects_unknown_keys():
    for doc in ('{"kind":"coin","sides":2}', '{"kind":"coin","sides":null}'):
        with pytest.raises(ScenarioError, match="^unknown keys: 'sides'$"):
            parse_scenario(doc)


def test_parse_rejects_unknown_kind():
    for doc in ('{"kind":"dice"}', '{"kind":["coin"]}', '{"kind":null}'):
        with pytest.raises(ScenarioError, match="unknown kind"):
            parse_scenario(doc)


def test_a_document_without_a_kind_is_refused():
    with pytest.raises(ScenarioError, match="^missing required key 'kind'$"):
        scenario_from_dict({})


def test_parse_reports_position_for_malformed_documents():
    with pytest.raises(ScenarioError, match="line 1"):
        parse_scenario('{"kind": "coin"')


@pytest.mark.parametrize(
    "doc, reason",
    [
        # json.loads refuses an integer of more than 4300 digits with a plain ValueError...
        ('{"kind":"von_mises","ratio_lower":1,"ratio_upper":%s}' % ("1" * 5001), "digits"),
        # ...and nesting past the recursion limit with a RecursionError.
        ("[" * 100_000, "recursion"),
    ],
    ids=["integer_digit_limit", "deep_nesting"],
)
def test_parse_refuses_what_json_cannot_read_as_malformed(doc, reason):
    with pytest.raises(ScenarioError, match=f"malformed scenario document: .*{reason}"):
        parse_scenario(doc)


def test_parse_requires_object_document():
    with pytest.raises(ScenarioError, match="object"):
        parse_scenario('["coin"]')


def test_die_conditional_requires_north():
    with pytest.raises(ScenarioError, match="north"):
        parse_scenario('{"kind":"die","query":"conditional_north"}')
    with pytest.raises(ScenarioError, match="1..6"):
        parse_scenario('{"kind":"die","query":"conditional_north","north":9}')
    with pytest.raises(ScenarioError, match="only valid"):
        parse_scenario('{"kind":"die","query":"joint","north":2}')


# One document per value rule that a library function owns -> that function's words for it.
# A Scenario checks only the key rules, so each document parses, and run() refuses it with the library's text.
LIBRARY_RULES = {
    "interval_bounds_reversed": (
        '{"kind":"interval","family":"translation","lower":2,"upper":1}', "degenerate interval"),
    "interval_bounds_equal": ('{"kind":"interval","family":"scale","lower":2,"upper":2}', "degenerate interval"),
    "scale_negative_lower": (
        '{"kind":"interval","family":"scale","lower":-1,"upper":2}', "scale family needs a positive interval"),
    "scale_zero_lower": (
        '{"kind":"interval","family":"scale","lower":0,"upper":2}', "scale family needs a positive interval"),
    "quantile_above_one": (
        '{"kind":"interval","family":"translation","lower":0,"upper":1,"quantile":1.5}', r"quantile level .*\[0, 1\]"),
    "quantile_below_zero": (
        '{"kind":"interval","family":"scale","lower":1,"upper":2,"quantile":-0.5}', r"quantile level .*\[0, 1\]"),
    "von_mises_reversed_ratios": (
        '{"kind":"von_mises","ratio_lower":2,"ratio_upper":1}', "0 < ratio_lower < ratio_upper"),
    "von_mises_nonpositive_ratio": (
        '{"kind":"von_mises","ratio_lower":0,"ratio_upper":1}', "0 < ratio_lower < ratio_upper"),
    "spin_state_not_normalized": ('{"kind":"spin","theta":0,"state":[1,1]}', "ray is not normalized"),
    "spin_state_overflows": ('{"kind":"spin","theta":0,"state":[1e200,0]}', "ray is not normalized"),
    "chain_no_angles": ('{"kind":"spin_chain","thetas":[]}', "measurement chain needs at least one angle"),
}


@pytest.mark.parametrize("doc, rule", LIBRARY_RULES.values(), ids=LIBRARY_RULES.keys())
def test_run_refuses_what_the_library_refuses(doc, rule):
    scenario = parse_scenario(doc)
    with pytest.raises(ScenarioError, match=f"^{scenario.kind} scenario failed: .*{rule}"):
        run(scenario)


# Each (kind, params) in the next three tests breaks a key rule, so it is refused when it is built,
# and run() never sees it.  Here: one directly built scenario per key rule on values -> its refusal's words.
SCENARIO_RULES = {
    "chain_no_trials": ("spin_chain", ((1.0,), 0, 0), "key 'trials' must be at least 1, got 0"),
    "chain_negative_seed": ("spin_chain", ((1.0,), -1, 3), "key 'seed' must be nonnegative, got -1"),
    "die_north_off_the_die": ("die", ("conditional_north", 7), r"key 'north' must be a face value 1\.\.6, got 7"),
    "die_north_missing": ("die", ("conditional_north", None), "missing required key 'north'"),
    "interval_at_not_a_number": (
        "interval", ("translation", 0.0, 1.0, "x", None), "key 'at' must be a number, got 'x'"),
    "interval_quantile_not_a_number": (
        "interval", ("translation", 0.0, 1.0, None, "x"), "key 'quantile' must be a number, got 'x'"),
}


@pytest.mark.parametrize("kind, params, words", SCENARIO_RULES.values(), ids=SCENARIO_RULES.keys())
def test_run_refuses_a_built_scenario_that_breaks_a_scenario_rule(kind, params, words):
    with pytest.raises(ScenarioError, match=f"^{words}$"):
        Scenario(kind, params)


# One directly built scenario per shape rule -> the document with the same keys and values.
# The constructor checks both, so it refuses the scenario in the document's words.
SHAPE_RULES = {
    "die_unknown_query": ("die", ("sideways", None), {"query": "sideways"}),
    "die_north_with_joint": ("die", ("joint", 9), {"query": "joint", "north": 9}),
    "die_north_not_an_integer": (
        "die", ("conditional_north", 2.0), {"query": "conditional_north", "north": 2.0}),
    "chain_trials_not_an_integer": (
        "spin_chain", ((1.0,), 0, "3"), {"thetas": [1.0], "seed": 0, "trials": "3"}),
    "chain_theta_not_a_number": ("spin_chain", ((1.0, True), 0, 1), {"thetas": [1.0, True]}),
    "interval_unknown_family": (
        "interval", ("log", 0.0, 1.0, None, None), {"family": "log", "lower": 0.0, "upper": 1.0}),
    "interval_bound_not_finite": (
        "interval", ("translation", 0.0, math.inf, None, None),
        {"family": "translation", "lower": 0.0, "upper": math.inf}),
    "spin_state_not_a_pair": ("spin", (0.5, (1.0,)), {"theta": 0.5, "state": [1.0]}),
    "spin_amplitude_not_a_pair": (
        "spin", (0.5, ((1.0, 0.0, 0.0), 0.0)), {"theta": 0.5, "state": [[1.0, 0.0, 0.0], 0.0]}),
    "unknown_kind": ("dice", (), {}),
}


@pytest.mark.parametrize("kind, params, doc", SHAPE_RULES.values(), ids=SHAPE_RULES.keys())
def test_run_refuses_a_built_scenario_of_the_wrong_shape_as_parsing_does(kind, params, doc):
    with pytest.raises(ScenarioError) as parsed:
        scenario_from_dict({"kind": kind, **doc})
    with pytest.raises(ScenarioError, match=f"^{re.escape(str(parsed.value))}$"):
        Scenario(kind, params)


@pytest.mark.parametrize(
    "kind, params, words",
    [("die", ("joint", None, 5), "a die scenario has 2 params, got 3"),
     ("spin", (0.5,), "a spin scenario has 2 params, got 1")],
    ids=["extra", "short"],
)
def test_run_refuses_a_built_scenario_without_one_param_per_key(kind, params, words):
    with pytest.raises(ScenarioError, match=f"^{words}$"):
        Scenario(kind, params)


def test_a_scenario_of_an_unknown_kind_cannot_be_built():
    words = "unknown kind 'dice'; expected one of " + ", ".join(KINDS)
    with pytest.raises(ScenarioError, match=f"^{re.escape(words)}$"):
        Scenario("dice", ())


# The smallest valid document of each kind: only its required keys.
MINIMAL = {
    "coin": {},
    "die": {"query": "joint"},
    "interval": {"family": "translation", "lower": 0, "upper": 1},
    "von_mises": {"ratio_lower": 1, "ratio_upper": 2},
    "spin": {"theta": 0.5},
    "spin_chain": {"thetas": [0.5]},
}


@pytest.mark.parametrize("kind", KINDS)
def test_parse_and_run_agree_with_the_keys_by_position(kind):
    # params, keys and the parameters of the checker and of the runner are tied together by position alone.
    spec = KINDS[kind]
    keys = tuple(spec.options)
    assert tuple(inspect.signature(spec.check).parameters) == keys
    assert tuple(inspect.signature(spec.run).parameters) == keys
    params = spec.check(*map(MINIMAL[kind].get, keys))
    assert isinstance(params, tuple)
    assert len(params) == len(keys)
    assert Scenario(kind, params).params == params
    assert run(Scenario(kind, params)).kind == kind


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, spec in KINDS.items() for key in spec.options])
def test_a_null_value_is_refused_by_name(kind, key):
    # A Scenario reads None as an absent key, so parsing must not let a JSON null through as one.
    with pytest.raises(ScenarioError, match=f"^key {key!r} must not be null$"):
        parse_scenario(json.dumps({"kind": kind, **MINIMAL[kind], key: None}))


def test_parsing_any_kind_imports_no_kind_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    docs = [{"kind": kind, **doc} for kind, doc in MINIMAL.items()]
    docs.append({"kind": "spin", "theta": 0.5, "state": [[0.6, 0], [0, 0.8]]})
    code = (
        "import sys\nfrom groupmeasure.scenarios import scenario_from_dict\n"
        f"for doc in {docs!r}: scenario_from_dict(doc)\n"
        "watched = ('fractions', 'groupmeasure.actions', 'groupmeasure.tables', 'groupmeasure.haar', 'groupmeasure.spin')\n"
        "print(sorted(m for m in watched if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.splitlines()[-1] == "[]"


def test_spin_state_accepts_complex_pairs():
    s = parse_scenario('{"kind":"spin","theta":0.5,"state":[[0,1],0]}')
    assert s.params == (0.5, (1j, 0j))


def test_chain_validation():
    with pytest.raises(ScenarioError, match="thetas"):
        parse_scenario('{"kind":"spin_chain","thetas":0.1}')
    with pytest.raises(ScenarioError, match="at least one angle"):
        run(parse_scenario('{"kind":"spin_chain","thetas":[]}'))
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario('{"kind":"spin_chain","thetas":[0.1],"seed":-3}')
    with pytest.raises(ScenarioError, match="trials"):
        parse_scenario('{"kind":"spin_chain","thetas":[0.1],"trials":0}')
    with pytest.raises(ScenarioError, match="number"):
        parse_scenario('{"kind":"spin_chain","thetas":[0.1, true]}')


def test_a_chain_at_its_work_limit_is_admitted():
    for angles in (1, 32):
        doc = {"kind": "spin_chain", "thetas": [1.0] * angles, "trials": 100_000}
        assert scenario_from_dict(doc).params == ((1.0,) * angles, 0, 100_000)


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "doc",
    [
        '{"kind":"von_mises","ratio_lower":1,"ratio_upper":%s}' % HUGE,
        '{"kind":"spin","theta":0,"state":[%s,0]}' % HUGE,
        '{"kind":"spin","theta":0,"state":[[1,%s],0]}' % HUGE,
    ],
    ids=["ratio", "state_number", "state_pair"],
)
def test_oversized_integers_are_refused_as_not_finite(doc):
    with pytest.raises(ScenarioError, match="must be finite"):
        parse_scenario(doc)


# Document -> its canonical_json() text.  The text is pinned: a hash of it will identify a run.
CANONICAL = {
    '{"kind":"coin"}': '{"kind": "coin"}',
    '{"kind":"die","query":"conditional_north","north":2}':
        '{"kind": "die", "query": "conditional_north", "north": 2}',
    '{"kind":"interval","family":"scale","lower":1,"upper":2,"at":1.5,"quantile":0.5}':
        '{"kind": "interval", "family": "scale", "lower": 1.0, "upper": 2.0, "at": 1.5, "quantile": 0.5}',
    '{"kind":"von_mises","ratio_lower":1,"ratio_upper":2}':
        '{"kind": "von_mises", "ratio_lower": 1.0, "ratio_upper": 2.0}',
    '{"kind":"spin","theta":0.7,"state":[[0.6,0],[0,0.8]]}':
        '{"kind": "spin", "theta": 0.7, "state": [[0.6, 0.0], [0.0, 0.8]]}',
    '{"kind":"spin_chain","thetas":[1.5707963267948966,0],"seed":9,"trials":3}':
        '{"kind": "spin_chain", "thetas": [1.5707963267948966, 0.0], "seed": 9, "trials": 3}',
}


@pytest.mark.parametrize("doc", CANONICAL)
def test_canonical_form_round_trips(doc):
    canonical = CANONICAL[doc]
    first = parse_scenario(doc)
    assert len(first.params) == len(KINDS[first.kind].options)
    assert first.canonical_json() == canonical
    second = parse_scenario(canonical)
    assert first == second
    assert second.canonical_json() == canonical


def test_run_die_joint_is_uniform_over_24():
    report = run(parse_scenario('{"kind":"die","query":"joint"}'))
    assert len(report.outcomes.outcomes) == 24
    assert all(p == Fraction(1, 24) for _, p in report.outcomes.outcomes)


def test_run_die_conditional_north():
    report = run(parse_scenario('{"kind":"die","query":"conditional_north","north":5}'))
    assert len(report.outcomes.outcomes) == 4
    assert all(p == Fraction(1, 4) for _, p in report.outcomes.outcomes)
    assert all(label.endswith("north5") for label, _ in report.outcomes.outcomes)


def test_run_coin():
    report = run(parse_scenario('{"kind":"coin"}'))
    assert dict(report.outcomes.outcomes) == {
        "heads": Fraction(1, 2),
        "tails": Fraction(1, 2),
    }


def test_run_von_mises_summary():
    report = run(parse_scenario('{"kind":"von_mises","ratio_lower":1,"ratio_upper":2}'))
    summary = dict(report.summary)
    assert summary["support_lower"] == pytest.approx(0.5, abs=1e-15)
    assert summary["support_upper"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert summary["density"] == pytest.approx(6.0, abs=1e-12)
    assert summary["median"] == pytest.approx(7.0 / 12.0, abs=1e-12)
    assert report.columns == ("x", "density", "cdf")
    assert len(report.records) == 101


def test_run_interval_answers_queries():
    report = run(
        parse_scenario(
            '{"kind":"interval","family":"scale","lower":1,"upper":4,"at":2,"quantile":0.5}'
        )
    )
    summary = dict(report.summary)
    assert summary["cdf_at"] == pytest.approx(0.5, abs=1e-12)
    assert summary["quantile"] == pytest.approx(2.0, abs=1e-8)
    assert summary["density_form"] == "reciprocal"


def test_run_spin_at_pole_is_certain():
    report = run(parse_scenario('{"kind":"spin","theta":0}'))
    rows = {row[0]: row for row in report.records}
    assert rows[1][1] == pytest.approx(1.0, abs=1e-15)
    assert rows[-1][1] == pytest.approx(0.0, abs=1e-15)
    assert dict(report.summary)["eigenvalue_unit"] == "hbar/2"


def test_run_chain_single_trial_records_trajectory():
    report = run(parse_scenario('{"kind":"spin_chain","thetas":[0,0],"seed":4}'))
    assert len(report.records) == 2
    steps = [row[0] for row in report.records]
    outcomes = [row[2] for row in report.records]
    assert steps == [0, 1]
    assert outcomes == [1, 1]


def test_run_chain_many_trials_reports_frequency():
    report = run(
        parse_scenario('{"kind":"spin_chain","thetas":[1.5707963267948966],"seed":0,"trials":2000}')
    )
    summary = dict(report.summary)
    assert abs(summary["final_plus_frequency"] - 0.5) <= 4.0 * math.sqrt(0.25 / 2000)
    assert report.records[0][0] == 1
    assert report.records[0][1] + report.records[1][1] == 2000


def test_chains_at_signed_zero_angles_each_print_their_own_post_state():
    # -0.0 == 0.0, yet a -0.0 angle keeps its sign in the post-state.  Pairs, since a dict would merge them.
    header = "step,theta,outcome,probability,post_up_re,post_up_im,post_down_re,post_down_im\n"
    positive, negative = "0,0,1,1,1,0,0,0\n", "0,-0,1,1,1,0,-0,0\n"
    for theta, row in ((0.0, positive), (-0.0, negative), (0.0, positive), (-0.0, negative)):
        report = run(scenario_from_dict({"kind": "spin_chain", "thetas": [theta]}))
        assert render(report, "csv") == header + row


# (thetas, seed, trials) -> the +1 count, as the per-trial seed contract gives it.
EXACT_COUNTS = [
    ([1.5707963267948966, 0.0], 7, 20_000, 10_131),
    ([0.3, 1.1, 2.0, 2.9, 3.7, 4.4, 5.2, 6.0], 11, 2_000, 1_080),
    ([(0.37 * k * k) % (2.0 * math.pi) for k in range(32)], 123, 400, 187),
]


@pytest.mark.parametrize(
    "thetas, seed, trials, plus", EXACT_COUNTS, ids=["2_angles", "8_angles", "32_angles"]
)
def test_run_chain_gives_the_exact_count_of_its_seed(thetas, seed, trials, plus):
    doc = {"kind": "spin_chain", "thetas": thetas, "seed": seed, "trials": trials}
    report = run(scenario_from_dict(doc))
    assert report.records == ((1, plus, plus / trials), (-1, trials - plus, 1.0 - plus / trials))


def test_run_chain_builds_its_transition_table_once_per_run(monkeypatch):
    observable, calls = spin.observable, []
    monkeypatch.setattr(spin, "observable", lambda theta: calls.append(theta) or observable(theta))
    thetas = [0.3, 1.1, 2.0]
    run(scenario_from_dict({"kind": "spin_chain", "thetas": thetas, "seed": 5, "trials": 40}))
    assert calls == thetas


def test_a_chain_run_samples_once_per_trial_and_reads_each_table_row_once(monkeypatch):
    counts = {"sequential_chain": 0, "probabilities": 0}
    for name in counts:
        original = getattr(spin, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(spin, name, counted)
    thetas = [0.3, 1.1, 2.0, -0.7]
    run(scenario_from_dict({"kind": "spin_chain", "thetas": thetas, "seed": 5, "trials": 40}))
    assert counts == {"sequential_chain": 40, "probabilities": 1 + 2 * (len(thetas) - 1)}


@pytest.mark.parametrize("thetas, expected", [
    ([1.5707963267948966, 0.0], 0.5),
    ([0.3, 1.1, 2.0, -0.7], 0.3129759658539556),
    ([0.05 + 0.1 * k for k in range(32)], 0.9275616775415088),
], ids=["2_angles", "4_angles", "32_angles"])
def test_a_chain_reports_its_exact_final_plus_probability_and_z_score(thetas, expected):
    # The expected values are those of the closed recurrence p' = p c + (1 - p)(1 - c), c = cos^2(dtheta / 2).
    trials = 500
    doc = {"kind": "spin_chain", "thetas": thetas, "seed": 3, "trials": trials}
    summary = dict(run(scenario_from_dict(doc)).summary)
    p = summary["final_plus_expected"]
    assert p == pytest.approx(expected, abs=1e-15)
    z = (summary["final_plus_frequency"] * trials - trials * p) / math.sqrt(trials * p * (1.0 - p))
    assert summary["final_plus_z"] == pytest.approx(z, rel=1e-12)
    assert abs(summary["final_plus_z"]) < 5.0


def test_a_certain_chain_reports_z_0():
    summary = dict(run(scenario_from_dict({"kind": "spin_chain", "thetas": [0.0, 0.0], "trials": 30})).summary)
    assert (summary["final_plus_expected"], summary["final_plus_frequency"], summary["final_plus_z"]) == (1.0, 1.0, 0)


def test_run_attaches_scenario_context_to_module_errors():
    s = Scenario("von_mises", (1.0, -3.0))  # builds: the order of the ratios is von_mises_reduce's rule
    with pytest.raises(ScenarioError, match="von_mises scenario"):
        run(s)


def test_run_is_deterministic():
    doc = '{"kind":"spin_chain","thetas":[0.3,1.1,2.2],"seed":17,"trials":40}'
    a = run(parse_scenario(doc))
    b = run(parse_scenario(doc))
    assert a == b
