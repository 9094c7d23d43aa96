"""Declarative scenario documents and their execution.

A scenario is one JSON object with a ``kind`` discriminator and
kind-specific keys.  Unknown keys are errors, not warnings, so typos in
fixtures fail loudly.  Running a scenario produces a Report: exact
rational outcome tables for the finite kinds, density summaries plus a
plot grid for the interval kinds, outcome probabilities and post-states
for the spin kinds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from .actions import DieOrientation, all_orientations, coin_action, die_action, uniform_over_action
from .record import Record
from .tables import ProbabilityTable, condition, marginalize

if TYPE_CHECKING:  # each kind imports the module it runs on inside its own functions
    from . import haar, spin

DIE_QUERIES = ("joint", "marginal_up", "conditional_north")
FAMILIES = ("translation", "scale")

GRID_POINTS = 101


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


class Scenario(Record):
    """A parsed scenario: its kind and the value of each of that kind's keys, in canonical order
    (``None`` for an absent optional key).  Immutable and hashable."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[Any, ...]) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(params))

    def canonical_dict(self) -> dict[str, Any]:
        """Canonical JSON form: kind first, then the kind's set keys in canonical order."""
        keys, _, _ = KINDS[self.kind]
        return {"kind": self.kind, **{k: _plain(v) for k, v in zip(keys, self.params) if v is not None}}

    def canonical_json(self) -> str:
        import json

        return json.dumps(self.canonical_dict())


def _plain(value: Any) -> Any:
    """JSON-ready value: tuples become lists, complex numbers [re, im] pairs."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _require(doc: dict, key: str) -> Any:
    if key not in doc:
        raise ScenarioError(f"missing required key {key!r}")
    return doc[key]

def _number(value: Any, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"key {key!r} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"key {key!r} must be finite, got {value!r}")
    return x

def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _amplitude(value: Any, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, key))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], key), _number(value[1], key))
    raise ScenarioError(f"key {key!r} entries must be numbers or [re, im] pairs, got {value!r}")


def _spec(kind: Any) -> _KindSpec:
    """The (keys, parse, run) entry of ``kind`` in KINDS."""
    spec = KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ScenarioError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    return spec


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Check a decoded scenario object's shape: its keys, their JSON types and enum values.
    Every value rule (a face value, ordered bounds, a normalized state) is left to run()."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    kind = _require(doc, "kind")
    keys, parse, _ = _spec(kind)
    unknown = set(doc) - set(keys) - {"kind"}
    if unknown:
        raise ScenarioError(f"unknown keys: {', '.join(sorted(repr(k) for k in unknown))}")
    return Scenario(kind, parse(doc))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also an over-long integer or over-deep nesting
        raise ScenarioError(f"malformed scenario document: {err}") from err
    return scenario_from_dict(doc)


def run(s: Scenario) -> Report:
    """Execute a scenario deterministically; a library's ValueError becomes a ScenarioError naming the kind.

    The params are first checked by the kind's parser, through the canonical form, so a ``Scenario``
    built in code meets the same shape rules, in the same words, as a parsed document."""
    keys, parse, runner = _spec(s.kind)
    if len(s.params) != len(keys):
        raise ScenarioError(f"a {s.kind} scenario has {len(keys)} params, got {len(s.params)}")
    params = parse(s.canonical_dict())
    try:
        return runner(*params)
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(f"{s.kind} scenario failed: {err}") from err


class Report(Record):
    """Result of running a scenario, ready for rendering in any output format."""

    __slots__ = ("kind", "summary", "outcomes", "columns", "records")

    def __init__(self, kind: str, summary: tuple[tuple[str, Any], ...], outcomes: ProbabilityTable | None = None,
                 columns: tuple[str, ...] = (), records: tuple[tuple[Any, ...], ...] = ()) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "records", records)


def _run_coin() -> Report:
    action = coin_action()
    return Report(
        kind="coin",
        summary=(("group", action.group.label), ("group_order", action.group.n)),
        outcomes=uniform_over_action(action),
    )


def _parse_die(doc: dict[str, Any]) -> tuple[str, int | None]:
    query = _require(doc, "query")
    if query not in DIE_QUERIES:
        raise ScenarioError(f"key 'query' must be one of {', '.join(DIE_QUERIES)}, got {query!r}")
    north = None
    if query == "conditional_north":
        north = _integer(_require(doc, "north"), "north")
    elif "north" in doc:
        raise ScenarioError("key 'north' is only valid for query 'conditional_north'")
    return query, north


def _run_die(query: str, north: int | None) -> Report:
    joint = uniform_over_action(die_action())
    summary: list[tuple[str, Any]] = [("query", query)]
    if query == "joint":
        table = joint
    elif query == "marginal_up":
        table = marginalize(joint, {o.label: f"up{o.up}" for o in all_orientations()})
    else:
        if north not in range(1, 7):
            raise ScenarioError(f"key 'north' must be a face value 1..6, got {north}")
        summary.append(("north", north))
        table = condition(joint, lambda label: DieOrientation.from_label(label).north == north)
    return Report(kind="die", summary=tuple(summary), outcomes=table)


def _density_report(
    kind: str, summary: list[tuple[str, Any]], d: haar.NormalizedDensity, extra: list[tuple[str, Any]]
) -> Report:
    """Summary, the density's support and normalizer, then ``extra``; density and cdf at equal cdf steps."""
    summary = summary + [
        ("support_lower", d.support.lower),
        ("support_upper", d.support.upper),
        ("density_form", d.form),
        ("normalizer", d.normalizer),
    ] + extra
    xs = [d.quantile(i / (GRID_POINTS - 1)) for i in range(GRID_POINTS)]
    return Report(
        kind=kind,
        summary=tuple(summary),
        columns=("x", "density", "cdf"),
        records=tuple((x, d.density_at(x), d.cdf(x)) for x in xs),
    )


def _parse_interval(doc: dict[str, Any]) -> tuple[str, float, float, float | None, float | None]:
    family = _require(doc, "family")
    if family not in FAMILIES:
        raise ScenarioError(f"key 'family' must be one of {', '.join(FAMILIES)}, got {family!r}")
    lower, upper = (_number(_require(doc, key), key) for key in ("lower", "upper"))
    at, quantile = (_number(doc[key], key) if key in doc else None for key in ("at", "quantile"))
    return family, lower, upper, at, quantile


def _run_interval(family: str, lower: float, upper: float,
                  at: float | None, quantile: float | None) -> Report:
    from . import haar

    group = haar.translation_family() if family == "translation" else haar.scale_family()
    d = haar.normalize(group, haar.IntervalConstraint(lower, upper))
    extra: list[tuple[str, Any]] = []
    if at is not None:
        extra += [("at", at), ("density_at", d.density_at(at)), ("cdf_at", d.cdf(at))]
    if quantile is not None:
        extra += [("quantile_level", quantile), ("quantile", d.quantile(quantile))]
    return _density_report("interval", [("family", family)], d, extra)


def _parse_von_mises(doc: dict[str, Any]) -> tuple[float, float]:
    return tuple(_number(_require(doc, key), key) for key in ("ratio_lower", "ratio_upper"))


def _run_von_mises(ratio_lower: float, ratio_upper: float) -> Report:
    from . import haar

    d = haar.von_mises_reduce(ratio_lower, ratio_upper)
    summary = [("ratio_lower", ratio_lower), ("ratio_upper", ratio_upper)]
    extra = [
        ("density", d.density_at(0.5 * (d.support.lower + d.support.upper))),
        ("median", d.quantile(0.5)),
    ]
    return _density_report("von_mises", summary, d, extra)


_POST_COLUMNS = ("post_up_re", "post_up_im", "post_down_re", "post_down_im")


def _post_cells(ray: spin.SpinRay) -> tuple[float, float, float, float]:
    return ray.up.real, ray.up.imag, ray.down.real, ray.down.imag


def _parse_spin(doc: dict[str, Any]) -> tuple[float, tuple[complex, complex]]:
    theta = _number(_require(doc, "theta"), "theta")
    raw = doc.get("state", [1.0, 0.0])
    if not isinstance(raw, list) or len(raw) != 2:
        raise ScenarioError(f"key 'state' must be a two-component list, got {raw!r}")
    return theta, (_amplitude(raw[0], "state"), _amplitude(raw[1], "state"))


def _run_spin(theta: float, state: tuple[complex, complex]) -> Report:
    from . import spin

    obs = spin.observable(theta)
    pairs = spin.eigensystem(obs)
    probs = spin.probabilities(spin.SpinRay(*state), obs)
    return Report(
        kind="spin",
        summary=(("theta", theta), ("eigenvalue_unit", spin.EIGENVALUE_UNIT)),
        columns=("eigenvalue", "probability", *_POST_COLUMNS),
        records=tuple((eigenvalue, p, *_post_cells(v)) for (eigenvalue, v), p in zip(pairs, probs)),
    )


def _parse_spin_chain(doc: dict[str, Any]) -> tuple[tuple[float, ...], int, int]:
    raw_thetas = _require(doc, "thetas")
    if not isinstance(raw_thetas, list):
        raise ScenarioError(f"key 'thetas' must be a list, got {raw_thetas!r}")
    thetas = tuple(_number(t, "thetas") for t in raw_thetas)
    return thetas, _integer(doc.get("seed", 0), "seed"), _integer(doc.get("trials", 1), "trials")


def _run_spin_chain(thetas: tuple[float, ...], seed: int, trials: int) -> Report:
    from . import spin

    if seed < 0:
        raise ScenarioError(f"key 'seed' must be nonnegative, got {seed}")
    if trials < 1:
        raise ScenarioError(f"key 'trials' must be at least 1, got {trials}")
    table = spin.transition_table(spin.SPIN_UP, thetas)
    if trials == 1:
        trajectory = spin.sequential_chain(table, seed)
        return Report(
            kind="spin_chain",
            summary=(("seed", seed), ("trials", 1), ("eigenvalue_unit", spin.EIGENVALUE_UNIT)),
            columns=("step", "theta", "outcome", "probability", *_POST_COLUMNS),
            records=tuple(
                (step, theta, outcome.eigenvalue, outcome.probability, *_post_cells(outcome.post_state))
                for step, (theta, outcome) in enumerate(zip(thetas, trajectory))
            ),
        )
    finals = (spin.sequential_chain(table, seed + i)[-1] for i in range(trials))
    plus = sum(final.eigenvalue == 1 for final in finals)
    frequency = plus / trials
    return Report(
        kind="spin_chain",
        summary=(
            ("seed", seed),
            ("trials", trials),
            ("final_plus_frequency", frequency),
            ("eigenvalue_unit", spin.EIGENVALUE_UNIT),
        ),
        columns=("eigenvalue", "count", "frequency"),
        records=((1, plus, frequency), (-1, trials - plus, 1.0 - frequency)),
    )


# Every scenario kind, declared once, as (keys, parse, run).  ``keys`` are in canonical order;
# ``parse(doc)`` checks a document's shape and returns one value per key, in that order;
# ``run(*params)`` takes the same values as positional parameters named after the keys.
# The unknown-key check, the canonical form, run() and the CLI's argument mapping all read this table.
_KindSpec = tuple[tuple[str, ...], Callable[[dict[str, Any]], tuple[Any, ...]], Callable[..., Report]]
KINDS: dict[str, _KindSpec] = {
    "coin": ((), lambda doc: (), _run_coin),
    "die": (("query", "north"), _parse_die, _run_die),
    "interval": (("family", "lower", "upper", "at", "quantile"), _parse_interval, _run_interval),
    "von_mises": (("ratio_lower", "ratio_upper"), _parse_von_mises, _run_von_mises),
    "spin": (("theta", "state"), _parse_spin, _run_spin),
    "spin_chain": (("thetas", "seed", "trials"), _parse_spin_chain, _run_spin_chain),
}
