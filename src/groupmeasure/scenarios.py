"""Declarative scenario documents and their execution.

A scenario is one JSON object with a ``kind`` discriminator and
kind-specific keys.  Unknown keys are errors, not warnings, so typos in
fixtures fail loudly.  A ``Scenario`` checks every key rule once, when it
is built, whether from a document or in code, so ``run`` takes it as valid.
Running a scenario produces a Report: exact rational outcome tables for the
finite kinds, density summaries plus a plot grid for the interval kinds,
outcome probabilities and post-states for the spin kinds.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Any

from .record import Record

if TYPE_CHECKING:  # each kind imports the modules it runs on inside its own functions
    from . import haar, spin
    from .actions import GroupAction
    from .tables import ProbabilityTable

DIE_QUERIES = ("joint", "marginal_up", "conditional_north")
FAMILIES = ("translation", "scale")

GRID_POINTS = 101
CHAIN_MAX_TRIALS = 100_000  # a chain at either limit takes 1-2 s of CPU on a 2-vCPU host
CHAIN_MAX_STEPS = 3_200_000  # trials times angles


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


class Scenario(Record):
    """A checked scenario: its kind and the value of each of that kind's keys, in canonical order
    (``None`` for an absent optional key).  Immutable and hashable.  The constructor refuses an unknown
    kind, a params count that is not one per key, and any value the kind's checker refuses.  The checker
    reads each value in its JSON form (``_plain``), so a Scenario built in code is refused in the same words
    as the document it stands for; it stores the checker's canonical values.  The value rules that a
    library owns are left to run()."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[Any, ...]) -> None:
        spec = _spec(kind)
        if len(params) != len(spec.options):
            raise ScenarioError(f"a {kind} scenario has {len(spec.options)} params, got {len(params)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", spec.check(*map(_plain, params)))

    def canonical_json(self) -> str:
        """Canonical JSON form: kind first, then the set keys in order."""
        import json

        keys = KINDS[self.kind].options
        return json.dumps({"kind": self.kind, **{k: _plain(v) for k, v in zip(keys, self.params) if v is not None}})


def _plain(value: Any) -> Any:
    """JSON-ready value: tuples become lists, complex numbers [re, im] pairs, at any depth."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _required(value: Any, key: str) -> Any:
    if value is None:
        raise ScenarioError(f"missing required key {key!r}")
    return value


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
    """The entry of ``kind`` in KINDS."""
    spec = KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ScenarioError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    return spec


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Build the Scenario of a decoded scenario object.  Here only the object itself, its kind, unknown
    keys and null values are checked; ``Scenario`` checks the rest."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if "kind" not in doc:
        raise ScenarioError("missing required key 'kind'")
    keys = _spec(doc["kind"]).options
    unknown = set(doc) - set(keys) - {"kind"}
    if unknown:
        raise ScenarioError(f"unknown keys: {', '.join(sorted(repr(k) for k in unknown))}")
    for key in keys:  # a Scenario reads None as an absent key, so a null is refused here
        if key in doc and doc[key] is None:
            raise ScenarioError(f"key {key!r} must not be null")
    return Scenario(doc["kind"], tuple(map(doc.get, keys)))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    import json

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also an over-long integer or over-deep nesting
        raise ScenarioError(f"malformed scenario document: {err}") from err
    return scenario_from_dict(doc)


def run(s: Scenario) -> Report:
    """Execute a scenario deterministically; a library's ValueError becomes a ScenarioError naming the kind."""
    try:
        return KINDS[s.kind].run(*s.params)
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
    from .actions import coin_action, uniform_over_action

    action = coin_action()
    return Report(
        kind="coin",
        summary=(("group", action.group.label), ("group_order", action.group.n)),
        outcomes=uniform_over_action(action),
    )


def _check_die(query: Any, north: Any) -> tuple[str, int | None]:
    if _required(query, "query") not in DIE_QUERIES:
        raise ScenarioError(f"key 'query' must be one of {', '.join(DIE_QUERIES)}, got {query!r}")
    if query == "conditional_north":
        north = _integer(_required(north, "north"), "north")
        if north not in range(1, 7):
            raise ScenarioError(f"key 'north' must be a face value 1..6, got {north}")
    elif north is not None:
        raise ScenarioError("key 'north' is only valid for query 'conditional_north'")
    return query, north


def die_action() -> GroupAction:
    """``actions.die_action``, importing ``actions`` on the first call.  ``_run_die`` calls it by this
    module-level name, which perfbench wraps to time the first, cold call."""
    from . import actions

    return actions.die_action()


def _run_die(query: str, north: int | None) -> Report:
    from .actions import DieOrientation, all_orientations, uniform_over_action
    from .tables import condition, marginalize

    joint = uniform_over_action(die_action())
    summary: list[tuple[str, Any]] = [("query", query)]
    if query == "joint":
        table = joint
    elif query == "marginal_up":
        table = marginalize(joint, {o.label: f"up{o.up}" for o in all_orientations()})
    else:
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


def _check_interval(family: Any, lower: Any, upper: Any,
                    at: Any, quantile: Any) -> tuple[str, float, float, float | None, float | None]:
    if _required(family, "family") not in FAMILIES:
        raise ScenarioError(f"key 'family' must be one of {', '.join(FAMILIES)}, got {family!r}")
    lower, upper = (_number(_required(v, k), k) for k, v in (("lower", lower), ("upper", upper)))
    at, quantile = (None if v is None else _number(v, k) for k, v in (("at", at), ("quantile", quantile)))
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


def _check_von_mises(ratio_lower: Any, ratio_upper: Any) -> tuple[float, float]:
    return tuple(_number(_required(v, k), k) for k, v in (("ratio_lower", ratio_lower), ("ratio_upper", ratio_upper)))


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


def _check_spin(theta: Any, state: Any) -> tuple[float, tuple[complex, complex]]:
    theta = _number(_required(theta, "theta"), "theta")
    state = [1.0, 0.0] if state is None else state
    if not isinstance(state, list) or len(state) != 2:
        raise ScenarioError(f"key 'state' must be a two-component list, got {state!r}")
    return theta, (_amplitude(state[0], "state"), _amplitude(state[1], "state"))


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


def _check_spin_chain(thetas: Any, seed: Any, trials: Any) -> tuple[tuple[float, ...], int, int]:
    if not isinstance(_required(thetas, "thetas"), list):
        raise ScenarioError(f"key 'thetas' must be a list, got {thetas!r}")
    thetas = tuple(_number(t, "thetas") for t in thetas)
    seed = _integer(0 if seed is None else seed, "seed")
    if seed < 0:
        raise ScenarioError(f"key 'seed' must be nonnegative, got {seed}")
    trials = _integer(1 if trials is None else trials, "trials")
    if trials < 1:
        raise ScenarioError(f"key 'trials' must be at least 1, got {trials}")
    limit = min(CHAIN_MAX_TRIALS, CHAIN_MAX_STEPS // max(len(thetas), 1))
    if trials > limit:
        raise ScenarioError(f"key 'trials' must be at most {limit} over {len(thetas)} angle(s), got {trials}")
    return thetas, seed, trials


def _run_spin_chain(thetas: tuple[float, ...], seed: int, trials: int) -> Report:
    from . import spin

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


# One scenario kind, declared once.  ``options`` maps each key, in canonical order, to the argparse keywords of
# its option ``--key-with-dashes`` on the subcommand ``command``.  ``check`` takes one value per key in its JSON
# form, ``None`` for an absent one, refuses any that breaks a key rule and returns the canonical values, whose
# JSON form it accepts in turn; ``run`` takes those.  Both name their parameters after the keys.
_KindSpec = namedtuple("_KindSpec", "command help options check run")

KINDS: dict[str, _KindSpec] = {
    "coin": _KindSpec("coin", "two-sided coin at rest: equal counting measure", {}, lambda: (), _run_coin),
    "die": _KindSpec("die", "die orientations: joint, marginal, conditional tables", {
        "query": dict(choices=DIE_QUERIES, default="joint"),
        "north": dict(type=int, help="north face for conditional_north"),
    }, _check_die, _run_die),
    "interval": _KindSpec("prior", "invariant density on an observation interval", {
        "family": dict(choices=FAMILIES, required=True),
        "lower": dict(type=float, required=True), "upper": dict(type=float, required=True),
        "at": dict(type=float, help="evaluate density and cdf here"),
        "quantile": dict(type=float, help="quantile level in [0, 1]"),
    }, _check_interval, _run_interval),
    "von_mises": _KindSpec("von-mises", "water/wine mixture fraction density", {
        "ratio_lower": dict(type=float, required=True), "ratio_upper": dict(type=float, required=True),
    }, _check_von_mises, _run_von_mises),
    "spin": _KindSpec("spin", "spin-1/2 measurement probabilities at angle theta", {
        "theta": dict(type=float, required=True, help="angle from +z in radians"),
        "state": dict(type=float, nargs=2, metavar=("UP", "DOWN"), help="real prepared amplitudes (default 1 0)"),
    }, _check_spin, _run_spin),
    "spin_chain": _KindSpec("chain", "sequential spin measurements", {
        "thetas": dict(required=True, help="comma-separated angles in radians"),
        "seed": dict(type=int), "trials": dict(type=int),
    }, _check_spin_chain, _run_spin_chain),
}
