"""Declarative scenario documents and their execution.

A scenario is one JSON object with a ``kind`` discriminator and
kind-specific keys.  Unknown keys are errors, not warnings, so typos in
fixtures fail loudly.  Running a scenario produces a Report: exact
rational outcome tables for the finite kinds, density summaries plus a
plot grid for the interval kinds, outcome probabilities and post-states
for the spin kinds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from . import haar, spin
from .actions import DieOrientation, all_orientations, coin_action, die_action, uniform_over_action
from .tables import ProbabilityTable, condition, marginalize

# Every scenario kind with its keys in canonical order.  The unknown-key check,
# the canonical form and the CLI's argument mapping all read this table.
KIND_KEYS: dict[str, tuple[str, ...]] = {
    "coin": (),
    "die": ("query", "north"),
    "interval": ("family", "lower", "upper", "at", "quantile"),
    "von_mises": ("ratio_lower", "ratio_upper"),
    "spin": ("theta", "state"),
    "spin_chain": ("thetas", "seed", "trials"),
}
KINDS = tuple(KIND_KEYS)
DIE_QUERIES = ("joint", "marginal_up", "conditional_north")
FAMILIES = ("translation", "scale")

GRID_POINTS = 101


class ScenarioError(ValueError):
    """Malformed or invalid scenario document."""


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; only the fields named in KIND_KEYS for its kind are meaningful."""

    kind: str
    query: str | None = None
    north: int | None = None
    family: str | None = None
    lower: float | None = None
    upper: float | None = None
    at: float | None = None
    quantile: float | None = None
    ratio_lower: float | None = None
    ratio_upper: float | None = None
    theta: float | None = None
    state: tuple[complex, complex] = (1.0 + 0.0j, 0.0j)
    thetas: tuple[float, ...] | None = None
    seed: int = 0
    trials: int = 1

    def canonical_dict(self) -> dict[str, Any]:
        """Canonical JSON form: kind first, then the kind's set keys in KIND_KEYS order."""
        doc: dict[str, Any] = {"kind": self.kind}
        for key in KIND_KEYS[self.kind]:
            value = getattr(self, key)
            if value is not None:
                doc[key] = _plain(value)
        return doc

    def canonical_json(self) -> str:
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
    x = float(value)
    if not math.isfinite(x):
        raise ScenarioError(f"key {key!r} must be finite, got {value!r}")
    return x

def _integer(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"key {key!r} must be an integer, got {value!r}")
    return value


def _amplitude(value: Any, key: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], key), _number(value[1], key))
    raise ScenarioError(f"key {key!r} entries must be numbers or [re, im] pairs, got {value!r}")


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Validate a decoded scenario object; unknown keys and bad parameters are errors."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ScenarioError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    unknown = set(doc) - set(KIND_KEYS[kind]) - {"kind"}
    if unknown:
        raise ScenarioError(f"unknown keys: {', '.join(sorted(repr(k) for k in unknown))}")

    if kind == "coin":
        return Scenario(kind="coin")

    if kind == "die":
        query = _require(doc, "query")
        if query not in DIE_QUERIES:
            raise ScenarioError(f"key 'query' must be one of {', '.join(DIE_QUERIES)}, got {query!r}")
        north = None
        if query == "conditional_north":
            north = _integer(_require(doc, "north"), "north")
            if not 1 <= north <= 6:
                raise ScenarioError(f"key 'north' must be a face value 1..6, got {north}")
        elif "north" in doc:
            raise ScenarioError("key 'north' is only valid for query 'conditional_north'")
        return Scenario(kind="die", query=query, north=north)

    if kind == "interval":
        family = _require(doc, "family")
        if family not in FAMILIES:
            raise ScenarioError(f"key 'family' must be one of {', '.join(FAMILIES)}, got {family!r}")
        lower = _number(_require(doc, "lower"), "lower")
        upper = _number(_require(doc, "upper"), "upper")
        if not lower < upper:
            raise ScenarioError(f"key 'lower' must be below 'upper', got [{lower}, {upper}]")
        if family == "scale" and lower <= 0:
            raise ScenarioError(f"key 'lower' must be positive for the scale family, got {lower}")
        at = _number(doc["at"], "at") if "at" in doc else None
        quantile = _number(doc["quantile"], "quantile") if "quantile" in doc else None
        if quantile is not None and not 0.0 <= quantile <= 1.0:
            raise ScenarioError(f"key 'quantile' must lie in [0, 1], got {quantile}")
        return Scenario(kind="interval", family=family, lower=lower, upper=upper, at=at, quantile=quantile)

    if kind == "von_mises":
        lo = _number(_require(doc, "ratio_lower"), "ratio_lower")
        hi = _number(_require(doc, "ratio_upper"), "ratio_upper")
        if not 0 < lo < hi:
            raise ScenarioError(f"need 0 < ratio_lower < ratio_upper, got [{lo}, {hi}]")
        return Scenario(kind="von_mises", ratio_lower=lo, ratio_upper=hi)

    if kind == "spin":
        theta = _number(_require(doc, "theta"), "theta")
        if "state" not in doc:
            return Scenario(kind="spin", theta=theta)
        raw = doc["state"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ScenarioError(f"key 'state' must be a two-component list, got {raw!r}")
        state = (_amplitude(raw[0], "state"), _amplitude(raw[1], "state"))
        try:
            spin.SpinRay(*state)
        except ValueError as err:
            raise ScenarioError(f"key 'state': {err}") from err
        return Scenario(kind="spin", theta=theta, state=state)

    # spin_chain
    raw_thetas = _require(doc, "thetas")
    if not isinstance(raw_thetas, list) or not raw_thetas:
        raise ScenarioError(f"key 'thetas' must be a nonempty list, got {raw_thetas!r}")
    thetas = tuple(_number(t, "thetas") for t in raw_thetas)
    seed = _integer(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ScenarioError(f"key 'seed' must be nonnegative, got {seed}")
    trials = _integer(doc.get("trials", 1), "trials")
    if trials < 1:
        raise ScenarioError(f"key 'trials' must be at least 1, got {trials}")
    return Scenario(kind="spin_chain", thetas=thetas, seed=seed, trials=trials)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"malformed scenario document: {err}") from err
    return scenario_from_dict(doc)


@dataclass(frozen=True)
class Report:
    """Result of running a scenario, ready for rendering in any output format."""

    kind: str
    summary: tuple[tuple[str, Any], ...]
    outcomes: ProbabilityTable | None = None
    columns: tuple[str, ...] = ()
    records: tuple[tuple[Any, ...], ...] = ()


def _die_joint() -> ProbabilityTable:
    return uniform_over_action(die_action())


def _die_marginal_up() -> ProbabilityTable:
    projection = {o.label: f"up{o.up}" for o in all_orientations()}
    return marginalize(_die_joint(), projection)


def _die_conditional_north(north: int) -> ProbabilityTable:
    return condition(_die_joint(), lambda label: DieOrientation.from_label(label).north == north)


def _density_report(
    kind: str, summary: list[tuple[str, Any]], d: haar.NormalizedDensity, extra: list[tuple[str, Any]]
) -> Report:
    """Summary, the density's support and normalizer, then ``extra``; a plot grid of density and cdf."""
    summary = summary + [
        ("support_lower", d.support.lower),
        ("support_upper", d.support.upper),
        ("density_form", d.form),
        ("normalizer", d.normalizer),
    ] + extra
    step = d.support.width / (GRID_POINTS - 1)
    grid = []
    for i in range(GRID_POINTS):
        x = d.support.lower + i * step if i < GRID_POINTS - 1 else d.support.upper
        grid.append((x, d.density_at(x), d.cdf(x)))
    return Report(
        kind=kind,
        summary=tuple(summary),
        columns=("x", "density", "cdf"),
        records=tuple(grid),
    )


def run(s: Scenario) -> Report:
    """Execute a scenario deterministically; module errors gain scenario context."""
    try:
        return _run(s)
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(f"{s.kind} scenario failed: {err}") from err


def _run(s: Scenario) -> Report:
    if s.kind == "coin":
        action = coin_action()
        return Report(
            kind="coin",
            summary=(("group", action.group.label), ("group_order", action.group.n)),
            outcomes=uniform_over_action(action),
        )

    if s.kind == "die":
        summary: list[tuple[str, Any]] = [("query", s.query)]
        if s.query == "joint":
            table = _die_joint()
        elif s.query == "marginal_up":
            table = _die_marginal_up()
        else:
            summary.append(("north", s.north))
            table = _die_conditional_north(s.north)
        return Report(kind="die", summary=tuple(summary), outcomes=table)

    if s.kind == "interval":
        family = haar.translation_family() if s.family == "translation" else haar.scale_family()
        d = haar.normalize(family, haar.IntervalConstraint(s.lower, s.upper))
        extra: list[tuple[str, Any]] = []
        if s.at is not None:
            extra += [("at", s.at), ("density_at", d.density_at(s.at)), ("cdf_at", d.cdf(s.at))]
        if s.quantile is not None:
            extra += [("quantile_level", s.quantile), ("quantile", d.quantile(s.quantile))]
        return _density_report("interval", [("family", s.family)], d, extra)

    if s.kind == "von_mises":
        d = haar.von_mises_reduce(haar.VonMisesScenario(s.ratio_lower, s.ratio_upper))
        summary = [("ratio_lower", s.ratio_lower), ("ratio_upper", s.ratio_upper)]
        extra = [
            ("density", d.density_at(0.5 * (d.support.lower + d.support.upper))),
            ("median", d.quantile(0.5)),
        ]
        return _density_report("von_mises", summary, d, extra)

    if s.kind == "spin":
        ray = spin.SpinRay(*s.state)
        obs = spin.observable(s.theta)
        pairs = spin.eigensystem(obs)
        probs = spin.probabilities(ray, obs)
        records = tuple(
            (
                eigenvalue,
                p,
                vector.up.real,
                vector.up.imag,
                vector.down.real,
                vector.down.imag,
            )
            for (eigenvalue, vector), p in zip(pairs, probs)
        )
        return Report(
            kind="spin",
            summary=(("theta", s.theta), ("eigenvalue_unit", spin.EIGENVALUE_UNIT)),
            columns=("eigenvalue", "probability", "post_up_re", "post_up_im", "post_down_re", "post_down_im"),
            records=records,
        )

    # spin_chain
    if s.trials == 1:
        trajectory = spin.sequential_chain(spin.SPIN_UP, list(s.thetas), s.seed)
        records = tuple(
            (
                step,
                theta,
                outcome.eigenvalue,
                outcome.probability,
                outcome.post_state.up.real,
                outcome.post_state.up.imag,
                outcome.post_state.down.real,
                outcome.post_state.down.imag,
            )
            for step, (theta, outcome) in enumerate(zip(s.thetas, trajectory))
        )
        return Report(
            kind="spin_chain",
            summary=(
                ("seed", s.seed),
                ("trials", 1),
                ("eigenvalue_unit", spin.EIGENVALUE_UNIT),
            ),
            columns=(
                "step", "theta", "outcome", "probability",
                "post_up_re", "post_up_im", "post_down_re", "post_down_im",
            ),
            records=records,
        )
    plus = 0
    for i in range(s.trials):
        final = spin.sequential_chain(spin.SPIN_UP, list(s.thetas), s.seed + i)[-1]
        if final.eigenvalue == 1:
            plus += 1
    frequency = plus / s.trials
    return Report(
        kind="spin_chain",
        summary=(
            ("seed", s.seed),
            ("trials", s.trials),
            ("final_plus_frequency", frequency),
            ("eigenvalue_unit", spin.EIGENVALUE_UNIT),
        ),
        columns=("eigenvalue", "count", "frequency"),
        records=((1, plus, frequency), (-1, s.trials - plus, 1.0 - frequency)),
    )
