"""Workload spin_chains: in-process ``scenarios.run`` on ``spin_chain`` documents.

Each op parses and runs one chain document of 2 to 32 angles and a few
hundred to a few thousand trials.  The answer, ``final_plus_frequency``,
is checked against the exact probability of a final +1 from the 2-state
Markov chain the measurements form (after a measurement the state is an
eigenvector, so the next outcome depends only on the angle difference),
within a binomial bound.  The check never pins a seed-specific count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from benchcore import stratified

NAME = "spin_chains"
DEADLINE_S = 10.0
HEAD_OPS = 2

# Allowed distance of the +1 count from its expectation: Z_BOUND binomial
# standard deviations plus a few counts of slack for probabilities near 0 or 1.
Z_BOUND = 6.0
SLACK_COUNTS = 3.0

# (angles, trials) strata of one cycle, about 600 to 12800 measurement steps.
# The 5th and 6th of 10 are both 6000-step ops and the 9th and 10th both
# 12800-step ops, so the median and the 90th percentile each fall inside a
# stratum rather than on a boundary between two.
STRATA = (
    (2, 300), (4, 200), (8, 150),
    (2, 3000), (4, 1500), (8, 750), (12, 500),
    (16, 500), (32, 400), (32, 400),
)
TRIAL_BUCKETS = ("lt1000", "ge1000")

LAYER_METRICS = {
    "spin.trials_per_s": "1/s",
    "spin.sequential_chain_us": "us",
    "spin.probabilities_us": "us",
    "spin.eigensystem_calls_per_step": "count",
    "spin.chain_max_z": "z",
    **{f"scenarios.run_chain_ms.{b}": "ms" for b in TRIAL_BUCKETS},
}


@dataclass(frozen=True)
class ChainOp:
    thetas: tuple[float, ...]
    seed: int
    trials: int

    @property
    def bucket(self) -> str:
        return "lt1000" if self.trials < 1000 else "ge1000"

    def document(self) -> dict:
        return {"kind": "spin_chain", "thetas": list(self.thetas), "seed": self.seed, "trials": self.trials}


def _op(rng, angles: int, trials: int) -> ChainOp:
    thetas = tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(angles))
    return ChainOp(thetas, rng.randrange(2**31), round(trials * rng.uniform(0.9, 1.1)))


def ops(seed: int):
    return stratified(
        seed,
        lambda rng: [_op(rng, *STRATA[0]), _op(rng, *STRATA[3])],
        lambda rng: [_op(rng, *s) for s in STRATA],
    )


def setup() -> None:
    from groupmeasure import scenarios  # noqa: F401


def run_op(op: ChainOp, tracer):
    from groupmeasure import scenarios

    scenario = scenarios.scenario_from_dict(op.document())
    report = tracer.call(f"scenarios.run_chain.{op.bucket}", scenarios.run, scenario)
    tracer.count("spin.trials", op.trials)
    tracer.count("spin.steps", op.trials * len(op.thetas))
    return dict(report.summary)["final_plus_frequency"]


def final_plus_probability(thetas: tuple[float, ...]) -> float:
    """Exact P(last outcome is +1) for a chain started in spin-up (the + state at angle 0)."""
    p_plus, previous = 1.0, 0.0
    for theta in thetas:
        stay = math.cos(0.5 * (theta - previous)) ** 2
        p_plus = p_plus * stay + (1.0 - p_plus) * (1.0 - stay)
        previous = theta
    return p_plus


def check(op: ChainOp, frequency: float) -> tuple[bool, float]:
    """z-score of the observed +1 count; passes within Z_BOUND sigma plus SLACK_COUNTS."""
    p = final_plus_probability(op.thetas)
    n = op.trials
    sigma = math.sqrt(n * p * (1.0 - p))
    excess = abs(frequency * n - n * p)
    z = excess / sigma if sigma > 0 else (0.0 if excess < 0.5 else math.inf)
    return excess <= Z_BOUND * sigma + SLACK_COUNTS, z


def trace_hooks(tracer) -> None:
    """Wrap the spin module's public names; the library's own calls go through them."""
    from groupmeasure import spin

    tracer.wrap(spin, "sequential_chain", "spin.sequential_chain")
    tracer.wrap(spin, "probabilities", "spin.probabilities")
    tracer.wrap(spin, "eigensystem", "spin.eigensystem", timed=False)


def layer_metrics(tracer, records) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    run_s = sum(tracer.spans.get(f"scenarios.run_chain.{b}", (0, 0.0))[1] for b in TRIAL_BUCKETS)
    out["spin.trials_per_s"] = tracer.counts["spin.trials"] / run_s if run_s else None
    for name in ("spin.sequential_chain", "spin.probabilities"):
        mean = tracer.mean(name)
        out[f"{name}_us"] = None if mean is None else mean * 1e6
    steps = tracer.counts["spin.steps"]
    out["spin.eigensystem_calls_per_step"] = tracer.counts["spin.eigensystem"] / steps if steps else None
    out["spin.chain_max_z"] = max((r.deviation for r in records if r.status in ("ok", "wrong")), default=None)
    for b in TRIAL_BUCKETS:
        mean = tracer.mean(f"scenarios.run_chain.{b}")
        out[f"scenarios.run_chain_ms.{b}"] = None if mean is None else mean * 1e3
    return out
