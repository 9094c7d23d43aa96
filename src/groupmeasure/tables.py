"""Exact-rational probability tables: marginalization, conditioning, factorization.

All arithmetic is done with ``fractions.Fraction`` so the finite-group
results are bit-exact; no floating point enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping


@dataclass(frozen=True)
class ProbabilityTable:
    """Ordered (label, probability) outcomes; probabilities sum to exactly 1."""

    outcomes: tuple[tuple[str, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("probability table must have at least one outcome")
        seen = set()
        total = Fraction(0)
        for label, p in self.outcomes:
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)
            if p < 0:
                raise ValueError(f"negative probability {p} for outcome {label!r}")
            total += p
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def probability(self, label: str) -> Fraction:
        for lbl, p in self.outcomes:
            if lbl == label:
                return p
        raise ValueError(f"no outcome labelled {label!r}")


def uniform_table(labels: tuple[str, ...] | list[str]) -> ProbabilityTable:
    """Equal exact weight 1/len(labels) on every label."""
    n = len(labels)
    share = Fraction(1, n)
    return ProbabilityTable(tuple((label, share) for label in labels))


def marginalize(t: ProbabilityTable, projection: Mapping[str, str]) -> ProbabilityTable:
    """Coarse-grain by summing probabilities over the preimages of ``projection``.

    Coarse labels keep first-appearance order so output is deterministic.
    """
    sums: dict[str, Fraction] = {}
    for label, p in t.outcomes:
        if label not in projection:
            raise ValueError(f"projection undefined on outcome label {label!r}")
        coarse = projection[label]
        sums[coarse] = sums.get(coarse, Fraction(0)) + p
    return ProbabilityTable(tuple(sums.items()))


def condition(t: ProbabilityTable, predicate: Callable[[str], bool]) -> ProbabilityTable:
    """Drop outcomes failing ``predicate`` and renormalize exactly."""
    kept = [(label, p) for label, p in t.outcomes if predicate(label)]
    if not kept:
        raise ValueError("conditioning selects no outcomes")
    total = sum(p for _, p in kept)
    if total == 0:
        raise ValueError("conditioning selects only zero-probability outcomes")
    return ProbabilityTable(tuple((label, p / total) for label, p in kept))


def bayes_factorization_check(
    joint: ProbabilityTable,
    marginal: ProbabilityTable,
    conditionals: Mapping[str, ProbabilityTable],
    split: Callable[[str], tuple[str, str]],
) -> Fraction:
    """Max over joint outcomes of |joint - marginal * conditional|, in exact rationals.

    ``split`` maps a joint outcome label to its (coarse, fine) pair; the coarse
    part indexes ``marginal`` and ``conditionals``, the fine part indexes the
    selected conditional table.  Returns 0 iff the factorization is exact.
    """
    marginal_probs = dict(marginal.outcomes)
    worst = Fraction(0)
    for label, p in joint.outcomes:
        coarse, fine = split(label)
        if coarse not in marginal_probs:
            raise ValueError(f"coarse label {coarse!r} missing from marginal table")
        if coarse not in conditionals:
            raise ValueError(f"no conditional table for coarse label {coarse!r}")
        residual = abs(p - marginal_probs[coarse] * conditionals[coarse].probability(fine))
        if residual > worst:
            worst = residual
    return worst
