"""Exact-rational probability tables: marginalization, conditioning, factorization.

Probabilities are ``fractions.Fraction`` values (or ints) at the API.  A table holds its
integer form: the probabilities as integer numerators over their least common
denominator.  The constructor checks outside input in one pass, naming the first faulty
outcome, and derives that form; the uniform, marginal and conditional tables are built
from the integer form their operation already holds.  Every sum, quotient and comparison
is done on those ints, and a ``Fraction`` is made only for a value returned, once per
distinct value.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Collection, Iterable, Mapping

from .record import Record

_EXACT_TYPES = frozenset((int, Fraction))  # exact types only: a bool, a float or a Decimal is refused


class ProbabilityTable(Record):
    """Ordered (label, probability) outcomes; probabilities are ints or Fractions and sum to exactly 1.

    ``denominator`` is the least common denominator of the probabilities, and ``numerators[i]`` is
    the i-th probability times it.  Both follow from ``outcomes``, so they add nothing to what a
    table equals, hashes or sorts as.  ``outcomes`` and its pairs are stored as tuples.
    """

    __slots__ = ("outcomes", "numerators", "denominator")

    def __init__(self, outcomes: tuple[tuple[str, Fraction], ...]) -> None:
        outcomes = tuple(map(tuple, outcomes))
        if not outcomes:
            raise ValueError("probability table must have at least one outcome")
        _refuse_first_outcome(outcomes)
        denominator = lcm(*[p.denominator for _, p in outcomes])
        numerators = tuple([p.numerator * (denominator // p.denominator) for _, p in outcomes])
        total = sum(numerators)
        if total != denominator:
            raise ValueError(f"probabilities sum to {Fraction(total, denominator)}, not 1")
        super().__init__(outcomes, numerators, denominator)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.outcomes)

    def probability(self, label: str) -> Fraction:
        for lbl, p in self.outcomes:
            if lbl == label:
                return p
        raise ValueError(f"no outcome labelled {label!r}")


def _refuse_first_outcome(outcomes: tuple[tuple[str, Fraction], ...]) -> None:
    """Raise the refusal of the first faulty outcome: no pair, a repeated label, or an inexact or negative p."""
    seen = set()
    for outcome in outcomes:
        if len(outcome) != 2:
            raise ValueError(f"outcome {outcome!r} is not a (label, probability) pair")
        label, p = outcome
        if label in seen:
            raise ValueError(f"duplicate outcome label {label!r}")
        seen.add(label)
        if type(p) not in _EXACT_TYPES:
            raise ValueError(f"probability {p!r} for outcome {label!r} is not an int or a Fraction")
        if p.numerator < 0:
            raise ValueError(f"negative probability {p} for outcome {label!r}")


def uniform_table(labels: tuple[str, ...] | list[str]) -> ProbabilityTable:
    """Equal exact weight 1/len(labels) on every label."""
    n = len(labels)
    if n == 0:
        raise ValueError("uniform table needs at least one label")
    if len(set(labels)) < n:
        _refuse_first_outcome([(label, 0) for label in labels])
    return _over(labels, (1,) * n, n)


def _over(labels: Iterable[str], numerators: Collection[int], denominator: int) -> ProbabilityTable:
    """The table of numerator/denominator per label: distinct labels, numerators >= 0 summing to denominator.

    Over the gcd of the numerators and the denominator, they are the integer form the constructor
    derives: the lcm of the reduced denominators of n_i/D is D/gcd(D, n_1, ..., n_k).  One Fraction
    is made per distinct numerator.
    """
    common = gcd(denominator, *numerators)
    if common > 1:
        denominator //= common
        numerators = [n // common for n in numerators]
    values = {n: Fraction(n, denominator) for n in set(numerators)}
    table = object.__new__(ProbabilityTable)
    Record.__init__(table, tuple(zip(labels, map(values.__getitem__, numerators))), tuple(numerators), denominator)
    return table


def marginalize(t: ProbabilityTable, projection: Mapping[str, str]) -> ProbabilityTable:
    """Coarse-grain by summing probabilities over the preimages of ``projection``.

    Coarse labels keep first-appearance order so output is deterministic.
    """
    sums: dict[str, int] = {}
    for (label, _), n in zip(t.outcomes, t.numerators):
        if label not in projection:
            raise ValueError(f"projection undefined on outcome label {label!r}")
        coarse = projection[label]
        sums[coarse] = sums.get(coarse, 0) + n
    return _over(sums, sums.values(), t.denominator)


def condition(t: ProbabilityTable, predicate: Callable[[str], bool]) -> ProbabilityTable:
    """Drop outcomes failing ``predicate`` and renormalize exactly."""
    kept = [(label, n) for (label, _), n in zip(t.outcomes, t.numerators) if predicate(label)]
    if not kept:
        raise ValueError("conditioning selects no outcomes")
    # Over the table's denominator, p / total is numerator / sum of the kept numerators.
    labels, numerators = zip(*kept)
    total = sum(numerators)
    if total == 0:
        raise ValueError("conditioning selects only zero-probability outcomes")
    return _over(labels, numerators, total)


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
    a, b = joint.denominator, marginal.denominator
    marginal_of = dict(zip(marginal.labels(), marginal.numerators))
    conditional_of = {
        coarse: (dict(zip(table.labels(), table.numerators)), table.denominator)
        for coarse, table in conditionals.items()
    }
    # With joint x/a, marginal y/b and conditional z/c, the residual is |x*b*c - y*z*a| / (a*b*c);
    # residuals are compared by cross-multiplying, and the largest is the one Fraction built.
    worst, worst_denominator = 0, 1
    for (label, _), x in zip(joint.outcomes, joint.numerators):
        coarse, fine = split(label)
        if coarse not in marginal_of:
            raise ValueError(f"coarse label {coarse!r} missing from marginal table")
        if coarse not in conditional_of:
            raise ValueError(f"no conditional table for coarse label {coarse!r}")
        fine_of, c = conditional_of[coarse]
        if fine not in fine_of:
            raise ValueError(f"no outcome labelled {fine!r}")
        residual = abs(x * b * c - marginal_of[coarse] * fine_of[fine] * a)
        if residual * worst_denominator > worst * a * b * c:
            worst, worst_denominator = residual, a * b * c
    return Fraction(worst, worst_denominator)
