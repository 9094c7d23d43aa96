"""Workload finite_oracle: one op per finite group, plus die table ops.

A group op builds a cyclic, dihedral or direct-product group, runs the
oracle's exhaustive axiom sweep on it, builds the uniform table of its
regular action, marginalizes that onto a quotient or factor, conditions it
on every class, and computes the exact Bayes residual.  Die ops ask for
the joint, marginal or conditional die table from the cached die action.
Every answer is checked for exact Fraction equality against tables the
benchmark derives from the group order alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from benchcore import stratified

NAME = "finite_oracle"
DEADLINE_S = 20.0
HEAD_OPS = 4

# Group orders of one cycle, all even so that every construction can build
# them exactly.  With the
# 4 die ops, the 8th and 9th cheapest ops of a cycle are both of order 40,
# so the median falls inside a stratum, and the two largest are one in 8
# ops, so the 90th percentile falls inside the order-176 stratum rather
# than on a boundary between strata.
ORDERS = (6, 12, 20, 40, 40, 64, 90, 110, 130, 150, 176, 200)
DIE_QUERIES = ("joint", "marginal_up", "conditional_north", "factorization")
BUCKETS = ("n2-24", "n25-99", "n100-200")
LAYERS = (
    ("groups.construct_ms", 1e3),
    ("oracle.verify_group_axioms_ms", 1e3),
    ("actions.uniform_over_action_us", 1e6),
    ("tables.marginalize_us", 1e6),
    ("tables.condition_us", 1e6),
    ("tables.bayes_check_us", 1e6),
)

LAYER_METRICS = {
    f"{layer}.{b}": layer.rsplit("_", 1)[1] for layer, _ in LAYERS for b in BUCKETS
}


def bucket(order: int) -> str:
    return "n2-24" if order < 25 else "n25-99" if order < 100 else "n100-200"


@dataclass(frozen=True)
class GroupOp:
    """``build`` is (construction, args); classes of the quotient map are ``quotient``."""

    build: tuple[str, tuple[int, ...]]
    order: int
    quotient: str  # "mod <d>", "reflection" or "factor <|H|>"

    def classify(self, element: int) -> int:
        how, _, arg = self.quotient.partition(" ")
        if how == "mod":
            return element % int(arg)
        if how == "reflection":
            return element // (self.order // 2)
        return element // int(arg)

    @property
    def classes(self) -> int:
        return len({self.classify(e) for e in range(self.order)})


@dataclass(frozen=True)
class DieOp:
    query: str
    north: int = 0


def _constructions(order: int) -> list[tuple[str, tuple]]:
    """Every way this workload builds a group of ``order``: cyclic, dihedral, and C_k or D_k times C_m."""
    products = [
        ("product", (dihedral, k, order // (k * (1 + dihedral))))
        for dihedral in (False, True)
        for k in (2, 3)
        if order % (k * (1 + dihedral)) == 0
    ]
    return [("cyclic", (order,)), ("dihedral", (order // 2,)), *products]


def _group_op(rng, order: int, turn: int) -> GroupOp:
    """The ``turn``-th construction of ``order``; the seed picks the quotient of a cyclic group."""
    build = _constructions(order)
    kind, args = build[turn % len(build)]
    if kind == "cyclic":
        d = rng.choice([d for d in (2, 3, 4, 6) if order % d == 0])
        return GroupOp((kind, args), order, f"mod {d}")
    if kind == "dihedral":
        return GroupOp((kind, args), order, "reflection")
    return GroupOp((kind, args), order, f"factor {args[2]}")


def _die_op(rng, query: str) -> DieOp:
    return DieOp(query, rng.randint(1, 6) if query == "conditional_north" else 0)


def ops(seed: int):
    """Cycles of 16: the 12 group orders of ORDERS and the 4 die queries.

    Constructions of one order differ in cost by up to 1.5x, so each order
    takes them in turn, from cycle to cycle, starting at a turn the seed
    picks.  Then a run's mix of constructions hardly depends on the seed.
    """
    turns = itertools.count()
    offset = [0]

    def head(rng):
        offset[0] = rng.randrange(12)
        return [_die_op(rng, "joint"), _group_op(rng, 6, 0), _group_op(rng, 30, 1), _group_op(rng, 110, 2)]

    def cycle(rng):
        turn = offset[0] + next(turns)
        return [_group_op(rng, order, turn + i) for i, order in enumerate(ORDERS)] + [
            _die_op(rng, q) for q in DIE_QUERIES
        ]

    return stratified(seed, head, cycle)


def setup() -> None:
    from groupmeasure import actions, groups, oracle, tables  # noqa: F401

    actions.die_action()


def _build(op: GroupOp):
    from groupmeasure import groups

    kind, args = op.build
    if kind == "cyclic":
        return groups.make_cyclic(*args)
    if kind == "dihedral":
        return groups.make_dihedral(*args)
    dihedral, k, m = args
    first = groups.make_dihedral(k) if dihedral else groups.make_cyclic(k)
    return groups.direct_product(first, groups.make_cyclic(m))


def _regular_table(g):
    from groupmeasure import actions

    return actions.uniform_over_action(actions.GroupAction(g, tuple(f"g{e}" for e in range(g.n)), g.table))


def _factorize(tracer, b: str, joint, projection: dict[str, str]):
    from groupmeasure import tables

    marginal = tracer.call(f"tables.marginalize_us.{b}", tables.marginalize, joint, projection)
    conditionals = {
        c: tracer.call(f"tables.condition_us.{b}", tables.condition, joint, lambda label, c=c: projection[label] == c)
        for c, _ in marginal.outcomes
    }
    residual = tracer.call(
        f"tables.bayes_check_us.{b}",
        tables.bayes_factorization_check,
        joint,
        marginal,
        conditionals,
        lambda label: (projection[label], label),
    )
    return marginal, conditionals, residual


def run_op(op, tracer):
    from groupmeasure import actions, oracle, tables

    if isinstance(op, DieOp):
        b = bucket(24)
        joint = tracer.call(f"actions.uniform_over_action_us.{b}", actions.uniform_over_action, actions.die_action())
        if op.query == "joint":
            return joint.outcomes
        if op.query == "marginal_up":
            projection = {label: label.split("_")[0] for label in joint.labels()}
            return tracer.call(f"tables.marginalize_us.{b}", tables.marginalize, joint, projection).outcomes
        if op.query == "conditional_north":
            keep = f"north{op.north}"
            return tracer.call(
                f"tables.condition_us.{b}", tables.condition, joint, lambda label: label.endswith(keep)
            ).outcomes
        projection = {label: label.split("_")[0] for label in joint.labels()}
        return _factorize(tracer, b, joint, projection)[2]

    b = bucket(op.order)
    g = tracer.call(f"groups.construct_ms.{b}", _build, op)
    axioms = tracer.call(f"oracle.verify_group_axioms_ms.{b}", oracle.verify_group_axioms, g)
    joint = tracer.call(f"actions.uniform_over_action_us.{b}", _regular_table, g)
    projection = {f"g{e}": f"q{op.classify(e)}" for e in range(g.n)}
    marginal, conditionals, residual = _factorize(tracer, b, joint, projection)
    return (
        g.n,
        axioms.passed,
        axioms.worst_residual,
        joint.outcomes,
        marginal.outcomes,
        {c: t.outcomes for c, t in conditionals.items()},
        residual,
    )


def _die_labels() -> list[tuple[int, int]]:
    return [(u, n) for u in range(1, 7) for n in range(1, 7) if n not in (u, 7 - u)]


def expected(op):
    """The exact answer, from counting alone."""
    if isinstance(op, DieOp):
        if op.query == "joint":
            return tuple((f"up{u}_north{n}", Fraction(1, 24)) for u, n in _die_labels())
        if op.query == "marginal_up":
            return tuple((f"up{u}", Fraction(1, 6)) for u in range(1, 7))
        if op.query == "conditional_north":
            return tuple((f"up{u}_north{n}", Fraction(1, 4)) for u, n in _die_labels() if n == op.north)
        return Fraction(0)
    n, d = op.order, op.classes
    members: dict[str, list[str]] = {}
    for e in range(n):
        members.setdefault(f"q{op.classify(e)}", []).append(f"g{e}")
    return (
        n,
        True,
        0.0,
        tuple((f"g{e}", Fraction(1, n)) for e in range(n)),
        tuple((c, Fraction(1, d)) for c in members),
        {c: tuple((label, Fraction(d, n)) for label in labels) for c, labels in members.items()},
        Fraction(0),
    )


def check(op, result) -> tuple[bool, float]:
    return result == expected(op), 0.0


def layer_metrics(tracer, records) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for layer, scale in LAYERS:
        for b in BUCKETS:
            mean = tracer.mean(f"{layer}.{b}")
            out[f"{layer}.{b}"] = None if mean is None else mean * scale
    return out
