"""Spin-1/2 measurement in the xz plane: observables, amplitudes, collapse, chains.

Eigenvalues are expressed in units of hbar/2, so every measurement yields
+1 or -1.  States are unit complex 2-vectors identified up to a global
phase; the stored representative follows one phase convention (first
nonzero component real and nonnegative) so outputs are deterministic.
A chain's caller builds its table once with ``transition_table(initial,
thetas)``, and each trial samples it with ``sequential_chain(table, seed)``.
A trial draws from ``record.uniform_stream(seed)``, the stream of
``random.Random(seed)`` for an int seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .record import Record, uniform_stream

NORM_TOL = 1e-12
EIGENVALUE_UNIT = "hbar/2"


class SpinRay(Record):
    """Unit complex 2-vector (up, down components) modulo global phase."""

    __slots__ = ("up", "down")

    def __init__(self, up: complex, down: complex) -> None:
        try:
            up_mod, down_mod = abs(up), abs(down)
        except OverflowError:  # a modulus past the float range
            up_mod = down_mod = math.inf
        # Products overflow to inf where ** raises; inf and nan both fail the check.
        norm_sq = up_mod * up_mod + down_mod * down_mod
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"ray is not normalized: |up|^2 + |down|^2 = {norm_sq}")
        super().__init__(up, down)


SPIN_UP = SpinRay(1.0 + 0.0j, 0.0j)
SPIN_DOWN = SpinRay(0.0j, 1.0 + 0.0j)


class SpinObservable(Record):
    """Hermitian 2x2 observable for the axis at angle theta from +z in the xz plane."""

    __slots__ = ("theta", "matrix")


def observable(theta: float) -> SpinObservable:
    """sin(theta) * S_x + cos(theta) * S_z in units of hbar/2."""
    if not math.isfinite(theta):
        raise ValueError(f"measurement angle must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    return SpinObservable(theta, ((c, s), (s, -c)))


def eigensystem(obs: SpinObservable) -> tuple[tuple[int, SpinRay], tuple[int, SpinRay]]:
    """Eigenpairs (+1, v_plus), (-1, v_minus).

    v_plus = (cos(theta/2), sin(theta/2)) with its first nonzero component made
    nonnegative; v_minus is its quarter-turn (-sin(theta/2), cos(theta/2)), so
    the pair always forms a right-handed orthonormal basis.
    """
    c, s = _half_angle(obs.theta)
    plus = SpinRay(complex(c), complex(s))
    minus = SpinRay(complex(-s), complex(c))
    return (1, plus), (-1, minus)


def _half_angle(theta: float) -> tuple[float, float]:
    """(cos(theta/2), sin(theta/2)), negated when needed to make the first nonzero one nonnegative."""
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    if c < -NORM_TOL or (abs(c) <= NORM_TOL and s < 0.0):
        return -c, -s
    return c, s


def amplitudes(ray: SpinRay, obs: SpinObservable) -> tuple[complex, complex]:
    """Inner products of the ray with the two real eigenvectors (c, s) and (-s, c) of ``_half_angle``."""
    c, s = _half_angle(obs.theta)
    return c * ray.up + s * ray.down, c * ray.down - s * ray.up


def probabilities(ray: SpinRay, obs: SpinObservable) -> tuple[float, float]:
    """Squared amplitude moduli: the outcome probabilities for +1 and -1."""
    amp_plus, amp_minus = amplitudes(ray, obs)
    return abs(amp_plus) ** 2, abs(amp_minus) ** 2


def collapse(ray: SpinRay, obs: SpinObservable, outcome: int) -> SpinRay:
    """Post-measurement state: the eigenvector of the observed eigenvalue, read from the one-step chain table."""
    if type(outcome) is not int or outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome!r}")
    observed = transition_table(ray, (obs.theta,))[0][0][1 if outcome == 1 else 2]
    if type(observed) is str:
        raise ValueError(observed)
    return observed.post_state


def _residue_floor(theta: float, previous: float) -> float:
    """min(ulp(max(|theta|, |previous|, pi))^2, NORM_TOL), previous being the angle the incoming state was
    measured at.  Rounding leaves an impossible outcome a residue below the ulp term, such as 3.7e-33 for
    spin up at theta = pi, or about ulp(previous)^2 / 16 when theta = previous + k pi; a probability at or
    below the floor counts as 0.  From |angle| = 2^33 the ulp term passes NORM_TOL, and the angle's own
    rounding decides probabilities that small, so the floor stays at NORM_TOL: a likely outcome is never
    refused as impossible."""
    unit = math.ulp(max(abs(theta), abs(previous), math.pi))
    return min(unit * unit, NORM_TOL)  # unit * unit is inf past the float range, where ** would raise


def _refusal(outcome: int, p: float, floor: float) -> str | None:
    if p <= floor:
        return (f"outcome {outcome:+d} has probability 0 (p = {p:.3g}, within the rounding floor {floor:.3g} "
                "at the angles' scale) and cannot be observed")
    return None


class MeasurementOutcome(Record):
    """One step of a measurement chain: observed eigenvalue, its probability, post state."""

    __slots__ = ("eigenvalue", "probability", "post_state")


def transition_table(initial: SpinRay, thetas: Sequence[float]) -> tuple:
    """Per step, one row per incoming state (the initial ray, then the previous angle's + or -
    eigenvector): p_plus and the outcomes after +1 and -1, or a refusal if impossible at the scale of
    this angle and the previous one."""
    if not thetas:
        raise ValueError("measurement chain needs at least one angle")
    incoming, previous = (initial,), 0.0
    table = []
    for theta in thetas:
        obs = observable(theta)
        (_, plus), (_, minus) = eigensystem(obs)
        floor = _residue_floor(theta, previous)
        rows = []
        for ray in incoming:
            p_plus, p_minus = probabilities(ray, obs)
            rows.append((p_plus, _refusal(1, p_plus, floor) or MeasurementOutcome(1, p_plus, plus),
                         _refusal(-1, p_minus, floor) or MeasurementOutcome(-1, p_minus, minus)))
        table.append(tuple(rows))
        incoming, previous = (plus, minus), theta
    return tuple(table)


def final_plus_probability(table: tuple) -> float:
    """Exact P(the last outcome is +1): the distribution over the incoming rows, carried through each
    step's p_plus.  The first step has the one row of the initial ray."""
    plus, minus = 1.0, 0.0
    for step in table:
        a, b = step[0][0], step[-1][0]  # p_plus after a +1 and after a -1
        plus, minus = plus * a + minus * b, plus * (1.0 - a) + minus * (1.0 - b)
    return plus


def sequential_chain(table: tuple, seed: int) -> list[MeasurementOutcome]:
    """One trial of a chain: measure at each angle of the table in order, sampling and collapsing.

    ``uniform_stream(seed)`` draws once per step, and the outcome is +1 iff the draw
    is below p_plus; each step records the probability of the observed eigenvalue.
    The seed must be an int, as ``uniform_stream`` says.
    """
    draw = uniform_stream(seed)
    trajectory: list[MeasurementOutcome] = []
    row = 0
    for step in table:
        p_plus, plus, minus = step[row]
        if draw() < p_plus:
            outcome, row = plus, 0
        else:
            outcome, row = minus, 1
        if type(outcome) is str:
            raise ValueError(outcome)
        trajectory.append(outcome)
    return trajectory
