"""Spin-1/2 measurement in the xz plane: observables, amplitudes, collapse, chains.

Eigenvalues are expressed in units of hbar/2, so every measurement yields
+1 or -1.  States are unit complex 2-vectors identified up to a global
phase; the stored representative follows one phase convention (first
nonzero component real and nonnegative) so outputs are deterministic.
A chain's caller builds its table once with ``transition_table(initial,
thetas)``, and each trial samples it with ``sequential_chain(table, seed)``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from .record import Record

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
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)


SPIN_UP = SpinRay(1.0 + 0.0j, 0.0j)
SPIN_DOWN = SpinRay(0.0j, 1.0 + 0.0j)


class SpinObservable(Record):
    """Hermitian 2x2 observable for the axis at angle theta from +z in the xz plane."""

    __slots__ = ("theta", "matrix")

    def __init__(self, theta: float, matrix: tuple[tuple[float, float], tuple[float, float]]) -> None:
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "matrix", matrix)


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
    half = 0.5 * obs.theta
    c, s = math.cos(half), math.sin(half)
    if c < -NORM_TOL or (abs(c) <= NORM_TOL and s < 0.0):
        c, s = -c, -s
    plus = SpinRay(complex(c), complex(s))
    minus = SpinRay(complex(-s), complex(c))
    return (1, plus), (-1, minus)


def amplitudes(ray: SpinRay, obs: SpinObservable) -> tuple[complex, complex]:
    """Inner products of the ray with the two eigenvectors."""
    (_, plus), (_, minus) = eigensystem(obs)
    amp_plus = plus.up.conjugate() * ray.up + plus.down.conjugate() * ray.down
    amp_minus = minus.up.conjugate() * ray.up + minus.down.conjugate() * ray.down
    return amp_plus, amp_minus


def probabilities(ray: SpinRay, obs: SpinObservable) -> tuple[float, float]:
    """Squared amplitude moduli: the outcome probabilities for +1 and -1."""
    amp_plus, amp_minus = amplitudes(ray, obs)
    return abs(amp_plus) ** 2, abs(amp_minus) ** 2


def collapse(ray: SpinRay, obs: SpinObservable, outcome: int) -> SpinRay:
    """Post-measurement state: the eigenvector of the observed eigenvalue."""
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    p_plus, p_minus = probabilities(ray, obs)
    if refusal := _refusal(outcome, p_plus if outcome == 1 else p_minus):
        raise ValueError(refusal)
    (_, plus), (_, minus) = eigensystem(obs)
    return plus if outcome == 1 else minus


def _refusal(outcome: int, p: float) -> str | None:
    # Rounding leaves an impossible outcome a residue such as 3.7e-33 (spin up at theta = pi).
    if p <= NORM_TOL:
        return f"outcome {outcome:+d} has probability 0 (p = {p:.3g}) and cannot be observed"
    return None


class MeasurementOutcome(Record):
    """One step of a measurement chain: observed eigenvalue, its probability, post state."""

    __slots__ = ("eigenvalue", "probability", "post_state")

    def __init__(self, eigenvalue: int, probability: float, post_state: SpinRay) -> None:
        object.__setattr__(self, "eigenvalue", eigenvalue)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "post_state", post_state)


def transition_table(initial: SpinRay, thetas: Sequence[float]) -> tuple:
    """Per step, one row per incoming state (the initial ray, then the previous angle's + or -
    eigenvector): p_plus and the outcomes after +1 and -1, or collapse's refusal if impossible."""
    if not thetas:
        raise ValueError("measurement chain needs at least one angle")
    incoming = (initial,)
    table = []
    for theta in thetas:
        obs = observable(theta)
        (_, plus), (_, minus) = eigensystem(obs)
        rows = []
        for ray in incoming:
            p_plus, p_minus = probabilities(ray, obs)
            rows.append((p_plus, _refusal(1, p_plus) or MeasurementOutcome(1, p_plus, plus),
                         _refusal(-1, p_minus) or MeasurementOutcome(-1, p_minus, minus)))
        table.append(tuple(rows))
        incoming = (plus, minus)
    return tuple(table)


def sequential_chain(table: tuple, seed: int) -> list[MeasurementOutcome]:
    """One trial of a chain: measure at each angle of the table in order, sampling and collapsing.

    ``random.Random(seed)`` draws once per step, and the outcome is +1 iff the draw
    is below p_plus; each step records the probability of the observed eigenvalue.
    """
    draw = random.Random(seed).random
    trajectory: list[MeasurementOutcome] = []
    row = 0
    for step in table:
        p_plus, plus, minus = step[row]
        outcome, row = (plus, 0) if draw() < p_plus else (minus, 1)
        if type(outcome) is str:
            raise ValueError(outcome)
        trajectory.append(outcome)
    return trajectory
