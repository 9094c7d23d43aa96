"""Spin-1/2 measurement in the xz plane: observables, amplitudes, collapse, chains.

Eigenvalues are expressed in units of hbar/2, so every measurement yields
+1 or -1.  States are unit complex 2-vectors identified up to a global
phase; the stored representative follows one phase convention (first
nonzero component real and nonnegative) so outputs are deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NORM_TOL = 1e-12
EIGENVALUE_UNIT = "hbar/2"


@dataclass(frozen=True)
class SpinRay:
    """Unit complex 2-vector (up, down components) modulo global phase."""

    up: complex
    down: complex

    def __post_init__(self) -> None:
        norm_sq = abs(self.up) ** 2 + abs(self.down) ** 2
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"ray is not normalized: |up|^2 + |down|^2 = {norm_sq}")


SPIN_UP = SpinRay(1.0 + 0.0j, 0.0j)
SPIN_DOWN = SpinRay(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class SpinObservable:
    """Hermitian 2x2 observable for the axis at angle theta from +z in the xz plane."""

    theta: float
    matrix: tuple[tuple[float, float], tuple[float, float]]


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
    p = p_plus if outcome == 1 else p_minus
    # Rounding leaves an impossible outcome a residue such as 3.7e-33 (spin up at theta = pi).
    if p <= NORM_TOL:
        raise ValueError(f"outcome {outcome:+d} has probability 0 (p = {p:.3g}) and cannot be observed")
    (_, plus), (_, minus) = eigensystem(obs)
    return plus if outcome == 1 else minus


@dataclass(frozen=True)
class MeasurementOutcome:
    """One step of a measurement chain: observed eigenvalue, its probability, post state."""

    eigenvalue: int
    probability: float
    post_state: SpinRay


def sequential_chain(initial: SpinRay, thetas: list[float], seed: int) -> list[MeasurementOutcome]:
    """Measure at each angle in order, sampling outcomes and collapsing.

    Deterministic given the seed; each step's recorded probability is the
    pre-measurement probability of the eigenvalue actually observed.
    """
    if not thetas:
        raise ValueError("measurement chain needs at least one angle")
    rng = random.Random(seed)
    state = initial
    trajectory: list[MeasurementOutcome] = []
    for theta in thetas:
        obs = observable(theta)
        p_plus, p_minus = probabilities(state, obs)
        outcome = 1 if rng.random() < p_plus else -1
        state = collapse(state, obs, outcome)
        trajectory.append(
            MeasurementOutcome(outcome, p_plus if outcome == 1 else p_minus, state)
        )
    return trajectory
