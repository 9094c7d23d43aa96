"""Independent verification: exhaustive checks, quadrature, a generic eigensolver,
and statistical frequency tests.

Nothing here reuses the computation paths it is meant to check: die
orientations come from a brute-force pair filter rather than rotation
matrices, the rotation census from generator closure, eigenvectors from the
characteristic equation rather than half-angle forms, and the quadrature is
a separate implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .actions import DieOrientation
from .groups import FiniteGroup

EigenPair = tuple[float, tuple[float, float]]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification: passed iff worst_residual is within tolerance."""

    name: str
    passed: bool
    worst_residual: float
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name} {status} residual={self.worst_residual:.3g}"
        return f"{text} ({self.details})" if self.details else text


def verify_group_axioms(g: FiniteGroup) -> CheckReport:
    """Exhaustive closure/identity/inverse/associativity sweep; residual counts violations."""
    if g.n > 10_000:
        raise ValueError(f"exhaustive check infeasible at order {g.n}")
    violations = 0
    notes = []

    for a in range(g.n):
        for b in range(g.n):
            if not 0 <= g.table[a][b] < g.n:
                violations += 1
    if violations:
        notes.append("closure")

    e = g.identity
    bad_identity = sum(1 for a in range(g.n) if g.table[e][a] != a or g.table[a][e] != a)
    if bad_identity:
        notes.append("identity")
    violations += bad_identity

    bad_inverse = 0
    for a in range(g.n):
        if not any(g.table[a][b] == e and g.table[b][a] == e for b in range(g.n)):
            bad_inverse += 1
    if bad_inverse:
        notes.append("inverse")
    violations += bad_inverse

    bad_assoc = 0
    for a in range(g.n):
        for b in range(g.n):
            ab = g.table[a][b]
            for c in range(g.n):
                if g.table[ab][c] != g.table[a][g.table[b][c]]:
                    bad_assoc += 1
    if bad_assoc:
        notes.append("associativity")
    violations += bad_assoc

    return CheckReport(
        name=f"group-axioms[{g.label}]",
        passed=violations == 0,
        worst_residual=float(violations),
        details=",".join(notes) if notes else f"order {g.n}",
    )


def enumerate_die_orientations() -> list[DieOrientation]:
    """All (up, north) pairs with north adjacent to up, by brute-force filtering."""
    return [
        DieOrientation(up, north)
        for up in range(1, 7)
        for north in range(1, 7)
        if north != up and north != 7 - up
    ]


def _roll_north(state: tuple[int, int, int]) -> tuple[int, int, int]:
    # Tip the die northward about the east-west axis: top goes north, south comes up.
    up, north, east = state
    return 7 - north, up, east


def _spin_quarter(state: tuple[int, int, int]) -> tuple[int, int, int]:
    # Quarter turn about the vertical axis: east face comes to face north.
    up, north, east = state
    return up, east, 7 - north


def cube_rotation_census(start: tuple[int, int, int] = (3, 2, 1)) -> dict[int, int]:
    """Element-order census of the die rotations, built by generator closure.

    States are (up, north, east) face triples reached from ``start`` by the
    two quarter-turn generators; rotations are the generated permutations of
    those states and an element's order is the lcm of its cycle lengths.
    """
    states = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for move in (_roll_north, _spin_quarter):
            t = move(s)
            if t not in states:
                states.add(t)
                frontier.append(t)
    ordered = sorted(states)
    index = {s: i for i, s in enumerate(ordered)}
    generators = [
        tuple(index[move(s)] for s in ordered) for move in (_roll_north, _spin_quarter)
    ]
    identity = tuple(range(len(ordered)))
    perms = {identity}
    frontier_p = [identity]
    while frontier_p:
        p = frontier_p.pop()
        for gen in generators:
            q = tuple(gen[i] for i in p)
            if q not in perms:
                perms.add(q)
                frontier_p.append(q)

    census: dict[int, int] = {}
    for p in perms:
        order = _permutation_order(p)
        census[order] = census.get(order, 0) + 1
    return census


def _permutation_order(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = math.lcm(order, length)
    return order


def integrate(fn: Callable[[float], float], lower: float, upper: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature on [lower, upper] to absolute tolerance ``tol``.

    Iterative worklist implementation, deliberately separate from any
    quadrature used elsewhere in the package.
    """
    if not lower < upper:
        raise ValueError(f"need lower < upper, got [{lower}, {upper}]")

    def simpson(a: float, fa: float, m: float, fm: float, b: float, fb: float) -> float:
        return (b - a) * (fa + 4.0 * fm + fb) / 6.0

    max_depth = 40
    total = 0.0
    mid0 = 0.5 * (lower + upper)
    f_lo, f_mid, f_hi = fn(lower), fn(mid0), fn(upper)
    coarse0 = simpson(lower, f_lo, mid0, f_mid, upper, f_hi)
    work = [(lower, f_lo, mid0, f_mid, upper, f_hi, coarse0, tol, 0)]
    while work:
        a, fa, m, fm, b, fb, coarse, budget, depth = work.pop()
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = fn(lm), fn(rm)
        left = simpson(a, fa, lm, flm, m, fm)
        right = simpson(m, fm, rm, frm, b, fb)
        err = left + right - coarse
        if abs(err) <= 15.0 * budget:
            total += left + right + err / 15.0
            continue
        if depth >= max_depth:
            raise RuntimeError(
                f"quadrature failed to converge on [{a}, {b}] at depth {depth}"
            )
        work.append((a, fa, lm, flm, m, fm, left, 0.5 * budget, depth + 1))
        work.append((m, fm, rm, frm, b, fb, right, 0.5 * budget, depth + 1))
    return total


def symmetric_eigensolver_2x2(m) -> tuple[EigenPair, EigenPair]:
    """Eigenpairs of a real symmetric 2x2 matrix, larger eigenvalue first.

    The matrix is any 2x2 nested sequence of numbers.  Quadratic-formula
    eigenvalues; eigenvectors from the characteristic system, unit norm,
    first nonzero component nonnegative.
    """
    try:
        (a, b), (b_low, c) = [[float(x) for x in row] for row in m]
    except (TypeError, ValueError) as err:
        raise ValueError(f"expected a 2x2 matrix, got {m!r}") from err
    if abs(b - b_low) > 1e-12:
        raise ValueError(f"matrix is not symmetric: off-diagonals {b} vs {b_low}")
    mid = 0.5 * (a + c)
    radius = math.hypot(0.5 * (a - c), b)
    hi, lo = mid + radius, mid - radius

    def eigenvector(lam: float) -> tuple[float, float]:
        # (a - lam) x + b y = 0 and b x + (c - lam) y = 0; pick the better-conditioned
        # row.  hypot avoids underflow for subnormal entries.
        v1, n1 = (b, lam - a), math.hypot(b, lam - a)
        v2, n2 = (lam - c, b), math.hypot(lam - c, b)
        (x, y), n = (v1, n1) if n1 >= n2 else (v2, n2)
        x, y = x / n, y / n
        pivot = x if abs(x) > 1e-12 else y
        return (x, y) if pivot >= 0 else (-x, -y)

    if radius == 0.0:
        # Scalar matrix: every direction is an eigenvector; fix the standard basis.
        return (hi, (1.0, 0.0)), (lo, (0.0, 1.0))
    x, y = eigenvector(hi)
    # The second eigenvector is the quarter-turn of the first (same convention
    # as the spin module: right-handed orthonormal pair).
    return (hi, (x, y)), (lo, (-y, x))


def frequency_test(
    sampler: Callable[[int], object],
    event: Callable[[object], bool],
    p_expected: float,
    n: int,
    name: str = "frequency",
) -> CheckReport:
    """Pass iff the empirical event frequency is within 4 binomial standard errors."""
    if n < 1_000:
        raise ValueError(f"need at least 1000 trials for a frequency test, got {n}")
    if not 0.0 < p_expected < 1.0:
        raise ValueError(f"expected probability must lie strictly in (0, 1), got {p_expected}")
    hits = sum(1 for i in range(n) if event(sampler(i)))
    empirical = hits / n
    bound = 4.0 * math.sqrt(p_expected * (1.0 - p_expected) / n)
    deviation = abs(empirical - p_expected)
    return CheckReport(
        name=name,
        passed=deviation <= bound,
        worst_residual=deviation,
        details=f"empirical {empirical:.5f} vs {p_expected:.5f}, bound {bound:.5f}",
    )


def render_reports(reports: Iterable[CheckReport]) -> str:
    return "\n".join(r.line() for r in reports) + "\n"
