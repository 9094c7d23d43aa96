"""Independent verification: exhaustive checks, quadrature, a generic eigensolver,
and a spin chain checked against its closed form.

Nothing here reuses the computation paths it is meant to check: die
orientations come from a brute-force pair filter rather than rotation
matrices, the rotation census from generator closure, eigenvectors from the
characteristic equation rather than half-angle forms, and the quadrature is
a separate implementation.  ``selftest()`` is the one place that pairs the
package's paths with these checks; ``groupmeasure selftest`` prints it.
"""

from __future__ import annotations

import math
from operator import itemgetter, ne
from typing import Callable

from .actions import DieOrientation, GroupAction, all_orientations, coin_action, die_action
from .groups import FiniteGroup, direct_product, make_coin_group, make_cyclic, make_dihedral, make_octahedral
from .record import Record

EigenPair = tuple[float, tuple[float, float]]
_EPS = 2.0**-52


class CheckReport(Record):
    """Outcome of one verification: passed iff worst_residual is within tolerance."""

    __slots__ = ("name", "passed", "worst_residual", "details")

    def __init__(self, name: str, passed: bool, worst_residual: float, details: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "worst_residual", worst_residual)
        object.__setattr__(self, "details", details)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name} {status} residual={self.worst_residual:.3g}"
        return f"{text} ({self.details})" if self.details else text


def verify_group_axioms(g: FiniteGroup) -> CheckReport:
    """Exhaustive check of the group axioms as row identities; the residual counts violations.

    ``FiniteGroup`` guarantees closure, so it is not counted here.  (a∘s)∘c = a∘(s∘c)
    for every c at once says that the row of a∘s is row a read through row s.
    Light's test checks this only for s in a generating set S, built greedily
    with no identity or inverse assumed: the set of right factors s for which it
    holds for all a, c is closed under ∘, so S inside it makes it everything.  If
    a generator fails, every pair (a, b) is swept the same way, so that the
    residual counts each violating triple.  An entry that equals an id but is no
    int, such as ``1.0``, is refused with a ``ValueError`` that names it.
    """
    n, table, e = g.n, g.table, g.identity
    if n > 4096:
        raise ValueError(f"exhaustive check infeasible at order {n}")
    counts = {
        "identity": sum(table[e][a] != a or row[e] != a for a, row in enumerate(table)),
        "inverse": sum(not _has_inverse(table, a, e) for a in range(n)),
        "associativity": 0,
    }
    try:
        if not all(_associates_through(table, s) for s in _greedy_generators(table)):
            counts["associativity"] = _associativity_violations(table)
    except TypeError:  # an entry equal to an id but no int, such as 1.0, failed as an index
        _refuse_an_entry_that_is_no_int(f"{g.label}: table", table)
        raise
    return _count_report(f"group-axioms[{g.label}]", counts, f"order {n}")


def _refuse_an_entry_that_is_no_int(name: str, table) -> None:
    """Raise a ValueError naming the first entry of ``table`` that is not an int, if there is one."""
    for row, entries in enumerate(table):
        for column, entry in enumerate(entries):
            if not isinstance(entry, int):
                raise ValueError(f"{name} entry {entry!r} at row {row}, column {column} is not an int") from None


def _count_report(name: str, counts: dict[str, int], fallback: str) -> CheckReport:
    """Passed iff no check counts a violation; the residual is their total, and the details name the checks
    that failed, or read ``fallback`` when none did."""
    violations = sum(counts.values())
    return CheckReport(
        name=name,
        passed=violations == 0,
        worst_residual=float(violations),
        details=",".join(check for check, count in counts.items() if count) or fallback,
    )


def _has_inverse(table, a: int, e: int) -> bool:
    """Some b has a∘b = b∘a = e; the first e in row a is tried before the whole row is."""
    row = table[a]
    try:
        b = row.index(e)
    except ValueError:
        return False
    return table[b][a] == e or any(x == e and table[c][a] == e for c, x in enumerate(row))


def _greedy_generators(table) -> list[int]:
    """Take the smallest element not yet reached, then close the reached set under x -> x∘s for
    every s taken; repeat until every element is reached.  ``FiniteGroup`` guarantees closure."""
    reached = [False] * len(table)
    members: list[int] = []
    gens: list[int] = []
    for s in range(len(table)):
        if reached[s]:
            continue
        gens.append(s)
        # Old members need only the new generator; each newly reached element needs them all.
        frontier = [s, *(table[x][s] for x in members)]
        while frontier:
            x = frontier.pop()
            if not reached[x]:
                reached[x] = True
                members.append(x)
                row = table[x]
                frontier.extend(row[t] for t in gens)
    return gens


def _associates_through(table, s: int) -> bool:
    """(a∘s)∘c = a∘(s∘c) for every a and c.  ``FiniteGroup`` guarantees closure."""
    if table[s] == tuple(range(len(table))):
        # s∘c = c, so every row reads through row s as itself; this also spares the 1x1 table
        # an itemgetter of one index, which would return a bare entry.
        return all(table[row[s]] == row for row in table)
    read = itemgetter(*table[s])
    return all(table[row[s]] == read(row) for row in table)


def _associativity_violations(table) -> int:
    """Every triple with (a∘b)∘c != a∘(b∘c), counted a row pair (a, b) at a time."""
    through = [itemgetter(*row) for row in table] if len(table) > 1 else [lambda row: row]
    return sum(
        sum(map(ne, table[ab], composed))
        for row in table
        for ab, read in zip(row, through)
        if table[ab] != (composed := read(row))
    )


def verify_action(action: GroupAction) -> CheckReport:
    """Check that ``act`` is an action: every row permutes the states and act[s∘h] = act[s]∘act[h].

    The residual counts rows that are no permutation plus failing pairs (s, h).  As in
    ``verify_group_axioms``, s runs over a greedy generating set only: the s that satisfy the
    identity for every h are closed under ∘, since the group's table is associative, so the
    generators reach every element.  An entry of either table that equals an index but is no int
    is refused with a ``ValueError`` that names it.
    """
    group, n_states = action.group, len(action.states)
    rows = [tuple(row) for row in action.act]  # a row given as a list still compares equal to its composite
    try:
        counts = {
            "permutation": sum(len(set(row)) != n_states for row in rows),
            "composition": sum(
                rows[group.table[s][h]] != tuple(map(rows[s].__getitem__, rows[h]))
                for s in _greedy_generators(group.table)
                for h in range(group.n)
            ),
        }
    except TypeError:  # an entry equal to an index but no int, such as 1.0, failed as an index
        _refuse_an_entry_that_is_no_int("action table", rows)
        _refuse_an_entry_that_is_no_int(f"{group.label}: table", group.table)
        raise
    return _count_report(f"action[{group.label}]", counts, f"{n_states} states")


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


def cube_rotation_census() -> dict[int, int]:
    """Element-order census of the die rotations, built by generator closure.

    States are (up, north, east) face triples reached from the reference
    placement ``start`` by the two quarter-turn generators; rotations are the
    generated permutations of those states and an element's order is the lcm
    of its cycle lengths.
    """
    start = (3, 2, 1)
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
    """Adaptive Simpson quadrature on a finite [lower, upper] to absolute tolerance ``tol`` or a panel's rounding.

    Iterative worklist implementation, deliberately separate from any
    quadrature used elsewhere in the package.
    """
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise ValueError(f"need finite lower < upper, got [{lower}, {upper}]")

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
        # The budget halves with depth; floor it at a few ulps of the panel's own terms.
        if abs(err) <= 15.0 * max(budget, 64.0 * _EPS * (abs(left) + abs(right))):
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

    The matrix is any 2x2 nested sequence of finite numbers, symmetric within
    1e-12 of its largest |entry|.  The eigenvalue of larger modulus comes from
    the quadratic formula, the other from the determinant; eigenvectors from
    the characteristic system, unit norm, first nonzero component nonnegative.
    """
    try:
        (a, b), (b_low, c) = [[float(x) for x in row] for row in m]
    except (TypeError, ValueError) as err:
        raise ValueError(f"expected a 2x2 matrix, got {m!r}") from err
    if not all(map(math.isfinite, (a, b, b_low, c))):
        raise ValueError(f"matrix entries must be finite, got {m!r}")
    if abs(b - b_low) > 1e-12 * max(abs(a), abs(b), abs(b_low), abs(c)):
        raise ValueError(f"matrix is not symmetric: off-diagonals {b} vs {b_low}")
    mid = 0.5 * (a + c)
    radius = math.hypot(0.5 * (a - c), b)
    if radius == 0.0:
        # Scalar matrix: every direction is an eigenvector; fix the standard basis.
        return (mid, (1.0, 0.0)), (mid, (0.0, 1.0))
    # The eigenvalue of larger modulus adds like signs; the other is det / it, not mid -+ radius,
    # which cancels when the two differ in scale.  |big| >= max(|a|, |b|, |c|), so no quotient overflows.
    big = mid + math.copysign(radius, mid)
    small = (a / big) * c - (b / big) * b
    hi, lo = (big, small) if big >= small else (small, big)

    def eigenvector(lam: float) -> tuple[float, float]:
        # (a - lam) x + b y = 0 and b x + (c - lam) y = 0; pick the better-conditioned
        # row.  hypot avoids underflow for subnormal entries.
        v1, n1 = (b, lam - a), math.hypot(b, lam - a)
        v2, n2 = (lam - c, b), math.hypot(lam - c, b)
        (x, y), n = (v1, n1) if n1 >= n2 else (v2, n2)
        x, y = x / n, y / n
        pivot = x if abs(x) > 1e-12 else y
        return (x, y) if pivot >= 0 else (-x, -y)

    x, y = eigenvector(hi)
    # The second eigenvector is the quarter-turn of the first (same convention
    # as the spin module: right-handed orthonormal pair).
    return (hi, (x, y)), (lo, (-y, x))


def selftest() -> list[CheckReport]:
    """The battery: exhaustive group checks plus numeric cross-checks of the package's paths."""
    from . import haar, scenarios, spin  # loaded here, so that the finite checks do not load the numeric modules

    reports = [
        verify_group_axioms(group)
        for group in (
            make_coin_group(),
            make_cyclic(4),
            make_dihedral(3),
            make_octahedral(),
            direct_product(make_dihedral(3), make_cyclic(4)),
        )
    ]

    pairs = {(o.up, o.north) for o in enumerate_die_orientations()}
    built = {(o.up, o.north) for o in all_orientations()}
    reports.append(
        CheckReport(
            "die-orientations",
            pairs == built and len(pairs) == 24,
            float(len(pairs ^ built)),
            f"{len(pairs)} enumerated",
        )
    )

    census = cube_rotation_census()
    expected = {1: 1, 2: 9, 3: 8, 4: 6}
    reports.append(
        CheckReport(
            "octahedral-order-census",
            census == expected == make_octahedral().order_census(),
            0.0 if census == expected else 1.0,
            str(census),
        )
    )

    log2 = integrate(lambda x: 1.0 / x, 1.0, 2.0, 1e-12)
    reports.append(CheckReport("quadrature-log2", abs(log2 - math.log(2)) <= 1e-10, abs(log2 - math.log(2))))

    d = haar.normalize(haar.scale_family(), haar.IntervalConstraint(1.0, 4.0))
    mass = integrate(d.density_at, 1.0, 4.0, 1e-12)
    reports.append(CheckReport("density-normalization", abs(mass - 1.0) <= 1e-10, abs(mass - 1.0)))

    worst = 0.0
    for theta in [0.0, math.pi / 3, math.pi / 2, 2.0, 4.0]:
        obs = spin.observable(theta)
        (_, v_plus), (_, v_minus) = spin.eigensystem(obs)
        (hi, u_plus), (lo, u_minus) = symmetric_eigensolver_2x2(obs.matrix)
        worst = max(
            worst,
            abs(hi - 1.0),
            abs(lo + 1.0),
            abs(u_plus[0] - v_plus.up.real),
            abs(u_plus[1] - v_plus.down.real),
            abs(u_minus[0] - v_minus.up.real),
            abs(u_minus[1] - v_minus.down.real),
        )
    reports.append(CheckReport("eigensolver-cross-check", worst <= 1e-12, worst))

    # Spin up measured along x, as `groupmeasure chain` runs it: the chain's exact value is cos^2(pi/4), and
    # 20 000 trials from seeds 1000 + i count +1 near it.
    chain = dict(scenarios.run(scenarios.Scenario("spin_chain", ([math.pi / 2], 1_000, 20_000))).summary)
    frequency, exact, z = chain["final_plus_frequency"], chain["final_plus_expected"], chain["final_plus_z"]
    closed_form = abs(exact - math.cos(math.pi / 4) ** 2)
    reports.append(CheckReport(
        "spin-frequency", closed_form <= 1e-15 and abs(z) <= 4.0, abs(frequency - exact),
        f"empirical {frequency:.5f} vs exact {exact:.5f}, z={z:.3f}, exact - cos^2(pi/4) = {closed_form:.3g}",
    ))
    reports += [verify_action(coin_action()), verify_action(die_action())]
    return reports
