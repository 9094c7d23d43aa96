import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deadlines import deadline
from groupmeasure import oracle
from groupmeasure.actions import GroupAction, coin_action, die_action
from groupmeasure.groups import FiniteGroup, direct_product, make_cyclic, make_dihedral, make_octahedral
from groupmeasure.haar import IntervalConstraint, normalize, scale_family
from groupmeasure.oracle import (
    CheckReport,
    cube_rotation_census,
    enumerate_die_orientations,
    integrate,
    symmetric_eigensolver_2x2,
    verify_action,
    verify_group_axioms,
)
from groupmeasure.spin import observable


def test_octahedral_axioms_pass():
    report = verify_group_axioms(make_octahedral())
    assert report.passed
    assert report.worst_residual == 0.0


def test_corrupted_table_fails_axioms():
    g = make_cyclic(4)
    rows = [list(row) for row in g.table]
    rows[1][2], rows[1][3] = rows[1][3], rows[1][2]
    corrupted = FiniteGroup("C4-broken", tuple(tuple(r) for r in rows), g.identity)
    report = verify_group_axioms(corrupted)
    assert not report.passed
    assert report.worst_residual > 0


def test_trivial_group_passes_axioms():
    assert verify_group_axioms(make_cyclic(1)).passed


SMALL_GROUPS = [
    make_cyclic(1),
    make_cyclic(2),
    make_cyclic(5),
    make_cyclic(12),
    make_dihedral(3),
    make_dihedral(6),
    direct_product(make_cyclic(2), make_cyclic(2)),
    direct_product(make_cyclic(3), make_cyclic(2)),
]


def brute_force_axioms(g: FiniteGroup) -> tuple[bool, float, str]:
    """The four axioms straight from their definitions, one element triple at a time."""
    n, t, e = g.n, g.table, g.identity
    closure = identity = inverse = associativity = 0
    for a in range(n):
        if t[e][a] != a or t[a][e] != a:
            identity += 1
        if not any(t[a][b] == e and t[b][a] == e for b in range(n)):
            inverse += 1
        for b in range(n):
            if not 0 <= t[a][b] < n:
                closure += 1
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    associativity += 1
    counts = {"closure": closure, "identity": identity, "inverse": inverse, "associativity": associativity}
    violations = sum(counts.values())
    details = ",".join(name for name, count in counts.items() if count) or f"order {n}"
    return violations == 0, float(violations), details


@st.composite
def corrupted_groups(draw):
    """A small group whose table has some entries swapped within a row and some replaced by strays."""
    g = draw(st.sampled_from(SMALL_GROUPS))
    rows = [list(row) for row in g.table]
    index = st.integers(0, g.n - 1)
    for _ in range(draw(st.integers(0, 4))):
        a, i, j = draw(index), draw(index), draw(index)
        if draw(st.booleans()):
            rows[a][i], rows[a][j] = rows[a][j], rows[a][i]
        else:
            rows[a][i] = j
    return FiniteGroup(f"{g.label}-corrupted", tuple(map(tuple, rows)), g.identity)


@given(corrupted_groups())
def test_row_sweep_matches_the_brute_force_definition(g):
    report = verify_group_axioms(g)
    assert (report.passed, report.worst_residual, report.details) == brute_force_axioms(g)


@pytest.mark.parametrize("g", [*SMALL_GROUPS, make_octahedral()], ids=lambda g: g.label)
def test_row_sweep_matches_the_brute_force_definition_on_groups(g):
    report = verify_group_axioms(g)
    expected = brute_force_axioms(g)
    assert (report.passed, report.worst_residual, report.details) == expected == (True, 0.0, f"order {g.n}")


def right_zero(n: int) -> FiniteGroup:
    """a∘b = b: associative, every element a left identity, no two-sided one."""
    return FiniteGroup(f"right-zero{n}", tuple(tuple(range(n)) for _ in range(n)), 0)


def left_zero(n: int) -> FiniteGroup:
    """a∘b = a: associative, every element a right identity, no two-sided one."""
    return FiniteGroup(f"left-zero{n}", tuple((a,) * n for a in range(n)), 0)


MAGMAS = [right_zero(2), right_zero(5), right_zero(12), left_zero(2), left_zero(5), left_zero(12)]


@pytest.mark.parametrize("g", MAGMAS, ids=lambda g: g.label)
def test_check_matches_the_brute_force_definition_on_associative_magmas(g):
    # x∘s is s or x, so nothing reaches a new element: the greedy generating set is every element.
    assert oracle._greedy_generators(g.table) == list(g.elements())
    report = verify_group_axioms(g)
    assert (report.passed, report.worst_residual, report.details) == brute_force_axioms(g)
    assert report.details == "identity,inverse"


def test_an_inverse_past_a_one_sided_candidate_is_counted():
    # Row 2 meets the identity first at 1, but 1∘2 = 2; the two-sided inverse of 2 is 2.
    g = FiniteGroup("t", ((0, 1, 2), (1, 0, 2), (2, 0, 0)), 0)
    report = verify_group_axioms(g)
    assert (report.passed, report.worst_residual, report.details) == brute_force_axioms(g)
    assert report.details == "associativity"


# Groups of order 13-40 whose greedy generating sets have two, three and four elements.
MEDIUM_GROUPS = [
    make_cyclic(13),
    make_cyclic(20),
    make_dihedral(10),
    direct_product(make_cyclic(4), make_cyclic(5)),
    direct_product(make_dihedral(2), make_cyclic(10)),
]


@st.composite
def relabelled_and_corrupted_groups(draw):
    """A medium group under a drawn relabelling of its elements, with up to 3 entries changed.

    Relabelling moves the identity and the generators away from the small ids, so the greedy
    generating set is a different one from table to table.
    """
    g = draw(st.sampled_from(MEDIUM_GROUPS))
    n = g.n
    label = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[label[a]][label[b]] = label[g.table[a][b]]
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(index)][draw(index)] = draw(index)
    return FiniteGroup(f"{g.label}-relabelled", tuple(map(tuple, rows)), label[g.identity])


@settings(max_examples=60, deadline=None)
@given(relabelled_and_corrupted_groups())
def test_generator_check_matches_the_brute_force_definition_at_medium_orders(g):
    report = verify_group_axioms(g)
    assert (report.passed, report.worst_residual, report.details) == brute_force_axioms(g)


@pytest.mark.parametrize("g", MEDIUM_GROUPS, ids=lambda g: g.label)
def test_a_wrong_entry_in_a_generator_row_is_found(g):
    # Swapping two entries of the last generator's row keeps that row a permutation, and the
    # check of that generator is the one that fails.
    s = oracle._greedy_generators(g.table)[-1]
    rows = [list(row) for row in g.table]
    rows[s][0], rows[s][1] = rows[s][1], rows[s][0]
    broken = FiniteGroup(f"{g.label}-swapped", tuple(map(tuple, rows)), g.identity)
    report = verify_group_axioms(broken)
    assert (report.passed, report.worst_residual, report.details) == brute_force_axioms(broken)
    assert "associativity" in report.details


@pytest.mark.parametrize(
    "g", [make_cyclic(1000), make_dihedral(500), direct_product(make_dihedral(2), make_cyclic(250))],
    ids=lambda g: g.label,
)
def test_large_groups_are_checked_within_a_second(g):
    # Sweeping every pair (a, b) would take about 30 s at order 1000; one to three generators take 0.1 s.
    with deadline(1.0):
        report = verify_group_axioms(g)
    assert report.line() == f"group-axioms[{g.label}] PASS residual=0 (order {g.n})"


@pytest.mark.parametrize(
    "g, passes",
    [
        (make_cyclic(1), 0),  # its one entry is the identity, so no generator is left to check
        *((make_cyclic(n), 1) for n in (2, 3, 40)),
        *((make_dihedral(k), 2) for k in (2, 3, 20)),
        *((direct_product(make_dihedral(2), make_cyclic(m)), 3) for m in (3, 10)),
    ],
    ids=lambda value: value.label if isinstance(value, FiniteGroup) else str(value),
)
def test_a_group_takes_one_row_pass_per_generator_other_than_its_verified_identity(monkeypatch, g, passes):
    # The identity count already shows (a∘e)∘c = a∘c = a∘(e∘c), so Light's test leaves e out.
    through = []
    check = oracle._associates_through
    monkeypatch.setattr(oracle, "_associates_through", lambda table, s: through.append(s) or check(table, s))
    assert verify_group_axioms(g).passed
    assert len(through) == passes and g.identity not in through


def test_the_group_check_loads_no_numeric_module():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\nfrom groupmeasure import groups, oracle\n"
        "assert oracle.verify_group_axioms(groups.make_dihedral(4)).passed\n"
        "print(sorted(m for m in ('groupmeasure.haar', 'groupmeasure.spin') if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.splitlines()[-1] == "[]"


def test_axiom_check_refuses_huge_orders():
    g = make_cyclic(2)
    huge = FiniteGroup("huge", g.table, g.identity)
    for order in (4097, 20_000):
        object.__setattr__(huge, "n", order)  # simulate an infeasible order
        with pytest.raises(ValueError, match=f"^exhaustive check infeasible at order {order}$"):
            verify_group_axioms(huge)


def test_a_group_table_entry_that_is_no_int_is_refused_by_name():
    # 1.0 is a member of the ids 0..1, so the group builds; the check then reads it as an index.
    g = FiniteGroup("t", ((0, 1.0), (1, 0)), 0)
    with pytest.raises(ValueError, match=r"^t: table entry 1\.0 at row 0, column 1 is not an int$"):
        verify_group_axioms(g)


@pytest.mark.parametrize(
    "action, message",
    [
        (GroupAction(make_cyclic(2), ("x", "y"), ((0, 1), (1.0, 0))),
         r"^action table entry 1\.0 at row 1, column 0 is not an int$"),
        (GroupAction(FiniteGroup("t", ((0, 1.0), (1, 0)), 0), ("x", "y"), ((0, 1), (1, 0))),
         r"^t: table entry 1\.0 at row 0, column 1 is not an int$"),
    ],
    ids=["action-entry", "group-entry"],
)
def test_an_action_or_group_entry_that_is_no_int_is_refused_by_name(action, message):
    with pytest.raises(ValueError, match=message):
        verify_action(action)


@pytest.mark.parametrize(
    "action, details",
    [
        # Element 1 sends both states to y, so its row is no permutation, and act[1∘1] = act[0]
        # is not act[1]∘act[1].
        (GroupAction(make_cyclic(2), ("x", "y"), ((0, 1), (1, 1))), "permutation,composition"),
        # Every row permutes the states, but element 2 acts as element 1 does.
        (GroupAction(make_cyclic(3), ("a", "b", "c"), ((0, 1, 2), (1, 2, 0), (1, 2, 0))), "composition"),
    ],
    ids=["C2-not-a-permutation", "C3-not-a-homomorphism"],
)
def test_a_table_that_is_no_action_fails_the_action_check(action, details):
    report = verify_action(action)
    assert (report.passed, report.worst_residual, report.details) == (False, 2.0, details)


def brute_force_is_action(action: GroupAction) -> bool:
    """Every row a permutation and act[g∘h] = act[g]∘act[h] for every pair, from the definitions."""
    act, n_states = action.act, len(action.states)
    return all(sorted(row) == list(range(n_states)) for row in act) and all(
        act[action.group.compose(g, h)][x] == act[g][act[h][x]]
        for g in action.group.elements()
        for h in action.group.elements()
        for x in range(n_states)
    )


def regular_action(g: FiniteGroup) -> GroupAction:
    """g acting on itself by left multiplication: act[a][b] = a∘b."""
    return GroupAction(g, tuple(map(str, g.elements())), g.table)


@pytest.mark.parametrize(
    "action",
    [
        coin_action(),
        GroupAction(make_cyclic(2), ["heads", "tails"], [[0, 1], [1, 0]]),  # rows given as lists
        die_action(),
        *(regular_action(g) for g in SMALL_GROUPS + MEDIUM_GROUPS),
    ],
    ids=lambda action: action.group.label,
)
def test_the_built_actions_pass_the_action_check(action):
    report = verify_action(action)
    assert brute_force_is_action(action)
    assert report.line() == f"action[{action.group.label}] PASS residual=0 ({len(action.states)} states)"


@st.composite
def corrupted_regular_actions(draw):
    """A medium group's regular action with up to 3 entries changed outside the identity row."""
    g = draw(st.sampled_from(MEDIUM_GROUPS))
    rows = [list(row) for row in g.table]
    index = st.integers(0, g.n - 1)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(index.filter(lambda a: a != g.identity))
        rows[a][draw(index)] = draw(index)
    return GroupAction(g, tuple(map(str, g.elements())), tuple(map(tuple, rows)))


@settings(max_examples=60, deadline=None)
@given(corrupted_regular_actions())
def test_the_generator_action_check_agrees_with_every_pair(action):
    assert verify_action(action).passed == brute_force_is_action(action)


def test_die_orientation_enumeration():
    orientations = enumerate_die_orientations()
    assert len(orientations) == 24
    pairs = {(o.up, o.north) for o in orientations}
    assert (1, 2) in pairs
    assert (1, 6) not in pairs  # opposite faces cannot be up and north
    assert (1, 1) not in pairs


def test_cube_rotation_census_from_generators():
    assert cube_rotation_census() == {1: 1, 2: 9, 3: 8, 4: 6}


def test_integrate_constant():
    assert integrate(lambda x: 1.0, 2.0, 7.0, 1e-12) == pytest.approx(5.0, abs=1e-12)


def test_integrate_reciprocal_gives_log():
    value = integrate(lambda x: 1.0 / x, 1.0, 2.0, 1e-12)
    assert value == pytest.approx(math.log(2.0), abs=1e-10)


def test_integrate_normalized_density():
    d = normalize(scale_family(), IntervalConstraint(1.0, 4.0))
    mass = integrate(d.density_at, 1.0, 4.0, 1e-12)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_integrate_requires_ordered_bounds():
    with pytest.raises(ValueError, match="lower < upper"):
        integrate(lambda x: x, 2.0, 1.0, 1e-10)


@pytest.mark.parametrize(
    "lower, upper", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)], ids=["upper", "lower", "both"]
)
def test_integrate_refuses_infinite_bounds(lower, upper):
    with pytest.raises(ValueError, match=rf"^need finite lower < upper, got \[{lower}, {upper}\]$"):
        integrate(math.exp, lower, upper, 1e-10)


def test_integrate_exact_reciprocal_over_nine_decades():
    # Each halving halves the absolute budget; it must not fall below a panel's own rounding.
    value = integrate(lambda t: 1.0 / t, 1e-4, 1e5, 1e-10)
    assert value == pytest.approx(math.log(1e9), rel=1e-13)


def test_integrate_reports_non_convergence():
    with pytest.raises(RuntimeError, match="converge"):
        integrate(lambda x: 0.0 if x < 0.3 else 1.0, 0.0, 1.0, 1e-13)


def test_eigensolver_diagonal():
    (hi, v_hi), (lo, v_lo) = symmetric_eigensolver_2x2([[1.0, 0.0], [0.0, -1.0]])
    assert (hi, lo) == (1.0, -1.0)
    assert np.allclose(v_hi, [1.0, 0.0])
    assert np.allclose(v_lo, [0.0, 1.0])


def test_eigensolver_on_sixty_degree_observable():
    (hi, v_hi), (lo, v_lo) = symmetric_eigensolver_2x2(observable(math.pi / 3.0).matrix)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(v_hi, [math.cos(math.pi / 6.0), math.sin(math.pi / 6.0)], atol=1e-12)
    assert np.allclose(v_lo, [-math.sin(math.pi / 6.0), math.cos(math.pi / 6.0)], atol=1e-12)


def test_eigensolver_classic_example():
    (hi, _), (lo, _) = symmetric_eigensolver_2x2([[2.0, 1.0], [1.0, 2.0]])
    assert hi == pytest.approx(3.0, abs=1e-12)
    assert lo == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_eigensolver_keeps_the_smaller_eigenvalue_when_the_two_differ_in_scale(sign):
    # Eigenvalues 1e20 and 1 - 1e-4 (det / trace to 1e-36); mid - radius would cancel to 0.
    (hi, v_hi), (lo, v_lo) = symmetric_eigensolver_2x2([[sign * 1e20, sign * 1e8], [sign * 1e8, sign * 1.0]])
    big, small = sign * 1e20, sign * (1.0 - 1e-4)
    assert (hi, lo) == pytest.approx((max(big, small), min(big, small)), rel=1e-12)
    assert np.allclose(np.abs(v_hi if sign > 0 else v_lo), [1.0, 1e-12], rtol=1e-9, atol=0.0)


def test_eigensolver_scalar_matrix():
    (hi, v_hi), (lo, v_lo) = symmetric_eigensolver_2x2([[2.0, 0.0], [0.0, 2.0]])
    assert hi == lo == 2.0
    assert abs(float(np.dot(v_hi, v_lo))) <= 1e-15


def test_eigensolver_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigensolver_2x2([[1.0, 0.5], [0.2, 1.0]])


def test_eigensolver_checks_symmetry_relative_to_the_largest_entry():
    # Off-diagonals 1e-10 apart relative to the 1e20 entry are symmetric within rounding.
    (hi, _), (lo, _) = symmetric_eigensolver_2x2([[1e20, 1e8], [1e8 + 0.01, 1.0]])
    assert hi == 1e20 and lo == pytest.approx(1.0 - 1e-4, rel=1e-12)
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigensolver_2x2([[1.0, 0.0], [0.5, 1.0]])


@pytest.mark.parametrize("m", [
    [[math.inf, 1.0], [2.0, 0.0]], [[math.inf, 1.0], [1.0, 0.0]], [[1.0, math.nan], [math.nan, 1.0]],
])
def test_eigensolver_refuses_a_non_finite_entry_instead_of_answering_nan(m):
    with pytest.raises(ValueError, match="finite"):
        symmetric_eigensolver_2x2(m)


@pytest.mark.parametrize(
    "m",
    [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], 2.0],
)
def test_eigensolver_rejects_non_2x2_input(m):
    with pytest.raises(ValueError, match="2x2"):
        symmetric_eigensolver_2x2(m)


@given(
    a=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    b=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    c=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_eigensolver_reconstructs_matrix(a, b, c):
    m = np.array([[a, b], [b, c]])
    (hi, v_hi), (lo, v_lo) = symmetric_eigensolver_2x2(m)
    assert hi >= lo
    assert abs(float(np.dot(v_hi, v_lo))) <= 1e-9
    rebuilt = hi * np.outer(v_hi, v_hi) + lo * np.outer(v_lo, v_lo)
    assert np.allclose(rebuilt, m, atol=1e-9)


def test_check_report_line_format():
    assert CheckReport("demo", True, 0.0).line() == "demo PASS residual=0"
    line = CheckReport("demo", False, 0.25, "why").line()
    assert line.startswith("demo FAIL") and "why" in line
