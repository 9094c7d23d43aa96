import re
from itertools import permutations, product

import pytest

from groupmeasure.actions import GroupAction
from groupmeasure.groups import (
    FiniteGroup,
    direct_product,
    make_coin_group,
    make_cyclic,
    make_dihedral,
    make_octahedral,
    mat_mul,
    octahedral_matrices,
)
from groupmeasure.oracle import verify_group_axioms


def test_cyclic_four_every_element_has_period_four():
    g = make_cyclic(4)
    assert g.n == 4
    for a in g.elements():
        acc = g.identity
        for _ in range(4):
            acc = g.compose(acc, a)
        assert acc == g.identity


def test_cyclic_one_is_trivial():
    g = make_cyclic(1)
    assert g.n == 1
    assert g.identity == 0
    assert g.compose(0, 0) == 0


def test_cyclic_six_element_orders():
    g = make_cyclic(6)
    assert g.element_order(2) == 3
    assert g.element_order(3) == 2


def test_cyclic_rejects_order_zero():
    with pytest.raises(ValueError, match="order"):
        make_cyclic(0)


@pytest.mark.parametrize(
    "make, size, words",
    [
        (make_cyclic, True, "cyclic group order"),
        (make_cyclic, "3", "cyclic group order"),
        (make_cyclic, 2.5, "cyclic group order"),
        (make_dihedral, 2.5, "dihedral parameter"),
        (make_dihedral, True, "dihedral parameter"),
    ],
    ids=["cyclic-bool", "cyclic-str", "cyclic-float", "dihedral-float", "dihedral-bool"],
)
def test_a_group_size_that_is_a_bool_or_no_int_is_refused_by_name(make, size, words):
    # make_cyclic(True) used to build a group labelled CTrue, and a str or a float raised a bare TypeError.
    with pytest.raises(ValueError, match=rf"^{words} must be at least 1, got {re.escape(repr(size))}$"):
        make(size)


def test_dihedral_three_has_six_elements():
    assert make_dihedral(3).n == 6


def test_dihedral_reflection_conjugates_rotation_to_inverse():
    k = 5
    g = make_dihedral(k)
    r, f = 1, k  # generator word ids: r = rotation, f = reflection
    assert g.element_order(r) == k
    assert g.element_order(f) == 2
    frf = g.compose(g.compose(f, r), f)
    assert g.compose(frf, r) == g.identity == g.compose(r, frf)


def test_dihedral_three_order_two_census():
    census = make_dihedral(3).order_census()
    assert census == {1: 1, 2: 3, 3: 2}


def test_dihedral_one_is_the_coin_group():
    assert make_dihedral(1).table == make_coin_group().table


def test_dihedral_rejects_order_zero():
    with pytest.raises(ValueError, match="at least 1"):
        make_dihedral(0)


def test_octahedral_order_and_identity_action():
    g = make_octahedral()
    assert g.n == 24
    for a in g.elements():
        assert g.compose(g.identity, a) == a
        assert g.compose(a, g.identity) == a


def test_octahedral_element_order_census():
    assert make_octahedral().order_census() == {1: 1, 2: 9, 3: 8, 4: 6}


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_octahedral_matrices_are_the_sorted_signed_permutations_of_determinant_one():
    reference = []
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            m = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(3)) for i in range(3))
            if _det3(m) == 1:
                reference.append(m)
    assert octahedral_matrices() == tuple(sorted(reference))


def test_octahedral_table_is_the_product_of_its_matrices():
    mats = octahedral_matrices()
    index = {m: i for i, m in enumerate(mats)}
    reference = tuple(
        tuple(index[tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))]
              for b in mats)
        for a in mats
    )
    assert make_octahedral().table == reference
    assert mat_mul(((1, 2, 3), (4, 5, 6), (7, 8, 10)), ((2, 0, 1), (1, 3, 0), (0, 1, 4))) == (
        (4, 9, 13), (13, 21, 28), (22, 34, 47))


def test_coin_group_flip_is_an_involution():
    g = make_coin_group()
    assert g.n == 2
    flip = 1 - g.identity
    assert g.compose(flip, flip) == g.identity


def test_coin_group_matches_cyclic_two():
    assert make_coin_group().table == make_cyclic(2).table


def test_direct_product_d3_c4_has_order_24():
    assert direct_product(make_dihedral(3), make_cyclic(4)).n == 24


def test_direct_product_with_trivial_group_keeps_table():
    g = make_dihedral(3)
    product = direct_product(g, make_cyclic(1))
    assert product.n == g.n
    assert product.table == g.table


def test_c2_times_c2_is_elementary_abelian():
    g = direct_product(make_cyclic(2), make_cyclic(2))
    assert g.n == 4
    orders = sorted(g.element_order(a) for a in g.elements())
    assert orders == [1, 2, 2, 2]


@pytest.mark.parametrize(
    "group",
    [
        make_coin_group(),
        make_cyclic(1),
        make_cyclic(4),
        make_dihedral(3),
        make_octahedral(),
        direct_product(make_dihedral(3), make_cyclic(4)),
    ],
    ids=lambda g: g.label,
)
def test_constructors_satisfy_group_axioms(group):
    report = verify_group_axioms(group)
    assert report.passed, report.line()
    assert report.worst_residual == 0.0


def per_entry(label, n, mul):
    """(label, table, identity) straight from the definitions, one entry at a time."""
    table = tuple(tuple(mul(a, b) for b in range(n)) for a in range(n))
    identity = next(e for e in range(n) if all(table[e][x] == x and table[x][e] == x for x in range(n)))
    return label, table, identity


def built(g):
    return g.label, g.table, g.identity


def dihedral_mul(k):
    def mul(a, b):
        s1, t1 = divmod(a, k)
        s2, t2 = divmod(b, k)
        return (s1 + s2) % 2 * k + ((t1 if s2 == 0 else -t1) + t2) % k

    return mul


def product_mul(g, h):
    def mul(a, b):
        (a1, b1), (a2, b2) = divmod(a, h.n), divmod(b, h.n)
        return g.table[a1][a2] * h.n + h.table[b1][b2]

    return mul


@pytest.mark.parametrize("n", range(1, 41))
def test_cyclic_matches_the_per_entry_definition(n):
    assert built(make_cyclic(n)) == per_entry(f"C{n}", n, lambda a, b: (a + b) % n)


@pytest.mark.parametrize("k", range(1, 21))
def test_dihedral_matches_the_per_entry_definition(k):
    assert built(make_dihedral(k)) == per_entry(f"D{k}", 2 * k, dihedral_mul(k))


FACTORS = [make_cyclic(1), make_cyclic(2), make_cyclic(3), make_cyclic(5), make_dihedral(2), make_dihedral(3)]


@pytest.mark.parametrize(
    "g, h",
    [(g, h) for g in FACTORS for h in [*FACTORS, make_cyclic(7), make_octahedral()] if g.n * h.n <= 40],
    ids=lambda g: g.label,
)
def test_direct_product_matches_the_per_entry_definition(g, h):
    expected = per_entry(f"{g.label}x{h.label}", g.n * h.n, product_mul(g, h))
    assert built(direct_product(g, h)) == expected


def test_coin_group_matches_the_per_entry_definition():
    assert built(make_coin_group()) == per_entry("coin", 2, lambda a, b: (a + b) % 2)


def test_octahedral_matches_the_per_entry_definition():
    mats = octahedral_matrices()
    expected = per_entry("O", 24, lambda a, b: mats.index(mat_mul(mats[a], mats[b])))
    assert built(make_octahedral()) == expected


def test_the_order_of_an_element_that_generates_no_cycle_is_refused():
    with pytest.raises(ValueError, match="^t: element 1 generates no cycle; table is not a group$"):
        FiniteGroup("t", ((1, 1), (1, 1)), 0).element_order(1)


@pytest.mark.parametrize("a", [-1, 5, 7, 1.0, True])
def test_the_order_of_an_element_outside_the_group_is_refused_by_name(a):
    # -1 used to read the last row and answer 5; 5 and 7 raised a bare IndexError.  1.0 and True equal an id,
    # as an identity of 1.0 or True does, and raised a bare TypeError as an index.
    with pytest.raises(ValueError, match=rf"^C5: element {re.escape(repr(a))} outside 0\.\.4$"):
        make_cyclic(5).element_order(a)


def test_the_order_of_an_element_that_meets_an_entry_that_is_no_int_is_refused_by_name():
    # 2.0 equals an id, so the constructor accepts it, and used to fail as an index with a bare TypeError.
    g = FiniteGroup("t", ((0, 1, 2), (1, 2.0, 0), (2, 0, 1)), 0)
    words = r"^t: table entry 2\.0 at row 1, column 1 is not an int$"
    with pytest.raises(ValueError, match=words):
        g.element_order(1)
    with pytest.raises(ValueError, match=words):
        g.order_census()
    # Two float entries: the one named is 2.0, which the walk from 1 fails on, not 1.0, the first in the table.
    g = FiniteGroup("z", ((0, 1.0, 2), (1, 2.0, 0), (2, 0, 1)), 0)
    with pytest.raises(ValueError, match=r"^z: table entry 2\.0 at row 1, column 1 is not an int$"):
        g.element_order(1)


@pytest.mark.parametrize(
    "rows, words",
    [((), "group order must be positive, got 0"), (((0, 1), (1,)), "t: composition table must be 2x2")],
    ids=["order_zero", "short_row"],
)
def test_a_table_of_the_wrong_shape_is_refused(rows, words):
    with pytest.raises(ValueError, match=f"^{words}$"):
        FiniteGroup("t", rows, 0)


@pytest.mark.parametrize(
    "bad, first",
    [({(1, 2): 7, (3, 0): -1}, 7), ({(2, 1): -2, (2, 3): 9}, -2), ({(3, 3): 4}, 4), ({(0, 0): -1}, -1)],
)
def test_an_entry_out_of_range_is_refused_by_name(bad, first):
    rows = [list(row) for row in make_cyclic(4).table]
    for (a, b), entry in bad.items():
        rows[a][b] = entry
    with pytest.raises(ValueError, match=rf"^bad: table entry {first} outside 0\.\.3$"):
        FiniteGroup("bad", tuple(map(tuple, rows)), 0)


@pytest.mark.parametrize(
    "act, words",
    [
        (((0, 1), (1, 2)), r"action table entry 2 outside 0\.\.1"),
        (((0, 1), (-1, 0)), r"action table entry -1 outside 0\.\.1"),
        (((0, 1), (1,)), "action table rows must map every state to a valid state"),
        (((0, 1), (1, 0, 0)), "action table rows must map every state to a valid state"),
    ],
    ids=["state_too_large", "state_negative", "row_too_short", "row_too_long"],
)
def test_an_action_to_a_state_out_of_range_is_refused(act, words):
    with pytest.raises(ValueError, match=f"^{words}$"):
        GroupAction(make_cyclic(2), ("x", "y"), act)


NOT_AN_ID = {"nan": float("nan"), "str": "a", "digit_str": "1", "none": None}


@pytest.mark.parametrize("entry", NOT_AN_ID.values(), ids=NOT_AN_ID.keys())
def test_a_group_entry_that_is_not_an_id_is_refused_by_name(entry):
    # nan used to pass the range check and fail later in the oracle with a bare TypeError;
    # a str or None failed at once with a bare TypeError from the range check itself.
    with pytest.raises(ValueError, match=rf"^t: table entry {re.escape(repr(entry))} outside 0\.\.1$"):
        FiniteGroup("t", ((0, entry), (1, 0)), 0)


@pytest.mark.parametrize("entry", NOT_AN_ID.values(), ids=NOT_AN_ID.keys())
def test_an_action_entry_that_is_not_a_state_is_refused_by_name(entry):
    # nan used to be accepted, and uniform_over_action then gave x and y 1/2 each.
    with pytest.raises(ValueError, match=rf"^action table entry {re.escape(repr(entry))} outside 0\.\.1$"):
        GroupAction(make_cyclic(2), ("x", "y"), ((0, 1), (entry, 0)))


@pytest.mark.parametrize("one", [1.0, True], ids=["float", "bool"])
def test_an_entry_equal_to_an_id_is_accepted(one):
    # A member of the set of ids passes the range check whatever its type; no per-entry type check is made.
    assert FiniteGroup("t", ((0, one), (one, 0)), 0).table == ((0, 1), (1, 0))
    assert GroupAction(make_cyclic(2), ("x", "y"), ((0, 1), (one, 0))).act == ((0, 1), (1, 0))


@pytest.mark.parametrize("identity", [5, -1, 2, 1.0, True])
def test_an_identity_out_of_range_is_refused_by_name(identity):
    # 5 used to fail later with a bare IndexError, and -1 read the last row as the identity's;
    # 1.0 and True equal an id but cannot index a row.
    with pytest.raises(ValueError, match=rf"^t: identity {re.escape(repr(identity))} outside 0\.\.1$"):
        FiniteGroup("t", ((0, 1), (1, 0)), identity)
