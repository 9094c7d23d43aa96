from itertools import permutations, product

import pytest

from groupmeasure.groups import (
    direct_product,
    make_coin_group,
    make_cyclic,
    make_dihedral,
    make_octahedral,
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


def test_dihedral_three_has_six_elements():
    assert make_dihedral(3).n == 6


def test_dihedral_reflection_conjugates_rotation_to_inverse():
    k = 5
    g = make_dihedral(k)
    r, f = 1, k  # generator word ids: r = rotation, f = reflection
    assert g.element_order(r) == k
    assert g.element_order(f) == 2
    frf = g.compose(g.compose(f, r), f)
    assert frf == g.inverse[r]


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
