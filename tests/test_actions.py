from fractions import Fraction

import pytest

from groupmeasure.actions import (
    FACE_AXES,
    DieOrientation,
    GroupAction,
    all_orientations,
    coin_action,
    die_action,
    uniform_over_action,
)
from groupmeasure.groups import make_cyclic, make_octahedral, mat_mul, octahedral_matrices
from groupmeasure.oracle import enumerate_die_orientations


def test_orientation_validation():
    DieOrientation(1, 2)
    with pytest.raises(ValueError, match="adjacent"):
        DieOrientation(1, 6)  # opposite faces
    with pytest.raises(ValueError, match="adjacent"):
        DieOrientation(3, 3)
    with pytest.raises(ValueError, match="1..6"):
        DieOrientation(7, 2)


@pytest.mark.parametrize("up, north", [(True, 2), (2, True), (2.0, 1)], ids=["up_true", "north_true", "up_float"])
def test_a_face_that_is_not_an_int_is_refused(up, north):
    # True == 1 and 2.0 == 2, so a bool or float face would pass the range check and then
    # label, compare and hash as the int face: DieOrientation(True, 2) == DieOrientation(1, 2).
    with pytest.raises(ValueError, match=r"face must be 1\.\.6"):
        DieOrientation(up, north)


def test_orientation_label_roundtrip():
    o = DieOrientation(4, 5)
    assert o.label == "up4_north5"
    assert DieOrientation.from_label(o.label) == o


def test_a_label_that_names_no_orientation_is_refused():
    with pytest.raises(ValueError, match="^not an orientation label: 'bogus'$"):
        DieOrientation.from_label("bogus")


def test_exactly_24_orientations_matching_oracle_enumeration():
    built = all_orientations()
    assert len(built) == 24
    assert set(built) == set(enumerate_die_orientations())


def test_die_action_has_24_states():
    assert len(die_action().states) == 24


def test_die_action_identity_fixes_reference_orientation():
    action = die_action()
    i = action.states.index("up1_north2")
    assert action.act[action.group.identity][i] == i


def test_die_action_is_simply_transitive():
    action = die_action()
    n = len(action.states)
    for s in range(n):
        for t in range(n):
            movers = [g for g in action.group.elements() if action.act[g][s] == t]
            assert len(movers) == 1


def test_die_action_is_a_homomorphism():
    action = die_action()
    for g in action.group.elements():
        for h in action.group.elements():
            gh = action.group.compose(g, h)
            for s in range(0, 24, 5):
                assert action.act[g][action.act[h][s]] == action.act[gh][s]


def _orientation_after(m):
    # Apply m to every face axis of the reference placement; read which face lands up and north.
    face_at = {
        tuple(sum(m[i][k] * axis[k] for k in range(3)) for i in range(3)): face
        for face, axis in FACE_AXES.items()
    }
    return DieOrientation(face_at[(0, 0, 1)], face_at[(0, 1, 0)])


def test_die_action_moves_each_orientation_by_the_rotation_product():
    action = die_action()
    mats = octahedral_matrices()
    matrix_of = {_orientation_after(m).label: m for m in mats}
    assert sorted(matrix_of) == sorted(action.states)
    for g, m_g in enumerate(mats):
        for s, label in enumerate(action.states):
            moved = _orientation_after(mat_mul(m_g, matrix_of[label]))
            assert action.states[action.act[g][s]] == moved.label


def test_die_action_group_is_the_octahedral_group():
    assert die_action().group == make_octahedral()


def test_uniform_over_die_action():
    table = uniform_over_action(die_action())
    assert len(table.outcomes) == 24
    assert all(p == Fraction(1, 24) for _, p in table.outcomes)


def test_uniform_over_coin_action():
    table = uniform_over_action(coin_action())
    assert dict(table.outcomes) == {"heads": Fraction(1, 2), "tails": Fraction(1, 2)}


def test_uniform_over_trivial_action():
    action = GroupAction(make_cyclic(1), ("only",), ((0,),))
    table = uniform_over_action(action)
    assert table.outcomes == (("only", Fraction(1)),)


def test_non_transitive_action_is_rejected():
    action = GroupAction(make_cyclic(1), ("left", "right"), ((0, 1),))
    with pytest.raises(ValueError, match="transitive"):
        uniform_over_action(action)


def test_action_table_must_respect_identity():
    with pytest.raises(ValueError, match="identity"):
        GroupAction(make_cyclic(2), ("x", "y"), ((1, 0), (0, 1)))


def test_action_without_one_row_per_group_element_is_refused():
    with pytest.raises(ValueError, match="^action table must have one row per group element$"):
        GroupAction(make_cyclic(2), ("a", "b"), ((0, 1),))


def test_action_without_states_is_refused():
    # It used to construct, and uniform_over_action then failed with an IndexError.
    with pytest.raises(ValueError, match="at least one state"):
        GroupAction(make_cyclic(1), (), ((),))


def test_relabeling_by_group_element_preserves_probabilities():
    # Conjugating the action by any group element permutes state labels but
    # leaves every state's probability unchanged.
    action = die_action()
    table = uniform_over_action(action)
    probs = dict(table.outcomes)
    for g in (1, 7, 20):
        perm = action.act[g]
        relabeled_states = tuple(action.states[perm[s]] for s in range(24))
        inv = action.group.table[g].index(action.group.identity)
        act = tuple(
            tuple(
                action.act[inv][action.act[h][perm[s]]]
                for s in range(24)
            )
            for h in action.group.elements()
        )
        relabeled = GroupAction(action.group, relabeled_states, act)
        new_table = uniform_over_action(relabeled)
        assert sorted(p for _, p in new_table.outcomes) == sorted(p for _, p in table.outcomes)
        for label, p in new_table.outcomes:
            assert probs[label] == p
