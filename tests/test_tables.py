from fractions import Fraction

import pytest

from groupmeasure.actions import DieOrientation, all_orientations, die_action, uniform_over_action
from groupmeasure.tables import (
    ProbabilityTable,
    bayes_factorization_check,
    condition,
    marginalize,
)


@pytest.fixture(scope="module")
def die_joint():
    return uniform_over_action(die_action())


def up_projection():
    return {o.label: f"up{o.up}" for o in all_orientations()}


def north_projection():
    return {o.label: f"north{o.north}" for o in all_orientations()}


def test_table_requires_exact_normalization():
    with pytest.raises(ValueError, match="sum"):
        ProbabilityTable((("a", Fraction(1, 2)), ("b", Fraction(1, 3))))


def test_table_rejects_negative_probability():
    with pytest.raises(ValueError, match="negative"):
        ProbabilityTable((("a", Fraction(3, 2)), ("b", Fraction(-1, 2))))


def test_table_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        ProbabilityTable((("a", Fraction(1, 2)), ("a", Fraction(1, 2))))


def test_marginal_up_face_is_one_sixth(die_joint):
    marginal = marginalize(die_joint, up_projection())
    assert len(marginal.outcomes) == 6
    assert all(p == Fraction(1, 6) for _, p in marginal.outcomes)
    assert sum(p for _, p in marginal.outcomes) == 1


def test_marginalize_identity_projection_is_noop(die_joint):
    identity = {label: label for label in die_joint.labels()}
    assert marginalize(die_joint, identity) == die_joint


def test_marginalize_to_up_parity(die_joint):
    parity = {
        o.label: "even" if o.up % 2 == 0 else "odd" for o in all_orientations()
    }
    table = marginalize(die_joint, parity)
    assert dict(table.outcomes) == {"odd": Fraction(1, 2), "even": Fraction(1, 2)}


def test_marginalize_requires_total_projection(die_joint):
    partial = up_projection()
    del partial["up1_north2"]
    with pytest.raises(ValueError, match="undefined"):
        marginalize(die_joint, partial)


def test_condition_on_north_two(die_joint):
    conditioned = condition(
        die_joint, lambda label: DieOrientation.from_label(label).north == 2
    )
    assert len(conditioned.outcomes) == 4
    assert all(p == Fraction(1, 4) for _, p in conditioned.outcomes)


def test_condition_always_true_is_noop(die_joint):
    assert condition(die_joint, lambda label: True) == die_joint


def test_condition_on_up_three_leaves_adjacent_norths(die_joint):
    conditioned = condition(
        die_joint, lambda label: DieOrientation.from_label(label).up == 3
    )
    norths = sorted(DieOrientation.from_label(l).north for l in conditioned.labels())
    assert norths == [1, 2, 5, 6]
    assert all(p == Fraction(1, 4) for _, p in conditioned.outcomes)


def test_condition_on_nothing_is_an_error(die_joint):
    with pytest.raises(ValueError, match="no outcomes"):
        condition(die_joint, lambda label: False)


def _split_north_up(label):
    o = DieOrientation.from_label(label)
    return f"north{o.north}", f"up{o.up}"


def _north_conditionals(joint):
    conditionals = {}
    for n in range(1, 7):
        kept = condition(joint, lambda label, n=n: DieOrientation.from_label(label).north == n)
        conditionals[f"north{n}"] = marginalize(kept, up_projection())
    return conditionals


def test_die_joint_factorizes_exactly(die_joint):
    marginal = marginalize(die_joint, north_projection())
    residual = bayes_factorization_check(
        die_joint, marginal, _north_conditionals(die_joint), _split_north_up
    )
    assert residual == 0


def test_die_joint_factorizes_in_both_orders(die_joint):
    # Conditioning on the up face instead of the north face factorizes too.
    marginal = marginalize(die_joint, up_projection())
    conditionals = {}
    for u in range(1, 7):
        kept = condition(die_joint, lambda label, u=u: DieOrientation.from_label(label).up == u)
        conditionals[f"up{u}"] = marginalize(kept, north_projection())

    def split(label):
        o = DieOrientation.from_label(label)
        return f"up{o.up}", f"north{o.north}"

    assert bayes_factorization_check(die_joint, marginal, conditionals, split) == 0


def test_single_outcome_factorization_is_exact():
    joint = ProbabilityTable((("c_f", Fraction(1)),))
    marginal = ProbabilityTable((("c", Fraction(1)),))
    conditionals = {"c": ProbabilityTable((("f", Fraction(1)),))}
    assert bayes_factorization_check(joint, marginal, conditionals, lambda l: ("c", "f")) == 0


def test_perturbed_joint_has_positive_residual(die_joint):
    # Move mass between two cells (keeping the table normalized) so the
    # product form no longer matches.
    outcomes = list(die_joint.outcomes)
    bump = Fraction(1, 23) - Fraction(1, 24)
    outcomes[0] = (outcomes[0][0], Fraction(1, 23))
    outcomes[1] = (outcomes[1][0], Fraction(1, 24) - bump)
    perturbed = ProbabilityTable(tuple(outcomes))
    marginal = marginalize(die_joint, north_projection())
    residual = bayes_factorization_check(
        perturbed, marginal, _north_conditionals(die_joint), _split_north_up
    )
    assert residual > 0
    assert residual == bump


def test_structural_mismatch_is_an_error(die_joint):
    marginal = marginalize(die_joint, north_projection())
    with pytest.raises(ValueError, match="missing"):
        bayes_factorization_check(
            die_joint, marginal, _north_conditionals(die_joint), lambda l: ("elsewhere", "x")
        )
