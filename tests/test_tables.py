import re
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupmeasure.actions import DieOrientation, all_orientations, die_action, uniform_over_action
from groupmeasure.tables import (
    ProbabilityTable,
    bayes_factorization_check,
    condition,
    marginalize,
    uniform_table,
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


@pytest.mark.parametrize(
    "outcomes, label",
    [
        ((("a", 0.1), ("b", 0.2), ("c", 0.7)), "a"),
        ((("a", Fraction(1, 3)), ("b", 2 / 3)), "b"),
        ((("a", True),), "a"),
        ((("a", Fraction(1, 2)), ("b", 0), ("c", Decimal("0.5"))), "c"),
    ],
    ids=["floats", "fraction_and_float", "bool", "decimal"],
)
def test_a_probability_that_is_not_an_int_or_a_fraction_is_refused(outcomes, label):
    with pytest.raises(ValueError, match=f"^probability .* for outcome '{label}' is not an int or a Fraction$"):
        ProbabilityTable(outcomes)


@pytest.mark.parametrize(
    "outcomes, message",
    [
        ((("a", Fraction(-1, 2)), ("a", 0.5), ("b", 1)), "negative probability -1/2 for outcome 'a'"),
        ((("a", 1), ("b", 0.5), ("b", Fraction(-1, 2))), "probability 0.5 for outcome 'b' is not an int or a Fraction"),
        ((("a", 1), ("a", 0.5), ("b", Fraction(-1, 2))), "duplicate outcome label 'a'"),
        ((("a", 2), ("b", 0), ("c", -1), ("d", -1)), "negative probability -1 for outcome 'c'"),
        # The repeated label comes first; this was refused as "outcome ('b',) is not a (label, probability) pair".
        ((("a", Fraction(1, 2)), ("a", Fraction(1, 2)), ("b",)), "duplicate outcome label 'a'"),
        ((("a", Fraction(1, 2)), ("b",), ("a", Fraction(1, 2))), r"outcome \('b',\) is not a \(label, probability\) pair"),
    ],
    ids=["sign-first", "type-first", "label-first", "first-of-two-signs", "label-before-pair", "pair-before-label"],
)
def test_a_table_with_several_faults_names_the_first_outcome_that_has_one(outcomes, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProbabilityTable(outcomes)


def test_int_probabilities_are_accepted_and_come_back_as_fractions():
    table = ProbabilityTable((("a", 1), ("b", 0)))
    assert table.outcomes == (("a", 1), ("b", 0))
    for p in (*(p for _, p in marginalize(table, {"a": "x", "b": "x"}).outcomes),
              *(p for _, p in condition(table, lambda label: True).outcomes)):
        assert type(p) is Fraction


@pytest.mark.parametrize("outcome", [("a",), ("a", Fraction(1, 2), "b")], ids=["one", "three"])
def test_an_outcome_that_is_not_a_pair_is_refused_by_name(outcome):
    # Both used to be refused in tuple unpacking's words ("not enough values to unpack").
    with pytest.raises(ValueError, match=rf"^outcome {re.escape(repr(outcome))} is not a \(label, probability\) pair$"):
        ProbabilityTable((("b", Fraction(1, 2)), outcome))


@pytest.mark.parametrize(
    "call, label",
    [
        (lambda: ProbabilityTable([(["a"], 1)]), ["a"]),
        (lambda: ProbabilityTable([("b", Fraction(1, 2)), (("a", ["c"]), Fraction(1, 2))]), ("a", ["c"])),
        (lambda: uniform_table([["a"], ["b"]]), ["a"]),
        (lambda: uniform_table(["b", {"a": 1}]), {"a": 1}),
    ],
    ids=["table-list", "table-tuple-holding-a-list", "uniform-list", "uniform-dict-after-a-str"],
)
def test_a_label_that_cannot_be_hashed_is_refused_by_name(call, label):
    # Each used to fail in the set of labels as a bare TypeError: unhashable type.
    with pytest.raises(ValueError, match=rf"^outcome label {re.escape(repr(label))} cannot be hashed$"):
        call()


def test_a_marginal_whose_numerators_share_a_factor_of_2_equals_the_table_of_its_outcomes():
    # (2, 2)/4 reduces to (1, 1)/2: a marginal that kept the unreduced form would not equal the checked table.
    marginal = marginalize(uniform_table("abcd"), {"a": "x", "b": "x", "c": "y", "d": "y"})
    assert marginal == ProbabilityTable(marginal.outcomes)
    assert (marginal.numerators, marginal.denominator) == ((1, 1), 2)


def test_probability_reads_the_outcome_of_its_label_and_refuses_a_missing_one():
    table = ProbabilityTable((("a", Fraction(1, 6)), ("b", Fraction(1, 3)), ("c", Fraction(1, 2))))
    assert [table.probability(label) for label in "cab"] == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)]
    with pytest.raises(ValueError, match="^no outcome labelled 'd'$"):
        table.probability("d")


def test_a_table_without_outcomes_is_refused():
    with pytest.raises(ValueError, match="^probability table must have at least one outcome$"):
        ProbabilityTable(())


def test_uniform_table_without_labels_is_refused():
    # It used to fail with a ZeroDivisionError from Fraction(1, 0).
    with pytest.raises(ValueError, match="at least one label"):
        uniform_table(())


def test_uniform_table_with_a_repeated_label_is_refused():
    with pytest.raises(ValueError, match="^duplicate outcome label 'x'$"):
        uniform_table(("x", "x"))
    with pytest.raises(ValueError, match="^duplicate outcome label 'y'$"):
        uniform_table(["x", "y", "y", "x"])


def test_derived_tables_are_built_without_the_checking_constructor(monkeypatch, die_joint):
    # A derived table comes from its builder's integer form, which needs no check and no
    # second derivation; the constructor is for outside input.
    calls = []
    check = ProbabilityTable.__init__

    def counted(table, outcomes):
        calls.append(outcomes)
        check(table, outcomes)

    monkeypatch.setattr(ProbabilityTable, "__init__", counted)
    assert uniform_table(die_joint.labels()) == die_joint
    marginal = marginalize(die_joint, up_projection())
    assert marginal.outcomes == tuple((f"up{u}", Fraction(1, 6)) for u in range(1, 7))
    assert len(condition(die_joint, lambda label: label.endswith("north2")).outcomes) == 4
    assert calls == []
    ProbabilityTable((("a", 1),))
    assert calls == [(("a", 1),)]


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


def test_a_fine_label_missing_from_its_conditional_is_an_error(die_joint):
    marginal = marginalize(die_joint, north_projection())
    with pytest.raises(ValueError, match="^no outcome labelled 'up9'$"):
        bayes_factorization_check(
            die_joint, marginal, _north_conditionals(die_joint), lambda l: (_split_north_up(l)[0], "up9")
        )


# A plain-Fraction reference for the table operations.  Each refusal raises a ValueError whose
# message holds the reference's keyword, which the implementation's message must also hold.
def reference_table(outcomes):
    seen = set()
    total = Fraction(0)
    for label, p in outcomes:
        if label in seen:
            raise ValueError("duplicate")
        seen.add(label)
        if p < 0:
            raise ValueError("negative")
        total += p
    if total != 1:
        raise ValueError("sum")
    return outcomes


def reference_marginalize(outcomes, projection):
    sums = {}
    for label, p in outcomes:
        if label not in projection:
            raise ValueError("undefined")
        sums[projection[label]] = sums.get(projection[label], Fraction(0)) + p
    return reference_table(tuple(sums.items()))


def reference_condition(outcomes, keep):
    kept = [(label, p) for label, p in outcomes if keep(label)]
    if not kept:
        raise ValueError("no outcomes")
    total = sum(p for _, p in kept)
    if total == 0:
        raise ValueError("zero-probability")
    return reference_table(tuple((label, p / total) for label, p in kept))


def reference_bayes(joint, marginal, conditionals, split):
    marginal = dict(marginal)
    conditionals = {c: dict(t) for c, t in conditionals.items()}
    worst = Fraction(0)
    for label, p in joint:
        coarse, fine = split(label)
        if coarse not in marginal:
            raise ValueError("missing from marginal")
        if coarse not in conditionals:
            raise ValueError("no conditional table")
        if fine not in conditionals[coarse]:
            raise ValueError("no outcome labelled")
        worst = max(worst, abs(p - marginal[coarse] * conditionals[coarse][fine]))
    return worst


def outcome_of(f, *args):
    """("ok", value) or ("refused", message) for one call."""
    try:
        return "ok", f(*args)
    except ValueError as err:
        return "refused", str(err)


def assert_same(got, want):
    """The implementation's outcome matches the reference's, and every probability it returns is a Fraction."""
    if want[0] == "refused":
        assert got[0] == "refused" and want[1] in got[1], (got, want)
        return
    assert got[0] == "ok", got
    if isinstance(got[1], ProbabilityTable):
        assert got[1].outcomes == want[1]
        returned = [p for _, p in got[1].outcomes]
    else:
        assert got[1] == want[1]
        returned = [got[1]]
    assert all(type(p) is Fraction for p in returned)


@st.composite
def rational_tables(draw, faults=True):
    """Outcomes "c<i>|f<j>" with gaps between sorted cut points a/d of [0, 1] as probabilities, d <= 10**6.

    A repeated cut point gives a zero entry.  With ``faults``, some tables are then broken: one probability
    raised (sum != 1), one made negative with the sum kept, or one label repeated."""
    n = draw(st.integers(1, 40))
    denominators = st.integers(1, 10**6)
    cuts = [Fraction(0)]
    for _ in range(n - 1):
        if draw(st.integers(0, 4)) == 0:
            cuts.append(cuts[-1])
        else:
            d = draw(denominators)
            cuts.append(Fraction(draw(st.integers(0, d)), d))
    cuts = sorted(cuts) + [Fraction(1)]
    fine = draw(st.integers(1, 6))
    labels = [f"c{i // fine}|f{i % fine}" for i in range(n)]
    probabilities = [b - a for a, b in zip(cuts, cuts[1:])]
    fault = draw(st.sampled_from(["none"] * 6 + ["sum", "negative", "duplicate"])) if faults else "none"
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if fault == "sum":
        probabilities[i] += Fraction(1, draw(denominators))
    elif fault == "negative" and i != j:
        moved = probabilities[i] + Fraction(1, draw(denominators))
        probabilities[i] -= moved
        probabilities[j] += moved
    elif fault == "duplicate" and i != j:
        labels[i] = labels[j]
    return tuple(zip(labels, probabilities))


def split_label(label):
    coarse, fine = label.split("|")
    return coarse, fine


@settings(max_examples=150, deadline=None)
@given(joint=rational_tables(), data=st.data())
def test_table_operations_match_a_plain_fraction_reference(joint, data):
    built = outcome_of(ProbabilityTable, joint)
    assert_same(built, outcome_of(reference_table, joint))
    if built[0] == "refused":
        return
    table = built[1]
    labels = table.labels()

    projection = {label: split_label(label)[0] for label in labels}
    if data.draw(st.integers(0, 9), label="drop one label") == 0:
        del projection[data.draw(st.sampled_from(labels), label="undefined at")]
    assert_same(outcome_of(marginalize, table, projection), outcome_of(reference_marginalize, joint, projection))

    keep = set(data.draw(st.lists(st.sampled_from(labels), max_size=len(labels)), label="kept")).__contains__
    assert_same(outcome_of(condition, table, keep), outcome_of(reference_condition, joint, keep))

    # The marginal and conditionals come from the joint's probabilities, permuted over its labels:
    # the identity factorizes exactly, another permutation leaves a residual, and a coarse class
    # without mass has no conditional table.
    probabilities = data.draw(st.permutations([p for _, p in joint]), label="permuted")
    source = ProbabilityTable(tuple(zip(labels, probabilities)))
    coarse_of = {label: split_label(label)[0] for label in labels}
    marginal = marginalize(source, coarse_of)
    conditionals = {}
    for c, mass in marginal.outcomes:
        if mass:
            kept = condition(source, lambda label, c=c: coarse_of[label] == c)
            conditionals[c] = marginalize(kept, {label: split_label(label)[1] for label in kept.labels()})
    assert_same(
        outcome_of(bayes_factorization_check, table, marginal, conditionals, split_label),
        outcome_of(reference_bayes, joint, marginal.outcomes,
                   {c: t.outcomes for c, t in conditionals.items()}, split_label),
    )


@st.composite
def exact_tables(draw):
    """Valid tables of ``rational_tables``, each whole probability (0 or 1) an int or a Fraction, as drawn."""
    return tuple(
        (label, int(p) if p.denominator == 1 and draw(st.booleans()) else p)
        for label, p in draw(rational_tables(faults=False))
    )


def assert_integer_form(table):
    """``numerators`` and ``denominator`` are the table's probabilities over their least common denominator."""
    assert all(type(n) is int for n in table.numerators)
    assert len(table.numerators) == len(table.outcomes)
    assert sum(table.numerators) == table.denominator
    assert table.denominator == lcm(*(p.denominator for _, p in table.outcomes))
    for (_, p), n in zip(table.outcomes, table.numerators):
        assert Fraction(n, table.denominator) == p


@settings(max_examples=150, deadline=None)
@given(outcomes=exact_tables(), data=st.data())
def test_every_table_holds_its_probabilities_in_integer_form(outcomes, data):
    table = ProbabilityTable(outcomes)
    assert table.outcomes == outcomes
    assert_integer_form(table)
    labels = table.labels()

    uniform = uniform_table(labels)
    assert_integer_form(uniform)
    assert uniform.outcomes == tuple((label, Fraction(1, len(labels))) for label in labels)

    projection = {label: split_label(label)[0] for label in labels}
    marginal = marginalize(table, projection)
    assert_integer_form(marginal)
    assert marginal.outcomes == reference_marginalize(outcomes, projection)

    keep = set(data.draw(st.lists(st.sampled_from(labels), min_size=1), label="kept")).__contains__
    got, want = outcome_of(condition, table, keep), outcome_of(reference_condition, outcomes, keep)
    assert_same(got, want)
    if got[0] == "ok":
        assert_integer_form(got[1])

    # The integer form follows from the outcomes, so it changes nothing about equality, hashing or order.
    as_fractions = ProbabilityTable(tuple((label, Fraction(p)) for label, p in outcomes))
    assert as_fractions == table and hash(as_fractions) == hash(table)
    for other in (uniform, marginal):
        assert (table == other) == (table.outcomes == other.outcomes)
        assert (table < other) == (table.outcomes < other.outcomes)
