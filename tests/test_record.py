"""Value semantics of every record type: immutable, equal and hashed by field, printed by field."""

from fractions import Fraction

import pytest

from groupmeasure import actions, groups, haar, oracle, scenarios, spin, tables
from groupmeasure.record import Record


def _law(a, b):
    return a + b + a * b


def _family():
    return haar.OneParamFamily(haar.CUSTOM, _law, 0.0)


# One maker per record class; each call builds a fresh instance with the same fields.
MAKERS = {
    "ProbabilityTable": lambda: tables.ProbabilityTable((("a", Fraction(1, 3)), ("b", Fraction(2, 3)))),
    "DieOrientation": lambda: actions.DieOrientation(1, 2),
    "GroupAction": lambda: actions.GroupAction(groups.make_cyclic(2), ("x", "y"), ((0, 1), (1, 0))),
    "FiniteGroup": lambda: groups.make_dihedral(3),
    "OneParamFamily": _family,
    "IntervalConstraint": lambda: haar.IntervalConstraint(1.0, 2.0),
    "NormalizedDensity": lambda: haar.normalize(_family(), haar.IntervalConstraint(1.0, 4.0)),
    "SpinRay": lambda: spin.SpinRay(0.6 + 0.0j, 0.8j),
    "SpinObservable": lambda: spin.observable(0.3),
    "MeasurementOutcome": lambda: spin.MeasurementOutcome(-1, 0.25, spin.SPIN_DOWN),
    "CheckReport": lambda: oracle.CheckReport("check", True, 0.0, "details"),
    "Scenario": lambda: scenarios.scenario_from_dict({"kind": "die", "query": "marginal_up"}),
    "Report": lambda: scenarios.run(scenarios.scenario_from_dict({"kind": "coin"})),
}


def _twin(record):
    """A record of another class holding the same field values."""
    twin_class = type("Twin", (Record,), {"__slots__": type(record).__slots__})
    twin = object.__new__(twin_class)
    for name in twin_class.__slots__:
        object.__setattr__(twin, name, getattr(record, name))
    return twin


def test_every_record_class_in_the_package_is_covered():
    package_records = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("groupmeasure.")}
    assert {type(make()) for make in MAKERS.values()} == package_records


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_fields_cannot_be_assigned_or_deleted(make):
    record = make()
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_records_are_equal_and_hash_alike_by_field_and_class(make):
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert not first != second
    assert hash(first) == hash(second)
    twin = _twin(first)
    assert first != twin
    assert twin != first


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
def test_repr_names_the_class_and_every_field(make):
    record = make()
    text = repr(record)
    assert text.startswith(f"{type(record).__name__}(")
    for name in type(record).__slots__:
        assert f"{name}={getattr(record, name)!r}" in text


# Records whose constructor takes nested sequences, with arguments given as lists at every depth.
LIST_ARGUMENTS = {
    "ProbabilityTable": (tables.ProbabilityTable, lambda: ([["a", Fraction(1, 2)], ["b", Fraction(1, 2)]],)),
    "FiniteGroup": (groups.FiniteGroup, lambda: ("C2", [[0, 1], [1, 0]], 0)),
    "GroupAction": (actions.GroupAction, lambda: (groups.make_cyclic(2), ["x", "y"], [[0, 1], [1, 0]])),
}


def _as_tuples(value):
    """``value`` with every list in it, at any depth, a tuple."""
    return tuple(map(_as_tuples, value)) if isinstance(value, list) else value


def _scramble(value):
    """Reverse every list in ``value`` in place, at any depth, and append its new first item to it."""
    if isinstance(value, list):
        for item in value:
            _scramble(item)
        value.reverse()
        value.append(value[0])


@pytest.mark.parametrize("cls, arguments", LIST_ARGUMENTS.values(), ids=LIST_ARGUMENTS.keys())
def test_a_record_built_from_lists_keeps_what_it_checked(cls, arguments):
    # A record used to keep the caller's lists: changing them afterwards changed the record past its
    # checks (a table summing to 3/2, a group entry out of range), and it could not be hashed.
    args = arguments()
    from_tuples = cls(*map(_as_tuples, args))
    record = cls(*args)
    for arg in args:
        _scramble(arg)
    assert record == from_tuples
    assert hash(record) == hash(from_tuples)
    assert repr(record) == repr(from_tuples)


def _fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


# Records with no constructor of their own: Record.__init__ is the one check of their arity.
NO_INIT = {
    "OneParamFamily": (haar.OneParamFamily, (haar.CUSTOM, _law, 0.0)),
    "NormalizedDensity": (haar.NormalizedDensity, _fields(MAKERS["NormalizedDensity"]())),
    "SpinObservable": (spin.SpinObservable, (0.0, ((1.0, 0.0), (0.0, -1.0)))),
    "MeasurementOutcome": (spin.MeasurementOutcome, (-1, 0.25, spin.SPIN_DOWN)),
}


@pytest.mark.parametrize("cls, fields", NO_INIT.values(), ids=NO_INIT.keys())
def test_a_record_without_a_constructor_refuses_one_value_too_few_or_too_many(cls, fields):
    n = len(fields)
    assert _fields(cls(*fields)) == fields
    with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {n} fields, got {n - 1}$"):
        cls(*fields[:-1])
    with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {n} fields, got {n + 1}$"):
        cls(*fields, None)


@pytest.mark.parametrize("cls, fields", NO_INIT.values(), ids=NO_INIT.keys())
def test_a_record_without_a_constructor_takes_its_fields_by_name(cls, fields):
    named = dict(zip(cls.__slots__, fields))
    assert cls(**named) == cls(*fields)
    assert cls(fields[0], **dict(list(named.items())[1:])) == cls(*fields)
    first = cls.__slots__[0]
    with pytest.raises(TypeError, match=rf"^{cls.__name__} has no field 'nope'$"):
        cls(*fields, nope=None)
    with pytest.raises(TypeError, match=rf"^{cls.__name__} got field '{first}' twice$"):
        cls(*fields, **{first: fields[0]})
    with pytest.raises(TypeError, match=rf"^{cls.__name__} takes {len(fields)} fields, got {len(fields) - 1}$"):
        cls(**{name: value for name, value in named.items() if name != first})


def test_records_of_two_classes_do_not_order():
    # Both hold two ints, so compared by their fields alone the first would sort before the second.
    first, second = haar.IntervalConstraint(0, 1), actions.DieOrientation(1, 2)
    for smaller, larger in ((first, second), (second, first)):
        with pytest.raises(TypeError):
            smaller < larger


def test_die_orientations_sort_and_dedupe():
    o = actions.DieOrientation
    assert sorted([o(2, 1), o(1, 3), o(1, 2)]) == [o(1, 2), o(1, 3), o(2, 1)]
    assert {o(1, 2), o(1, 2), o(2, 1)} == {o(2, 1), o(1, 2)}
    assert len({o(1, 2), o(1, 2), o(2, 1)}) == 2
    assert o(1, 2) != (1, 2)
