import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupmeasure.groups import FiniteGroup, make_cyclic, make_octahedral
from groupmeasure.haar import IntervalConstraint, normalize, scale_family
from groupmeasure.oracle import (
    CheckReport,
    cube_rotation_census,
    enumerate_die_orientations,
    frequency_test,
    integrate,
    symmetric_eigensolver_2x2,
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
    corrupted = FiniteGroup("C4-broken", 4, tuple(tuple(r) for r in rows), g.identity, g.inverse)
    report = verify_group_axioms(corrupted)
    assert not report.passed
    assert report.worst_residual > 0


def test_trivial_group_passes_axioms():
    assert verify_group_axioms(make_cyclic(1)).passed


def test_axiom_check_refuses_huge_orders():
    g = make_cyclic(2)
    huge = FiniteGroup("huge", 2, g.table, g.identity, g.inverse)
    object.__setattr__(huge, "n", 20_000)  # simulate an infeasible order
    with pytest.raises(ValueError, match="infeasible"):
        verify_group_axioms(huge)


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


def test_eigensolver_scalar_matrix():
    (hi, v_hi), (lo, v_lo) = symmetric_eigensolver_2x2([[2.0, 0.0], [0.0, 2.0]])
    assert hi == lo == 2.0
    assert abs(float(np.dot(v_hi, v_lo))) <= 1e-15


def test_eigensolver_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigensolver_2x2([[1.0, 0.5], [0.2, 1.0]])


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


def test_frequency_test_fair_coin_passes():
    rng = random.Random(123)
    flips = [rng.random() < 0.5 for _ in range(100_000)]
    report = frequency_test(lambda i: flips[i], lambda v: v, 0.5, 100_000)
    assert report.passed, report.line()


def test_frequency_test_constant_sampler_fails():
    report = frequency_test(lambda i: 1, lambda v: v == 1, 0.5, 10_000)
    assert not report.passed


def test_frequency_test_requires_enough_trials():
    with pytest.raises(ValueError, match="1000"):
        frequency_test(lambda i: 1, lambda v: True, 0.5, 10)


def test_frequency_test_requires_nondegenerate_probability():
    with pytest.raises(ValueError, match="strictly"):
        frequency_test(lambda i: 1, lambda v: True, 1.0, 10_000)


def test_check_report_line_format():
    assert CheckReport("demo", True, 0.0).line() == "demo PASS residual=0"
    line = CheckReport("demo", False, 0.25, "why").line()
    assert line.startswith("demo FAIL") and "why" in line
