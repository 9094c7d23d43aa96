import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupmeasure.oracle import frequency_test, symmetric_eigensolver_2x2
from groupmeasure.spin import (
    SPIN_DOWN,
    SPIN_UP,
    SpinRay,
    amplitudes,
    collapse,
    eigensystem,
    observable,
    probabilities,
    sequential_chain,
)

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True, allow_nan=False)


def random_ray(theta: float, phi: float, global_phase: float) -> SpinRay:
    up = math.cos(theta / 2.0)
    down = math.sin(theta / 2.0) * cmath.exp(1j * phi)
    shift = cmath.exp(1j * global_phase)
    return SpinRay(up * shift, down * shift)


def test_observable_along_z():
    assert observable(0.0).matrix == ((1.0, 0.0), (0.0, -1.0))


def test_observable_along_x():
    m = np.array(observable(math.pi / 2.0).matrix)
    assert np.allclose(m, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_observable_at_sixty_degrees():
    m = np.array(observable(math.pi / 3.0).matrix)
    expected = [[0.5, math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, -0.5]]
    assert np.allclose(m, expected, atol=1e-15)


def test_observable_rejects_non_finite_angle():
    with pytest.raises(ValueError, match="finite"):
        observable(math.nan)


@given(theta=angles)
def test_observable_is_traceless_hermitian_with_unit_determinant(theta):
    m = np.array(observable(theta).matrix)
    assert np.array_equal(m, m.conj().T)
    assert m[0, 0] + m[1, 1] == 0.0
    assert abs(np.linalg.det(m) + 1.0) <= 1e-12


def test_eigensystem_along_z():
    (plus_val, plus), (minus_val, minus) = eigensystem(observable(0.0))
    assert (plus_val, minus_val) == (1, -1)
    assert (plus.up, plus.down) == (1.0 + 0.0j, 0.0j)
    assert (minus.up, minus.down) == (0.0j, 1.0 + 0.0j)


def test_eigensystem_along_x():
    (_, plus), (_, minus) = eigensystem(observable(math.pi / 2.0))
    r = math.sqrt(2.0) / 2.0
    assert plus.up.real == pytest.approx(r, abs=1e-15)
    assert plus.down.real == pytest.approx(r, abs=1e-15)
    assert minus.up.real == pytest.approx(-r, abs=1e-15)
    assert minus.down.real == pytest.approx(r, abs=1e-15)


@given(theta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
def test_eigensystem_matches_half_angle_forms(theta):
    (_, plus), (_, minus) = eigensystem(observable(theta))
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    assert abs(plus.up - c) <= 1e-12 and abs(plus.down - s) <= 1e-12
    assert abs(minus.up + s) <= 1e-12 and abs(minus.down - c) <= 1e-12


@given(theta=angles)
def test_eigensystem_orthonormal_and_matches_generic_solver(theta):
    obs = observable(theta)
    (_, plus), (_, minus) = eigensystem(obs)
    inner = plus.up.conjugate() * minus.up + plus.down.conjugate() * minus.down
    assert abs(inner) <= 1e-12
    (hi, u_plus), (lo, u_minus) = symmetric_eigensolver_2x2(obs.matrix)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert lo == pytest.approx(-1.0, abs=1e-12)
    assert abs(u_plus[0] - plus.up.real) <= 1e-9
    assert abs(u_plus[1] - plus.down.real) <= 1e-9
    assert abs(u_minus[0] - minus.up.real) <= 1e-9
    assert abs(u_minus[1] - minus.down.real) <= 1e-9


@given(theta=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
def test_spin_up_amplitudes_are_half_angle_cosine_sine(theta):
    amp_plus, amp_minus = amplitudes(SPIN_UP, observable(theta))
    assert abs(amp_plus - math.cos(theta / 2.0)) <= 1e-12
    assert abs(amp_minus + math.sin(theta / 2.0)) <= 1e-12


def test_eigenstate_has_unit_amplitude():
    obs = observable(1.2)
    (_, plus), _ = eigensystem(obs)
    amp_plus, amp_minus = amplitudes(plus, obs)
    assert amp_plus == pytest.approx(1.0, abs=1e-12)
    assert amp_minus == pytest.approx(0.0, abs=1e-12)


def test_spin_down_amplitudes_at_sixty_degrees():
    amp_plus, amp_minus = amplitudes(SPIN_DOWN, observable(math.pi / 3.0))
    assert amp_plus == pytest.approx(0.5, abs=1e-12)
    assert amp_minus == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)


def test_unnormalized_ray_is_rejected():
    with pytest.raises(ValueError, match="normalized"):
        SpinRay(1.0 + 0.0j, 1.0 + 0.0j)


@given(theta=angles, phi=angles, obs_angle=angles)
def test_reconstruction_identity(theta, phi, obs_angle):
    ray = random_ray(theta, phi, 0.0)
    obs = observable(obs_angle)
    (_, plus), (_, minus) = eigensystem(obs)
    amp_plus, amp_minus = amplitudes(ray, obs)
    up = amp_plus * plus.up + amp_minus * minus.up
    down = amp_plus * plus.down + amp_minus * minus.down
    assert abs(up - ray.up) <= 1e-12
    assert abs(down - ray.down) <= 1e-12


def test_probabilities_at_poles_and_equator():
    assert probabilities(SPIN_UP, observable(0.0)) == (1.0, 0.0)
    p_plus, p_minus = probabilities(SPIN_UP, observable(math.pi))
    assert p_plus == pytest.approx(0.0, abs=1e-12)
    assert p_minus == pytest.approx(1.0, abs=1e-12)
    p_plus, p_minus = probabilities(SPIN_UP, observable(math.pi / 2.0))
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    assert p_minus == pytest.approx(0.5, abs=1e-12)


@given(theta=angles, phi=angles, obs_angle=angles)
def test_probabilities_sum_to_one(theta, phi, obs_angle):
    p_plus, p_minus = probabilities(random_ray(theta, phi, 0.0), observable(obs_angle))
    assert abs(p_plus + p_minus - 1.0) <= 1e-12


@given(theta=angles, phi=angles, obs_angle=angles, global_phase=angles)
def test_global_phase_cannot_change_probabilities(theta, phi, obs_angle, global_phase):
    obs = observable(obs_angle)
    base = probabilities(random_ray(theta, phi, 0.0), obs)
    shifted = probabilities(random_ray(theta, phi, global_phase), obs)
    assert abs(base[0] - shifted[0]) <= 1e-12
    assert abs(base[1] - shifted[1]) <= 1e-12


def test_born_rule_for_spin_up_over_angle_grid():
    for k in range(721):
        theta = 2.0 * math.pi * k / 721.0
        p_plus, _ = probabilities(SPIN_UP, observable(theta))
        assert abs(p_plus - math.cos(theta / 2.0) ** 2) <= 1e-12


def test_collapse_onto_x_eigenvector():
    post = collapse(SPIN_UP, observable(math.pi / 2.0), 1)
    r = math.sqrt(2.0) / 2.0
    assert post.up.real == pytest.approx(r, abs=1e-15)
    assert post.down.real == pytest.approx(r, abs=1e-15)


def test_collapse_is_idempotent_on_eigenstates():
    obs = observable(2.1)
    (_, plus), _ = eigensystem(obs)
    assert collapse(plus, obs, 1) == plus


def test_collapse_on_impossible_outcome_is_an_error():
    # At theta = pi the +1 probability of spin-up rounds to 3.7e-33, not 0.
    for theta, outcome in ((0.0, -1), (math.pi, 1)):
        with pytest.raises(ValueError, match="probability 0"):
            collapse(SPIN_UP, observable(theta), outcome)


def test_collapse_validates_outcome_value():
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        collapse(SPIN_UP, observable(0.0), 2)


@given(obs_angle=angles, outcome_seed=st.integers(min_value=0, max_value=10))
def test_remeasurement_after_collapse_is_certain(obs_angle, outcome_seed):
    obs = observable(obs_angle)
    trajectory = sequential_chain(SPIN_UP, [obs_angle], seed=outcome_seed)
    post = trajectory[-1].post_state
    p_plus, p_minus = probabilities(post, obs)
    repeat = p_plus if trajectory[-1].eigenvalue == 1 else p_minus
    assert abs(repeat - 1.0) <= 1e-12


def test_repeated_z_measurement_is_deterministic():
    trajectory = sequential_chain(SPIN_UP, [0.0, 0.0], seed=3)
    assert [t.eigenvalue for t in trajectory] == [1, 1]
    assert trajectory[1].probability == pytest.approx(1.0, abs=1e-12)


def test_second_x_measurement_repeats_the_first():
    for seed in range(20):
        first, second = sequential_chain(SPIN_UP, [math.pi / 2.0, math.pi / 2.0], seed=seed)
        assert second.eigenvalue == first.eigenvalue
        assert second.probability == pytest.approx(1.0, abs=1e-12)


def test_chain_requires_angles():
    with pytest.raises(ValueError, match="at least one"):
        sequential_chain(SPIN_UP, [], seed=0)


def test_chain_is_deterministic_per_seed():
    a = sequential_chain(SPIN_UP, [math.pi / 2.0, 0.3, 1.8], seed=42)
    b = sequential_chain(SPIN_UP, [math.pi / 2.0, 0.3, 1.8], seed=42)
    assert a == b


def test_x_then_z_chain_final_frequency():
    # P(final +1) = 1/2 * 1/2 + 1/2 * 1/2 by the chain rule.
    sampler = lambda i: sequential_chain(SPIN_UP, [math.pi / 2.0, 0.0], seed=5_000 + i)[-1]
    report = frequency_test(sampler, lambda t: t.eigenvalue == 1, 0.5, 20_000)
    assert report.passed, report.line()
