import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from groupmeasure import spin
from groupmeasure.oracle import symmetric_eigensolver_2x2
from groupmeasure.spin import (
    SPIN_DOWN,
    SPIN_UP,
    MeasurementOutcome,
    SpinRay,
    amplitudes,
    collapse,
    eigensystem,
    final_plus_probability,
    observable,
    probabilities,
    sequential_chain,
    transition_table,
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
    huge = complex(1.5e308, 1.5e308)  # its modulus is past the float range
    for up, down in [(1.0 + 0.0j, 1.0 + 0.0j), (1e200, 0j), (huge, 0j), (float("nan"), 0j)]:
        with pytest.raises(ValueError, match="normalized"):
            SpinRay(up, down)


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
        with pytest.raises(ValueError, match=rf"^outcome {re.escape(f'{outcome:+d}')} has probability 0 "):
            collapse(SPIN_UP, observable(theta), outcome)


def test_a_possible_outcome_near_the_antipode_is_observed_and_the_antipode_is_refused():
    # p = sin(1e-6)^2 is about 1e-12, far above the rounding residue at the angle's scale.
    obs = observable(math.pi - 2e-6)
    assert probabilities(SPIN_UP, obs)[0] == pytest.approx(1e-12, rel=1e-9)
    assert collapse(SPIN_UP, obs, 1) == eigensystem(obs)[0][1]
    with pytest.raises(ValueError, match="probability 0"):
        collapse(SPIN_UP, observable(math.pi), 1)


def test_a_chain_refuses_exactly_the_impossible_outcomes_at_its_angles_scale():
    # theta2 = theta1 + k pi: for odd k the outcome that repeats the first is impossible, for even k the other one.
    # The rounding of theta1 leaves it a residue near ulp(theta1)^2 even where theta2 is small.
    rng = random.Random(2024)
    cases = [(1e6 + 0.3, -318_310), (1e6 + 0.3, 1), (0.7, 5)]
    cases += [(rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 9), rng.randint(-10**6, 10**6)) for _ in range(2000)]
    for first, k in cases:
        second = first + k * math.pi
        floor = math.ulp(max(abs(first), abs(second), math.pi)) ** 2
        table = transition_table(SPIN_UP, [first, second])
        for row, repeated in zip(table[1], (1, 2)):
            impossible, certain = (repeated, 3 - repeated) if k % 2 else (3 - repeated, repeated)
            assert type(row[impossible]) is str, (first, k)
            assert 1.0 - row[certain].probability <= max(floor, 1e-15), (first, k)


@pytest.mark.parametrize("thetas, seed, outcomes", [
    ([2.0**50 + 0.75, 1.0], 15, [-1, 1]),  # step 2 draws +1 at p = 0.018
    ([1e16], 0, [-1]),
    ([1e16], 1, [1]),  # p = 0.187
], ids=["2^50_then_1", "1e16_seed_0", "1e16_seed_1"])
def test_a_likely_outcome_at_an_angle_past_2_to_the_33_is_observed_not_refused(thetas, seed, outcomes):
    # The angle's spacing squared passes 1e-12 from |theta| = 2^33; the floor stays at 1e-12 there.
    table = transition_table(SPIN_UP, thetas)
    for step in table:
        for row in step:
            assert all(isinstance(outcome, MeasurementOutcome) for outcome in row[1:]), row
    trajectory = sequential_chain(table, seed)
    assert [step.eigenvalue for step in trajectory] == outcomes
    assert min(step.probability for step in trajectory) > 0.01
    assert spin._residue_floor(thetas[-1], thetas[0]) == spin.NORM_TOL


def test_a_chain_seed_must_be_an_int():
    # random.Random seeds a str from its SHA-512 and the C class from its per-process hash.
    table = transition_table(SPIN_UP, [1.0])
    assert sequential_chain(table, True) == sequential_chain(table, 1)
    for seed in ("7", b"7", 7.0, None):
        with pytest.raises(TypeError):
            sequential_chain(table, seed)


@given(
    ray=st.builds(random_ray, angles, angles, angles),
    theta=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_probabilities_are_the_squared_moduli_of_the_eigenvector_inner_products_to_the_bit(ray, theta):
    obs = observable(theta)
    expected = tuple(
        abs(v.up.conjugate() * ray.up + v.down.conjugate() * ray.down) ** 2 for _, v in eigensystem(obs)
    )
    assert probabilities(ray, obs) == expected


def test_collapse_validates_outcome_value():
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        collapse(SPIN_UP, observable(0.0), 2)


@pytest.mark.parametrize("outcome", [1.0, True, -1.0, "1"], ids=["float", "bool", "negative-float", "str"])
def test_collapse_refuses_an_outcome_that_is_not_the_int_1_or_minus_1(outcome):
    # 1.0 and True used to collapse onto the +1 eigenvector.
    with pytest.raises(ValueError, match=rf"^outcome must be \+1 or -1, got {re.escape(repr(outcome))}$"):
        collapse(SPIN_UP, observable(0.7), outcome)


@given(obs_angle=angles, outcome_seed=st.integers(min_value=0, max_value=10))
def test_remeasurement_after_collapse_is_certain(obs_angle, outcome_seed):
    obs = observable(obs_angle)
    trajectory = sequential_chain(transition_table(SPIN_UP, [obs_angle]), seed=outcome_seed)
    post = trajectory[-1].post_state
    p_plus, p_minus = probabilities(post, obs)
    repeat = p_plus if trajectory[-1].eigenvalue == 1 else p_minus
    assert abs(repeat - 1.0) <= 1e-12


def test_repeated_z_measurement_is_deterministic():
    trajectory = sequential_chain(transition_table(SPIN_UP, [0.0, 0.0]), seed=3)
    assert [t.eigenvalue for t in trajectory] == [1, 1]
    assert trajectory[1].probability == pytest.approx(1.0, abs=1e-12)


def test_second_x_measurement_repeats_the_first():
    table = transition_table(SPIN_UP, [math.pi / 2.0, math.pi / 2.0])
    for seed in range(20):
        first, second = sequential_chain(table, seed=seed)
        assert second.eigenvalue == first.eigenvalue
        assert second.probability == pytest.approx(1.0, abs=1e-12)


def test_chain_requires_angles():
    with pytest.raises(ValueError, match="at least one"):
        transition_table(SPIN_UP, [])


def test_chain_is_deterministic_per_seed():
    table = transition_table(SPIN_UP, [math.pi / 2.0, 0.3, 1.8])
    a = sequential_chain(table, seed=42)
    b = sequential_chain(table, seed=42)
    assert a == b


def test_x_then_z_chain_final_frequency():
    # P(final +1) = 1/2 * 1/2 + 1/2 * 1/2 by the chain rule.
    table = transition_table(SPIN_UP, [math.pi / 2.0, 0.0])
    exact, trials = final_plus_probability(table), 20_000
    assert abs(exact - (math.cos(math.pi / 4) ** 4 + math.sin(math.pi / 4) ** 4)) <= 1e-15
    plus = sum(sequential_chain(table, seed=5_000 + i)[-1].eigenvalue == 1 for i in range(trials))
    assert abs(plus - trials * exact) <= 4.0 * math.sqrt(trials * exact * (1.0 - exact))


def reference_chain(initial, thetas, seed):
    """The chain's seed contract written out step by step: one draw per step, +1 iff below p_plus.

    An outcome is refused at p <= min(ulp(max(|previous angle|, |angle|, pi))^2, 1e-12); collapse knows
    only the angle.
    """
    rng = random.Random(seed)
    state, previous = initial, 0.0
    trajectory = []
    for theta in thetas:
        obs = observable(theta)
        p_plus, p_minus = probabilities(state, obs)
        outcome = 1 if rng.random() < p_plus else -1
        p, unit = (p_plus if outcome == 1 else p_minus), math.ulp(max(abs(previous), abs(theta), math.pi))
        floor = min(unit * unit, 1e-12)
        if p <= floor:
            raise ValueError(spin._refusal(outcome, p, floor))
        state, previous = collapse(state, obs, outcome), theta
        trajectory.append(MeasurementOutcome(outcome, p, state))
    return trajectory


def result_of(call, *args):
    """repr of the return value, or the type and text of the error; repr tells 0.0 from -0.0."""
    try:
        return repr(call(*args))
    except ValueError as err:
        return f"ValueError: {err}"


angle_pool = st.lists(
    st.one_of(
        st.sampled_from((0.0, -0.0, math.pi, -math.pi)),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=4,
)
initial_states = st.one_of(
    st.just(SPIN_UP),
    st.just(SPIN_DOWN),
    st.builds(random_ray, angles, angles, angles),
)


@given(
    initial=initial_states,
    thetas=angle_pool.flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)),
    seed=st.integers(min_value=0, max_value=2**64),
)
@example(initial=SPIN_UP, thetas=[2.0**50 + 0.75, 1.0], seed=15)  # step 2 observes +1 at p = 0.018
def test_chain_follows_the_per_step_seed_contract(initial, thetas, seed):
    table = transition_table(initial, thetas)
    for trial_seed in (seed, seed + 1, seed):  # the repeat samples the same table with the same seed
        expected = result_of(reference_chain, initial, thetas, trial_seed)
        assert result_of(sequential_chain, table, trial_seed) == expected


def test_sampled_impossible_outcome_raises_the_collapse_error(monkeypatch):
    with pytest.raises(ValueError) as expected:
        collapse(SPIN_UP, observable(math.pi), 1)

    monkeypatch.setattr(spin, "uniform_stream", lambda seed: lambda: 0.0)  # every draw is 0.0
    table = transition_table(SPIN_UP, [math.pi])
    for _ in range(2):
        with pytest.raises(ValueError, match="has probability 0") as raised:
            sequential_chain(table, 0)
        assert str(raised.value) == str(expected.value)
