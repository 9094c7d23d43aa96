"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS|FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts, so the suite is both a
checklist and a gate.
"""

import ast
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from groupmeasure.actions import DieOrientation, all_orientations, die_action, uniform_over_action
from groupmeasure.cli import main
from groupmeasure.groups import (
    direct_product,
    make_coin_group,
    make_cyclic,
    make_dihedral,
    make_octahedral,
)
from groupmeasure.haar import (
    IntervalConstraint,
    custom_family,
    haar_measure,
    haar_weight,
    normalize,
    scale_family,
    translation_family,
    von_mises_reduce,
)
from groupmeasure.oracle import cube_rotation_census, integrate, verify_group_axioms
from groupmeasure.spin import SPIN_UP, eigensystem, observable, probabilities, sequential_chain, transition_table
from groupmeasure.tables import bayes_factorization_check, condition, marginalize


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


def _cli_json(capsys, *argv) -> dict:
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_01_die_joint_is_exactly_uniform(capsys):
    doc = _cli_json(capsys, "die", "--query", "joint")
    ok = len(doc["outcomes"]) == 24 and all(
        o["probability"] == "1/24" for o in doc["outcomes"]
    )
    _verdict("01-die-joint", ok)


def test_02_die_marginal_conditional_and_bayes(capsys):
    doc = _cli_json(capsys, "die", "--query", "marginal_up")
    ok = len(doc["outcomes"]) == 6 and all(o["probability"] == "1/6" for o in doc["outcomes"])

    for north in range(1, 7):
        cond = _cli_json(capsys, "die", "--query", "conditional_north", "--north", str(north))
        ok = ok and len(cond["outcomes"]) == 4
        ok = ok and all(o["probability"] == "1/4" for o in cond["outcomes"])

    joint = uniform_over_action(die_action())
    north_projection = {o.label: f"north{o.north}" for o in all_orientations()}
    up_projection = {o.label: f"up{o.up}" for o in all_orientations()}
    marginal = marginalize(joint, north_projection)
    conditionals = {}
    for n in range(1, 7):
        kept = condition(joint, lambda label, n=n: DieOrientation.from_label(label).north == n)
        conditionals[f"north{n}"] = marginalize(kept, up_projection)

    def split(label):
        o = DieOrientation.from_label(label)
        return f"north{o.north}", f"up{o.up}"

    residual = bayes_factorization_check(joint, marginal, conditionals, split)
    ok = ok and residual == Fraction(0)
    _verdict("02-die-marginal-conditional-bayes", ok)


def test_03_coin_is_exactly_even(capsys):
    doc = _cli_json(capsys, "coin")
    ok = len(doc["outcomes"]) == 2 and all(o["probability"] == "1/2" for o in doc["outcomes"])
    _verdict("03-coin", ok)


def test_04_translation_density_constant_and_normalized():
    rng = random.Random(20_240_401)
    family = translation_family()
    ok = True
    for _ in range(20):
        lo = rng.uniform(-50.0, 50.0)
        width = rng.uniform(0.1, 80.0)
        d = normalize(family, IntervalConstraint(lo, lo + width))
        expected = 1.0 / width
        for _ in range(5):
            x = rng.uniform(lo, lo + width)
            ok = ok and abs(d.density_at(x) - expected) <= 1e-12 * expected
        mass = integrate(d.density_at, d.support.lower, d.support.upper, 1e-12)
        ok = ok and abs(mass - 1.0) <= 1e-10
    _verdict("04-laplace-density", ok)


def test_05_scale_density_closed_form_and_median():
    ok = True
    for lo, hi in ((1.0, 2.0), (0.3, 7.5), (5.0, 500.0)):
        d = normalize(scale_family(), IntervalConstraint(lo, hi))
        log_ratio = math.log(hi / lo)
        for i in range(100):
            t = i / 99.0
            x = lo * (1.0 - t) + hi * t  # exact at both support endpoints
            ok = ok and abs(d.density_at(x) - 1.0 / (x * log_ratio)) <= 1e-12
        median = d.quantile(0.5)
        ok = ok and abs(median - math.sqrt(lo * hi)) <= 1e-8
        # independent numeric inversion of the quadrature cdf
        a, b = lo, hi
        while b - a > 1e-9:
            mid = 0.5 * (a + b)
            if integrate(d.density_at, lo, mid, 1e-12) < 0.5:
                a = mid
            else:
                b = mid
        ok = ok and abs(median - 0.5 * (a + b)) <= 1e-8
    _verdict("05-jeffreys-density", ok)


def test_06_von_mises_density_and_reparameterization():
    water = von_mises_reduce(1.0, 2.0)
    ok = abs(water.support.lower - 0.5) <= 1e-12
    ok = ok and abs(water.support.upper - 2.0 / 3.0) <= 1e-12
    for i in range(50):
        t = i / 49.0
        x = water.support.lower * (1.0 - t) + water.support.upper * t
        ok = ok and abs(water.density_at(x) - 6.0) <= 1e-12
    ok = ok and abs(water.cdf(7.0 / 12.0) - 0.5) <= 1e-12

    wine = water.pushforward_affine(-1.0, 1.0)
    ok = ok and abs(wine.support.lower - 1.0 / 3.0) <= 1e-12
    ok = ok and abs(wine.support.upper - 0.5) <= 1e-12
    for i in range(50):
        t = i / 49.0
        x = wine.support.lower * (1.0 - t) + wine.support.upper * t
        ok = ok and abs(wine.density_at(x) - 6.0) <= 1e-12
    ok = ok and abs((1.0 - wine.cdf(5.0 / 12.0)) - 0.5) <= 1e-12
    _verdict("06-von-mises", ok)


def test_07_born_rule_over_angle_grid():
    ok = True
    for k in range(721):
        theta = 2.0 * math.pi * k / 721.0
        obs = observable(theta)
        p_plus, p_minus = probabilities(SPIN_UP, obs)
        ok = ok and abs(p_plus - math.cos(theta / 2.0) ** 2) <= 1e-12
        ok = ok and abs(p_plus + p_minus - 1.0) <= 1e-12
        (_, plus), (_, minus) = eigensystem(obs)
        amp_plus = plus.up.conjugate() * SPIN_UP.up + plus.down.conjugate() * SPIN_UP.down
        amp_minus = minus.up.conjugate() * SPIN_UP.up + minus.down.conjugate() * SPIN_UP.down
        up = amp_plus * plus.up + amp_minus * minus.up
        down = amp_plus * plus.down + amp_minus * minus.down
        ok = ok and abs(up - SPIN_UP.up) <= 1e-12 and abs(down - SPIN_UP.down) <= 1e-12
    _verdict("07-born-rule", ok)


def test_08_collapse_makes_repetition_certain():
    ok = True
    for k in range(73):
        theta = 2.0 * math.pi * k / 73.0
        obs = observable(theta)
        table = transition_table(SPIN_UP, [theta])
        for seed in (0, 1):
            step = sequential_chain(table, seed=seed)[-1]
            p_plus, p_minus = probabilities(step.post_state, obs)
            repeat = p_plus if step.eigenvalue == 1 else p_minus
            ok = ok and abs(repeat - 1.0) <= 1e-12
    _verdict("08-collapse-repetition", ok)


def test_09_haar_measure_invariance():
    rng = random.Random(515_151)
    translation, scale = translation_family(), scale_family()
    ok = True
    for _ in range(100):
        a = rng.uniform(-100.0, 100.0)
        width = rng.uniform(0.01, 50.0)
        c = rng.uniform(-100.0, 100.0)
        original = haar_measure(translation, IntervalConstraint(a, a + width))
        shifted = haar_measure(translation, IntervalConstraint(a + c, a + width + c))
        ok = ok and abs(original - shifted) <= 1e-10
    for _ in range(100):
        a = rng.uniform(0.01, 100.0)
        ratio = rng.uniform(1.01, 100.0)
        k = rng.uniform(0.01, 100.0)
        original = haar_measure(scale, IntervalConstraint(a, a * ratio))
        rescaled = haar_measure(scale, IntervalConstraint(k * a, k * a * ratio))
        ok = ok and abs(original - rescaled) <= 1e-10
    _verdict("09-haar-invariance", ok)


def test_10_custom_weight_matches_closed_forms():
    additive = custom_family(lambda a, b: a + b, identity=0.0)
    multiplicative = custom_family(lambda a, b: a * b, identity=1.0)
    ok = True
    for i in range(81):
        p = 10.0 ** (-2.0 + 4.0 * i / 80.0)
        ok = ok and abs(haar_weight(additive, p) - 1.0) <= 1e-6
        ok = ok and abs(haar_weight(multiplicative, p) - 1.0 / p) <= 1e-6
    _verdict("10-custom-haar-weight", ok)


def test_11_frequency_checks():
    n = 100_000
    bound = 4.0 * math.sqrt(0.25 / n)

    table = transition_table(SPIN_UP, [math.pi / 2.0])
    plus = sum(1 for i in range(n) if sequential_chain(table, seed=7_000_000 + i)[-1].eigenvalue == 1)
    ok = abs(plus / n - 0.5) <= bound

    d = normalize(translation_family(), IntervalConstraint(0.0, 1.0))
    values = d.sample(seed=31_337, n=n)
    below_median = sum(1 for x in values if x < 0.5) / n
    ok = ok and abs(below_median - 0.5) <= bound
    _verdict("11-frequency-checks", ok)


def test_12_group_axioms_and_octahedral_census():
    groups = (
        make_cyclic(4),
        make_dihedral(3),
        make_octahedral(),
        make_coin_group(),
        direct_product(make_dihedral(3), make_cyclic(4)),
    )
    ok = all(verify_group_axioms(g).passed for g in groups)
    expected = {1: 1, 2: 9, 3: 8, 4: 6}
    ok = ok and make_octahedral().order_census() == expected
    ok = ok and cube_rotation_census() == expected
    _verdict("12-group-axioms-census", ok)


def _run_library_example() -> tuple[dict, list]:
    """Run README's "Library example" block as written: its namespace, and each bare expression's value in order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    values = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], type_ignores=[]), "README.md", "exec"), namespace)
    return namespace, values


def test_the_readme_library_example_gives_its_commented_results():
    namespace, (density, median, trial) = _run_library_example()
    assert namespace["joint"].probability("up3_north2") == Fraction(1, 24)
    assert math.isclose(density, 1.0 / (1.5 * math.log(2.0)), rel_tol=1e-15, abs_tol=0.0)
    assert median == math.sqrt(2.0)
    assert trial == [1, 1]
