import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from groupmeasure.cli import _build_parser, _scenario_from_args, main, render
from groupmeasure.scenarios import KINDS, ScenarioError, parse_scenario, run


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coin_table_output(capsys):
    code, out, err = run_cli(capsys, "coin")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert any(line.split() == ["heads", "1/2"] for line in lines)
    assert any(line.split() == ["tails", "1/2"] for line in lines)


def test_die_marginal_json(capsys):
    code, out, _ = run_cli(capsys, "die", "--query", "marginal_up", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "die"
    assert len(doc["outcomes"]) == 6
    assert all(o["probability"] == "1/6" for o in doc["outcomes"])


def test_die_joint_json_is_exactly_uniform(capsys):
    code, out, _ = run_cli(capsys, "die", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["outcomes"]) == 24
    assert all(o["probability"] == "1/24" for o in doc["outcomes"])


def test_prior_json_rounds_reals_to_12_digits(capsys):
    code, out, _ = run_cli(
        capsys, "prior", "--family", "scale", "--lower", "1", "--upper", "2",
        "--at", "1.5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["density_at"] == 0.961796693926
    assert doc["normalizer"] == 0.69314718056


def test_prior_scale_ratio_beyond_binary64(capsys):
    code, out, err = run_cli(
        capsys, "prior", "--family", "scale", "--lower", "1e-300", "--upper", "1e300",
        "--at", "1", "--quantile", "0.5", "--format", "json",
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["normalizer"] == 1381.5510558
    assert doc["cdf_at"] == 0.5
    assert doc["quantile"] == pytest.approx(1.0, rel=1e-11)


def test_scale_grid_is_at_equal_probability_steps(capsys):
    code, out, err = run_cli(
        capsys, "prior", "--family", "scale", "--lower", "1", "--upper", "1e6", "--format", "csv"
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 101
    assert (rows[0][0], rows[-1][0]) == ("1", "1000000")
    for i, (_, _, cdf) in enumerate(rows):
        assert float(cdf) == pytest.approx(i / 100, abs=1e-9), i


def test_von_mises_csv_grid(capsys):
    code, out, _ = run_cli(
        capsys, "von-mises", "--ratio-lower", "1", "--ratio-upper", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,density,cdf"
    assert len(lines) == 102
    assert lines[1].startswith("0.5,6,0")


def test_spin_requires_normalized_state(capsys):
    for state in (("1", "1"), ("1e200", "0")):
        code, out, err = run_cli(capsys, "spin", "--theta", "0", "--state", *state)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "\n" not in err.strip()


def test_invalid_die_north_fails_with_diagnostic(capsys):
    code, _, err = run_cli(capsys, "die", "--query", "conditional_north", "--north", "9")
    assert code == 1
    assert "1..6" in err


@pytest.mark.parametrize("thetas", ["1,,2", "1,2,", ",1"])
def test_chain_refuses_empty_theta_entries(capsys, thetas):
    code, out, err = run_cli(capsys, "chain", "--thetas", thetas)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --thetas must be comma-separated numbers")
    assert "\n" not in err.strip()


@pytest.mark.parametrize(
    "thetas, trials, message",
    [
        ("1", "1000000000", "key 'trials' must be at most 100000 over 1 angle(s), got 1000000000"),
        (",".join(["1"] * 33), "100000", "key 'trials' must be at most 96969 over 33 angle(s), got 100000"),
    ],
    ids=["trials", "steps"],
)
def test_a_chain_past_its_work_limit_is_refused_at_once(capsys, thetas, trials, message):
    argv = ["chain", "--thetas", thetas, "--trials", trials]
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    with pytest.raises(ScenarioError) as refused:
        _scenario_from_args(args)
    assert time.perf_counter() - start < 0.01
    assert str(refused.value) == message
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_chain_machine_output_is_byte_identical(capsys):
    args = ("chain", "--thetas", "1.5707963267948966,0.4", "--seed", "11",
            "--trials", "25", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "coin", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["kind"] == "coin"


@pytest.mark.parametrize("command", [["coin", "--format", "json"], ["selftest"]], ids=["coin", "selftest"])
@pytest.mark.parametrize("target", ["missing/report.txt", "."], ids=["missing-directory", "directory"])
def test_out_that_cannot_be_written_is_one_error_line(tmp_path, capsys, command, target):
    code, out, err = run_cli(capsys, *command, "--out", str(tmp_path / target))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize(
    "bounds",
    [("translation", "0", "5e-324"), ("scale", "1e-320", "1e-300")],
    ids=["translation", "scale"],
)
def test_prior_whose_density_overflows_is_an_error(capsys, fmt, bounds):
    family, lower, upper = bounds
    code, out, err = run_cli(
        capsys, "prior", "--family", family, "--lower", lower, "--upper", upper, "--format", fmt
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: interval scenario failed: density at x=")
    assert "overflows binary64" in err


def test_scenario_run_file(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text('{"kind":"von_mises","ratio_lower":1,"ratio_upper":2}')
    code, out, _ = run_cli(capsys, "scenario", "run", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["median"] == 0.583333333333


def test_scenario_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "scenario", "run", "/nonexistent/path.json")
    assert code == 1
    assert "error:" in err


def test_scenario_run_rejects_bad_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind":"coin","extra":1}')
    code, _, err = run_cli(capsys, "scenario", "run", str(path))
    assert code == 1
    assert "unknown keys" in err


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(" PASS " in line or line.endswith("PASS residual=0") or "PASS" in line for line in lines)
    assert any(line.startswith("group-axioms[O]") for line in lines)


def test_selftest_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_each_example_subcommand_takes_exactly_its_kinds_keys():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    kinds = set()
    for name, parser in sub.choices.items():
        kind = parser.get_default("kind")
        if kind is None:
            continue
        kinds.add(kind)
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help", "format", "out"}
        assert dests == set(KINDS[kind].options), name
        assert name == KINDS[kind].command
    assert kinds == set(KINDS)


# A negative value in exponent form, or a list that starts with one, next to a form read alike before
# and after the fix: --opt=value, or plain decimals for the two values of --state.
NEGATIVE_VALUES = {
    "chain": (["chain", "--thetas", "-0.5,1"], ["chain", "--thetas=-0.5,1"]),
    "prior": (["prior", "--family", "translation", "--lower", "-1e-3", "--upper", "2"],
              ["prior", "--family", "translation", "--lower=-1e-3", "--upper", "2"]),
    "spin-theta": (["spin", "--theta", "-2e-1"], ["spin", "--theta=-2e-1"]),
    "spin-state": (["spin", "--theta", "1", "--state", "-6e-1", "8e-1"],
                   ["spin", "--theta", "1", "--state", "-0.6", "0.8"]),
}


@pytest.mark.parametrize("argv, reference", NEGATIVE_VALUES.values(), ids=NEGATIVE_VALUES.keys())
def test_a_negative_value_in_any_number_form_is_read_as_a_value(capsys, argv, reference):
    expected = run_cli(capsys, *reference)
    assert expected[0] == 0
    assert run_cli(capsys, *argv) == expected


REQUIRED_OPTIONS = {
    "prior": ["--family", "scale", "--lower", "1", "--upper", "2"],
    "von-mises": ["--ratio-lower", "1", "--ratio-upper", "2"],
    "spin": ["--theta", "1"],
    "chain": ["--thetas", "1"],
}


@pytest.mark.parametrize(
    "command, i", [(command, i) for command, options in REQUIRED_OPTIONS.items() for i in range(0, len(options), 2)]
)
def test_leaving_out_a_required_option_exits_2_and_names_it(capsys, command, i):
    options = REQUIRED_OPTIONS[command]
    assert run_cli(capsys, command, *options)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([command, *options[:i], *options[i + 2:]])
    assert exc.value.code == 2
    assert f"the following arguments are required: {options[i]}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [(["die", "--query", "marginal"], "--query"),
     (["prior", "--family", "log", "--lower", "1", "--upper", "2"], "--family")],
    ids=["query", "family"],
)
def test_a_value_outside_its_choices_exits_2(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: invalid choice: " in capsys.readouterr().err


ABBREVIATIONS = {
    "prior": (["prior", "--fam", "scale", "--low", "1", "--up", "2"],
              "the following arguments are required: --family, --lower, --upper\n"),
    "chain": (["chain", "--thetas", "1", "--t", "3"], "unrecognized arguments: --t 3\n"),
    "die": (["die", "--q", "marginal_up"], "unrecognized arguments: --q marginal_up\n"),
    "scenario-run": (["scenario", "run", "missing.json", "--form", "json"], "unrecognized arguments: --form json\n"),
}


@pytest.mark.parametrize("argv, words", ABBREVIATIONS.values(), ids=ABBREVIATIONS.keys())
def test_an_abbreviated_option_exits_2_and_names_the_option(capsys, argv, words):
    # A prefix used to stand for the one option it starts, so a later option sharing the prefix
    # would have turned a working command line into an "ambiguous option" error.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert words in capsys.readouterr().err


@pytest.mark.parametrize(
    "short, full",
    [(["die"], ["die", "--query", "joint"]),
     (["chain", "--thetas", "1"], ["chain", "--thetas", "1", "--seed", "0", "--trials", "1"])],
    ids=["die", "chain"],
)
def test_a_left_out_option_takes_its_default(capsys, short, full):
    expected = run_cli(capsys, *full)
    assert expected[0] == 0
    assert run_cli(capsys, *short) == expected


def test_render_csv_outcomes():
    report = run(parse_scenario('{"kind":"coin"}'))
    text = render(report, "csv")
    assert text.splitlines()[0] == "label,probability"
    assert "heads,1/2" in text


def test_render_rejects_unknown_format():
    report = run(parse_scenario('{"kind":"coin"}'))
    with pytest.raises(ValueError, match="format"):
        render(report, "yaml")


def test_render_table_aligns_columns():
    report = run(parse_scenario('{"kind":"spin","theta":0.3}'))
    lines = render(report, "table").splitlines()
    header = next(line for line in lines if "probability" in line)
    assert header.index("probability") > len("eigenvalue")
    assert any(line.lstrip().startswith("1 ") or line.startswith("1 ") for line in lines)


def test_importing_the_cli_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module in ("groupmeasure.cli", "groupmeasure.oracle"):
        code = f"import sys, {module}; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert result.stdout.strip() == "False", module


# Each command and the kind modules it may load: actions, tables and fractions for the finite kinds,
# haar for the densities, spin for the spin kinds.
FINITE_MODULES = ["fractions", "groupmeasure.actions", "groupmeasure.tables"]
COMMAND_MODULES = {
    "coin": (["coin"], FINITE_MODULES),
    "die": (["die", "--query", "marginal_up"], FINITE_MODULES),
    "prior": (["prior", "--family", "scale", "--lower", "1", "--upper", "4"], ["groupmeasure.haar"]),
    "von-mises": (["von-mises", "--ratio-lower", "1", "--ratio-upper", "2"], ["groupmeasure.haar"]),
    "spin": (["spin", "--theta", "1.0", "--state", "0.6", "0.8"], ["groupmeasure.spin"]),
    "chain": (["chain", "--thetas", "0.5,1.0", "--trials", "3"], ["groupmeasure.spin"]),
}


@pytest.mark.parametrize("argv, kind_modules", COMMAND_MODULES.values(), ids=COMMAND_MODULES.keys())
def test_each_command_imports_only_its_own_kind_module(argv, kind_modules):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    watched = ("dataclasses", "inspect", *FINITE_MODULES, "groupmeasure.haar", "groupmeasure.spin")
    code = (
        f"import sys\nfrom groupmeasure import cli\nassert cli.main({argv!r}) == 0\n"
        f"print(sorted(m for m in {watched!r} if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.splitlines()[-1] == repr(kind_modules)
