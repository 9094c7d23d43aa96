import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from groupmeasure.cli import main, render
from groupmeasure.scenarios import parse_scenario, run


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
    code, out, err = run_cli(capsys, "spin", "--theta", "0", "--state", "1", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_invalid_die_north_fails_with_diagnostic(capsys):
    code, _, err = run_cli(capsys, "die", "--query", "conditional_north", "--north", "9")
    assert code == 1
    assert "1..6" in err


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
    code = "import sys, groupmeasure.cli; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "False"
