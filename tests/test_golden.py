"""Byte-exact golden corpus of CLI runs: stdout, stderr and exit code per case.

Each case runs ``cli.main`` in-process with the working directory set to
``tests/golden`` (so scenario files are named relative to it) and is compared
byte for byte with ``tests/golden/<name>.txt``.  A refactor must leave every
file unchanged; a deliberate change to the output regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

which rewrites and names each case whose output differs from its file, so
the changed files can be checked against the change that explains them
and committed together with it.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FORMATS = ("table", "json", "csv")

_COMMANDS = {
    "coin": ["coin"],
    "die_joint": ["die", "--query", "joint"],
    "die_marginal_up": ["die", "--query", "marginal_up"],
    "die_conditional_north": ["die", "--query", "conditional_north", "--north", "3"],
    "prior_translation": ["prior", "--family", "translation", "--lower", "2", "--upper", "7"],
    "prior_translation_at_quantile": [
        "prior", "--family", "translation", "--lower", "-1.5", "--upper", "4",
        "--at", "0.25", "--quantile", "0.3",
    ],
    "prior_scale": ["prior", "--family", "scale", "--lower", "1", "--upper", "2"],
    "prior_scale_at_quantile": [
        "prior", "--family", "scale", "--lower", "0.5", "--upper", "8", "--at", "1.5", "--quantile", "0.5",
    ],
    "von_mises": ["von-mises", "--ratio-lower", "1", "--ratio-upper", "2"],
    "spin_default": ["spin", "--theta", "1.5707963267948966"],
    "spin_state": ["spin", "--theta", "0.7", "--state", "0.6", "0.8"],
    "chain_trials_1": ["chain", "--thetas", "1.5707963267948966,0.4,-2", "--seed", "7", "--trials", "1"],
    "chain_trials_50": ["chain", "--thetas", "1.5707963267948966,0", "--seed", "11", "--trials", "50"],
    "scenario_run": ["scenario", "run", "complex_spin.json"],
}

CASES: dict[str, list[str]] = {
    f"{name}.{fmt}": argv + ["--format", fmt] for name, argv in _COMMANDS.items() for fmt in FORMATS
}
CASES.update({
    "selftest": ["selftest"],
    "error_conditional_north_without_north": ["die", "--query", "conditional_north"],
    "error_north_with_joint": ["die", "--query", "joint", "--north", "2"],
    "error_scale_negative_lower": ["prior", "--family", "scale", "--lower", "-1", "--upper", "2"],
    "error_unknown_key_in_file": ["scenario", "run", "unknown_key.json"],
})


def run_case(argv: list[str]) -> str:
    """One CLI run as text: the command, its exit code, stdout and stderr."""
    from groupmeasure import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return (
        f"$ groupmeasure {' '.join(argv)}\n"
        f"exit {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.txt"


def _visible_diff(name: str, expected: str, actual: str) -> str:
    """Unified diff with each line as its repr, so a change at a line end shows."""
    diff = difflib.unified_diff(
        [repr(line) for line in expected.splitlines(keepends=True)],
        [repr(line) for line in actual.splitlines(keepends=True)],
        fromfile=f"tests/golden/{name}.txt",
        tofile="actual",
        lineterm="",
    )
    return "\n".join(diff)


def committed(name: str) -> str:
    """The committed golden text of a case, or "" if it has no file yet."""
    path = golden_path(name)
    return path.read_bytes().decode("utf-8") if path.exists() else ""


def test_cli_output_matches_golden_corpus():
    differing = []
    for name, argv in CASES.items():
        expected = committed(name)
        actual = run_case(argv)
        if actual != expected:
            differing.append(_visible_diff(name, expected, actual))
    assert not differing, "CLI output differs from tests/golden:\n" + "\n".join(differing)


def _refuse_constant(name: str) -> None:
    raise ValueError(f"{name} is not valid JSON")


def test_json_goldens_are_strict_json():
    names = [name for name in CASES if name.endswith(".json")]
    assert names
    for name in names:
        stdout = golden_path(name).read_text(encoding="utf-8").split("--- stdout\n", 1)[1]
        stdout = stdout.rsplit("--- stderr\n", 1)[0]
        json.loads(stdout, parse_constant=_refuse_constant)


def regenerate() -> list[str]:
    """Rewrite each case whose command, exit code, stdout or stderr differs from its file, and name it."""
    changed = []
    for name, argv in CASES.items():
        actual = run_case(argv)
        if actual != committed(name):
            golden_path(name).write_bytes(actual.encode("utf-8"))
            changed.append(name)
            print(f"changed: {name}", file=sys.stderr)
    print(f"{len(changed)} of {len(CASES)} golden files changed in {GOLDEN_DIR}", file=sys.stderr)
    return changed


def test_regenerate_names_only_the_cases_that_differ(tmp_path, monkeypatch, capsys):
    module = sys.modules[__name__]
    cases = {name: CASES[name] for name in ("coin.csv", "spin_default.csv")}
    for name in cases:
        (tmp_path / f"{name}.txt").write_bytes(golden_path(name).read_bytes())
    (tmp_path / "spin_default.csv.txt").write_text("stale\n", encoding="utf-8")
    monkeypatch.setattr(module, "CASES", cases)
    monkeypatch.setattr(module, "golden_path", lambda name: tmp_path / f"{name}.txt")
    assert regenerate() == ["spin_default.csv"]
    assert capsys.readouterr().err.splitlines()[0] == "changed: spin_default.csv"
    assert regenerate() == []


if __name__ == "__main__":
    regenerate()
