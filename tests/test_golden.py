"""Byte-exact golden corpus of CLI runs: stdout, stderr and exit code per case.

Each case runs ``cli.main`` in-process with the working directory set to
``tests/golden`` (so scenario files are named relative to it) and is compared
byte for byte with ``tests/golden/<name>.txt``.  A refactor must leave every
file unchanged; a deliberate change to the output regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

and the regenerated files are committed together with the change that
explains them.
"""

from __future__ import annotations

import contextlib
import io
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


def test_cli_output_matches_golden_corpus():
    differing = []
    for name, argv in CASES.items():
        path = golden_path(name)
        expected = path.read_bytes().decode("utf-8") if path.exists() else None
        if run_case(argv) != expected:
            differing.append(name)
    assert not differing, f"CLI output differs from tests/golden for: {', '.join(differing)}"


def regenerate() -> None:
    for name, argv in CASES.items():
        golden_path(name).write_bytes(run_case(argv).encode("utf-8"))
    print(f"wrote {len(CASES)} golden files to {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
