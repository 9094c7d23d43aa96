"""Byte-exact golden corpus of CLI runs: stdout, stderr and exit code per case.

Each case runs ``cli.main`` in-process with the working directory set to
``tests/golden`` (so scenario files are named relative to it) and is compared
byte for byte with ``tests/golden/<name>.txt``.  A refactor must leave every
file unchanged; a deliberate change to the output regenerates the corpus with

    PYTHONPATH=src python tests/test_golden.py

which rewrites and names each case whose output differs from its file, so
the changed files can be checked against the change that explains them
and committed together with it.  The same command rewrites
``tests/golden/custom_families.txt``, the custom laws' tables at the CLI's 12
significant digits: no CLI command builds a custom family, so this file is
what pins the custom path (its panels, series and ITP steps) byte for byte.
"""

from __future__ import annotations

import cmath
import contextlib
import difflib
import io
import json
import math
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

# Custom laws, each on an interval: law name, compose, identity, lower, upper.  The last is refused.
CUSTOM_TABLES = "custom_families"
_CUSTOM_LAWS = (
    ("a*b", lambda a, b: a * b, 1.0, 0.5, 8.0),
    ("a+b+ab", lambda a, b: a + b + a * b, 0.0, 0.0, 20.0),
    ("math asinh(sinh a + sinh b)", lambda a, b: math.asinh(math.sinh(a) + math.sinh(b)), 0.0, -2.0, 3.0),
    ("cmath asinh(sinh a + sinh b)", lambda a, b: cmath.asinh(cmath.sinh(a) + cmath.sinh(b)), 0.0, -6.0, 6.0),
    ("math asinh(sinh a + sinh b)", lambda a, b: math.asinh(math.sinh(a) + math.sinh(b)), 0.0, 20.0, 20.1),
)


def custom_report() -> str:
    """Per custom law: the normalizer, the panel count, cdf at 5 points, quantile at 5 levels and
    3 draws of seed 7, at 12 significant digits; or the refusal's text."""
    from groupmeasure.haar import IntervalConstraint, custom_family, normalize

    lines = []
    for name, compose, identity, lower, upper in _CUSTOM_LAWS:
        lines.append(f"law {name}, identity {identity:.12g}, interval [{lower:.12g}, {upper:.12g}]")
        try:
            d = normalize(custom_family(compose, identity), IntervalConstraint(lower, upper))
        except ValueError as refused:
            lines.append(f"refused: {refused}")
            continue
        points = [lower + (upper - lower) * t for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        lines.append(f"normalizer {d.normalizer:.12g}")
        lines.append(f"panels {len(d.edges) - 1}")
        lines.extend(f"cdf({x:.12g}) {d.cdf(x):.12g}" for x in points)
        lines.extend(f"quantile({q:.12g}) {d.quantile(q):.12g}" for q in (0.01, 0.25, 0.5, 0.75, 0.99))
        lines.append("sample(7, 3) " + " ".join(f"{x:.12g}" for x in d.sample(7, 3)))
    return "\n".join(lines) + "\n"


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


def test_custom_family_tables_match_golden():
    actual = custom_report()
    assert actual == committed(CUSTOM_TABLES), _visible_diff(CUSTOM_TABLES, committed(CUSTOM_TABLES), actual)


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
    changed = [name for name, argv in CASES.items() if _rewrite(name, run_case(argv))]
    print(f"{len(changed)} of {len(CASES)} golden files changed in {GOLDEN_DIR}", file=sys.stderr)
    return changed


def _rewrite(name: str, actual: str) -> bool:
    """Write actual to the golden file of name if it differs, and say so."""
    if actual == committed(name):
        return False
    golden_path(name).write_bytes(actual.encode("utf-8"))
    print(f"changed: {name}", file=sys.stderr)
    return True


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
    if not _rewrite(CUSTOM_TABLES, custom_report()):
        print(f"unchanged: {CUSTOM_TABLES}", file=sys.stderr)
