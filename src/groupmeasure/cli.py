"""Command-line front end: one subcommand per worked example, plus scenario files.

Output formats: ``table`` (aligned, human), ``json`` (one object; exact
rationals as "p/q" strings, reals at 12 significant digits), ``csv``.
All numeric output uses '.' as the decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import scenarios
from .scenarios import Report, Scenario, ScenarioError, run


def _fmt_real(x: float) -> str:
    return format(x, ".12g")


def _json_value(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return float(_fmt_real(value))
    return value


def _text_value(value: Any) -> str:
    if isinstance(value, float):
        return _fmt_real(value)
    return str(value)


def render(report: Report, fmt: str = "table") -> str:
    """Render a report as aligned text, one JSON object, or CSV rows.

    Finite kinds list their outcomes and the others their records; every format lays out
    the same ``(name, columns, rows)``, and a report without rows shows only its summary.
    """
    if report.outcomes is not None:
        name, columns, rows = "outcomes", ("label", "probability"), report.outcomes.outcomes
    else:
        name, columns, rows = "records", report.columns, report.records

    if fmt == "json":
        import json

        doc: dict[str, Any] = {"kind": report.kind}
        doc.update((key, _json_value(value)) for key, value in report.summary)
        if rows:
            doc[name] = [{col: _json_value(v) for col, v in zip(columns, row)} for row in rows]
        return json.dumps(doc, indent=2) + "\n"

    if fmt == "csv":
        if not rows:
            columns, rows = ("key", "value"), report.summary
        lines = [",".join(columns)]
        lines.extend(",".join(_text_value(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"

    if fmt != "table":
        raise ValueError(f"unknown output format {fmt!r}")

    lines = [f"kind: {report.kind}"]
    lines.extend(f"{key}: {_text_value(value)}" for key, value in report.summary)
    if rows:
        header = ("outcome", "probability") if name == "outcomes" else columns
        cells = [header] + [tuple(_text_value(v) for v in row) for row in rows]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines.append("")
        lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells)
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("--out", type=Path, default=None, help="write output to a file")


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per entry of ``scenarios.KINDS``, which sets ``kind``; each option's dest is its key."""
    parser = argparse.ArgumentParser(
        prog="groupmeasure",
        description="Probabilities from transformation-group invariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, spec in scenarios.KINDS.items():
        p = sub.add_parser(spec.command, help=spec.help)
        # argparse up to 3.13.0 reads "-1e-3" or "-0.5,1" as an option; take them as values, as later releases do.
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(kind=kind)
        for key, keywords in spec.options.items():
            p.add_argument("--" + key.replace("_", "-"), **keywords)
        _add_common(p)

    p = sub.add_parser("scenario", help="run a scenario document")
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)
    p_run = scenario_sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file", type=Path)
    _add_common(p_run)

    p = sub.add_parser("selftest", help="run the oracle verification suite")
    p.add_argument("--out", type=Path, default=None, help="write output to a file")

    return parser


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    if args.command == "scenario":
        try:
            text = args.file.read_text(encoding="utf-8")
        except OSError as err:
            raise ScenarioError(f"cannot read scenario file: {err}") from err
        return scenarios.parse_scenario(text)
    doc: dict[str, Any] = {"kind": args.kind}
    for key in scenarios.KINDS[args.kind].options:
        value = getattr(args, key)
        if value is not None:
            doc[key] = _angles(value) if key == "thetas" else value
    return scenarios.scenario_from_dict(doc)


def _angles(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",")]
    except ValueError as err:
        raise ScenarioError(f"--thetas must be comma-separated numbers: {err}") from err


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            from . import oracle

            reports = oracle.selftest()
            _emit(oracle.render_reports(reports), args.out)
            return 0 if all(r.passed for r in reports) else 1
        scenario = _scenario_from_args(args)
        report = run(scenario)
        _emit(render(report, args.format), args.out)
        return 0
    except (ValueError, RuntimeError, OSError) as err:  # OSError: an --out path that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
