"""Command-line front end: one subcommand per worked example, plus scenario files.

Output formats: ``table`` (aligned, human), ``json`` (one object; exact
rationals as "p/q" strings, reals at 12 significant digits), ``csv``.
All numeric output uses '.' as the decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
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
    """Subcommands of the worked examples set ``kind``; each option's dest is its scenario key."""
    parser = argparse.ArgumentParser(
        prog="groupmeasure",
        description="Probabilities from transformation-group invariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coin", help="two-sided coin at rest: equal counting measure")
    p.set_defaults(kind="coin")
    _add_common(p)

    p = sub.add_parser("die", help="die orientations: joint, marginal, conditional tables")
    p.set_defaults(kind="die")
    p.add_argument("--query", choices=scenarios.DIE_QUERIES, default="joint")
    p.add_argument("--north", type=int, default=None, help="north face for conditional_north")
    _add_common(p)

    p = sub.add_parser("prior", help="invariant density on an observation interval")
    p.set_defaults(kind="interval")
    p.add_argument("--family", choices=scenarios.FAMILIES, required=True)
    p.add_argument("--lower", type=float, required=True)
    p.add_argument("--upper", type=float, required=True)
    p.add_argument("--at", type=float, default=None, help="evaluate density and cdf here")
    p.add_argument("--quantile", type=float, default=None, help="quantile level in [0, 1]")
    _add_common(p)

    p = sub.add_parser("von-mises", help="water/wine mixture fraction density")
    p.set_defaults(kind="von_mises")
    p.add_argument("--ratio-lower", type=float, required=True)
    p.add_argument("--ratio-upper", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("spin", help="spin-1/2 measurement probabilities at angle theta")
    p.set_defaults(kind="spin")
    p.add_argument("--theta", type=float, required=True, help="angle from +z in radians")
    p.add_argument("--state", type=float, nargs=2, default=None, metavar=("UP", "DOWN"),
                   help="real prepared amplitudes (default 1 0)")
    _add_common(p)

    p = sub.add_parser("chain", help="sequential spin measurements")
    p.set_defaults(kind="spin_chain")
    p.add_argument("--thetas", required=True, help="comma-separated angles in radians")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
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
    keys, _, _ = scenarios.KINDS[args.kind]
    for key in keys:
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
