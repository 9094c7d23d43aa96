"""Command-line front end: one subcommand per worked example, plus scenario files.

Output formats: ``table`` (aligned, human), ``json`` (one object; exact
rationals as "p/q" strings, reals at 12 significant digits), ``csv``.
All numeric output uses '.' as the decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from . import oracle, scenarios
from .groups import direct_product, make_coin_group, make_cyclic, make_dihedral, make_octahedral
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
    """Render a report as aligned text, one JSON object, or CSV rows."""
    if fmt == "json":
        doc: dict[str, Any] = {"kind": report.kind}
        for key, value in report.summary:
            doc[key] = _json_value(value)
        if report.outcomes is not None:
            doc["outcomes"] = [
                {"label": label, "probability": str(p)} for label, p in report.outcomes.outcomes
            ]
        if report.records:
            doc["records"] = [
                {col: _json_value(v) for col, v in zip(report.columns, row)}
                for row in report.records
            ]
        return json.dumps(doc, indent=2) + "\n"

    if fmt == "csv":
        lines: list[str] = []
        if report.outcomes is not None:
            lines.append("label,probability")
            lines.extend(f"{label},{p}" for label, p in report.outcomes.outcomes)
        elif report.records:
            lines.append(",".join(report.columns))
            lines.extend(",".join(_text_value(v) for v in row) for row in report.records)
        else:
            lines.append("key,value")
            lines.extend(f"{key},{_text_value(v)}" for key, v in report.summary)
        return "\n".join(lines) + "\n"

    if fmt != "table":
        raise ValueError(f"unknown output format {fmt!r}")

    lines = [f"kind: {report.kind}"]
    lines.extend(f"{key}: {_text_value(value)}" for key, value in report.summary)
    if report.outcomes is not None:
        width = max(len(label) for label, _ in report.outcomes.outcomes)
        width = max(width, len("outcome"))
        lines.append("")
        lines.append(f"{'outcome'.ljust(width)}  probability")
        lines.extend(f"{label.ljust(width)}  {p}" for label, p in report.outcomes.outcomes)
    elif report.records:
        cells = [tuple(_text_value(v) for v in row) for row in report.records]
        widths = [
            max(len(report.columns[i]), max(len(row[i]) for row in cells))
            for i in range(len(report.columns))
        ]
        lines.append("")
        lines.append("  ".join(c.ljust(w) for c, w in zip(report.columns, widths)))
        lines.extend("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells)
    return "\n".join(lines) + "\n"


def _selftest_reports() -> list[oracle.CheckReport]:
    """The oracle suite: exhaustive group checks plus numeric cross-checks."""
    import math

    from . import haar, spin
    from .actions import all_orientations

    reports = []
    for group in (
        make_coin_group(),
        make_cyclic(4),
        make_dihedral(3),
        make_octahedral(),
        direct_product(make_dihedral(3), make_cyclic(4)),
    ):
        reports.append(oracle.verify_group_axioms(group))

    pairs = {(o.up, o.north) for o in oracle.enumerate_die_orientations()}
    built = {(o.up, o.north) for o in all_orientations()}
    reports.append(
        oracle.CheckReport(
            "die-orientations",
            pairs == built and len(pairs) == 24,
            float(len(pairs ^ built)),
            f"{len(pairs)} enumerated",
        )
    )

    census = oracle.cube_rotation_census()
    expected = {1: 1, 2: 9, 3: 8, 4: 6}
    reports.append(
        oracle.CheckReport(
            "octahedral-order-census",
            census == expected == make_octahedral().order_census(),
            0.0 if census == expected else 1.0,
            str(census),
        )
    )

    log2 = oracle.integrate(lambda x: 1.0 / x, 1.0, 2.0, 1e-12)
    reports.append(
        oracle.CheckReport("quadrature-log2", abs(log2 - math.log(2)) <= 1e-10, abs(log2 - math.log(2)))
    )

    d = haar.normalize(haar.scale_family(), haar.IntervalConstraint(1.0, 4.0))
    mass = oracle.integrate(d.density_at, 1.0, 4.0, 1e-12)
    reports.append(oracle.CheckReport("density-normalization", abs(mass - 1.0) <= 1e-10, abs(mass - 1.0)))

    worst = 0.0
    for theta in [0.0, math.pi / 3, math.pi / 2, 2.0, 4.0]:
        obs = spin.observable(theta)
        (_, v_plus), (_, v_minus) = spin.eigensystem(obs)
        (hi, u_plus), (lo, u_minus) = oracle.symmetric_eigensolver_2x2(obs.matrix)
        worst = max(
            worst,
            abs(hi - 1.0),
            abs(lo + 1.0),
            abs(u_plus[0] - v_plus.up.real),
            abs(u_plus[1] - v_plus.down.real),
            abs(u_minus[0] - v_minus.up.real),
            abs(u_minus[1] - v_minus.down.real),
        )
    reports.append(oracle.CheckReport("eigensolver-cross-check", worst <= 1e-12, worst))

    chain = lambda i: spin.sequential_chain(spin.SPIN_UP, [math.pi / 2], 1_000 + i)[-1].eigenvalue
    reports.append(
        oracle.frequency_test(chain, lambda v: v == 1, 0.5, 20_000, name="spin-frequency")
    )
    return reports


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
    for key in scenarios.KINDS[args.kind].keys:
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
            reports = _selftest_reports()
            _emit(oracle.render_reports(reports), args.out)
            return 0 if all(r.passed for r in reports) else 1
        scenario = _scenario_from_args(args)
        report = run(scenario)
        _emit(render(report, args.format), args.out)
        return 0
    except (ScenarioError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
