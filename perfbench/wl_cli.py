"""Workload cli_examples: one fresh ``python -m groupmeasure.cli <cmd>`` per op.

Commands cover the worked examples: coin, die (joint, marginal_up,
conditional_north with north 1..6), prior (both families, with and
without --at and --quantile), von-mises, spin and chain with --trials 1,
each in all three output formats.  Most of an op is interpreter start and
import, so this is where import-time and CLI-layer changes show.  The
answer is the parsed stdout, checked against closed forms.

Traced ops run ``cli_traced.py`` instead, which imports the CLI, wraps the
scenario parser, runner and renderer by their public names, calls the
unchanged ``cli.main`` and reports its spans on stderr.
"""

from __future__ import annotations

import compileall
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from benchcore import NullTracer, child_env, stratified
from cli_traced import TRACE_MARK
from wl_finite import DieOp, expected as finite_expected

NAME = "cli_examples"
DEADLINE_S = 20.0
KINDS = ("coin", "die", "interval", "von_mises", "spin", "spin_chain")
FORMATS = ("table", "json", "csv")
TRACED_CHILD = Path(__file__).with_name("cli_traced.py")
# Printed reals carry 12 significant digits.
REL_TOL, ABS_TOL = 1e-9, 1e-10

LAYER_METRICS = {
    "interp.start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_imported": "count",
    **{f"scenarios.parse_us.{k}": "us" for k in KINDS},
    **{f"scenarios.run_us.{k}": "us" for k in KINDS},
    **{f"cli.render_us.{f}": "us" for f in FORMATS},
    "actions.die_action_cold_ms": "ms",
}


@dataclass(frozen=True)
class CliOp:
    kind: str
    fmt: str
    args: tuple[str, ...]
    params: tuple  # what the checker needs, by kind

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--format", self.fmt]


def _num(x: float) -> str:
    return repr(round(x, 4))


def _cli_op(rng, kind: str, fmt: str, turn: int = 0) -> CliOp:
    """One command of ``kind``.  Its options, which set its cost, follow ``turn``; the seed sets its values."""
    if kind == "coin":
        return CliOp(kind, fmt, ("coin",), ())
    if kind == "die":
        query = ("joint", "marginal_up", "conditional_north")[turn % 3]
        if query == "conditional_north":
            north = rng.randint(1, 6)
            return CliOp(kind, fmt, ("die", "--query", query, "--north", str(north)), (query, north))
        return CliOp(kind, fmt, ("die", "--query", query), (query, 0))
    if kind == "interval":
        family = ("translation", "scale")[turn % 2]
        lower = float(_num(rng.uniform(0.1, 50.0)))
        upper = float(_num(lower * rng.uniform(1.2, 20.0)))
        args = ["prior", "--family", family, "--lower", repr(lower), "--upper", repr(upper)]
        at = level = None
        if turn // 2 % 2:
            at = float(_num(rng.uniform(lower, upper)))
            args += ["--at", repr(at)]
        if turn // 4 % 2:
            level = float(_num(rng.uniform(0.0, 1.0)))
            args += ["--quantile", repr(level)]
        return CliOp(kind, fmt, tuple(args), (family, lower, upper, at, level))
    if kind == "von_mises":
        lo = float(_num(rng.uniform(0.1, 5.0)))
        hi = float(_num(lo * rng.uniform(1.2, 10.0)))
        return CliOp(kind, fmt, ("von-mises", "--ratio-lower", repr(lo), "--ratio-upper", repr(hi)), (lo, hi))
    if kind == "spin":
        theta = float(_num(rng.uniform(0.0, 2.0 * math.pi)))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        up, down = math.cos(phi), math.sin(phi)
        args = ("spin", "--theta", repr(theta), "--state", repr(up), repr(down))
        return CliOp(kind, fmt, args, (theta, up, down))
    thetas = tuple(float(_num(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(2 + turn % 7))
    seed = rng.randrange(10**6)
    args = ("chain", "--thetas", ",".join(repr(t) for t in thetas), "--seed", str(seed), "--trials", "1")
    return CliOp(kind, fmt, args, thetas)


def ops(seed: int):
    """Cycles of 18, every kind in every format once; the head is one of each kind.

    Successive commands of a kind take its options in turn, from a turn the
    seed picks, so a run's mix of commands hardly depends on the seed.
    """
    pairs = [(KINDS[i % 6], FORMATS[(i % 6 + i // 6) % 3]) for i in range(18)]
    turns: dict[str, int] = {}

    def make(rng, kind, fmt):
        turns[kind] = turns.get(kind, rng.randrange(84)) + 1
        return _cli_op(rng, kind, fmt, turns[kind])

    return stratified(
        seed,
        lambda rng: [make(rng, k, f) for k, f in pairs[:6]],
        lambda rng: [make(rng, k, f) for k, f in pairs],
    )


HEAD_OPS = 6
# The checkout this benchmark sits in, and the environment its CLI children get.
ROOT = Path(__file__).resolve().parent.parent
ENV = child_env(ROOT)


def setup() -> None:
    """Compile the package once so no op pays for it, and start one CLI cold."""
    compileall.compile_dir(str(ROOT / "src" / "groupmeasure"), quiet=1)
    run_op(_cli_op(None, "coin", "table"), NullTracer())


def run_op(op: CliOp, tracer) -> str:
    if tracer.enabled:
        command = [sys.executable, str(TRACED_CHILD), *op.argv]
    else:
        command = [sys.executable, "-m", "groupmeasure.cli", *op.argv]
    proc = subprocess.run(command, cwd=ROOT, env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if tracer.enabled:
        record_trace(tracer, proc.stderr)
    return proc.stdout


def trace_hooks(tracer, samples: int = 5) -> None:
    """Time a bare ``python -c pass``: the floor under every op that no change can move."""
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=ENV, check=True)
        tracer.add("interp.start", time.perf_counter() - t0)


def record_trace(tracer, stderr: str) -> None:
    lines = [line for line in stderr.splitlines() if line.startswith(TRACE_MARK)]
    if not lines:
        return
    doc = json.loads(lines[-1][len(TRACE_MARK):])
    for name, seconds in doc["spans"].items():
        tracer.add(name, seconds)
    tracer.add("cli.import", doc["import_s"])
    tracer.count("cli.children")
    tracer.count("cli.numpy_imported", int(doc["numpy_imported"]))


# ---- parsing the three output formats into (summary, rows) ----

def parse_output(text: str, fmt: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    if fmt == "json":
        doc = json.loads(text)
        rows = doc.pop("outcomes", None) or doc.pop("records", [])
        return {k: str(v) for k, v in doc.items()}, [{k: str(v) for k, v in r.items()} for r in rows]
    lines = text.splitlines()
    if fmt == "csv":
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        if header == ["key", "value"]:
            return {r["key"]: r["value"] for r in rows}, []
        return {}, rows
    blank = lines.index("") if "" in lines else len(lines)
    summary = dict(line.split(": ", 1) for line in lines[:blank])
    table = lines[blank + 1:]
    if not table:
        return summary, []
    header = table[0].split()
    if header == ["outcome", "probability"]:
        header = ["label", "probability"]
    return summary, [dict(zip(header, line.split())) for line in table[1:]]


def _close(printed: str | float, exact: float) -> float:
    """Deviation of a printed real from the exact value, in units of the tolerance."""
    return abs(float(printed) - exact) / (ABS_TOL + REL_TOL * abs(exact))


def _eigvec(theta: float, outcome: int) -> tuple[float, float]:
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return (c, s) if outcome == 1 else (-s, c)


def _ray_deviation(row: dict[str, str], theta: float, outcome: int) -> float:
    """|<post|eigenvector>| must be 1: the post state is the eigenvector up to phase."""
    up = complex(float(row["post_up_re"]), float(row["post_up_im"]))
    down = complex(float(row["post_down_re"]), float(row["post_down_im"]))
    a, b = _eigvec(theta, outcome)
    return _close(abs(a * up + b * down), 1.0)


def _density_deviation(summary, rows, family: str, lo: float, hi: float) -> float:
    if family == "translation":
        norm, dens, cdf = hi - lo, (lambda x: 1.0 / (hi - lo)), (lambda x: (x - lo) / (hi - lo))
    else:
        norm = math.log(hi / lo)
        dens, cdf = (lambda x: 1.0 / (x * norm)), (lambda x: math.log(x / lo) / norm)
    if len(rows) != 101:
        return math.inf
    worst = max(
        max(_close(r["density"], dens(float(r["x"]))), _close(r["cdf"], cdf(float(r["x"])))) for r in rows
    )
    worst = max(worst, _close(rows[0]["x"], lo), _close(rows[-1]["x"], hi))
    if summary:
        worst = max(worst, _close(summary["normalizer"], norm))
        if summary["density_form"] != ("constant" if family == "translation" else "reciprocal"):
            return math.inf
    return worst


def check(op: CliOp, stdout: str) -> tuple[bool, float]:
    """Deviation in units of the print tolerance; exact tables must match exactly."""
    summary, rows = parse_output(stdout, op.fmt)
    if op.kind in ("coin", "die"):
        if op.kind == "coin":
            want = (("heads", Fraction(1, 2)), ("tails", Fraction(1, 2)))
        else:
            want = finite_expected(DieOp(*op.params))
        got = tuple((r["label"], Fraction(r["probability"])) for r in rows)
        return got == want, 0.0 if got == want else math.inf

    if op.kind == "interval":
        family, lo, hi, at, level = op.params
        worst = _density_deviation(summary, rows, family, lo, hi)
        if summary and at is not None:
            d = 1.0 / (hi - lo) if family == "translation" else 1.0 / (at * math.log(hi / lo))
            c = (at - lo) / (hi - lo) if family == "translation" else math.log(at / lo) / math.log(hi / lo)
            worst = max(worst, _close(summary["density_at"], d), _close(summary["cdf_at"], c))
        if summary and level is not None:
            q = lo + level * (hi - lo) if family == "translation" else lo * (hi / lo) ** level
            worst = max(worst, _close(summary["quantile"], q))
        if summary and ((at is None) == ("at" in summary) or (level is None) == ("quantile" in summary)):
            return False, math.inf
        return worst <= 1.0, worst

    if op.kind == "von_mises":
        r_lo, r_hi = op.params
        lo, hi = r_lo / (1.0 + r_lo), r_hi / (1.0 + r_hi)
        worst = _density_deviation(summary, rows, "translation", lo, hi)
        if summary:
            worst = max(worst, _close(summary["density"], 1.0 / (hi - lo)), _close(summary["median"], 0.5 * (lo + hi)))
        return worst <= 1.0, worst

    if op.kind == "spin":
        theta, up, down = op.params
        if [int(r["eigenvalue"]) for r in rows] != [1, -1]:
            return False, math.inf
        worst = 0.0
        for row in rows:
            outcome = int(row["eigenvalue"])
            a, b = _eigvec(theta, outcome)
            worst = max(worst, _close(row["probability"], (a * up + b * down) ** 2), _ray_deviation(row, theta, outcome))
        return worst <= 1.0, worst

    thetas = op.params
    if len(rows) != len(thetas):
        return False, math.inf
    worst, previous, before = 0.0, 0.0, 1
    for step, (row, theta) in enumerate(zip(rows, thetas)):
        outcome = int(row["outcome"])
        if int(row["step"]) != step or outcome not in (1, -1):
            return False, math.inf
        stay = math.cos(0.5 * (theta - previous)) ** 2
        p = stay if outcome == before else 1.0 - stay
        worst = max(worst, _close(row["theta"], theta), _close(row["probability"], p), _ray_deviation(row, theta, outcome))
        previous, before = theta, outcome
    return worst <= 1.0, worst


def layer_metrics(tracer, records) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for name in ("interp.start", "cli.import", "actions.die_action_cold"):
        mean = tracer.mean(name)
        out[f"{name}_ms"] = None if mean is None else mean * 1e3
    children = tracer.counts["cli.children"]
    out["cli.numpy_imported"] = tracer.counts["cli.numpy_imported"] / children if children else None
    for name, unit in LAYER_METRICS.items():
        if unit == "us":
            mean = tracer.mean(name.replace("_us", ""))
            out[name] = None if mean is None else mean * 1e6
    return out
