"""One run of one workload in a fresh process; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a checkout.  ``run.py`` starts it and turns its output
into the benchmark's metrics; it is not meant to be called by hand.
"""

import time

STARTED = time.perf_counter()  # wall set-up time counts from here, before any import below; CPU set-up time from process start

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchcore  # noqa: E402

os.environ.update(benchcore.SINGLE_THREADED)  # before numpy is imported, and before wl_cli copies the environment

import wl_cli  # noqa: E402
import wl_finite  # noqa: E402
import wl_haar  # noqa: E402
import wl_spin  # noqa: E402

WORKLOADS = {w.NAME: w for w in (wl_cli, wl_spin, wl_haar, wl_finite)}

# Shares of --seconds in a traced run: the workload untraced, then traced on
# the same ops (their ratio is the tracing overhead), then a short traced
# sample of each other workload so that every layer metric is reported.
REFERENCE_SHARE, TRACED_SHARE, COMPANION_SHARE = 0.2, 0.5, 0.1


def setup(workload, seed: int) -> None:
    """Imports, set-up, and one untimed op as warm-up; that op's answer is checked too."""
    workload.setup()
    records = benchcore.run_loop(workload, workload.ops(seed), benchcore.NullTracer(), 0.0, min_ops=1, max_ops=1)
    if records[0].status != "ok":
        raise SystemExit(f"perfbench: warm-up op failed: {records[0]}")


def known_defects(workload, seed: int, tracer) -> list:
    """The workload's known-defect ops, each run once under its own short deadline."""
    defects = getattr(workload, "known_defects", None)
    if defects is None:
        return []
    ops = defects(seed)
    return benchcore.run_loop(workload, iter(ops), tracer, 0.0, min_ops=len(ops), max_ops=len(ops))


def traced_loop(workload, seed: int, seconds: float, min_ops: int):
    tracer = benchcore.Tracer()
    hooks = getattr(workload, "trace_hooks", None)
    if hooks:
        hooks(tracer)
    try:
        records = benchcore.run_loop(workload, workload.ops(seed), tracer, seconds, min_ops=min_ops)
        records += known_defects(workload, seed, tracer)
    finally:
        tracer.restore()
    return records, workload.layer_metrics(tracer, records)


def overhead_pct(reference, traced) -> float:
    """Traced over untraced time of the same leading ops, as a percent increase."""
    traced = [r for r in traced if not getattr(r.op, "known_defect", None)]
    m = min(len(reference), len(traced))
    untraced = sum(r.seconds for r in reference[:m])
    return 100.0 * (sum(r.seconds for r in traced[:m]) / untraced - 1.0)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    benchcore.use_checkout_sources(root)
    workload = WORKLOADS[args.workload]
    others = [w for name, w in WORKLOADS.items() if name != args.workload] if args.trace else []
    setup(workload, args.seed)
    for other in others:
        setup(other, args.seed)
    out: dict = {"setup_wall_s": time.perf_counter() - STARTED, "setup_cpu_s": benchcore.cpu_time()}
    out["meta"] = meta(root, args.seed)
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if not args.trace:
        records = benchcore.run_loop(workload, workload.ops(args.seed), benchcore.NullTracer(), args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_examples" else resource.RUSAGE_SELF
        out["end_to_end"] = benchcore.end_to_end(records)
        out["end_to_end"]["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        records += known_defects(workload, args.seed, benchcore.NullTracer())
    else:
        reference = benchcore.run_loop(
            workload, workload.ops(args.seed), benchcore.NullTracer(), REFERENCE_SHARE * args.seconds, min_ops=1
        )
        traced, layers = traced_loop(workload, args.seed, TRACED_SHARE * args.seconds, workload.HEAD_OPS)
        records = reference + traced
        layers["trace.overhead_pct"] = overhead_pct(reference, traced)
        for other in others:
            other_records, other_layers = traced_loop(other, args.seed, COMPANION_SHARE * args.seconds, other.HEAD_OPS)
            records += other_records
            layers.update(other_layers)
        layers["src.lines"] = float(benchcore.src_lines(root))
        out["per_layer"] = layers

    # A known defect that hangs or raises, as it is known to, is reported on
    # its own, not counted as failed: how many of them a run attempts is fixed,
    # and the failure count stays that of the program's regular work.
    out["correct"] = benchcore.is_correct(records)
    out["attempted"] = len(records)
    out["failed"] = sum(1 for r in records if r.status != "ok" and not benchcore.is_known_failure(r))
    out["failures"] = [describe(r) for r in records if r.status != "ok" and not benchcore.is_known_failure(r)][:5]
    out["known_failures"] = [dict(describe(r), known_defect=r.op.known_defect) for r in records if benchcore.is_known_failure(r)]
    print(json.dumps(out))
    return 0


def describe(record) -> dict:
    return {"op": repr(record.op)[:300], "status": record.status, "detail": record.detail[:300]}


def meta(root: Path, seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "commit": commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "src.lines": benchcore.src_lines(root),
    }


def commit(root: Path) -> str:
    """The checked-out commit, or "unknown" when the checkout is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
