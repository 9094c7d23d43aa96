"""The groupmeasure benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is one of WORKLOADS or ``all``.
Each workload runs in a fresh worker process, one op at a time, and every
op's answer is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the failure share, and the run's
metadata.  See README.md in this directory.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchcore  # noqa: E402

ENV = dict(os.environ, **benchcore.SINGLE_THREADED)
# The workloads, in the order BENCHMARK.json declares them.
WORKLOADS = ("cli_examples", "spin_chains", "haar_custom", "finite_oracle")
# Set-up runs SETUP_PROBES times per measured run, each in a fresh process,
# half before the measured worker and half after it, so that they fall in
# different spells of the host's speed.  Like an op's time, a set-up's time
# is the CPU time it costs, host-normalized, but against a reference that
# resembles it: a fresh interpreter that imports numpy, run just before and
# just after each set-up.  The program cannot change the reference.
# setup_s is the median of the set-ups scaled to a host on which the
# reference costs REFERENCE_IMPORT_S of CPU time.
SETUP_PROBES = 6
REFERENCE_IMPORT_S = 0.1
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    import wl_cli
    import wl_finite
    import wl_haar
    import wl_spin

    units: dict[str, str] = {}
    for module in (wl_cli, wl_spin, wl_haar, wl_finite):
        units.update(module.LAYER_METRICS)
    units["trace.overhead_pct"] = "%"
    units["src.lines"] = "count"
    return units


def worker(root: Path, workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.run(command, cwd=root, env=ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker for {workload} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_reference(root: Path) -> float:
    """CPU seconds of a fresh ``python -c "import numpy"``."""
    c0 = benchcore.cpu_time()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root, env=ENV, check=True, timeout=WORKER_TIMEOUT_S)
    return benchcore.cpu_time() - c0


def setup_sample(root: Path, workload: str, seed: int) -> tuple[float, float]:
    """One fresh set-up: (host-normalized CPU seconds, wall seconds)."""
    before = import_reference(root)
    out = worker(root, workload, seed, 0.0, 0, setup_only=True)
    scale = REFERENCE_IMPORT_S * 2.0 / (before + import_reference(root))
    return out["setup_cpu_s"] * scale, out["setup_wall_s"]


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        result = worker(root, workload, seed, seconds, trace)
        units = per_layer_units()
        missing = [name for name in units if result["per_layer"].get(name) is None]
        if missing:
            raise SystemExit(f"perfbench: the traced run of {workload} measured nothing for {', '.join(missing)}")
        result["metrics"] = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in units.items()}
        return result
    setups = [setup_sample(root, workload, seed) for _ in range(SETUP_PROBES // 2)]
    result = worker(root, workload, seed, seconds, 0)
    setups += [setup_sample(root, workload, seed) for _ in range(SETUP_PROBES // 2)]
    result["setup_wall_s"] = statistics.median(wall for _, wall in setups)
    values = dict(result["end_to_end"], setup_s=statistics.median(scaled for scaled, _ in setups))
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return result


def report(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:14s} {name:40s} {metric['value']:.6g} {metric['unit']}")
    if "end_to_end" in result:
        e2e = result["end_to_end"]
        print(f"{workload:14s} {'failed_ratio':40s} {e2e['failed_ratio']:.6g} ratio")
        print(f"{workload:14s} {'samples':40s} {e2e['samples']} ops")
        print(f"{workload:14s} {'deadline_share':40s} {e2e['deadline_share']:.6g} ratio")
        print(f"{workload:14s} {'wall_setup_s':40s} {result['setup_wall_s']:.6g} s")
        for name in ("wall_ops_per_s", "wall_op_ms_p50", "wall_op_ms_p90"):
            print(f"{workload:14s} {name:40s} {e2e[name]:.6g} {END_TO_END_UNITS[name[5:]]}")
    known = result["known_failures"]
    if known:
        print(f"{workload:14s} {'known_failures':40s} {len(known)} ops, not counted as failed")
    for failure in known:
        print(f"{workload:14s} known failure: {json.dumps(failure)}")
    for failure in result["failures"]:
        print(f"{workload:14s} failed op: {json.dumps(failure)}")
    print(json.dumps({"meta": dict(result["meta"], workload=workload)}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "groupmeasure" / "__init__.py").is_file():
        print(f"perfbench: run from a checkout of groupmeasure; no src/groupmeasure in {root}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
        report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
