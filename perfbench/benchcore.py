"""Shared machinery of the groupmeasure benchmark.

Deadlines, the host-speed probe, the tracer that records spans and counts
from the benchmark's own side of each layer boundary, the closed-loop
timing loop, and the statistics the end-to-end metrics are computed from.
Workload modules (``wl_*.py``) supply the operations; ``worker.py`` and
``run.py`` drive them.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

# Fewer than this many latencies leave the 90th percentile with under ten
# samples beyond it, so every measured run completes at least this many ops.
MIN_OPS = 100
# A loop stops here whatever its op count, so that a run ends within its limit.
HARD_CAP_S = 150.0
# An op's reported time is the CPU time it costs, in this process and in the
# children it starts, not its wall time: on a shared host the wall time also
# counts the spells in which other tenants hold the cores (on a 2-vCPU Xeon,
# two busy neighbours stretched the CLI's median wall time by 45% and its CPU
# time by 3%).  The CPU time is then host-normalized: scaled to a host on
# which one probe() takes this long.  A probe runs just before and just after
# every op, outside its timed interval, and the scale uses their mean, so it
# follows the host's clock speed, which drifts by tens of percent over
# seconds.  (The same ops run twice on a 2-vCPU Xeon differed by a median of
# 14% in CPU time, and of 8% once scaled.)  Wall times are kept too.
REFERENCE_PROBE_S = 0.0015
# Environment of every process the benchmark starts: numpy's BLAS gets one
# thread.  Its idle threads would otherwise spin at import, on a 2-vCPU host
# adding half again to a CLI command's CPU time, by an amount that depends
# on what else the host runs.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cpu_time() -> float:
    """CPU seconds used so far by this process and by its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def probe() -> float:
    """CPU seconds of one fixed task, about 1.5 ms: Fractions, dicts, floats, sorting, ints.

    Standard library only, and it calls nothing in groupmeasure, so no
    change to the program can change its cost.
    """
    t0 = time.process_time()
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        acc = acc + Fraction(i % 7 + 1, 24) - Fraction(i % 5, 24)
        table[f"k{i}"] = acc
    values = [math.exp(-i / 500.0) * (i % 13) for i in range(1500)]
    values.sort()
    s = 0
    for i in range(4000):
        s += i * i
    return time.process_time() - t0


class DeadlineExceeded(BaseException):
    """Raised inside an operation when its deadline passes.

    A BaseException, like KeyboardInterrupt, so that library code catching
    ``Exception`` cannot swallow it and keep running.
    """


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Abandon the enclosed block with DeadlineExceeded after ``seconds`` of wall time.

    Uses SIGALRM, so it works only in the main thread; it interrupts pure
    Python loops and a blocking wait on a child process alike.
    """

    def on_alarm(signum, frame):
        raise DeadlineExceeded(seconds)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    enabled = False

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        return fn(*args)

    def count(self, name: str, k: int = 1) -> None:
        pass


class Tracer:
    """Tracing on: spans as (count, total seconds) per name, plus named counts.

    ``call`` times one call made by benchmark code.  ``wrap`` replaces a
    public name on a module or class so that every call through that name,
    including calls the library makes internally, is timed or counted;
    ``restore`` puts the originals back.  Only completed calls are recorded.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        span = self.spans.setdefault(name, [0, 0.0])
        span[0] += calls
        span[1] += seconds

    def call(self, name: str, fn: Callable, *args: Any) -> Any:
        t0 = time.perf_counter()
        result = fn(*args)
        self.add(name, time.perf_counter() - t0)
        return result

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def mean(self, name: str) -> float | None:
        """Mean seconds per recorded call, or None when nothing was recorded."""
        span = self.spans.get(name)
        return span[1] / span[0] if span and span[0] else None

    def wrap(self, owner: Any, attr: str, name: str, timed: bool = True) -> None:
        original = getattr(owner, attr)
        if timed:
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                result = original(*args, **kwargs)
                self.add(name, time.perf_counter() - t0)
                return result
        else:
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


@dataclass
class Record:
    """One attempted operation: status is ok, wrong, error or deadline.

    ``seconds`` is the op's CPU time, host-normalized (see
    REFERENCE_PROBE_S); ``wall_s`` is its wall time as measured.
    """

    op: Any
    seconds: float
    status: str
    deviation: float = 0.0
    detail: str = ""
    wall_s: float = 0.0


def deadline_s(workload: Any, op: Any) -> float:
    """The op's deadline: the workload's, or its shorter one for ops tagged as known defects."""
    if getattr(op, "known_defect", None):
        return getattr(workload, "KNOWN_DEFECT_DEADLINE_S", workload.DEADLINE_S)
    return workload.DEADLINE_S


def run_loop(
    workload: Any,
    ops: Iterator[Any],
    tracer: Any,
    seconds: float,
    min_ops: int = MIN_OPS,
    max_ops: int | None = None,
) -> list[Record]:
    """Closed loop, one client, one op at a time: the next op starts when the last ends.

    Runs for at least ``seconds`` and at least ``min_ops`` ops, stopping early
    only at ``max_ops`` or at HARD_CAP_S of wall time.  A probe runs before
    and after each op, and its answer is checked after that, all outside its
    timed interval.  The deadline is on wall time; a miss is recorded at
    exactly the op's deadline.
    """
    records: list[Record] = []
    probe()  # the first calls in a process run slow
    probe()
    start = time.perf_counter()
    while max_ops is None or len(records) < max_ops:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(records) >= min_ops) or elapsed >= HARD_CAP_S:
            break
        op = next(ops)
        limit = deadline_s(workload, op)
        before = probe()
        t0, c0 = time.perf_counter(), cpu_time()
        try:
            with deadline(limit):
                result = workload.run_op(op, tracer)
            cpu, took = cpu_time() - c0, time.perf_counter() - t0
        except DeadlineExceeded:
            records.append(Record(op, limit * scale(before), "deadline", wall_s=limit))
            continue
        except Exception as err:  # an op that raises is a failed op, not a crash
            cpu, took = cpu_time() - c0, time.perf_counter() - t0
            records.append(Record(op, cpu * scale(before), "error", detail=repr(err), wall_s=took))
            continue
        factor = scale(before)
        try:
            ok, deviation = workload.check(op, result)
        except Exception as err:  # an answer the checker cannot read is a wrong answer
            ok, deviation = False, math.inf
            detail = f"check raised {err!r}"
        else:
            detail = "" if ok else f"answer off by {deviation!r}"
        records.append(Record(op, cpu * factor, "ok" if ok else "wrong", deviation, detail, took))
    return records


def scale(before: float) -> float:
    """Host-normalizing factor for an op that ``before`` was probed just before and that has just ended."""
    return 2.0 * REFERENCE_PROBE_S / (before + probe())


def end_to_end(records: list[Record]) -> dict[str, float]:
    """Throughput, latency percentiles and the failure share of one timed loop.

    The declared figures are host-normalized; the ``wall_`` ones are as
    measured, and ``deadline_share`` is the part of the timed wall time that
    went to deadline misses.
    """
    latencies = [r.seconds * 1e3 for r in records]
    wall = [r.wall_s * 1e3 for r in records]
    succeeded = sum(1 for r in records if r.status == "ok")
    return {
        "ops_per_s": succeeded / sum(r.seconds for r in records),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": statistics.quantiles(latencies, n=10)[8],
        "failed_ratio": (len(records) - succeeded) / len(records),
        "ok_ratio": succeeded / len(records),
        "samples": len(records),
        "wall_ops_per_s": succeeded * 1e3 / sum(wall),
        "wall_op_ms_p50": statistics.median(wall),
        "wall_op_ms_p90": statistics.quantiles(wall, n=10)[8],
        "deadline_share": sum(r.wall_s for r in records if r.status == "deadline") * 1e3 / sum(wall),
    }


def is_known_failure(record: Record) -> bool:
    """A known defect that hung or raised, as the op's tag says it does; a wrong answer never is."""
    return record.status in ("deadline", "error") and bool(getattr(record.op, "known_defect", None))


def is_correct(records: list[Record]) -> bool:
    """Every op succeeded, or is a known failure."""
    return all(r.status == "ok" or is_known_failure(r) for r in records)


def stratified(seed: int, head: Callable, make_cycle: Callable) -> Iterator:
    """Endless op stream: ``head(rng)`` once, then cycles of ``make_cycle(rng)``, each shuffled.

    Every cycle holds the same strata, so a run's mix of op sizes does not
    depend on the seed, only the values inside each stratum do.  The head
    covers every bucket a layer metric is reported by, cheaply, so a short
    traced sample reports every metric.
    """
    import random

    rng = random.Random(seed)
    yield from head(rng)
    while True:
        cycle = make_cycle(rng)
        rng.shuffle(cycle)
        yield from cycle


def src_lines(root: Path) -> int:
    """Lines in the package sources: the simplicity tracker."""
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src" / "groupmeasure").rglob("*.py"))
    )


def use_checkout_sources(root: Path) -> None:
    """Import groupmeasure from ``root/src`` and from nowhere else."""
    package = root / "src" / "groupmeasure" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no groupmeasure sources at {package.parent}")
    sys.path.insert(0, str(root / "src"))
    import groupmeasure

    if Path(groupmeasure.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: groupmeasure imported from {groupmeasure.__file__}")


def child_env(root: Path) -> dict[str, str]:
    """Environment for child interpreters: the checkout's sources first on the path."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + extra if extra else "")
    return env
