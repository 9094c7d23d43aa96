"""Compare the custom Haar densities of two source trees, case by case.

    python tools/compare_custom.py OLD_TREE NEW_TREE

Each tree runs in its own subprocess, with PYTHONPATH=<tree>/src and a
TIMEOUT-second limit, and builds the same custom densities: a*b and a+b+ab on
DRAWS intervals each, drawn with SEED like the haar_custom workload's custom
strata, and the math and cmath asinh(sinh a + sinh b) laws and a + math.tanh(b)
on fixed intervals.  Per case it records the normalizer, the panel count, cdf
at 7 points and quantile at 7 levels, or the refusal's text.  Custom a+b far from 0, and any quantile on an interval
that reaches 8192, are left out: there the quantile's stop can hang (ROADMAP
item 1).

The report gives the largest normalizer drift in ulps, the largest cdf drift
and the largest quantile drift over the interval's width, and lists every case
whose panel count or refusal text differs.  The exit status is 1 if one does,
2 if a tree's run fails, else 0.  Stdlib only.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

SEED = 1
DRAWS = 150
TIMEOUT = 300.0  # seconds per tree
POINTS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)  # cdf at lower + t * width, and the quantile levels
QUANTILE_LIMIT = 8192.0
FIXED = {
    "math_asinh": ((-2.0, 3.0), (-4.0, 6.0), (5.4, 5.5), (4.5, 5.5), (-6.0, -5.9), (0.5, 30.0), (20.0, 20.1)),
    "cmath_asinh": ((-2.0, 3.0), (-6.0, 6.0), (4.5, 5.5), (-1.0, 1.0), (0.5, 30.0), (-20.0, 20.0)),
    "tanh": ((-3.0, 3.0), (-1.0, 1.0), (0.0, 10.0), (-0.5, 0.5), (2.0, 2.5)),
}

# Law name -> (composition, identity).
LAWS = {
    "a*b": (lambda a, b: a * b, 1.0),
    "a+b+ab": (lambda a, b: a + b + a * b, 0.0),
    "math_asinh": (lambda a, b: math.asinh(math.sinh(a) + math.sinh(b)), 0.0),
    "cmath_asinh": (lambda a, b: cmath.asinh(cmath.sinh(a) + cmath.sinh(b)), 0.0),
    "tanh": (lambda a, b: a + math.tanh(b), 0.0),
}


def cases() -> list[tuple[str, float, float]]:
    """(law, lower, upper): drawn a*b and a+b+ab intervals, then the fixed ones."""
    rng, drawn = random.Random(SEED), []
    for _ in range(DRAWS):
        lower = rng.uniform(0.5, 20.0)
        drawn.append(("a*b", lower, lower * rng.choice((1.6, 1.9, 2.2, 2.5, 2.8, 3.1)) * rng.uniform(0.97, 1.03)))
        lower = rng.uniform(-0.5, 2.0)
        ratio = rng.choice((1.6, 2.0, 2.4, 2.8, 3.2))
        drawn.append(("a+b+ab", lower, (1.0 + lower) * ratio * rng.uniform(0.97, 1.03) - 1.0))
    return drawn + [(law, lo, hi) for law, intervals in FIXED.items() for lo, hi in intervals]


def work() -> None:
    """Run every case on the groupmeasure on sys.path and print one JSON list."""
    from groupmeasure.haar import IntervalConstraint, custom_family, normalize

    results = []
    for law, lower, upper in cases():
        try:
            d = normalize(custom_family(*LAWS[law]), IntervalConstraint(lower, upper))
            result = {
                "normalizer": d.normalizer,
                "panels": len(d.edges) - 1,
                "cdf": [d.cdf(lower + t * (upper - lower)) for t in POINTS],
                "quantile": [d.quantile(q) for q in POINTS] if max(abs(lower), abs(upper)) < QUANTILE_LIMIT else [],
            }
        except Exception as err:  # a refusal, or any other failure, is compared by its text
            result = {"refused": f"{type(err).__name__}: {err}"}
        results.append(result)
    json.dump(results, sys.stdout)


def run_tree(tree: Path) -> list[dict]:
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker"]
    try:
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        print(f"compare_custom: {tree} did not finish in {TIMEOUT:g} s", file=sys.stderr)
        sys.exit(2)
    if done.returncode:
        print(done.stderr, file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout)


def compare(old: list[dict], new: list[dict]) -> int:
    """Print the drift report; return the number of cases whose panel count or refusal differs."""
    normalizer_ulps = cdf_drift = quantile_drift = 0.0
    identical = differing = 0
    for (law, lower, upper), a, b in zip(cases(), old, new):
        label = f"{law} on [{lower!r}, {upper!r}]"
        if a.get("refused") != b.get("refused") or a.get("panels") != b.get("panels"):
            differing += 1
            print(f"DIFFERS {label}: {a.get('refused') or a['panels']} -> {b.get('refused') or b['panels']}")
            continue
        identical += a == b
        if "refused" in a:
            continue
        normalizer_ulps = max(normalizer_ulps, abs(a["normalizer"] - b["normalizer"]) / math.ulp(a["normalizer"]))
        cdf_drift = max(cdf_drift, *(abs(x - y) for x, y in zip(a["cdf"], b["cdf"])))
        quantile_drift = max(quantile_drift, 0.0, *(abs(x - y) / (upper - lower)
                                                    for x, y in zip(a["quantile"], b["quantile"])))
    refused = sum("refused" in a for a in old)
    print(f"{len(old)} cases, {refused} refused, {identical} bit-identical")
    print(f"normalizer drift {normalizer_ulps:g} ulp, cdf drift {cdf_drift:.3g}, "
          f"quantile drift {quantile_drift:.3g} of the width")
    print(f"{differing} cases differ in panel count or refusal")
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        work()
        return 0
    if len(args.trees) != 2:
        parser.error("give two trees, OLD_TREE NEW_TREE")
    old, new = (run_tree(tree) for tree in args.trees)
    return 1 if compare(old, new) else 0


if __name__ == "__main__":
    sys.exit(main())
