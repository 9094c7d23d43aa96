"""Mutation sweep: break one statement or one condition of the package at a time, and see if a test notices.

    python tools/mutate.py [MODULE ...]

MODULE names a module of ``src/groupmeasure`` (``haar``, ``tables``, ...); the
default is every module but ``oracle``, which is the tests' cross-check, and
``__init__``.  Two modes run per module:

- statement: each statement in a function or class body, other than a
  docstring, a nested ``def`` or ``class`` and ``pass``, becomes ``pass``;
- condition: each ``if``, ``while`` or ternary test that fits on one line
  becomes ``True``, and then ``False``.

A mutant keeps every line number of its module.  Each runs

    python -m pytest -q -x -p no:cacheprovider tests perfbench

in a temporary copy of ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml``, with the ``README.md`` and ``BENCHMARK.json`` that tests
read, never in the working tree, TIMEOUT seconds at most,
WORKERS mutants at a time.  A mutant is killed when the tests fail, hung when
they run out of time, and survived when they pass.  Every site is printed as
``status  mode  module:line  function  mutation``, the survivors and hung
ones first, then the score per module and mode.  Stdlib only; the copies are
removed at exit.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupmeasure"
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md", "BENCHMARK.json")  # the last two: read by tests
PYTEST = (sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests", "perfbench")
DEFAULT_SKIP = ("oracle", "__init__")
TIMEOUT = 120.0  # seconds per mutant; tier-1 takes about 15 s
WORKERS = 2


def _replace(lines: list[bytes], node: ast.AST, text: bytes) -> list[bytes] | None:
    """Lines with node's span replaced by text and its later lines left blank, or None if that is no program."""
    first, last = node.lineno - 1, node.end_lineno - 1
    head, tail = lines[first][:node.col_offset], lines[last][node.end_col_offset:]
    if first < last and tail.strip() and not tail.strip().startswith(b"#"):
        return None  # code after a multi-line span would start a line of its own
    new = lines[:first] + [head + text + (tail if first == last else b"\n")] + [b"\n"] * (last - first)
    new += lines[last + 1:]
    try:
        compile(b"".join(new), "<mutant>", "exec")
    except SyntaxError:
        return None
    return new


def mutants(module: str):
    """(mode, line, function, mutation, source) for every site of the module, in line order."""
    source = (PACKAGE / f"{module}.py").read_bytes()
    lines = source.splitlines(keepends=True)
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif scope and isinstance(child, ast.stmt) and not isinstance(child, ast.Pass) and not (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                found.append(("statement", child, scope, b"pass"))
            if isinstance(child, (ast.If, ast.While, ast.IfExp)) and child.test.lineno == child.test.end_lineno:
                found.extend(("condition", child.test, scope, text) for text in (b"True", b"False"))
            visit(child, inner)

    visit(ast.parse(source), "")
    for mode, node, scope, text in sorted(found, key=lambda site: (site[1].lineno, site[1].col_offset)):
        new = _replace(lines, node, text)
        if new is not None:
            was = lines[node.lineno - 1].decode().strip() if mode == "statement" else ast.unparse(node)
            where = f"{module}.{scope}" if scope else module
            yield mode, node.lineno, where, f"{was[:70]} -> {text.decode()}", b"".join(new)


def run_tests(tree: Path, live: set) -> str:
    """killed, hung or survived: the outcome of the tests in tree.  The test process is in live while it runs,
    and its process group is gone on return."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    process = subprocess.Popen(PYTEST, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                               start_new_session=True)
    live.add(process)
    try:
        return "survived" if process.wait(TIMEOUT) == 0 else "killed"
    except subprocess.TimeoutExpired:
        return "hung"
    finally:
        _kill(process, live)


def _kill(process: subprocess.Popen, live: set) -> None:
    """End the test process and every process it started."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    live.discard(process)


def worker(tree: Path, todo: queue.Queue, results: list, live: set) -> None:
    while True:
        try:
            module, site = todo.get_nowait()
        except queue.Empty:
            return
        target = tree / "src" / "groupmeasure" / f"{module}.py"
        original = target.read_bytes()
        target.write_bytes(site[-1])
        try:
            status = run_tests(tree, live)
        finally:
            target.write_bytes(original)
        results.append((status, module, *site[:-1]))
        print(f"{len(results)}: {status} {site[0]} {module}:{site[1]}", file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", help="modules of src/groupmeasure (default: all but oracle)")
    names = parser.parse_args(argv).modules or [p.stem for p in sorted(PACKAGE.glob("*.py"))
                                                 if p.stem not in DEFAULT_SKIP]
    for name in names:
        if not (PACKAGE / f"{name}.py").is_file():
            parser.error(f"no module {name!r} in {PACKAGE}")
    todo: queue.Queue = queue.Queue()
    for name in names:
        for site in mutants(name):
            todo.put((name, site))
    results: list = []
    live: set = set()  # the test processes running now, killed if the sweep is interrupted
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        trees = [Path(scratch) / str(i) for i in range(WORKERS)]
        for tree in trees:
            tree.mkdir()
            for item in COPIED:
                if (ROOT / item).is_dir():
                    shutil.copytree(ROOT / item, tree / item, ignore=shutil.ignore_patterns("__pycache__"))
                else:
                    shutil.copy2(ROOT / item, tree / item)
        if run_tests(trees[0], live) != "survived":
            print("mutate: the unmutated tests do not pass; nothing to measure", file=sys.stderr)
            return 2
        threads = [threading.Thread(target=worker, args=(tree, todo, results, live), daemon=True) for tree in trees]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:  # on an interrupt, no test process outlives the sweep
            for process in list(live):
                _kill(process, live)
    order = {"survived": 0, "hung": 1, "killed": 2}
    for status, module, mode, line, scope, mutation in sorted(results, key=lambda r: (order[r[0]], r[1], r[3])):
        print(f"{status:8}  {mode:9}  {module}:{line}  {scope}  {mutation}")
    print()
    for name in names:
        for mode in ("statement", "condition"):
            statuses = [r[0] for r in results if r[1] == name and r[2] == mode]
            counts = ", ".join(f"{statuses.count(s)} {s}" for s in ("killed", "hung", "survived"))
            print(f"score  {name} {mode}: {len(statuses)} sites, {counts}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
