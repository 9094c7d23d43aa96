"""Run the groupmeasure CLI once with its layers timed.

    python3 perfbench/cli_traced.py <groupmeasure arguments>

Stdout and the exit code are those of ``python -m groupmeasure.cli``: this
script calls the unchanged ``cli.main``.  It times the import of the CLI
and wraps, by their public names, the scenario parser, the scenario runner
the CLI calls, the renderer, and the die action the scenarios build.  The
spans go to stderr as one JSON line after TRACE_MARK.
"""

import json
import sys
import time

TRACE_MARK = "PERFBENCH_TRACE "


def main() -> int:
    t0 = time.perf_counter()
    import groupmeasure.cli as cli

    import_s = time.perf_counter() - t0
    numpy_imported = "numpy" in sys.modules
    from groupmeasure import scenarios

    spans: dict[str, float] = {}

    def wrap(owner, attr, name_of, first_call_only=False):
        original = getattr(owner, attr)  # a missing name fails the op rather than reading 0

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            name = name_of(args, result)
            if not (first_call_only and name in spans):
                spans[name] = spans.get(name, 0.0) + time.perf_counter() - start
            return result

        setattr(owner, attr, wrapper)

    wrap(scenarios, "scenario_from_dict", lambda args, scenario: f"scenarios.parse.{scenario.kind}")
    wrap(cli, "run", lambda args, report: f"scenarios.run.{report.kind}")
    wrap(cli, "render", lambda args, text: f"cli.render.{args[1] if len(args) > 1 else 'table'}")
    # The first call in a fresh process is the cold one: every cache is empty.
    wrap(scenarios, "die_action", lambda args, action: "actions.die_action_cold", first_call_only=True)

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    trace = {"import_s": import_s, "numpy_imported": numpy_imported, "spans": spans}
    print(TRACE_MARK + json.dumps(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
