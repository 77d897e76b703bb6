"""One traced CLI call in a fresh interpreter.

    python bench/cli_child.py OUT SPAWNED_AT ARGV...

Runs ``quadareas.cli.main(ARGV)`` with the span wrappers installed and
writes to OUT the interpreter start-up time (from SPAWNED_AT, the parent's
``time.perf_counter()`` just before the spawn; the clock is system-wide), the
import time of ``quadareas.cli``, the time in ``main``, the raw span sums and
the spans themselves.
Standard output and the exit code are those of the CLI itself.
"""
import time

STARTED = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    out_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    before_import = time.perf_counter()
    import quadareas.cli

    imported = time.perf_counter()
    # imported only now, so that what quadareas shares with them (json, inspect, ...)
    # is loaded by quadareas and counts in import_ms
    import json

    import spans

    tracer = spans.Tracer()
    tracer.op = 0
    with spans.installed(tracer):
        start = time.perf_counter()
        code = quadareas.cli.main(argv)
        main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({
            "interpreter_ms": (STARTED - spawned_at) * 1e3,
            "import_ms": (imported - before_import) * 1e3,
            "main_ms": main_s * 1e3,
            "raw": spans.aggregate(tracer),
            "spans": tracer.records(),
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
