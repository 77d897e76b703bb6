"""One library set-up in a fresh interpreter, for ``setup_s``.

    python bench/setup_child.py WORKLOAD SEED      (with src/ on PYTHONPATH)

The clock starts before anything but ``time`` is imported, so everything the
library loads (``fractions``, ``dataclasses``, ``argparse``, ...) counts in
its import time; the benchmark's own modules are imported only afterwards.
Prints, as JSON, the calibrated seconds of the import plus the warm-up calls
and whether every warm-up call passed its check.
"""
import time

STARTED = time.perf_counter()

import quadareas  # noqa: E402,F401
import quadareas.cli  # noqa: E402,F401

IMPORTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    ratios, nominal = run.REFERENCE[workload]
    runner = run.Runner(run.import_library(), workload)
    # nothing may run before the import, so the reference task after it calibrates it alone
    after = run.reference_s(ratios)
    runner.refs.append(after)
    runner.add_time(IMPORTED - STARTED, after, nominal)
    run.warm_up(runner, workload, seed)
    print(json.dumps({"setup_s": sum(runner.times), "ok": runner.failed == 0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
