"""quadareas benchmark: one seeded workload per run, every result checked exactly.

    python3 bench/run.py --workload decide-long --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and the CLI runs as ``python -m quadareas.cli``.
``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed number of operations with span wrappers
installed (see ``spans.py``) and reports the per-layer metrics, plus the
tracing overhead against the same number of untraced operations.

Load model: a closed loop with one caller, one operation at a time (for the
CLI, one child process at a time).  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat the metrics with units, the uncalibrated wall-clock figures, the
sample counts and the run context.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("decide-long", "decide-bigdigit", "oracle", "cli")
MIN_OPS = 100           # at least ten samples beyond the 90th percentile
SETUP_RUNS = 5          # set-ups per run; setup_s is their median
WARMUP_OPS = {"decide-long": 10, "decide-bigdigit": 10, "oracle": 12}
# traced runs use a fixed op count, a whole number of schedule periods, so
# that their per-op counts repeat exactly for a given seed
TRACED_OPS = {"decide-long": 60, "decide-bigdigit": 40, "oracle": 48, "cli": 24}

END_TO_END = (
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Calibration.  On a shared host the speed of this process drifts by 20-40%
# over spans from a fraction of a second to minutes, so raw wall times of two
# runs of the same code differ by 10-20%.  A fixed reference task, timed
# between consecutive operations, drifts with it: each timed operation is
# reported as wall time * nominal / mean of the reference times just before
# and just after it, that is, in wall-clock seconds of a host running the
# reference at its nominal speed (the time after catches a slowdown that
# starts during the operation, which matters most for the tail).  The
# reference does the same kind of arithmetic as the workload, because
# interpreter-bound and big-integer-bound code slow down by different
# amounts: the exact cumulants of a fixed spec with grid entries (decide-long,
# oracle) or with 200-digit entries (decide-bigdigit), computed by
# reference.py with garbage collection paused; for the CLI, a
# ``python -c pass`` child.  None of them touches quadareas.  The nominal
# times are the references' medians during benchmark runs on the 2-core
# 2.1 GHz Xeon, Python 3.11.7, where the benchmark was defined.  Raw
# wall-clock figures are printed too.
_rng = random.Random("reference-task")
_GRID = tuple(tuple(Fraction(_rng.randint(1, 64), 8) for _ in range(40)) for _ in "pq")
_DIGITS = tuple(tuple(Fraction(_rng.randrange(10 ** 199, 10 ** 200), _rng.randrange(10 ** 199, 10 ** 200))
                      for _ in range(8)) for _ in "pq")
REFERENCE = {  # workload: (ratios of the reference task, its nominal seconds)
    "decide-long": (_GRID, 0.00125),
    "oracle": (_GRID, 0.00125),
    "decide-bigdigit": (_DIGITS, 0.0055),
}
CLI_REF_NOMINAL_S = 0.05


def reference_s(ratios) -> float:
    """Time of the in-process reference task on the given ratios."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference.cumulants(*ratios)
        return time.perf_counter() - start
    finally:
        gc.enable()


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_library():
    """Import quadareas from this checkout's src/, never from anywhere else."""
    if not (SRC / "quadareas" / "__init__.py").is_file():
        fail(f"no quadareas sources under {SRC}; run from the root of a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadareas
    import quadareas.cli

    if Path(quadareas.__file__).resolve().parent != (SRC / "quadareas").resolve():
        fail(f"quadareas was imported from {quadareas.__file__}, not from {SRC}")
    return quadareas


def context(workload: str, seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.glob("quadareas/*.py")))
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def latency_metrics(latencies) -> dict:
    return {
        "throughput_ops": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
    }


class Runner:
    """Times and checks operations; keeps calibrated and raw times; counts failures."""

    def __init__(self, lib=None, workload=None):
        self.lib = lib
        self.reference = REFERENCE.get(workload)
        self.failed = 0
        self.attempted = 0
        self.stats: dict = {}
        self.times: list = []   # calibrated seconds per operation
        self.raw: list = []     # wall-clock seconds per operation
        self.refs: list = []    # reference-task seconds, before the first op and after each

    def run(self, op) -> None:
        """Time one library operation and check its result."""
        fn = getattr(self.lib, op.fn)
        ratios, nominal = self.reference
        if not self.refs:
            self.refs.append(reference_s(ratios))
        start = time.perf_counter()
        try:
            result = fn(*op.args)
        except Exception:
            self.add_time(time.perf_counter() - start, reference_s(ratios), nominal)
            self.record(op.label, False, traceback.format_exc())
            return
        self.add_time(time.perf_counter() - start, reference_s(ratios), nominal)
        try:
            ok = bool(op.check(result))
            detail = "result differs from the expected one"
        except Exception:
            ok, detail = False, traceback.format_exc()
        for key, value in op.stats.items():
            self.stats[key] = self.stats.get(key, 0) + value
        self.record(op.label, ok, detail)

    def add_time(self, elapsed: float, ref_after: float, nominal: float) -> None:
        """Record an operation timed between the last reference and ``ref_after``."""
        self.raw.append(elapsed)
        self.times.append(elapsed * nominal * 2 / (self.refs[-1] + ref_after))
        self.refs.append(ref_after)

    def record(self, label: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            if not self.failed:
                print(f"first failure: {label}: {detail}", file=sys.stderr)
            self.failed += 1


# --------------------------------------------------------------------------
# library workloads


def warm_up(runner: Runner, workload: str, seed: int):
    """Run the untimed warm-up calls of a set-up; return the op stream that continues after them."""
    import workloads

    ops = workloads.LIBRARY_WORKLOADS[workload](runner.lib, seed)
    for _ in range(WARMUP_OPS[workload]):
        runner.run(next(ops))
    return ops


def probe_setups(workload: str, seed: int) -> tuple[list, bool]:
    """``SETUP_RUNS`` set-ups, each in a fresh interpreter (``setup_child.py``)."""
    samples, ok = [], True
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)],
            capture_output=True, text=True, cwd=ROOT, env=child_env(), timeout=120, check=False)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        samples.append(result["setup_s"])
        ok = ok and result["ok"]
    return samples, ok


def measure_library(workload: str, seed: int, seconds: float) -> dict:
    samples, probes_ok = probe_setups(workload, seed)
    warm = Runner(import_library(), workload)
    ops = warm_up(warm, workload, seed)
    runner = Runner(warm.lib, workload)
    deadline = time.perf_counter() + seconds
    for op in ops:
        runner.run(op)
        if runner.attempted >= MIN_OPS and time.perf_counter() >= deadline:
            break
    metrics = latency_metrics(runner.times)
    metrics["setup_s"] = statistics.median(samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return finish(runner, metrics, probes_ok and warm.failed == 0, measured=True)


def trace_library(workload: str, seed: int) -> dict:
    import spans

    warm = Runner(import_library(), workload)
    ops = warm_up(warm, workload, seed)
    count = TRACED_OPS[workload]
    tracer = spans.Tracer()
    runner = Runner(warm.lib, workload)
    with spans.installed(tracer):
        for index in range(count):
            op = next(ops)
            tracer.op = index
            runner.run(op)
            tracer.op = -1
    untraced = Runner(warm.lib, workload)
    for _ in range(count):
        untraced.run(next(ops))
    metrics = dict.fromkeys(spans.EXTRA, 0.0)
    metrics.update(spans.per_op(spans.aggregate(tracer), count))
    if runner.stats.get("total"):
        metrics["oracle.accepted_ratio"] = runner.stats["accepted"] / runner.stats["total"]
    metrics["trace.overhead_frac"] = sum(runner.times) / sum(untraced.times) - 1
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{workload}-{seed}.json", tracer.records())
    return finish(runner, metrics, warm.failed == 0 and untraced.failed == 0)


# --------------------------------------------------------------------------
# CLI workload


def expected_cli(ops) -> dict:
    """In-process result of every distinct invocation, checked against its construction."""
    from quadareas.cli import main

    expected = {}
    for op in ops:
        key = tuple(op.argv)
        if key in expected:
            continue
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(op.argv)
        try:
            ok = code == op.code and bool(op.check(out.getvalue()))
        except Exception:
            ok = False
        if not ok:
            print(f"in-process {op.label} disagrees with its construction: exit {code}", file=sys.stderr)
        expected[key] = (code, out.getvalue(), ok)
    return expected


def spawn(cmd) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=child_env(), timeout=120, check=False)
    return time.perf_counter() - start, proc


def cli_command(argv, traced_out=None) -> list:
    if traced_out is None:
        return [sys.executable, "-m", "quadareas.cli", *argv]
    return [sys.executable, str(BENCH / "cli_child.py"), str(traced_out), repr(time.perf_counter()), *argv]


def run_cli(runner: Runner, op, expected, traced_out=None) -> subprocess.CompletedProcess:
    """One timed CLI call, calibrated by reference children spawned around it."""
    if not runner.refs:
        runner.refs.append(spawn([sys.executable, "-c", "pass"])[0])
    elapsed, proc = spawn(cli_command(op.argv, traced_out))
    runner.add_time(elapsed, spawn([sys.executable, "-c", "pass"])[0], CLI_REF_NOMINAL_S)
    code, stdout, ok = expected[tuple(op.argv)]
    err = proc.stderr.decode(errors="replace")
    clean = "Traceback" not in err and (err == "" or (proc.returncode == 1 and err.startswith("error:")))
    ok = ok and clean and proc.returncode == code and proc.stdout.decode() == stdout
    runner.record(op.label, ok, f"exit {proc.returncode}\n{err}")
    return proc


def hostile_failures() -> tuple[int, int]:
    """Hostile inputs that do not end in a clean ``error:`` line with exit code 1."""
    import workloads

    hostile = workloads.hostile_invocations()
    bad = 0
    for argv in hostile:
        _, proc = spawn(cli_command(argv))
        err = proc.stderr.decode(errors="replace")
        bad += not (proc.returncode == 1 and err.startswith("error:") and "Traceback" not in err)
    return bad, len(hostile)


def cli_setup(seed: int):
    import workloads

    ops = workloads.cli_invocations(seed)
    return ops, expected_cli(ops)


def measure_cli(seed: int, seconds: float) -> dict:
    ops, expected = cli_setup(seed)
    setup = Runner()
    for _ in range(SETUP_RUNS):
        run_cli(setup, ops[0], expected)
    runner = Runner()
    deadline = time.perf_counter() + seconds
    while runner.attempted < MIN_OPS or time.perf_counter() < deadline:
        run_cli(runner, ops[runner.attempted % len(ops)], expected)
    bad, probed = hostile_failures()
    print(f"hostile inputs without a clean error exit: {bad}/{probed} (not counted in failed)")
    metrics = latency_metrics(runner.times)
    metrics["setup_s"] = statistics.median(setup.times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return finish(runner, metrics, setup.failed == 0, measured=True)


def trace_cli(seed: int) -> dict:
    import spans

    ops, expected = cli_setup(seed)
    spawn(cli_command(ops[0].argv))  # untimed: byte-compile and warm the file cache
    count = TRACED_OPS["cli"]
    OUT.mkdir(exist_ok=True)
    side = OUT / f"cli-child-{seed}.json"
    raws, records = [], []
    parts = {"interpreter_ms": 0.0, "import_ms": 0.0, "main_ms": 0.0, "stdout_bytes": 0}
    runner = Runner()
    for index in range(count):
        proc = run_cli(runner, ops[index % len(ops)], expected, traced_out=side)
        report = json.loads(side.read_text())
        raws.append(report.pop("raw"))
        records.append(report.pop("spans"))
        for key, value in report.items():
            parts[key] += value
        parts["stdout_bytes"] += len(proc.stdout)
    side.unlink()
    untraced = Runner()
    for index in range(count):
        run_cli(untraced, ops[index % len(ops)], expected)
    spans.write(OUT / f"spans-cli-{seed}.json", {"ops": records})
    metrics = dict.fromkeys(spans.EXTRA, 0.0)
    metrics.update(spans.per_op(spans.merge(raws), count))
    metrics.update({f"cli.{key}": value / count for key, value in parts.items()})
    bad, probed = hostile_failures()
    metrics["cli.hostile_failed_frac"] = bad / probed
    metrics["trace.overhead_frac"] = sum(runner.times) / sum(untraced.times) - 1
    return finish(runner, metrics, untraced.failed == 0)


# --------------------------------------------------------------------------


def finish(runner: Runner, metrics: dict, ok: bool, measured: bool = False) -> dict:
    """The result object; a measured run also prints its sample count and raw wall-clock figures."""
    import spans

    if measured:
        samples = len(runner.times)
        print(f"latency samples {samples}, beyond p90 {samples - int(0.9 * samples)}")
        raw = latency_metrics(runner.raw)
        print("uncalibrated wall clock: " + " ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f" reference_task_ms {statistics.median(runner.refs) * 1000:.6g}")
    units = dict(END_TO_END)
    return {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or spans.unit(name)}
                    for name, value in sorted(metrics.items())},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process, one after the other; print each one's report."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{workload}: {line}")
        results[workload] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or 'all' to run each in turn and print their metrics")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    import_library()
    print("context " + json.dumps(context(args.workload, args.seed)))
    if args.workload == "cli":
        result = trace_cli(args.seed) if args.trace else measure_cli(args.seed, args.seconds)
    elif args.trace:
        result = trace_library(args.workload, args.seed)
    else:
        result = measure_library(args.workload, args.seed, args.seconds)
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"failed_frac {result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
