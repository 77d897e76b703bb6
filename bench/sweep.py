"""Scaling sweep of ``member`` and ``synthesize_witness`` (informational, not gated).

    python3 bench/sweep.py

Times one call of each function on pinned specs along two axes: the length
n in {3, 8, 32, 128} on grid rationals, and the entry size at n = 8 (grid
rationals, 100-digit and 1000-digit entries).  Each spec is pinned by a named
seed, or by a closed formula, so every run times the same inputs; the input x
is the q1 combination 1*ab + 1*dc + 1*head, which every call must accept.
Each function is called at least three times and for at least a second.
Prints one JSON line per row with the median ms per call, calibrated as in
run.py (``*_ms``) and raw wall clock (``*_raw_ms``).
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MIN_CALLS = 3
MIN_SECONDS = 1.0


def grid_spec(n: int) -> workloads.Spec:
    """Spatial grid spec pinned by the seed string ``sweep/grid/<n>``."""
    return workloads.spatial_spec(random.Random(f"sweep/grid/{n}"), n)


def ramp_spec(n: int) -> workloads.Spec:
    """p = (1, 2, ..., n), p' = (1, ..., 1): spatial, every discriminant is 3."""
    return workloads.Spec([Fraction(i) for i in range(1, n + 1)], [Fraction(1)] * n)


def digit_spec(digits: int) -> workloads.Spec:
    """n = 8 spec with digits-long numerators and denominators, pinned by ``sweep/digits/<d>``."""
    return workloads.bigdigit_spec(random.Random(f"sweep/digits/{digits}"), digits)


# (row, spec, the workload whose reference task calibrates the row)
ROWS = [
    *((f"grid-n{n}", lambda n=n: grid_spec(n), "decide-long") for n in (3, 8, 32, 128)),
    *((f"ramp-n{n}", lambda n=n: ramp_spec(n), "decide-long") for n in (3, 8, 32, 128)),
    ("digits100-n8", lambda: digit_spec(100), "decide-bigdigit"),
    ("digits1000-n8", lambda: digit_spec(1000), "decide-bigdigit"),
]


def time_call(fn, workload: str) -> tuple[float, float]:
    """Median ms per call, calibrated and raw, over ``MIN_CALLS`` calls and ``MIN_SECONDS``."""
    runner = run.Runner(None, workload)
    ratios, nominal = runner.reference
    runner.refs.append(run.reference_s(ratios))
    while len(runner.raw) < MIN_CALLS or sum(runner.raw) < MIN_SECONDS:
        start = time.perf_counter()
        fn()
        runner.add_time(time.perf_counter() - start, run.reference_s(ratios), nominal)
    return statistics.median(runner.times) * 1000, statistics.median(runner.raw) * 1000


def main() -> int:
    q = run.import_library()
    for name, make, workload in ROWS:
        spec = make()
        one = Fraction(1)
        x = ref.combine((one, one, one), (spec.p, spec.q, spec.head))
        dspec = q.DivisionSpec(spec.p, spec.q)
        verdict = q.member(dspec, x)
        assert verdict.attainable and verdict.certificate.coeffs == (one, one, one)
        row = {
            "spec": name,
            "n": spec.n,
            "max_digits": max(len(str(v.numerator)) for v in spec.p + spec.q),
        }
        for label, fn in (("member", q.member), ("synthesize_witness", q.synthesize_witness)):
            row[f"{label}_ms"], row[f"{label}_raw_ms"] = time_call(lambda fn=fn: fn(dspec, x), workload)
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
