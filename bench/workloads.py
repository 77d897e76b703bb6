"""Seeded workloads for the quadareas benchmark.

Every workload is a generator of operations.  An operation carries the timed
call into the library (or the CLI argv) and an exact check of its result.
Inputs are built from known coefficients in a known basis, so the expected
verdict, branch, certificate and reason are fixed by construction and derived
with ``reference`` alone.  The same seed always gives the same operations.

The op schedule (which size, which verb, which spec kind, which case) is a
fixed rotation; the seed only draws the numbers.  That keeps the mix, and so
the latency quantiles, the same from seed to seed.
"""
from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator

import reference as ref

F = Fraction
ZERO = ref.ZERO

SPATIAL_CASES = ("q1", "q2", "face", "ray", "boundary", "negative", "off-subspace", "non-positive")
PLANAR_CASES = ("degenerate", "boundary", "negative", "off-subspace", "non-positive")


@dataclass
class Op:
    """One timed call ``quadareas.<fn>(*args)`` and the exact check of its result.

    The function is looked up by name on the package at call time, so a traced
    run goes through the wrappers installed in the package namespace.
    """

    label: str                      # "<verb>/<case>", used for coverage and reports
    fn: str
    args: tuple
    check: Callable[[Any], bool]
    stats: dict = field(default_factory=dict)  # counters the traced run aggregates


@dataclass
class CliOp:
    label: str
    argv: list
    code: int                                   # expected exit code
    check: Callable[[str], bool]                # semantic check of stdout


# --------------------------------------------------------------------------
# specs and cases


class Spec:
    """A ratio pair with its reference frame, optionally with exact tail sums."""

    def __init__(self, p, q, tail_p=ZERO, tail_q=ZERO):
        self.p, self.q = tuple(p), tuple(q)
        self.n = len(self.p)
        self.pivot = ref.pivot(self.p, self.q)
        self.head, self.tail = ref.cumulants(self.p, self.q)
        self.tail_p, self.tail_q = tail_p, tail_q
        if tail_p or tail_q:
            # extended vectors: the prefix plus one virtual coordinate holding tail sums
            tp_total, tq_total = sum(self.p) + tail_p, sum(self.q) + tail_q
            _, tail_ext = ref.cumulants(self.p, self.q, tail_p, tail_q)
            head_sum = tp_total * tq_total - sum(self.p) * sum(self.q)
            self.ext = (
                self.p + (tail_p,),
                self.q + (tail_q,),
                self.head + (head_sum,),
                tail_ext + (tail_p * tail_q,),
            )

    def vectors(self):
        if self.tail_p or self.tail_q:
            return self.ext
        return self.p, self.q, self.head, self.tail


def grid(rng: random.Random) -> Fraction:
    return F(rng.randint(1, 64), 8)


def spatial_spec(rng, n) -> Spec:
    while True:
        spec = Spec([grid(rng) for _ in range(n)], [grid(rng) for _ in range(n)])
        if spec.pivot is not None:
            return spec


def proportional_spec(rng, n) -> Spec:
    p = [grid(rng) for _ in range(n)]
    lam = grid(rng)
    return Spec(p, [lam * v for v in p])


def skew_planar_spec(rng, n) -> Spec:
    """Planar, non-proportional ratios extended one entry at a time.

    Uses the continuation formula of ``quadareas.continue_degenerate``: given
    the next DC ratio, the next AB ratio that keeps the discriminant at zero.
    """
    p: list = []
    while len(p) < n:
        if len(p) < 2:
            p, q = [grid(rng), grid(rng)], [grid(rng), grid(rng)]
            if p[0] * q[1] == p[1] * q[0]:
                p = []
            continue
        options = []
        for k in range(1, 65):
            nq = F(k, 8)
            den = (q[-2] + q[-1] + nq) * p[-2] * q[-1] - q[-2] * nq * p[-1]
            if den > 0:
                options.append((nq, q[-2] * nq * p[-1] * (p[-2] + p[-1]) / den))
        if not options:  # no positive continuation on the grid: start again
            p = []
            continue
        nq, np_ = rng.choice(options)
        p.append(np_)
        q.append(nq)
    spec = Spec(p, q)
    assert spec.pivot is None
    return spec


BIGDIGIT_N = 8


def bigdigit_spec(rng, digits) -> Spec:
    """A spatial spec of length ``BIGDIGIT_N`` with digits-long numerators and denominators."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        spec = Spec(*([F(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(BIGDIGIT_N)] for _ in "pq"))
        if spec.pivot is not None:
            return spec


def accept(branch, coeffs, q1=None, q2=None, prefix=False):
    return (True, branch, tuple(coeffs), q1, q2, None, prefix)


def reject(reason, prefix=False):
    return (False, None, None, None, None, reason, prefix)


def verdict_key(v) -> tuple:
    """A library Verdict as the plain tuple the expectations use."""
    cert = (None,) * 4 if v.certificate is None else certificate_key(v.certificate)
    return (v.attainable, *cert, v.reason, v.prefix_certified)


def certificate_key(cert) -> tuple:
    def iv(i):
        return None if i is None else (i.lo, i.hi)

    return (cert.branch, tuple(cert.coeffs), iv(cert.q1_interval), iv(cert.q2_interval))


def spatial_case(spec: Spec, case: str, rng, mode="audited"):
    """(x, expected verdict) for a spatial spec; tail-summed specs use the extended vectors."""
    ab, dc, head, tail = spec.vectors()
    prefix = bool(spec.tail_p or spec.tail_q)
    a, b, c = grid(rng), grid(rng), grid(rng)
    if case == "q1":
        return ref.combine((a, b, c), (ab, dc, head)), accept("q1", (a, b, c), prefix=prefix)
    if case == "q2":
        return ref.combine((a, b, c), (ab, dc, tail)), accept("q2", (a, b, c), prefix=prefix)
    if case == "face":
        b = b + F(1, 8) if a == b else b
        x = ref.combine((a, b), (ab, dc))
        return x, accept("face", (a, b), prefix=prefix) if mode == "audited" else reject("boundary", prefix)
    if case == "ray":
        return ref.combine((a, a), (ab, dc)), accept("ray", (a,), prefix=prefix)
    if case == "boundary":
        return ref.combine((a, c), (ab, head)), reject("boundary", prefix)
    if case == "negative":
        base = ref.combine((a, c), (ab, head))
        b = -min(u / v for u, v in zip(base, dc)) / 2
        return ref.combine((a, b, c), (ab, dc, head)), reject("negative-coefficient", prefix)
    x = list(ref.combine((a, b, c), (ab, dc, head)))
    return _perturbed(spec, x, case, rng, prefix)


def planar_case(spec: Spec, case: str, rng):
    ab, dc, head, tail = spec.vectors()
    prefix = bool(spec.tail_p or spec.tail_q)
    a, b = grid(rng), grid(rng)
    if case == "degenerate":
        x = ref.combine((a, b), (head, tail))
        q1 = ref.redecomposition(ab, dc, head, x, a, b, True)
        q2 = ref.redecomposition(ab, dc, tail, x, a, b, False)
        return x, accept("degenerate", (a, b), q1, q2, prefix)
    if case == "boundary":
        return ref.combine((a,), (head,)), reject("boundary", prefix)
    if case == "negative":
        b = -a * min(h / t for h, t in zip(head, tail)) / 2
        return ref.combine((a, b), (head, tail)), reject("negative-coefficient", prefix)
    x = list(ref.combine((a, b), (head, tail)))
    return _perturbed(spec, x, case, rng, prefix)


def _perturbed(spec: Spec, x: list, case: str, rng, prefix: bool):
    if case == "non-positive":
        x[rng.randrange(spec.n)] = F(-rng.randint(0, 8), 8)
        return tuple(x), reject("non-positive-entry", prefix)
    assert case == "off-subspace"
    # Bump a coordinate outside a set that determines the coefficients uniquely:
    # the bumped point then misses the span.  With tail sums the bump goes to
    # the tail-sum coordinate.
    x[_free_index(spec)] += grid(rng)
    return tuple(x), reject("off-subspace", prefix)


def _free_index(spec: Spec) -> int:
    if spec.tail_p or spec.tail_q:
        return spec.n
    if spec.pivot is None:
        # (head, tail) has a nonzero minor on the first and last coordinates
        h, t = spec.head, spec.tail
        assert h[0] * t[-1] != h[-1] * t[0]
        return 1
    cols = (spec.pivot - 2, spec.pivot - 1, spec.pivot)
    rows = [[spec.p[k], spec.q[k], spec.head[k]] for k in cols]
    assert ref.solve(rows, [F(1)] * 3) is not None
    return next(k for k in (0, spec.n - 1) if k not in cols)


def case_for(spec: Spec, case: str, rng, mode="audited"):
    if spec.pivot is None:
        return planar_case(spec, case, rng)
    return spatial_case(spec, case, rng, mode)


CONSTRUCTIONS = {"q1": {"apex-q1"}, "q2": {"apex-q2"}, "face": {"trapezoid"}, "ray": {"trapezoid-l0"},
                 "degenerate": {"apex-q1", "apex-q2", "trapezoid", "trapezoid-l0"}}


def witness_ok(out, spec: Spec, x, expected) -> bool:
    """The quad is convex, its division points and strip areas are exact, the certificate matches."""
    if certificate_key(out.certificate) != expected[1:5] or out.construction not in CONSTRUCTIONS[expected[1]]:
        return False
    quad = tuple((v.x, v.y) for v in out.quad.vertices)
    on_ab, on_dc = ref.subdivide(quad, spec.p, spec.q)
    return (
        ref.convex_ccw(quad)
        and [(v.x, v.y) for v in out.division.on_ab] == on_ab
        and [(v.x, v.y) for v in out.division.on_dc] == on_dc
        and ref.strip_areas(quad, spec.p, spec.q) == tuple(x)
    )


# --------------------------------------------------------------------------
# library workloads


DECIDE_LONG_SIZES = (32, 128)
BIGDIGIT_DIGITS = (100, 150, 200, 250, 300)


def decide_long(q, seed: int) -> Iterator[Op]:
    """Shared specs, many x each: member (both modes), witness, member_tail, hyperplanes.

    Rounds of ten ops, seven at the small size and three at the large one, so
    that the median lands among small-size ops and the 90th percentile among
    large-size ops rather than on the gap between them.
    """
    sizes = small, large = DECIDE_LONG_SIZES
    rng = random.Random(f"decide-long/{seed}/specs")
    kinds = {"S": spatial_spec, "P": proportional_spec, "K": skew_planar_spec}
    specs = {(k, n): make(rng, n) for n in sizes for k, make in kinds.items()}
    lib = {key: q.DivisionSpec(s.p, s.q) for key, s in specs.items()}
    tails = {}
    for n in sizes:
        s = specs["S", n]
        tails["S", n] = Spec(s.p, s.q, grid(rng), grid(rng))
        s = specs["P", n]
        tp = grid(rng)
        tails["P", n] = Spec(s.p, s.q, tp, tp * s.q[0] / s.p[0])
    tail_lib = {
        key: (q.TailSummedSequence(s.p, s.tail_p), q.TailSummedSequence(s.q, s.tail_q))
        for key, s in tails.items()
    }

    spec_kinds: dict = {}
    cases: dict = {}

    def next_kind(n, verb):
        key = (n, verb)
        if key not in spec_kinds:
            spec_kinds[key] = itertools.cycle("SP" if verb == "tail" else "SPK")
        return next(spec_kinds[key])

    def next_case(n, kind, verb):
        key = (n, kind, verb)
        if key not in cases:
            spatial = kind == "S"
            if verb == "witness":
                options = ("q1", "q2", "face", "ray") if spatial else ("degenerate",)
            else:
                options = SPATIAL_CASES if spatial else PLANAR_CASES
            cases[key] = itertools.cycle(options)
        return next(cases[key])

    op_rng = random.Random(f"decide-long/{seed}/ops")
    rot = itertools.cycle(("strict", "tail", "describe"))
    while True:
        slots = [(small, "member"), (small, "strict"), (small, "witness"), (small, "tail"),
                 (small, "describe"), (small, "member"), (small, "witness"),
                 (large, "member"), (large, "witness"), (large, next(rot))]
        for n, verb in slots:
            kind = next_kind(n, verb)
            yield _decide_op(q, verb, n, kind, specs, lib, tails, tail_lib, next_case, op_rng)


def _decide_op(q, verb, n, kind, specs, lib, tails, tail_lib, next_case, rng) -> Op:
    spec, dspec = specs[kind, n], lib[kind, n]
    if verb == "describe":
        dim = 3 if spec.pivot is not None else 2
        vectors = (spec.p, spec.q, spec.head, spec.tail)
        return Op(f"describe/{kind}{n}", "hyperplanes", (dspec,),
                  lambda planes: ref.planes_ok(planes, vectors, dim))
    case = next_case(n, kind, verb)
    if verb == "tail":
        tspec = tails[kind, n]
        xe, expected = case_for(tspec, case, rng)
        p_seq, q_seq = tail_lib[kind, n]
        x_seq = q.TailSummedSequence(xe[:-1], xe[-1])
        return Op(f"tail/{expected[1] or expected[5]}", "member_tail", (p_seq, q_seq, x_seq),
                  lambda v: verdict_key(v) == expected)
    mode = "strict" if verb == "strict" else "audited"
    x, expected = case_for(spec, case, rng, mode)
    if verb == "witness":
        return Op(f"witness/{expected[1]}", "synthesize_witness", (dspec, x),
                  lambda out: witness_ok(out, spec, x, expected))
    return Op(f"{verb}/{expected[1] or expected[5]}", "member", (dspec, x, mode),
              lambda v: verdict_key(v) == expected)


def decide_bigdigit(q, seed: int) -> Iterator[Op]:
    """A fresh spec per op with entries of 100 to 300 digits; member and witness alternate.

    Only cases that run the whole decision (the pivot solve and the span test
    to the end) are drawn, so that each digit size forms one cluster of
    latencies; five sizes put the median and the 90th percentile inside a
    cluster.
    """
    rng = random.Random(f"decide-bigdigit/{seed}")
    member_cases = itertools.cycle(("q1", "q2", "face", "ray", "boundary", "negative"))
    witness_cases = itertools.cycle(("q1", "q2", "face", "ray"))
    verbs = itertools.cycle(("member", "witness"))
    while True:
        for d in BIGDIGIT_DIGITS:
            for _ in range(2):
                verb = next(verbs)
                spec = bigdigit_spec(rng, d)
                case = next(member_cases if verb == "member" else witness_cases)
                x, expected = spatial_case(spec, case, rng)
                yield _bigdigit_op(q, verb, spec, x, expected, d)


def _bigdigit_op(q, verb, spec, x, expected, digits) -> Op:
    dspec = q.DivisionSpec(spec.p, spec.q)
    if verb == "witness":
        return Op(f"witness/{expected[1]}/{digits}", "synthesize_witness", (dspec, x),
                  lambda out: witness_ok(out, spec, x, expected))
    return Op(f"member/{expected[1] or expected[5]}/{digits}", "member", (dspec, x),
              lambda v: verdict_key(v) == expected)


# Samples per report, by family and n, chosen so that every report costs
# about the same (40-50 ms on the defining host): the latency quantiles then
# come from one cluster instead of sitting on the gaps between cheap and
# expensive reports.
ORACLE_COUNTS = {
    "quads": {4: 24, 8: 11, 12: 7},
    "parallel": {4: 30, 8: 12, 12: 8},
    "strict": {4: 30, 8: 12, 12: 8},
    "cross": {4: 12, 8: 2, 12: 1},
}


def oracle(q, seed: int) -> Iterator[Op]:
    """Oracle reports of fixed count, each on a fresh spatial spec; every report must be clean.

    A fresh spec per report makes a run's figures an average over many specs
    rather than hang on the cost of a few drawn ones.
    """
    rng = random.Random(f"oracle/{seed}")
    while True:
        for family, counts in ORACLE_COUNTS.items():
            for n, count in counts.items():
                spec = spatial_spec(rng, n)
                dspec = q.DivisionSpec(spec.p, spec.q)
                yield _oracle_op(family, dspec, count, rng.randrange(1 << 32))


ORACLE_CALLS = {
    "quads": ("sample_convex_quads", ()),
    "parallel": ("sample_parallel_family", ("audited",)),
    "strict": ("sample_parallel_family", ("strict",)),
    "cross": ("cross_validate", ()),
}


def _oracle_op(family, dspec, count, sample_seed) -> Op:
    fn, extra = ORACLE_CALLS[family]
    expected = ref.strict_parallel_accepted(sample_seed, count) if family == "strict" else count
    op = Op(f"oracle/{family}/{dspec.n}", fn, (dspec, count, sample_seed, *extra), None)

    def check(report) -> bool:
        op.stats = {"accepted": report.accepted, "total": report.total}
        reasons = {v.reason for v in report.violations}
        return (
            report.spec == dspec and report.seed == sample_seed and report.total == count
            and report.accepted == expected
            and len(report.violations) == count - expected
            and reasons <= {"rejected: boundary"}
        )

    op.check = check
    return op


# --------------------------------------------------------------------------
# CLI workload


def _fr(values) -> str:
    return ",".join(str(v) for v in values)


def _seq(values, tail) -> str:
    return f"{_fr(values)} | tail={tail}"


def _fracs(items) -> tuple:
    return tuple(F(v) for v in items)


def cli_invocations(seed: int) -> list:
    """One cycle of CLI calls over all six verbs at n = 3..8, fixed by the seed."""
    rng = random.Random(f"cli/{seed}")
    ops: list = []

    def spec_args(spec):
        return ["--p", _fr(spec.p), "--pp", _fr(spec.q)]

    def describe(spec, fmt, full):
        argv = ["describe", *spec_args(spec), "--format", fmt] + (["--full"] if full else [])

        def check(out):
            if fmt == "text":
                lines = out.splitlines()
                planes = [tuple(int(c) for c in ln[6:].split(",")) for ln in lines if ln.startswith("plane ")]
                head = _fracs(lines[5][5:].split(","))
                return head == spec.head and _planes_ok(spec, planes)
            payload = json.loads(out)
            payload = payload["result"] if full else payload
            fr = payload["frame"]
            planes = [tuple(int(c) for c in pl) for pl in payload["hyperplanes"]]
            return (
                _fracs(payload["deltas"]) == ref.discriminants(spec.p, spec.q)
                and (payload["case"].get("pivot") == spec.pivot)
                and all(_fracs(fr[k]) == v for k, v in zip(("ab", "dc", "head", "tail"), (spec.p, spec.q, spec.head, spec.tail)))
                and _planes_ok(spec, planes)
            )

        ops.append(CliOp(f"describe/{fmt}", argv, 0, check))

    def member(spec, case, fmt, full=False, mode="audited"):
        x, expected = case_for(spec, case, rng, mode)
        argv = ["member", *spec_args(spec), f"--x={_fr(x)}", "--format", fmt, "--mode", mode]
        argv += ["--full"] if full else []
        ops.append(CliOp(f"member/{case}", argv, 0 if expected[0] else 2,
                         lambda out: _member_out_ok(out, fmt, full, expected)))

    def member_tail(spec, case, tp, tq):
        tspec = Spec(spec.p, spec.q, tp, tq)
        xe, expected = case_for(tspec, case, rng)
        argv = ["member", "--p", _seq(spec.p, tp), "--pp", _seq(spec.q, tq), "--x", _seq(xe[:-1], xe[-1])]
        ops.append(CliOp(f"member-tail/{case}", argv, 0 if expected[0] else 2,
                         lambda out: _member_out_ok(out, "json", False, expected)))

    def witness(spec, case, fmt, full=False):
        x, expected = case_for(spec, case, rng)
        argv = ["witness", *spec_args(spec), f"--x={_fr(x)}", "--format", fmt] + (["--full"] if full else [])
        ops.append(CliOp(f"witness/{case}/{fmt}", argv, 0 if expected[0] else 2,
                         lambda out: _witness_out_ok(out, fmt, full, spec, x, expected)))

    def areas(spec, fmt):
        quad = _apex_quad(spec, grid(rng), grid(rng), grid(rng))
        argv = ["areas", *spec_args(spec), "--quad", ";".join(f"{x},{y}" for x, y in quad), "--format", fmt]
        expected = ref.strip_areas(quad, spec.p, spec.q)

        def check(out):
            if fmt == "text":
                return _fracs(out.strip().split(",")) == expected
            payload = json.loads(out)
            return _fracs(payload["areas"]) == expected and F(payload["total"]) == sum(expected)

        ops.append(CliOp(f"areas/{fmt}", argv, 0, check))

    def sample(spec, family, count, fmt, full=False):
        sd = rng.randrange(1 << 16)
        argv = ["sample", *spec_args(spec), "--family", family, "--count", str(count), "--seed", str(sd),
                "--format", fmt] + (["--full"] if full else [])

        def check(out):
            if fmt == "text":
                return out.strip() == f"total={count} accepted={count} violations=0 seed={sd} mode=audited"
            payload = json.loads(out)
            payload = payload["result"] if full else payload
            return payload["total"] == payload["accepted"] == count and payload["violations"] == []

        ops.append(CliOp(f"sample/{family}", argv, 0, check))

    def reduce(spec, branch, fmt, tails=None):
        x, _ = case_for(spec, "q1", rng)
        k = spec.pivot - 1
        if tails:
            tp, tq = tails
            xt = grid(rng)
            argv = ["reduce", "--p", _seq(spec.p, tp), "--pp", _seq(spec.q, tq), "--x", _seq(x, xt)]
        else:
            tp = tq = xt = ZERO
            argv = ["reduce", *spec_args(spec), "--x", _fr(x)]
        argv += ["--pivot", str(spec.pivot), "--branch", branch, "--format", fmt]
        if branch == "q1":
            fold = [(sum(v[:k], ZERO), v[k], v[k + 1]) for v in (spec.p, spec.q, x)]
        else:
            fold = [(v[k - 1], v[k], sum(v[k + 1:], ZERO) + t) for v, t in ((spec.p, tp), (spec.q, tq), (x, xt))]

        def check(out):
            if fmt == "text":
                fields = dict(item.split("=", 1) for item in out.split())
                got = [_fracs(fields[key].split(",")) for key in ("p3", "pp3", "x3")]
                return got == fold and fields["pivot"] == str(spec.pivot) and fields["branch"] == branch
            payload = json.loads(out)
            got = [_fracs(payload[key]) for key in ("p3", "pp3", "x3")]
            return got == fold and payload["pivot"] == spec.pivot and payload["branch"] == branch

        ops.append(CliOp(f"reduce/{branch}", argv, 0, check))

    s3, s4, s5, s6, s7, s8 = (spatial_spec(rng, n) for n in range(3, 9))
    k5, k6 = skew_planar_spec(rng, 5), skew_planar_spec(rng, 6)
    p4, p8 = proportional_spec(rng, 4), proportional_spec(rng, 8)

    describe(s5, "json", False)
    describe(k6, "text", False)
    describe(p4, "json", True)
    member(s5, "q1", "json")
    member(s6, "q2", "text")
    member(k5, "degenerate", "json", full=True)
    member(s7, "negative", "json")
    member(s4, "face", "json", mode="strict")
    member(s6, "ray", "json")
    member(p8, "off-subspace", "text")
    member_tail(s4, "q1", grid(rng), grid(rng))
    member_tail(s5, "off-subspace", grid(rng), grid(rng))
    witness(s3, "q1", "json")
    witness(s7, "face", "text")
    witness(s8, "q2", "svg")
    witness(s5, "non-positive", "json")
    witness(p4, "degenerate", "json", full=True)
    areas(s5, "json")
    areas(s8, "text")
    # small counts keep sample calls near the others' cost, so that the
    # latency quantiles do not sit on the gap before a few slow calls
    sample(s4, "quads", 4, "json")
    sample(s5, "parallel", 4, "text")
    sample(s6, "cross", 2, "json", full=True)
    reduce(s6, "q1", "json")
    reduce(s5, "q2", "text", tails=(grid(rng), grid(rng)))
    return ops


def hostile_invocations() -> list:
    """Argv lists that must end in a clean ``error:`` line with exit code 1."""
    huge = "9" * 5000
    wide = ",".join(str(10 ** 1500 + k) for k in (1, 2, 3))
    return [
        ["member", "--p", "1,1,1", "--pp", "1,1,1", "--x", f"{huge},1,1"],
        ["describe", "--p", wide, "--pp", "1,2,3"],
    ]


def _planes_ok(spec: Spec, planes) -> bool:
    dim = 3 if spec.pivot is not None else 2
    return ref.planes_ok(planes, (spec.p, spec.q, spec.head, spec.tail), dim)


def _interval_payload(iv):
    if iv is None:
        return None
    lo, hi = iv
    return {"lo": str(lo), "hi": str(hi), "kind": "point" if lo == hi else "open"}


def _member_out_ok(out: str, fmt: str, full: bool, expected) -> bool:
    attainable, branch, coeffs, q1, q2, reason, prefix = expected
    if fmt == "text":
        if attainable:
            return out.strip() == f"attainable branch={branch} coeffs={_fr(coeffs)}"
        return out.strip() == f"not attainable reason={reason}"
    payload = json.loads(out)
    payload = payload["result"] if full else payload
    if payload.get("prefix_certified", False) != prefix or payload["attainable"] != attainable:
        return False
    if not attainable:
        return payload["reason"] == reason
    if payload["branch"] != branch or _fracs(payload["coeffs"]) != coeffs:
        return False
    if full:
        cert = payload["certificate"]
        if branch == "degenerate":
            return cert["q1_interval"] == _interval_payload(q1) and cert["q2_interval"] == _interval_payload(q2)
    return True


_POINT = r"(-?\d+(?:/\d+)?),(-?\d+(?:/\d+)?)"


def _witness_out_ok(out: str, fmt: str, full: bool, spec: Spec, x, expected) -> bool:
    if not expected[0]:
        return json.loads(out) == {"attainable": False, "reason": expected[5]}
    if fmt == "svg":
        areas = _fracs(re.findall(r'data-area="([^"]+)"', out))
        return out.startswith("<svg") and areas == tuple(x)
    if fmt == "text":
        m = re.match(rf"A={_POINT} B={_POINT} C={_POINT} D={_POINT} construction=(\S+) ", out)
        quad = tuple((F(m.group(2 * k + 1)), F(m.group(2 * k + 2))) for k in range(4))
        construction = m.group(9)
        areas_ok = out.strip().endswith(f"areas={_fr(x)}")
    else:
        payload = json.loads(out)
        payload = payload["result"] if full else payload
        quad = tuple(tuple(F(c) for c in payload[k].split(",")) for k in "ABCD")
        construction = payload["construction"]
        cert = payload["certificate"]
        areas_ok = (
            _fracs(payload["areas"]) == tuple(x)
            and cert["branch"] == expected[1] and _fracs(cert["coeffs"]) == expected[2]
        )
    return (
        areas_ok and construction in CONSTRUCTIONS[expected[1]]
        and ref.convex_ccw(quad) and ref.strip_areas(quad, spec.p, spec.q) == tuple(x)
    )


def _apex_quad(spec: Spec, p0, p0_prime, scale) -> tuple:
    """The documented canonical apex quad: convex for every positive parameter."""
    tp, tq = sum(spec.p), sum(spec.q)
    return ((2 * p0, ZERO), (2 * (p0 + tp), ZERO), (ZERO, scale * (p0_prime + tq)), (ZERO, scale * p0_prime))


LIBRARY_WORKLOADS = {"decide-long": decide_long, "decide-bigdigit": decide_bigdigit, "oracle": oracle}
