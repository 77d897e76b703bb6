"""End-to-end acceptance suite.

Every check here is exact rational equality (zero tolerance).  Each criterion
prints one pass/fail line; run with ``pytest tests/test_acceptance.py -s`` to
see them.
"""
import functools
import json
import random
from fractions import Fraction as F
from pathlib import Path

from quadareas import (
    ConvexQuad,
    DivisionSpec,
    TailSummedSequence,
    classify,
    cumulant_tail_sums,
    discriminants,
    evaluate_plane,
    frame,
    hyperplanes,
    member,
    member_via_collapse,
    proportional_bounds,
    pt,
    sample_convex_quads,
    station_check,
    station_coefficients,
    strip_areas,
    synthesize_witness,
    tail_cumulants,
)
from quadareas.cli import main as cli_main
from test_kernels import det3

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL ({label})")
                raise
            print(f"criterion {number}: PASS ({label})")

        return wrapper

    return decorate


def grid(rng, lo=1, hi=64, den=8):
    return F(rng.randint(lo, hi), den)


@criterion(1, "plane and ratio window for equal ratio tuples")
def test_criterion_1_proportional_window():
    plane, window = proportional_bounds((F(1), F(1), F(1)))
    assert plane == (1, -2, 1)
    assert window == (F(1, 5), F(5))
    _, window = proportional_bounds((F(1), F(2), F(3)))
    assert window == (F(9, 11), F(27))


@criterion(2, "membership spot checks with exact certificates")
def test_criterion_2_membership_spot_checks():
    unit = DivisionSpec.of((1, 1, 1), (1, 1, 1))
    verdict = member(unit, (F(1), F(2), F(3)))
    assert verdict.attainable
    assert verdict.certificate.coeffs == (F(7, 12), F(1, 12))
    verdict = member(unit, (F(1), F(1), F(5)))
    assert not verdict.attainable and verdict.reason == "off-subspace"
    verdict = member(DivisionSpec.of((1, 2), (2, 1)), (F(4), F(5)))
    assert verdict.attainable
    assert verdict.certificate.coeffs == (F(3, 5), F(2, 5))


@criterion(3, "witness round trips, 500 random attainable tuples per spec class")
def test_criterion_3_witness_round_trips():
    unit = DivisionSpec.of((1, 1, 1), (1, 1, 1))
    out = synthesize_witness(unit, (F(3), F(5), F(7)))
    assert out.quad == ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
    assert strip_areas(out.quad, unit) == (F(3), F(5), F(7))

    classes = {
        "spatial-n3": DivisionSpec.of((1, 2, 3), (1, 1, 1)),
        "spatial-n5": DivisionSpec.of((1, 2, 3, 4, 5), (1, 1, 2, 1, 1)),
        "planar-proportional": DivisionSpec.of((2, 4, 6), (1, 2, 3)),
        "planar-skew": DivisionSpec.of((1, 1, 1), (1, 2, 6)),
        "n2": DivisionSpec.of((1, 2), (2, 1)),
    }
    rng = random.Random(0xA11CE)
    for name, spec in classes.items():
        fr = frame(spec)
        for i in range(500):
            a, b = grid(rng), grid(rng)
            kind = i % 4
            if kind == 0:
                x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
            elif kind == 1:
                c = grid(rng)
                x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head))
            elif kind == 2:
                c = grid(rng)
                x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.tail))
            else:
                x = tuple(a * (u + v) for u, v in zip(fr.ab, fr.dc))
            witness = synthesize_witness(spec, x)
            assert strip_areas(witness.quad, spec) == x, (name, x)


@criterion(4, "determinant, frame-sum, and cumulant-total identities")
def test_criterion_4_identities():
    rng = random.Random(2024)
    for _ in range(500):
        spec = DivisionSpec.of(
            [grid(rng) for _ in range(3)], [grid(rng) for _ in range(3)]
        )
        fr = frame(spec)
        delta = discriminants(spec)[0]
        assert det3([fr.ab, fr.dc, fr.head]) == -delta
        assert det3([fr.ab, fr.dc, fr.tail]) == delta
    for _ in range(500):
        n = rng.randint(2, 16)
        spec = DivisionSpec.of([grid(rng) for _ in range(n)], [grid(rng) for _ in range(n)])
        fr = frame(spec)
        sp, sq = sum(fr.ab), sum(fr.dc)
        assert fr.head == tuple(
            (sq * p + sp * q) - t for p, q, t in zip(fr.ab, fr.dc, fr.tail)
        )
        assert sum(fr.head) + sum(fr.tail) == 2 * sp * sq
    for _ in range(100):
        m = rng.randint(2, 6)
        p = TailSummedSequence.of([grid(rng) for _ in range(m)], grid(rng, 0, 16))
        q = TailSummedSequence.of([grid(rng) for _ in range(m)], grid(rng, 0, 16))
        head, tail = tail_cumulants(p, q)
        head_rest, tail_rest = cumulant_tail_sums(p, q)
        assert sum(head) + head_rest + sum(tail) + tail_rest == 2 * p.total * q.total


@criterion(5, "oracle soundness: 1400 generated quads across 14 specs, zero violations")
def test_criterion_5_oracle_soundness():
    specs = [
        DivisionSpec.of((1, 2), (2, 1)),
        DivisionSpec.of((3, 1), (3, 1)),
        DivisionSpec.of((1, 1, 1), (1, 1, 1)),
        DivisionSpec.of((1, 2, 3), (1, 1, 1)),
        DivisionSpec.of((1, 1, 1), (1, 2, 6)),
        DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)),
        DivisionSpec.of((2, 1, 2, 1), (1, 1, 1, 1)),
        DivisionSpec.of((2, 4, 6, 8), (1, 2, 3, 4)),
        DivisionSpec.of((1, 1, 1, F(1, 2)), (1, 2, 6, 12)),
        DivisionSpec.of((1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 1, 1)),
        DivisionSpec.of((1, 1, 2, 2, 1, 1), (2, 1, 1, 1, 1, 2)),
        DivisionSpec.of((1, 2, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1)),
        DivisionSpec.of((1, 1, 2, 3, 5, 8, 13, 21), (1, 1, 1, 1, 1, 1, 1, 1)),
        DivisionSpec.of((1, 1, 1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 5, 6, 7, 8)),
    ]
    assert any(not classify(s).spatial and s.n >= 4 for s in specs)
    assert len(specs) >= 10
    assert {spec.n for spec in specs} == {2, 3, 4, 6, 8}
    total = 0
    for seed, spec in enumerate(specs):
        report = sample_convex_quads(spec, 100, seed)
        assert report.violations == (), (spec.p, report.violations[:2])
        total += report.total
    assert total >= 1000


@criterion(6, "mode discrepancy on the unequal-scaling trapezoid family")
def test_criterion_6_mode_discrepancy_fixture():
    spec = DivisionSpec.of((1, 2, 3), (1, 1, 1))
    assert classify(spec).spatial
    rng = random.Random(66)
    results = {"strict": [], "audited": []}
    samples = []
    for _ in range(100):
        mu = grid(rng)
        mu_prime = grid(rng)
        if mu == mu_prime:
            mu_prime += F(1, 8)
        x = tuple((mu * p + mu_prime * q) / 2 for p, q in zip(spec.p, spec.p_prime))
        samples.append({"mu": str(mu), "mu_prime": str(mu_prime), "x": [str(e) for e in x]})
        for mode in ("strict", "audited"):
            results[mode].append(member(spec, x, mode))
    audited_accepts = sum(v.attainable for v in results["audited"])
    strict_accepts = sum(v.attainable for v in results["strict"])
    assert audited_accepts == 100
    assert strict_accepts == 0
    assert all(v.reason == "boundary" for v in results["strict"])
    fixture = {
        "description": (
            "trapezoids with unequal side scalings on a spatial spec: audited "
            "mode accepts the open face, strict mode admits only the "
            "equal-scaling ray"
        ),
        "spec": {"p": [str(v) for v in spec.p], "pp": [str(v) for v in spec.p_prime]},
        "samples": 100,
        "audited_accepted": audited_accepts,
        "strict_accepted": strict_accepts,
        "strict_rejection_reason": "boundary",
        "witness_samples": samples[:5],
    }
    stored = json.loads((FIXTURES / "mode_discrepancy.json").read_text())
    assert stored == fixture


@criterion(7, "fold-based decisions match direct decisions at every usable pivot")
def test_criterion_7_fold_equivalence():
    spec4 = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
    assert hyperplanes(spec4) == ((-1, 3, -3, 1),)
    fr4 = frame(spec4)
    for vec in (fr4.ab, fr4.dc, fr4.head, fr4.tail):
        assert evaluate_plane((-1, 3, -3, 1), vec) == 0

    specs = [
        spec4,
        DivisionSpec.of((1, 2, 3, 4, 5), (1, 1, 1, 1, 1)),
        DivisionSpec.of((1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 1, 1)),
        DivisionSpec.of((2, 1, 1, 1, 1, 1, 2), (1, 1, 1, 1, 1, 1, 1)),
        DivisionSpec.of((1, 2, 3, 4, 5, 6, 7, 8), (8, 7, 6, 5, 4, 3, 2, 1)),
    ]
    assert sorted(spec.n for spec in specs) == [4, 5, 6, 7, 8]
    rng = random.Random(7)
    for spec in specs:
        pivots = [i + 2 for i, d in enumerate(discriminants(spec)) if d != 0]
        assert len(pivots) >= 2
        fr = frame(spec)
        for i in range(200):
            a, b, c = grid(rng), grid(rng), grid(rng)
            kind = i % 5
            if kind == 0:
                x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head))
            elif kind == 1:
                x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.tail))
            elif kind == 2:
                bump = [a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head)]
                bump[rng.randrange(spec.n)] += grid(rng)
                x = tuple(bump)
            elif kind == 3:
                x = tuple(a * u + b * v for u, v in zip(fr.ab, fr.dc))
            else:
                x = tuple(a * (u + v) for u, v in zip(fr.ab, fr.dc))
            direct = member(spec, x)
            for pivot in pivots:
                assert member_via_collapse(spec, x, pivot) == direct, (spec.p, pivot, x)


@criterion(8, "stations for the geometric ratio-1/2 sequence")
def test_criterion_8_stations():
    geo = TailSummedSequence.of((1, F(1, 2), F(1, 4)), F(1, 4))
    coeffs = station_coefficients(geo)
    assert coeffs.sigma[0] == F(3, 2)
    assert coeffs.bounds == (F(1, 2), F(5, 2))
    head, tail = tail_cumulants(geo, geo)
    head_rest, tail_rest = cumulant_tail_sums(geo, geo)
    rng = random.Random(88)
    for _ in range(100):
        a, b = grid(rng), grid(rng)
        prefix = tuple(a * h + b * t for h, t in zip(head, tail))
        x = TailSummedSequence(prefix, a * head_rest + b * tail_rest)
        report = station_check(geo, x)
        assert report.progression_ok
        bumped = list(prefix)
        idx = rng.randrange(2, len(bumped))
        bumped[idx] += grid(rng)
        report = station_check(geo, TailSummedSequence(tuple(bumped), x.tail_sum))
        assert not report.progression_ok


@criterion(9, "command line contract: exact outputs and exit codes")
def test_criterion_9_cli_contract(capsys):
    code = cli_main(["member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,2,3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"attainable":true,"branch":"degenerate","coeffs":["7/12","1/12"]}\n'

    code = cli_main(
        ["witness", "--p", "1,1,1", "--pp", "1,1,1", "--x", "3,5,7", "--format", "text"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("A=2,0 B=8,0 C=0,4 D=0,1 ")

    code = cli_main(["member", "--p", "1,1,1", "--pp", "1,1,1", "--x", "1,1,5"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["reason"] == "off-subspace"
