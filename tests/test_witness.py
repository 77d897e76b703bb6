import random
from fractions import Fraction as F

import pytest

from quadareas import (
    ConvexQuad,
    DivisionSpec,
    NotAttainableError,
    apex_of,
    frame,
    member,
    pt,
    strip_areas,
    synthesize_witness,
)

UNIT = DivisionSpec.of((1, 1, 1), (1, 1, 1))
SPATIAL = DivisionSpec.of((1, 2, 3), (1, 1, 1))
SKEW = DivisionSpec.of((1, 1, 1), (1, 2, 6))
N2 = DivisionSpec.of((1, 2), (2, 1))


def assert_round_trip(spec, x, mode="audited"):
    out = synthesize_witness(spec, x, mode)
    assert strip_areas(out.quad, spec) == tuple(x)
    return out


class TestCanonicalConstructions:
    def test_apex_witness_matches_canonical_coordinates(self):
        out = assert_round_trip(UNIT, (F(3), F(5), F(7)))
        assert out.quad == ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
        assert out.construction == "apex-q1"
        assert out.division.on_ab == (pt(2, 0), pt(4, 0), pt(6, 0), pt(8, 0))
        assert out.division.on_dc == (pt(0, 1), pt(0, 2), pt(0, 3), pt(0, 4))

    def test_trapezoid_witness(self):
        out = assert_round_trip(N2, (F(2), F(5, 2)))
        assert out.quad == ConvexQuad.of(pt(0, 0), pt(6, 0), pt(3, 1), pt(0, 1))
        assert out.construction == "trapezoid"

    def test_equal_scaling_trapezoid(self):
        out = assert_round_trip(UNIT, (F(1), F(1), F(1)))
        assert out.quad == ConvexQuad.of(pt(0, 0), pt(3, 0), pt(3, 1), pt(0, 1))
        assert out.construction == "trapezoid-l0"
        # proportional ratios with denominators: x = ab + dc
        spec = DivisionSpec.of(("1/2", 1, "3/2"), ("1/3", "2/3", 1))
        assert assert_round_trip(spec, (F(5, 6), F(5, 3), F(5, 2))).construction == "trapezoid-l0"

    def test_rational_literals_are_read_as_member_reads_them(self):
        # literals reach the witness only through member's certificate
        out = synthesize_witness(UNIT, ("3", "5", "7"))
        assert out == synthesize_witness(UNIT, (F(3), F(5), F(7)))
        assert synthesize_witness(UNIT, ("1", "1", "1")).construction == "trapezoid-l0"

    def test_refusal_echoes_reason(self):
        with pytest.raises(NotAttainableError) as info:
            synthesize_witness(UNIT, (F(1), F(1), F(5)))
        assert info.value.reason == "off-subspace"

    def test_strict_mode_refuses_face_points(self):
        with pytest.raises(NotAttainableError) as info:
            synthesize_witness(SPATIAL, (F(3), F(5), F(7)), "strict")
        assert info.value.reason == "boundary"
        assert_round_trip(SPATIAL, (F(3), F(5), F(7)), "audited")


class TestProportionalSplits:
    # lambda = 2, where the even split a*P_0 = b*Q_0 of an apex re-decomposition and the
    # equal split a = b of the ray differ
    LAMBDA2 = DivisionSpec.of((1, 2, 4), (2, 4, 8))

    def test_apex_q2_splits_the_ratio_vectors_evenly(self):
        out = assert_round_trip(self.LAMBDA2, (F(54), F(96), F(144)))
        assert (out.construction, out.quad.text()) == ("apex-q2", "0,28;0,14;14,0;28,0")

    def test_the_ray_splits_the_face_equally(self):
        out = assert_round_trip(self.LAMBDA2, (F(3), F(6), F(12)))
        assert (out.construction, out.quad.text()) == ("trapezoid-l0", "0,0;14,0;28,1;0,1")


class TestBranchFidelity:
    def test_apex_q1_keeps_a_between_apex_and_b(self):
        out = assert_round_trip(SPATIAL, (F(3), F(8), F(16)))
        assert out.construction == "apex-q1"
        assert apex_of(out.quad, SPATIAL).branch == "q1"

    def test_apex_q2(self):
        fr = frame(SPATIAL)
        x = tuple(u + v + 2 * w for u, v, w in zip(fr.ab, fr.dc, fr.tail))
        out = assert_round_trip(SPATIAL, x)
        assert out.construction == "apex-q2"
        assert apex_of(out.quad, SPATIAL).branch == "q2"

    def test_planar_apex_witness_stays_inside_the_certified_interval(self):
        x = (F(1), F(2), F(3))
        verdict = member(UNIT, x)
        out = assert_round_trip(UNIT, x)
        assert out.construction == "apex-q1"
        geo = apex_of(out.quad, UNIT)
        assert verdict.certificate.q1_interval.contains(geo.scale)

    def test_skew_parallel_direction_gets_a_parallel_witness(self):
        fr = frame(SKEW)
        out = assert_round_trip(SKEW, tuple(a + d for a, d in zip(fr.ab, fr.dc)))
        assert out.construction == "trapezoid-l0"

    def test_trapezoid_witnesses_have_parallel_divided_sides(self):
        from quadareas import ParallelMarker

        rng = random.Random(3)
        for spec in (SPATIAL, N2, SKEW):
            fr = frame(spec)
            for _ in range(20):
                a, b = F(rng.randint(1, 16), 8), F(rng.randint(1, 16), 8)
                x = tuple(a * u + b * v for u, v in zip(fr.ab, fr.dc))
                out = assert_round_trip(spec, x)
                if out.construction.startswith("trapezoid"):
                    assert isinstance(apex_of(out.quad, spec), ParallelMarker)

    def test_ray_points_witnessed_in_strict_mode(self):
        fr = frame(SPATIAL)
        x = tuple(F(3, 2) * (a + d) for a, d in zip(fr.ab, fr.dc))
        out = synthesize_witness(SPATIAL, x, "strict")
        assert out.construction == "trapezoid-l0"
        assert strip_areas(out.quad, SPATIAL) == x


class TestScalingClosure:
    def test_apex_witness_scales_vertically(self):
        rng = random.Random(13)
        fr = frame(SPATIAL)
        for _ in range(50):
            a, b, c = (F(rng.randint(1, 24), 8) for _ in range(3))
            t = F(rng.randint(1, 24), 8)
            x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head))
            base = synthesize_witness(SPATIAL, x)
            scaled = synthesize_witness(SPATIAL, tuple(t * e for e in x))
            for v_base, v_scaled in zip(base.quad.vertices, scaled.quad.vertices):
                assert v_scaled.x == v_base.x
                assert v_scaled.y == t * v_base.y


class TestRandomRoundTrips:
    def classes(self):
        return {
            "spatial-n3": SPATIAL,
            "spatial-n5": DivisionSpec.of((1, 2, 3, 4, 5), (1, 1, 2, 1, 1)),
            "planar-proportional": DivisionSpec.of((2, 4, 6), (1, 2, 3)),
            "planar-skew": SKEW,
            "planar-skew-n4": DivisionSpec.of((1, 1, 1, F(1, 2)), (1, 2, 6, 12)),
            "n2": N2,
        }

    def test_round_trip_every_class(self):
        rng = random.Random(0xC0FFEE)
        for name, spec in self.classes().items():
            fr = frame(spec)
            for i in range(80):
                a, b = F(rng.randint(1, 32), 8), F(rng.randint(1, 32), 8)
                kind = i % 4
                if kind == 0:
                    x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
                elif kind == 1:
                    c = F(rng.randint(1, 32), 8)
                    x = tuple(
                        a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.head)
                    )
                elif kind == 2:
                    c = F(rng.randint(1, 32), 8)
                    x = tuple(
                        a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, fr.tail)
                    )
                else:
                    x = tuple(a * u + a * v for u, v in zip(fr.ab, fr.dc))
                verdict = member(spec, x)
                assert verdict.attainable, (name, x, verdict.reason)
                out = synthesize_witness(spec, x)
                assert strip_areas(out.quad, spec) == x, name
