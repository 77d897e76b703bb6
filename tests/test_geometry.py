import json
import random
import sys
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from quadareas import (
    ApexFrame,
    ConvexQuad,
    DivisionSpec,
    InconsistentQuadError,
    InternalError,
    InvalidInputError,
    ParallelMarker,
    Point,
    apex_areas,
    apex_of,
    apex_quad,
    frame,
    is_convex_ccw,
    polygon_area,
    pt,
    sample_parallel_family,
    strip_areas,
    subdivide,
    synthesize_witness,
)
from quadareas import geometry
from quadareas.division import _side_sums
from quadareas.geometry import _edge, _vertex
from quadareas.witness import _trapezoid

UNIT = DivisionSpec.of((1, 1, 1), (1, 1, 1))
# Outputs of the Point-based geometry, written once and compared, never rewritten: apex quads of
# both branches, their oracle affine images, rotations (grid specs only) and trapezoids, plus
# collinear, midpoint, reflex, duplicate-vertex and one-line vertex sets, over grid, 30-digit and
# 300-digit specs with n = 2-12.  Each case holds is_convex_ccw and the orientation or error of
# ConvexQuad.of for the six vertex orders starting at A (the three orders, each both ways round),
# and for convex cases strip_areas and apex_of.
GEOMETRY = json.loads((Path(__file__).parent / "fixtures" / "geometry_outputs.json").read_text())


class TestPolygonArea:
    def test_unit_square(self):
        assert polygon_area([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]) == 1

    def test_half_rectangle_triangle(self):
        assert polygon_area([pt(0, 0), pt(2, 0), pt(0, 1)]) == 1

    def test_apex_quad_by_triangle_difference(self):
        # [EBC] - [EAD] = 16 - 1 with E at the origin
        assert polygon_area([pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1)]) == 15

    def test_clockwise_is_negative(self):
        assert polygon_area([pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)]) == -1

    def test_too_few_vertices(self):
        with pytest.raises(InvalidInputError):
            polygon_area([pt(0, 0), pt(1, 0)])


class TestConvexity:
    def test_convex_ccw(self):
        assert is_convex_ccw(pt(0, 0), pt(6, 0), pt(3, 1), pt(0, 1))

    def test_reflex_vertex(self):
        # second cross product is -8
        assert not is_convex_ccw(pt(0, 0), pt(4, 0), pt(1, 1), pt(0, 4))

    def test_collinear_triple(self):
        assert not is_convex_ccw(pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1))

    def test_clockwise_input_reflected_by_swapping_b_and_d(self):
        q = ConvexQuad.of(pt(0, 0), pt(0, 1), pt(3, 1), pt(6, 0))
        assert (q.b, q.d) == (pt(6, 0), pt(0, 1))
        assert is_convex_ccw(*q.vertices)

    def test_invalid_vertices_rejected(self):
        with pytest.raises(InvalidInputError):
            ConvexQuad.of(pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1))

    def test_direct_constructor_requires_ccw(self):
        with pytest.raises(InvalidInputError):
            ConvexQuad(pt(0, 0), pt(0, 1), pt(3, 1), pt(6, 0))


def _of_outcome(vertices):
    try:
        quad = ConvexQuad.of(*vertices)
    except InvalidInputError as exc:
        return f"error: {exc}"
    if quad.vertices == tuple(vertices):
        return "as given"
    assert quad.vertices == (vertices[0], vertices[3], vertices[2], vertices[1])
    return "reflected"


def _apex_outcome(geo):
    if isinstance(geo, ParallelMarker):
        return "parallel"
    return {"apex": geo.apex.text(), "branch": geo.branch, "p0": str(geo.p0),
            "p0_prime": str(geo.p0_prime), "scale": str(geo.scale)}


def test_outputs_match_the_fixture():
    for case in GEOMETRY["cases"]:
        labelled = dict(zip("abcd", (Point.parse(v) for v in case["vertices"])))
        orders = [[labelled[c] for c in order] for order in GEOMETRY["orders"]]
        assert [is_convex_ccw(*vertices) for vertices in orders] == case["is_convex_ccw"]
        assert [_of_outcome(vertices) for vertices in orders] == case["of"]
        if "strip_areas" in case:
            spec, quad = DivisionSpec.of(case["p"], case["pp"]), ConvexQuad(*orders[0])
            assert [str(a) for a in strip_areas(quad, spec)] == case["strip_areas"]
            assert _apex_outcome(apex_of(quad, spec)) == case["apex_of"]


def ref_apex_of(q, spec):
    """apex_of on normalised Point crosses, the expression it had before it read integer edges."""
    u, w = q.b - q.a, q.c - q.d
    denom = u.cross(w)
    if denom == 0:
        return ParallelMarker()
    diff = q.d - q.a
    t, r = diff.cross(w) / denom, diff.cross(u) / denom
    if 0 <= t <= 1 or 0 <= r <= 1:
        raise InconsistentQuadError("side lines meet inside a divided segment")
    total_ab, total_dc = (sums[-1] for sums in _side_sums(spec))
    if t < 0:
        return ApexFrame(q.a + t * u, "q1", -t * total_ab, -r * total_dc, denom / (2 * total_ab * total_dc))
    return ApexFrame(q.a + t * u, "q2", (t - 1) * total_ab, (r - 1) * total_dc, -denom / (2 * total_ab * total_dc))


def _apex_and_reference(quad, spec):
    """apex_of's result and ref_apex_of's, or each one's error type and message."""
    outcomes = []
    for fn in (apex_of, ref_apex_of):
        try:
            outcomes.append(fn(quad, spec))
        except (InconsistentQuadError, InternalError) as err:
            outcomes.append((type(err), str(err)))
    return outcomes


@st.composite
def apex_cases(draw):
    """A spec with grid, 30-digit or 100-digit entries and n = 2-8, and one of its quads: a q1 or q2
    apex quad on parameters of the same size, its image under an integer affine map, or a trapezoid."""
    digits = draw(st.sampled_from((None, 30, 100)))

    def entry():
        if digits is None:
            return F(draw(st.integers(1, 64)), 8)
        value = st.integers(10 ** (digits - 1), 10 ** digits - 1)
        return F(draw(value), draw(value))

    n = draw(st.integers(2, 8))
    spec = DivisionSpec(tuple(entry() for _ in range(n)), tuple(entry() for _ in range(n)))
    family = draw(st.sampled_from(("apex", "affine", "trapezoid")))
    if family == "trapezoid":
        return spec, _trapezoid(spec, entry(), entry(), F(draw(st.integers(-64, 64)), 8)), family
    quad = apex_quad(spec, entry(), entry(), entry(), draw(st.sampled_from(("q1", "q2"))))
    if family == "affine":
        (m11, m12, m21, m22), (tx, ty) = draw(affine_maps())
        quad = ConvexQuad(*(Point(m11 * v.x + m12 * v.y + tx, m21 * v.x + m22 * v.y + ty) for v in quad.vertices))
    return spec, quad, family


@given(apex_cases())
def test_apex_of_matches_the_point_cross_reference(case):
    spec, quad, family = case
    got, expected = _apex_and_reference(quad, spec)
    assert got == expected
    assert isinstance(got, ParallelMarker) == (family == "trapezoid")


def fresh_edges(q):
    """The integer edges B - A, C - D and D - A of the quad, built afresh from its vertices' ints, and
    equal, as rationals, to the Point differences."""
    a, b, c, d = (_vertex(v) for v in q.vertices)
    edges = _edge(a, b), _edge(d, c), _edge(a, d)
    for (xn, xd, yn, yd), (p, r) in zip(edges, ((q.a, q.b), (q.d, q.c), (q.a, q.d))):
        assert (F(xn, xd), F(yn, yd)) == (r.x - p.x, r.y - p.y)
    return edges


def unchecked_copy(q):
    """The quad's vertices in a quad built without its constructor, so without the kept edges."""
    copy = ConvexQuad.__new__(ConvexQuad)
    for name in "abcd":
        object.__setattr__(copy, name, getattr(q, name))
    return copy


class TestEdgeRecord:
    """A quad keeps the integer edges its convexity check built; strip_areas and apex_of read them."""

    @given(apex_cases())
    def test_kept_edges_are_the_fresh_ones(self, case):
        _, quad, _ = case
        assert quad.__dict__["_edges"] == fresh_edges(quad)
        a, b, c, d = quad.vertices
        reflected = ConvexQuad.of(a, d, c, b)  # clockwise input, B and D swapped back
        assert reflected.vertices == quad.vertices
        assert reflected.__dict__["_edges"] == fresh_edges(reflected)

    @pytest.mark.parametrize("order, built", (("abcd", 4), ("adcb", 8)))
    def test_of_checks_each_vertex_order_once_and_keeps_its_edges(self, monkeypatch, order, built):
        # counterclockwise input builds the four edges of one check, clockwise input those of two
        quad = ConvexQuad(pt(F(1, 3), 0), pt(8, F(-2, 7)), pt(F(5, 2), 4), pt(0, F(9, 5)))
        calls = []
        monkeypatch.setattr(geometry, "_edge", lambda p, r: calls.append(1) or _edge(p, r))
        of = ConvexQuad.of(*(getattr(quad, name) for name in order))
        monkeypatch.undo()
        assert len(calls) == built
        assert of == quad and of.__dict__ == quad.__dict__
        assert of.__dict__["_edges"] == fresh_edges(of)

    def test_repr_eq_and_hash_do_not_see_the_edges(self):
        quad = ConvexQuad(pt(F(1, 3), 0), pt(8, F(-2, 7)), pt(F(5, 2), 4), pt(0, F(9, 5)))
        copy = unchecked_copy(quad)
        assert "_edges" in quad.__dict__ and "_edges" not in copy.__dict__
        assert repr(quad) == repr(copy) == (
            f"ConvexQuad(a={quad.a!r}, b={quad.b!r}, c={quad.c!r}, d={quad.d!r})"
        )
        assert quad == copy and hash(quad) == hash(copy)

    @given(apex_cases())
    def test_a_quad_without_kept_edges_reads_the_same(self, case):
        spec, quad, _ = case
        copy = unchecked_copy(quad)
        assert strip_areas(copy, spec) == strip_areas(quad, spec)
        assert apex_of(copy, spec) == apex_of(quad, spec)


INSIDE = (InconsistentQuadError, "side lines meet inside a divided segment")


@pytest.mark.parametrize("vertices, expected", [
    (("0,0", "4,0", "1,-1", "1,1"), INSIDE),  # line DC crosses AB inside AB
    (("0,0", "1,0", "2,-1", "1,1"), INSIDE),  # line AB crosses DC inside DC
    (("0,0", "1,0", "0,1", "-1,0"), INSIDE),  # the side lines meet at D
    (("0,0", "1,0", "2,0", "2,1"), INSIDE),  # the side lines meet at C
    (("0,0", "4,0", "1/3,-7/5", "1/3,5/7"), INSIDE),
    (("0,0", f"{10 ** 30 + 7}/{10 ** 29},0", f"1/{10 ** 30 + 1},-1", f"1/{10 ** 30 + 1},1"), INSIDE),
    (("0,0", "1,0", "0,1", "1,1"), ParallelMarker()),  # a bow tie whose side lines are parallel
])
def test_apex_of_refuses_a_corrupted_quad_as_the_reference_does(vertices, expected):
    # bypass the quad validator, as corrupted data would
    quad = ConvexQuad.__new__(ConvexQuad)
    for name, text in zip("abcd", vertices):
        object.__setattr__(quad, name, Point.parse(text))
    assert _apex_and_reference(quad, UNIT) == [expected, expected]


class TestSubdivide:
    def test_equal_thirds_on_unit_square(self):
        sq = ConvexQuad.of(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
        d = subdivide(sq, UNIT)
        assert d.on_ab[1:3] == (pt(F(1, 3), 0), pt(F(2, 3), 0))
        assert d.on_dc[1:3] == (pt(F(1, 3), 1), pt(F(2, 3), 1))

    def test_apex_quad_division(self):
        q = ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
        d = subdivide(q, UNIT)
        assert d.on_ab == (pt(2, 0), pt(4, 0), pt(6, 0), pt(8, 0))
        assert d.on_dc == (pt(0, 1), pt(0, 2), pt(0, 3), pt(0, 4))

    def test_asymmetric_ratios(self):
        q = ConvexQuad.of(pt(0, 0), pt(6, 0), pt(3, 1), pt(0, 1))
        d = subdivide(q, DivisionSpec.of((1, 2), (2, 1)))
        assert d.on_ab[1] == pt(2, 0)
        assert d.on_dc[1] == pt(2, 1)

    def test_points_strictly_ordered(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 6)
            spec = DivisionSpec.of(
                [F(rng.randint(1, 9)) for _ in range(n)],
                [F(rng.randint(1, 9)) for _ in range(n)],
            )
            q = apex_quad(spec, F(1, 2), F(3), F(2))
            d = subdivide(q, spec)
            assert all(a.x < b.x for a, b in zip(d.on_ab, d.on_ab[1:]))
            assert all(a.y < b.y for a, b in zip(d.on_dc, d.on_dc[1:]))

    def test_perturbing_a_ratio_changes_only_later_cumulative_sums(self):
        # positions along the unnormalized ratio axis move only from the
        # perturbed index onward
        p = [F(1), F(2), F(3), F(4)]
        base = [sum(p[:i], F(0)) for i in range(len(p) + 1)]
        for i in range(len(p)):
            bumped = list(p)
            bumped[i] += F(1, 2)
            sums = [sum(bumped[:j], F(0)) for j in range(len(p) + 1)]
            assert sums[: i + 1] == base[: i + 1]
            assert all(s != b for s, b in zip(sums[i + 1 :], base[i + 1 :]))


class TestSideSumsMemo:
    """The per-spec partial sums are computed once and change no result, equality, hash or repr."""

    @staticmethod
    def results(spec, x):
        out = synthesize_witness(spec, x)
        return (out, strip_areas(out.quad, spec), apex_of(out.quad, spec),
                sample_parallel_family(spec, 4, 7, "strict"))

    @pytest.mark.parametrize("p, pp, coeffs", (
        ((1, 2, 3, 4), (1, 1, 1, 1), (1, 1, 1)),  # spatial: an apex quad
        ((1, 1, 1), (1, 1, 1), (1, 1, 0)),  # planar: a trapezoid
    ))
    def test_computed_once_and_invisible(self, p, pp, coeffs):
        spec = DivisionSpec.of(p, pp)
        fr = frame(spec)
        x = tuple(coeffs[0] * a + coeffs[1] * d + coeffs[2] * h for a, d, h in zip(fr.ab, fr.dc, fr.head))
        body, runs = _side_sums.__wrapped__.__code__, []

        def count(call, event, arg):
            if event == "call" and call.f_code is body and call.f_locals["spec"] is spec:
                runs.append(spec)

        sys.setprofile(count)
        try:
            warmed = self.results(spec, x)
        finally:
            sys.setprofile(None)
        assert len(runs) == 1
        fresh = DivisionSpec.of(p, pp)
        assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
        assert warmed == self.results(fresh, x)
        assert _side_sums(spec) == ((F(0), *accumulate(spec.p)), (F(0), *accumulate(spec.p_prime)))


class TestStripAreas:
    def test_unit_square_thirds(self):
        sq = ConvexQuad.of(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
        assert strip_areas(sq, UNIT) == (F(1, 3), F(1, 3), F(1, 3))

    def test_nested_triangle_differences(self):
        q = ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
        assert strip_areas(q, UNIT) == (F(3), F(5), F(7))

    def test_trapezoid_strips(self):
        q = ConvexQuad.of(pt(0, 0), pt(6, 0), pt(3, 1), pt(0, 1))
        assert strip_areas(q, DivisionSpec.of((1, 2), (2, 1))) == (F(2), F(5, 2))

    def test_additivity_random(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(2, 7)
            spec = DivisionSpec.of(
                [F(rng.randint(1, 16), 4) for _ in range(n)],
                [F(rng.randint(1, 16), 4) for _ in range(n)],
            )
            q = apex_quad(
                spec,
                F(rng.randint(1, 32), 8),
                F(rng.randint(1, 32), 8),
                F(rng.randint(1, 32), 8),
                "q1" if rng.random() < 0.5 else "q2",
            )
            areas = strip_areas(q, spec)
            assert sum(areas) == polygon_area(q.vertices)
            assert all(a > 0 for a in areas)

    @pytest.mark.parametrize("vertices", (
        ((0, 0), (0, 1), (1, 1), (1, 0)),  # clockwise: every strip negative
        ((0, 0), (1, 0), (1, 0), (0, 0)),  # DC on AB: every strip has zero area
    ), ids=("clockwise", "flat"))
    def test_a_strip_area_that_is_not_positive_is_an_internal_error(self, monkeypatch, vertices):
        # a quad built past its convexity check: the sign is read from the strip's int numerator
        monkeypatch.setattr(ConvexQuad, "__post_init__", lambda self: None)
        with pytest.raises(InternalError, match="strip areas of a convex quadrilateral must be positive"):
            strip_areas(ConvexQuad(*(pt(*v) for v in vertices)), UNIT)


@st.composite
def affine_maps(draw):
    entry = st.integers(min_value=-12, max_value=12)
    m = [draw(entry) for _ in range(4)]
    det = m[0] * m[3] - m[1] * m[2]
    if det == 0:
        m[0] += 13
        det = m[0] * m[3] - m[1] * m[2]
    assume(det != 0)
    if det < 0:
        m = [m[2], m[3], m[0], m[1]]
    tx, ty = draw(entry), draw(entry)
    return m, (tx, ty)


class TestAffineEquivariance:
    @given(affine_maps(), st.integers(min_value=1, max_value=40))
    def test_strip_areas_scale_by_determinant(self, mapping, seed):
        (m11, m12, m21, m22), (tx, ty) = mapping
        rng = random.Random(seed)
        spec = DivisionSpec.of(
            [F(rng.randint(1, 8)) for _ in range(3)], [F(rng.randint(1, 8)) for _ in range(3)]
        )
        q = apex_quad(spec, F(rng.randint(1, 8)), F(rng.randint(1, 8)), F(rng.randint(1, 8)))
        det = F(m11 * m22 - m12 * m21)
        image = ConvexQuad(
            *(Point(m11 * v.x + m12 * v.y + tx, m21 * v.x + m22 * v.y + ty) for v in q.vertices)
        )
        base = strip_areas(q, spec)
        assert strip_areas(image, spec) == tuple(det * a for a in base)


class TestApexOf:
    def test_q1_example(self):
        q = ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
        af = apex_of(q, UNIT)
        assert af.apex == pt(0, 0)
        assert (af.branch, af.p0, af.p0_prime, af.scale) == ("q1", F(1), F(1), F(1))

    def test_parallel_marker(self):
        sq = ConvexQuad.of(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
        assert isinstance(apex_of(sq, UNIT), ParallelMarker)

    def test_mirrored_quad_is_q2(self):
        q = ConvexQuad.of(pt(2, 0), pt(8, 0), pt(10, 1), pt(10, 4))
        af = apex_of(q, UNIT)
        assert (af.branch, af.p0, af.p0_prime, af.scale) == ("q2", F(1), F(1), F(1))

    def test_corrupted_input_guard(self):
        # bypass the quad validator with a non-convex shape whose side lines
        # cross inside AB
        q = ConvexQuad.__new__(ConvexQuad)
        object.__setattr__(q, "a", pt(0, 0))
        object.__setattr__(q, "b", pt(4, 0))
        object.__setattr__(q, "c", pt(1, -1))
        object.__setattr__(q, "d", pt(1, 1))
        with pytest.raises(InconsistentQuadError):
            apex_of(q, DivisionSpec.of((1, 1), (1, 1)))

    def test_closed_form_matches_shoelace_on_random_apex_quads(self):
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(2, 6)
            spec = DivisionSpec.of(
                [F(rng.randint(1, 12), 2) for _ in range(n)],
                [F(rng.randint(1, 12), 2) for _ in range(n)],
            )
            branch = "q1" if rng.random() < 0.5 else "q2"
            p0 = F(rng.randint(1, 64), 8)
            p0p = F(rng.randint(1, 64), 8)
            s = F(rng.randint(1, 64), 8)
            q = apex_quad(spec, p0, p0p, s, branch)
            af = apex_of(q, spec)
            assert (af.branch, af.p0, af.p0_prime, af.scale) == (branch, p0, p0p, s)
            assert apex_areas(af, spec) == strip_areas(q, spec)

    @given(affine_maps(), st.sampled_from(("q1", "q2")), st.integers(min_value=1, max_value=40))
    def test_scale_is_the_apex_triangle_area_unit(self, mapping, branch, seed):
        # apex_of reads the scale from the side cross; the triangle cut off at the apex by the
        # nearest division corners has area scale*p0*p0_prime, on both branches and their images
        (m11, m12, m21, m22), (tx, ty) = mapping
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        spec = DivisionSpec.of(
            [F(rng.randint(1, 12), 2) for _ in range(n)], [F(rng.randint(1, 12), 2) for _ in range(n)]
        )
        q = apex_quad(spec, *(F(rng.randint(1, 64), 8) for _ in range(3)), branch)
        image = ConvexQuad(
            *(Point(m11 * v.x + m12 * v.y + tx, m21 * v.x + m22 * v.y + ty) for v in q.vertices)
        )
        for quad in (q, image):
            af = apex_of(quad, spec)
            corners = (quad.a, quad.d) if branch == "q1" else (quad.c, quad.b)
            assert af.branch == branch
            assert af.scale == polygon_area([af.apex, *corners]) / (af.p0 * af.p0_prime)
