"""Input validation and boundary behavior across the public surface."""
import inspect
from fractions import Fraction as F

import pytest

import quadareas
from quadareas import (
    ApexFrame,
    Certificate,
    ConvexQuad,
    DivisionSpec,
    Interval,
    InvalidInputError,
    InvalidPivotError,
    ParallelMarker,
    Point,
    TailSummedSequence,
    Verdict,
    apex_areas,
    apex_of,
    classify,
    apex_quad,
    collapse,
    continue_degenerate,
    cross_validate,
    cumulant_tail_sums,
    cumulants,
    discriminants,
    evaluate_plane,
    extend_solution,
    frame,
    hyperplanes,
    is_convex_ccw,
    member,
    member_tail,
    member_via_collapse,
    parallel_diagnosis,
    planar_ratio_bounds,
    polygon_area,
    pt,
    sample_convex_quads,
    sample_parallel_family,
    station_check,
    station_coefficients,
    strip_areas,
    subdivide,
    synthesize_witness,
    tail_cumulants,
    to_fraction,
)
from quadareas.cli import main
from quadareas.division import fraction_tuple


class TestDivisionSpecValidation:
    def test_single_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            DivisionSpec.of((1,), (1,))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            DivisionSpec.of((1, 2), (1, 2, 3))

    def test_zero_ratio_named(self):
        with pytest.raises(InvalidInputError) as info:
            DivisionSpec.of((1, 0, 2), (1, 1, 1))
        assert "entry 2" in str(info.value)

    def test_negative_ratio(self):
        with pytest.raises(InvalidInputError):
            DivisionSpec.of((1, 1), (1, -3))

    @pytest.mark.parametrize("p, pp", (
        pytest.param([F(1), F(2)], [F(1), F(2)], id="lists"),
        pytest.param([F(1), F(2)], (F(1), F(2)), id="list-and-tuple"),
        pytest.param(iter((F(1), F(2))), (v for v in (F(1), F(2))), id="iterators"),
    ))
    def test_a_spec_built_from_any_sequences_is_the_spec_built_from_tuples(self, p, pp):
        spec, expected = DivisionSpec(p, pp), DivisionSpec((F(1), F(2)), (F(1), F(2)))
        assert (type(spec.p), type(spec.p_prime)) == (tuple, tuple)
        assert spec == expected and hash(spec) == hash(expected) and repr(spec) == repr(expected)


SPATIAL4 = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
SHORT = TailSummedSequence.of((1, 2))
SHORT3 = TailSummedSequence.of((1, 2, 3))
SPATIAL3 = DivisionSpec.of((1, 2, 3), (1, 1, 1))
SQUARE = ConvexQuad(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
FACE_X = (F(5), F(7), F(9))  # 2*ab + 3*dc on SPATIAL3: a face tuple, which only audited mode accepts


class TestInputErrors:
    """Each library entry point refuses a bad argument with its own message."""

    @pytest.mark.parametrize("call, message", (
        pytest.param(lambda: collapse(SPATIAL4, (1, 2, 3, 4), 2, "q3"), "branch must be 'q1' or 'q2'",
                     id="collapse-branch"),
        pytest.param(lambda: member_via_collapse(SPATIAL4, (1, 2, 3), 2),
                     "area tuple length does not match the division spec", id="member_via_collapse-length"),
        pytest.param(lambda: member_via_collapse(DivisionSpec.of((1, 1, 1, 1), (1, 1, 1, 1)), (1, 1, 1, 1), 2),
                     "folding applies to spatial specs only", id="member_via_collapse-planar"),
        pytest.param(lambda: member_tail(SHORT, SHORT, SHORT),
                     "tail-summed decisions need a prefix of length at least 3", id="member_tail-short"),
        pytest.param(lambda: extend_solution((1, 2, 3), (1, 1, 1), 1, 1, 3),
                     "index out of range for the extension formula", id="extend_solution-index"),
        pytest.param(lambda: station_coefficients(SHORT), "stations need a prefix of length at least 3",
                     id="station_coefficients-short"),
        pytest.param(lambda: evaluate_plane((1, 2, 3), (F(1), F(2))), "plane and point have different dimensions",
                     id="evaluate_plane-dimensions"),
        pytest.param(lambda: evaluate_plane((1, 2, 3), (0.5, 1, 1)), "cannot interpret 0.5 as a rational",
                     id="evaluate_plane-float"),
        pytest.param(lambda: evaluate_plane((0.5, 1, 1), (1, 2, 3)), "cannot interpret 0.5 as a rational",
                     id="evaluate_plane-float-plane"),
        pytest.param(lambda: cumulants([1, 2], [1, 2, 3]), "ratio tuples must have the same length",
                     id="cumulants-lengths"),
        pytest.param(lambda: cumulants([1.5, 2], [1, 2]), "cannot interpret 1.5 as a rational",
                     id="cumulants-float"),
        pytest.param(lambda: cumulants([1, 2], [1, 2], -5), "a tail sum cannot be negative",
                     id="cumulants-negative-tail"),
        pytest.param(lambda: continue_degenerate((1, 1), (1, 1), 0), "the next ratio must be positive",
                     id="continue_degenerate-next"),
        pytest.param(lambda: to_fraction(1.5), "cannot interpret 1.5 as a rational", id="to_fraction-float"),
        pytest.param(lambda: apex_quad(SPATIAL3, 0.5, 1, 1), "cannot interpret 0.5 as a rational",
                     id="apex_quad-float"),
        pytest.param(lambda: apex_quad(SPATIAL3, 1, "1/0", 1), "zero denominator in '1/0'", id="apex_quad-literal"),
        pytest.param(lambda: DivisionSpec((1, 2), (F(1), F(2))), "p entry 1 is not a rational",
                     id="DivisionSpec-int-entries"),
    ))
    def test_refusal_names_the_mistake(self, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, mode", (
        pytest.param(lambda mode: member(SPATIAL3, FACE_X, mode), "Audited", id="member"),
        # a non-positive x and a planar spec are refused by the mode first
        pytest.param(lambda mode: member_tail(*(TailSummedSequence.of((1, 2, 3)),) * 2,
                                              TailSummedSequence.of((1, -2, 3)), mode), "x", id="member_tail"),
        pytest.param(lambda mode: member_via_collapse(DivisionSpec.of((1, 1, 1, 1), (1, 1, 1, 1)), (1, 1, 1, 1), 2,
                                                      mode), "Strict", id="member_via_collapse"),
        pytest.param(lambda mode: synthesize_witness(SPATIAL3, FACE_X, mode), "Audited", id="synthesize_witness"),
        pytest.param(lambda mode: sample_parallel_family(SPATIAL3, 3, 0, mode), "bogus",
                     id="sample_parallel_family"),
    ))
    def test_a_mode_other_than_strict_or_audited_is_refused(self, call, mode):
        with pytest.raises(InvalidInputError) as caught:
            call(mode)
        assert str(caught.value) == f"mode must be 'strict' or 'audited', got {mode!r}"

    @pytest.mark.parametrize("call, error, message", (
        pytest.param(lambda: collapse(SPATIAL4, (1, 2, 3, 4), 2.0, "q1"), InvalidPivotError,
                     "pivot must be an integer, got 2.0", id="collapse-pivot"),
        pytest.param(lambda: member_via_collapse(SPATIAL4, (1, 2, 3, 4), 2.0), InvalidPivotError,
                     "pivot must be an integer, got 2.0", id="member_via_collapse-pivot"),
        pytest.param(lambda: extend_solution((1, 2, 3), (1, 1, 1), 1, 1, "2"), InvalidInputError,
                     "index must be an integer, got '2'", id="extend_solution-index"),
        pytest.param(lambda: sample_convex_quads(SPATIAL3, 2.0, 0), InvalidInputError,
                     "count must be an integer, got 2.0", id="sample_convex_quads-count"),
        pytest.param(lambda: sample_convex_quads(SPATIAL3, 2, "0"), InvalidInputError,
                     "seed must be an integer, got '0'", id="sample_convex_quads-seed"),
        pytest.param(lambda: sample_parallel_family(SPATIAL3, "3", 0), InvalidInputError,
                     "count must be an integer, got '3'", id="sample_parallel_family-count"),
        pytest.param(lambda: cross_validate(SPATIAL4, 3, 0.5), InvalidInputError,
                     "seed must be an integer, got 0.5", id="cross_validate-seed"),
        pytest.param(lambda: sample_convex_quads(SPATIAL3, True, 1), InvalidInputError,
                     "count must be an integer, got True", id="sample_convex_quads-bool-count"),
        pytest.param(lambda: cross_validate(SPATIAL4, 2, False), InvalidInputError,
                     "seed must be an integer, got False", id="cross_validate-bool-seed"),
        pytest.param(lambda: collapse(SPATIAL4, (1, 2, 3, 4), True, "q1"), InvalidPivotError,
                     "pivot must be an integer, got True", id="collapse-bool-pivot"),
        pytest.param(lambda: member_via_collapse(SPATIAL4, (1, 2, 3, 4), True), InvalidPivotError,
                     "pivot must be an integer, got True", id="member_via_collapse-bool-pivot"),
        pytest.param(lambda: extend_solution((1, 2, 3), (1, 1, 1), 1, 1, True), InvalidInputError,
                     "index must be an integer, got True", id="extend_solution-bool-index"),
    ))
    def test_a_pivot_index_count_or_seed_that_is_not_an_int_is_refused(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, message", (
        pytest.param(lambda: member(SPATIAL3, 5), "expected a sequence of rationals, got int", id="member-int"),
        pytest.param(lambda: member(SPATIAL3, None), "expected a sequence of rationals, got NoneType",
                     id="member-None"),
        pytest.param(lambda: synthesize_witness(SPATIAL3, 5), "expected a sequence of rationals, got int",
                     id="synthesize_witness-int"),
        pytest.param(lambda: member_via_collapse(SPATIAL4, 5, 2), "expected a sequence of rationals, got int",
                     id="member_via_collapse-int"),
        pytest.param(lambda: collapse(SPATIAL4, 5, 2, "q1"), "expected a sequence of rationals, got int",
                     id="collapse-int"),
        pytest.param(lambda: DivisionSpec.of(5, (1, 2)), "expected a sequence of rationals, got int",
                     id="DivisionSpec.of-int"),
        pytest.param(lambda: DivisionSpec(5, (F(1), F(2))), "ratio tuples must be sequences of rationals",
                     id="DivisionSpec-int"),
        pytest.param(lambda: member_tail(SHORT3, SHORT3, [1, 2, 3]),
                     "member_tail takes three TailSummedSequence values", id="member_tail-list-x"),
        pytest.param(lambda: member_tail((1, 2, 3), SHORT3, SHORT3),
                     "member_tail takes three TailSummedSequence values", id="member_tail-tuple-p"),
        # a bool is an int to Python, but never a rational here
        pytest.param(lambda: to_fraction(True), "cannot interpret True as a rational", id="to_fraction-bool"),
        pytest.param(lambda: member(SPATIAL4, (True, 2, 3, 4)), "cannot interpret True as a rational",
                     id="member-bool-entry"),
        pytest.param(lambda: DivisionSpec.of((True, 2, 3), (1, 2, 3)), "cannot interpret True as a rational",
                     id="DivisionSpec.of-bool-entry"),
        pytest.param(lambda: pt(True, 0), "cannot interpret True as a rational", id="pt-bool"),
    ))
    def test_an_x_or_ratio_tuple_of_the_wrong_kind_is_refused(self, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("name, args", (
        pytest.param("subdivide", ([1, 2], SPATIAL3), id="subdivide-list-quad"),
        pytest.param("strip_areas", ("abc", SPATIAL3), id="strip_areas-str-quad"),
        pytest.param("apex_of", (5, SPATIAL3), id="apex_of-int-quad"),
        pytest.param("subdivide", (SQUARE, [[1, 2, 3], [1, 1, 1]]), id="subdivide-list-spec"),
        pytest.param("strip_areas", (SQUARE, [[1, 2, 3], [1, 1, 1]]), id="strip_areas-list-spec"),
        pytest.param("apex_of", (SQUARE, [[1, 2, 3], [1, 1, 1]]), id="apex_of-list-spec"),
        pytest.param("polygon_area", (5,), id="polygon_area-int"),
        pytest.param("polygon_area", ([1, 2, 3],), id="polygon_area-list-of-ints"),
        pytest.param("polygon_area", (None,), id="polygon_area-None"),
    ))
    def test_a_quad_spec_or_vertex_list_of_the_wrong_kind_is_refused(self, name, args):
        with pytest.raises(InvalidInputError) as caught:
            getattr(quadareas, name)(*args)
        expected = "polygon_area takes a sequence of Points" if name == "polygon_area" else (
            f"{name} takes a ConvexQuad and a DivisionSpec")
        assert str(caught.value) == expected

    @pytest.mark.parametrize("call, message", (
        pytest.param(lambda: station_coefficients([1, 2, 3]), "station_coefficients takes a TailSummedSequence",
                     id="station_coefficients-list"),
        pytest.param(lambda: station_check([1, 2, 3], SHORT3), "station_coefficients takes a TailSummedSequence",
                     id="station_check-list-p"),
        pytest.param(lambda: tail_cumulants([1, 2, 3], [1, 1, 1]),
                     "tail_cumulants takes two TailSummedSequence values", id="tail_cumulants-lists"),
        pytest.param(lambda: cumulant_tail_sums(SHORT3, [1, 1, 1]),
                     "cumulant_tail_sums takes two TailSummedSequence values", id="cumulant_tail_sums-list"),
        pytest.param(lambda: planar_ratio_bounds([1, 2, 3], [1, 1, 1]),
                     "planar_ratio_bounds takes two TailSummedSequence values", id="planar_ratio_bounds-lists"),
        pytest.param(lambda: collapse(([1, 2, 3], [1, 1, 1]), (1, 2, 3), 2, "q1"),
                     "collapse takes a DivisionSpec or a pair of TailSummedSequence values",
                     id="collapse-list-pair"),
        pytest.param(lambda: TailSummedSequence(5), "expected a sequence of rationals, got int",
                     id="TailSummedSequence-int"),
        pytest.param(lambda: TailSummedSequence.parse(5), "TailSummedSequence.parse takes a str, got int",
                     id="TailSummedSequence.parse-int"),
    ))
    def test_a_tail_summed_argument_of_the_wrong_kind_is_refused(self, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("call, message", (
        pytest.param(lambda: apex_areas(None, SPATIAL3), "apex_areas takes an ApexFrame, got NoneType",
                     id="apex_areas-None"),
        pytest.param(lambda: apex_areas("q1", SPATIAL3), "apex_areas takes an ApexFrame, got str",
                     id="apex_areas-str"),
        pytest.param(lambda: ConvexQuad(1, 2, 3, 4), "ConvexQuad takes four Points", id="ConvexQuad-ints"),
        pytest.param(lambda: ConvexQuad(*SQUARE.vertices[:3], (0, 1)), "ConvexQuad takes four Points",
                     id="ConvexQuad-tuple-vertex"),
        pytest.param(lambda: ConvexQuad.of(1, 2, 3, 4), "ConvexQuad.of takes four Points", id="ConvexQuad.of-ints"),
        pytest.param(lambda: is_convex_ccw(1, 2, 3, 4), "is_convex_ccw takes four Points", id="is_convex_ccw-ints"),
        pytest.param(lambda: ConvexQuad.parse(5), "ConvexQuad.parse takes a str, got int", id="ConvexQuad.parse-int"),
        pytest.param(lambda: Point.parse(None), "Point.parse takes a str, got NoneType", id="Point.parse-None"),
        pytest.param(lambda: evaluate_plane(5, (1,)), "expected a sequence of rationals, got int",
                     id="evaluate_plane-int-plane"),
        pytest.param(lambda: evaluate_plane((1,), None), "expected a sequence of rationals, got NoneType",
                     id="evaluate_plane-None-point"),
    ))
    def test_a_frame_vertex_plane_or_text_of_the_wrong_kind_is_refused(self, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message

    @pytest.mark.parametrize("spec", ([1, 2, 3], 5, None, "abc"), ids=("list", "int", "None", "str"))
    @pytest.mark.parametrize("call, message", (
        *(pytest.param(call, f"{name} takes a DivisionSpec, got {{}}", id=name) for name, call in (
            ("classify", classify),
            ("frame", frame),
            ("hyperplanes", hyperplanes),
            ("discriminants", discriminants),
            ("_side_sums", quadareas.division._side_sums),
            ("_mirror", quadareas.division._mirror),
            ("_integer_side_sums", quadareas.geometry._integer_side_sums),
            ("member", lambda spec: member(spec, (1, 2, 3))),
            ("member_via_collapse", lambda spec: member_via_collapse(spec, (1, 2, 3, 4), 2)),
            ("apex_quad", lambda spec: apex_quad(spec, 1, 1, 1)),
            ("apex_areas", lambda spec: apex_areas(ApexFrame(pt(0, 0), "q1", F(1), F(1), F(1)), spec)),
            ("sample_convex_quads", lambda spec: sample_convex_quads(spec, 2, 0)),
            ("sample_parallel_family", lambda spec: sample_parallel_family(spec, 2, 0)),
            ("cross_validate", lambda spec: cross_validate(spec, 3, 0)),
            ("synthesize_witness", lambda spec: synthesize_witness(spec, (1, 2, 3))),
            ("parallel_diagnosis", lambda spec: parallel_diagnosis(spec, (1, 2, 3))),
        )),
        pytest.param(lambda spec: collapse(spec, (1, 2, 3), 2, "q1"),
                     "collapse takes a DivisionSpec or a pair of TailSummedSequence values", id="collapse"),
    ))
    def test_a_spec_that_is_not_a_division_spec_is_refused(self, call, message, spec):
        with pytest.raises(InvalidInputError) as caught:
            call(spec)
        assert str(caught.value) == message.format(type(spec).__name__)

    @pytest.mark.parametrize("call, x", (
        pytest.param(lambda x: member(SPATIAL3, x), (F(3), F(8), F(16)), id="member"),
        pytest.param(lambda x: synthesize_witness(SPATIAL3, x), (F(3), F(8), F(16)), id="synthesize_witness"),
        pytest.param(lambda x: member_via_collapse(SPATIAL4, x, 2), (F(3), F(8), F(16), F(28)),
                     id="member_via_collapse"),
    ))
    def test_an_iterator_x_is_read_as_its_tuple(self, call, x):
        assert call(iter(x)) == call(x)

    def test_a_tuple_of_fractions_is_coerced_once(self):
        # fraction_tuple is the one coercion rule: a tuple of Fractions passes through unchanged, so
        # TailSummedSequence and the deciders never rebuild it; a list or a tuple holding an int or
        # a literal is rebuilt as a tuple of Fractions
        x = (F(3), F(8), F(16))
        assert fraction_tuple(x) is x
        assert TailSummedSequence(x).prefix is x
        for other in ([F(3), F(8), F(16)], (3, F(8), F(16)), (F(3), "8", F(16))):
            coerced = fraction_tuple(other)
            assert type(coerced) is tuple and coerced == x
            assert all(type(v) is F for v in coerced)


class TestRationalParsing:
    def test_accepts_integers_and_fractions(self):
        assert to_fraction("4/6") == F(2, 3)
        assert to_fraction("-7") == F(-7)

    def test_rejects_decimals(self):
        with pytest.raises(InvalidInputError):
            to_fraction("1.5")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InvalidInputError):
            to_fraction("1/0")

    def test_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            to_fraction("a/b")

    def test_any_whitespace_around_the_slash(self):
        assert to_fraction("3 /\t4") == F(3, 4)

    @pytest.mark.parametrize("text", ("\u0661", "\u0661/1", "1/\u0661", "-\u0661", "\uff13/4"))
    def test_ascii_digits_only(self, text):
        with pytest.raises(InvalidInputError, match="malformed rational literal"):
            to_fraction(text)

    def test_non_ascii_digits_exit_1_on_the_command_line(self, capsys):
        assert main(["member", "--p", "\u0661,2,3", "--pp", "1,2,3", "--x", "1,2,3"]) == 1
        assert capsys.readouterr().err == "error: malformed rational literal '\u0661'\n"


class TestSequenceParsing:
    def test_malformed_suffix(self):
        with pytest.raises(InvalidInputError):
            TailSummedSequence.parse("1,2 | rest=3")

    def test_empty_prefix(self):
        with pytest.raises(InvalidInputError):
            TailSummedSequence.parse(" | tail=1")


class TestEmptyFields:
    """An empty field is a malformed literal, never a dropped one; a body with no literal is an empty prefix."""

    @pytest.mark.parametrize("tup", ("1,,2", ",1,2", "1,2,", "1,,2 | tail=1"))
    @pytest.mark.parametrize("option", ("--p", "--pp", "--x"))
    def test_empty_tuple_entry_is_an_input_error(self, capsys, option, tup):
        argv = {"--p": "1,1,1", "--pp": "1,1,1", "--x": "1,2,3", option: tup}
        for verb in ("member", "reduce"):
            folding = ("--pivot", "2", "--branch", "q1") if verb == "reduce" else ()
            code = main([verb, *(part for item in argv.items() for part in item), *folding])
            assert (code, *capsys.readouterr()) == (1, "", "error: malformed rational literal ''\n")

    def test_trailing_semicolon_in_quad_is_an_input_error(self, capsys):
        code = main(["areas", "--p", "1,1,1", "--pp", "1,1,1", "--quad", "0,0;1,0;1,1;0,1;"])
        assert (code, *capsys.readouterr()) == (1, "", "error: a point is written as 'x,y', got ''\n")

    @pytest.mark.parametrize("text", ("", " | tail=1"))
    def test_empty_prefix_is_still_a_clean_error(self, capsys, text):
        code = main(["member", "--p", text, "--pp", "1,1,1", "--x", "1,2,3"])
        assert (code, *capsys.readouterr()) == (1, "", "error: a sequence needs a nonempty prefix\n")


class TestQuadParsing:
    def test_wrong_point_count(self):
        with pytest.raises(InvalidInputError):
            ConvexQuad.parse("0,0;1,0;1,1")

    def test_round_trip(self):
        quad = ConvexQuad.parse("2,0;8,0;0,4;0,1")
        assert ConvexQuad.parse(quad.text()) == quad


class TestApexQuadValidation:
    SPEC = DivisionSpec.of((1, 2), (2, 1))

    def test_invalid_branch(self):
        with pytest.raises(InvalidInputError):
            apex_quad(self.SPEC, F(1), F(1), F(1), "q3")

    def test_non_positive_parameters(self):
        for bad in ((F(0), F(1), F(1)), (F(1), F(-1), F(1)), (F(1), F(1), F(0)), ("-1/2", 1, 1)):
            with pytest.raises(InvalidInputError):
                apex_quad(self.SPEC, *bad)

    @pytest.mark.parametrize("branch", ("q1", "q2"))
    def test_parameters_are_read_as_rationals(self, branch):
        quad = apex_quad(self.SPEC, F(1, 2), F(3), F(5, 4), branch)
        assert apex_quad(self.SPEC, "1/2", 3, " 5 / 4 ", branch) == quad


class TestMembershipEdges:
    def test_zero_middle_entry(self):
        v = member(DivisionSpec.of((1, 1, 1), (1, 1, 1)), (F(1), F(0), F(1)))
        assert not v.attainable and v.reason == "non-positive-entry"

    def test_q2_witness_for_two_segments(self):
        spec = DivisionSpec.of((1, 2), (2, 1))
        fr = frame(spec)
        x = tuple(F(1, 2) * h + 2 * t for h, t in zip(fr.head, fr.tail))
        out = synthesize_witness(spec, x)
        assert out.construction == "apex-q2"
        assert strip_areas(out.quad, spec) == x


class TestInterval:
    def test_open_contains_excludes_endpoints(self):
        window = Interval(F(1), F(3))
        assert window.contains(F(2))
        assert not window.contains(F(1))
        assert not window.contains(F(3))

    def test_point_interval(self):
        point = Interval(F(5, 2), F(5, 2))
        assert point.is_point
        assert point.contains(F(5, 2))
        assert not point.contains(F(2))


class TestRecordConstructors:
    """A record with no ``__init__`` of its own gets one built from its annotated fields."""

    @pytest.mark.parametrize("cls, args", (
        (DivisionSpec, ((F(1), F(2)), (F(3), F(1)))),
        (ConvexQuad, (pt(0, 0), pt(2, 0), pt(1, 1), pt(0, 1))),
    ))
    def test_construction_calls_the_check_hook_on_the_class(self, monkeypatch, cls, args):
        seen = []
        check = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(self) or check(self))
        built = cls(*args)
        assert seen == [built]
        monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append("replaced"))
        cls(*args)
        assert seen == [built, "replaced"]

    @pytest.mark.parametrize("call, message", (
        (lambda: Interval(F(1)), "Interval.__init__() missing 1 required positional argument: 'hi'"),
        (lambda: Verdict(), "Verdict.__init__() missing 1 required positional argument: 'attainable'"),
        (lambda: Certificate("q1", (), bogus=1), "Certificate.__init__() got an unexpected keyword argument 'bogus'"),
        (lambda: DivisionSpec((F(1),), (F(1),), ()), "DivisionSpec.__init__() takes 3 positional arguments but 4 were given"),
        (lambda: ParallelMarker(1), "ParallelMarker.__init__() takes 1 positional argument but 2 were given"),
    ))
    def test_a_wrong_call_names_the_record(self, call, message):
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == message

    def test_generated_constructors_belong_to_their_record(self):
        for name in quadareas.__all__:
            cls = getattr(quadareas, name)
            if isinstance(cls, type) and issubclass(cls, quadareas.division._Frozen):
                assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
                assert cls.__init__.__module__ == cls.__module__

    def test_point_and_tail_summed_sequence_keep_their_coercing_constructors(self):
        assert Point("1/2", 3) == Point(F(1, 2), F(3)) and type(Point(1, 2).x) is F
        assert TailSummedSequence(["1", 2], "1/2") == TailSummedSequence((F(1), F(2)), F(1, 2))


class TestClockwiseCanonicalization:
    def test_swap_recovers_the_original_labeling(self):
        # a reversed traversal of a valid quad is clockwise; canonicalization
        # swaps B and D back, recovering the same divided sides
        ccw = ConvexQuad.of(pt(2, 0), pt(8, 0), pt(0, 4), pt(0, 1))
        spec = DivisionSpec.of((1, 1, 1), (1, 1, 1))
        swapped = ConvexQuad.of(ccw.a, ccw.d, ccw.c, ccw.b)
        assert swapped == ccw
        assert strip_areas(swapped, spec) == strip_areas(ccw, spec)


# ---- wrong-kind probe over the public surface, generated from __all__ and the signatures ----

PROBE_SPEC = DivisionSpec.of((1, 2, 3, 4), (2, 1, 1, 3))
PROBE_QUAD = apex_quad(PROBE_SPEC, 1, 2, 3)
PROBE_X = strip_areas(PROBE_QUAD, PROBE_SPEC)
# one valid value per annotation; for a sequence, by parameter name
PROBE_VALID = {
    "DivisionSpec": PROBE_SPEC, "SpecLike": PROBE_SPEC, "ConvexQuad": PROBE_QUAD,
    "ApexFrame": apex_of(PROBE_QUAD, PROBE_SPEC), "Fraction": F(1), "RationalLike": 1, "int": 3, "str": "q1",
    "bool": True, "Sequence": (1, 0, 0, -1), "Sequence[Point]": PROBE_QUAD.vertices,
}
PROBE_SEQUENCES = {"p": PROBE_SPEC.p, "p_prime": PROBE_SPEC.p_prime}
WRONG_KINDS = (5, None, "abc", 1.5, [1, 2], {"a": 1}, True, object())
# Plain records hold what the package builds and returns; they read no input, so they keep accepting
# any value.  Input is checked where it enters: DivisionSpec, TailSummedSequence, Point, ConvexQuad
# and every public function.
PLAIN_RECORDS = {
    "ApexFrame", "CaseLabel", "Certificate", "CollapsedInstance", "ConeFrame", "DivisionPoints", "Interval",
    "NotAttainableError", "SampleReport", "StationCoefficients", "StationReport", "Verdict", "Violation",
    "WitnessOutput",
}


def probe_valid(obj, param):
    """A valid value for a required parameter, read from its annotation (a record's field annotation)."""
    name = param.annotation  # the package's annotations are strings
    if inspect.isclass(obj) and name is inspect.Parameter.empty:
        name = inspect.get_annotations(obj).get(param.name, name)
    if name == "TailSummedSequence":
        return TailSummedSequence(PROBE_SEQUENCES.get(param.name, PROBE_X))
    if name == "Point":
        return getattr(PROBE_QUAD, param.name, PROBE_QUAD.a)
    if name in PROBE_VALID:
        return PROBE_VALID[name]
    return PROBE_SEQUENCES.get(param.name, PROBE_X)  # a sequence of rationals, or unannotated


def required_parameters(obj):
    return [p for p in inspect.signature(obj).parameters.values() if p.default is inspect.Parameter.empty]


def probed_callables():
    for name in quadareas.__all__:
        obj = getattr(quadareas, name)
        if inspect.isclass(obj) and issubclass(obj, Exception) and "__init__" not in vars(obj):
            continue  # an error class that takes its message as Exception does
        yield name, obj


class TestWrongKindProbe:
    """Every public callable, given each of eight wrong kinds in one required parameter at a time, the
    others valid, ends in a result or a ``QuadAreasError``: never a ``TypeError``, ``AttributeError``
    or other stray exception."""

    @pytest.mark.parametrize("name, obj", probed_callables(), ids=[name for name, _ in probed_callables()])
    def test_each_wrong_kind_ends_in_a_result_or_a_quadareas_error(self, name, obj):
        required = required_parameters(obj)
        valid = [probe_valid(obj, p) for p in required]
        accepted = True
        for index in range(len(required)):
            for wrong in WRONG_KINDS:
                args = [*valid[:index], wrong, *valid[index + 1:]]
                try:
                    obj(*args)
                except quadareas.QuadAreasError:
                    accepted = False
        # the decision on plain records: they, and only they, accept every kind in every parameter
        assert (accepted and bool(required)) == (name in PLAIN_RECORDS), name

    def test_the_probe_reaches_every_public_callable_with_valid_arguments(self):
        refused = []
        for name, obj in probed_callables():
            try:
                obj(*(probe_valid(obj, p) for p in required_parameters(obj)))
            except quadareas.QuadAreasError:
                refused.append(name)
        assert refused == ["continue_degenerate", "proportional_bounds"]  # a spatial prefix; not three ratios
