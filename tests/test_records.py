"""The package's records behave exactly as frozen dataclasses with the same fields would."""
import dataclasses
import inspect
from fractions import Fraction as F
from itertools import product

import pytest

import quadareas
from quadareas import (
    ConvexQuad,
    DivisionSpec,
    Interval,
    ParallelMarker,
    Point,
    SampleReport,
    TailSummedSequence as T,
    Violation,
    apex_of,
    classify,
    collapse,
    frame,
    member,
    member_tail,
    sample_convex_quads,
    station_check,
    station_coefficients,
    subdivide,
    synthesize_witness,
)

_REQUIRED = object()

# each record's fields in declaration order, with the default where there is one
FIELDS = {
    "ApexFrame": ("apex", "branch", "p0", "p0_prime", "scale"),
    "CaseLabel": ("spatial", ("pivot", None), ("proportional", None)),
    "Certificate": ("branch", "coeffs", ("q1_interval", None), ("q2_interval", None)),
    "CollapsedInstance": ("spec3", "x3", "pivot", "branch"),
    "ConeFrame": ("ab", "dc", "head", "tail"),
    "ConvexQuad": ("a", "b", "c", "d"),
    "DivisionPoints": ("on_ab", "on_dc"),
    "DivisionSpec": ("p", "p_prime"),
    "Interval": ("lo", "hi"),
    "ParallelMarker": (),
    "Point": ("x", "y"),
    "SampleReport": ("spec", "mode", "total", "accepted", "violations", "seed"),
    "StationCoefficients": ("sigma", "bounds"),
    "StationReport": ("coefficients", "scaled", "ratio", "progression_ok", "accepted", ("reason", None)),
    "TailSummedSequence": ("prefix", ("tail_sum", F(0))),
    "Verdict": ("attainable", ("certificate", None), ("reason", None), ("prefix_certified", False)),
    "Violation": ("quad", "x", "reason"),
    "WitnessOutput": ("quad", "division", "certificate", "construction"),
}


def fields(name):
    return [(f, _REQUIRED) if isinstance(f, str) else f for f in FIELDS[name]]


def twin_class(name):
    spec = [(f, object) if d is _REQUIRED else (f, object, dataclasses.field(default=d)) for f, d in fields(name)]
    return dataclasses.make_dataclass(name, spec, frozen=True)


TWINS = {name: twin_class(name) for name in FIELDS}


def samples():
    """At least two instances of every record, built the way the package builds them."""
    spatial, planar = DivisionSpec.of((1, 2, 3), (1, 1, 1)), DivisionSpec.of((1, 2, 3), (2, 4, 6))
    quad, square = ConvexQuad.parse("0,0;1,3;5,4;6,1"), ConvexQuad.parse("0,0;1,0;1,1;0,1")
    accepted, planar_accepted = member(spatial, (3, 8, 16)), member(planar, (46, 80, 90))
    tailed = member_tail(T.of((1, 2, 3)), T.of((1, 1, 1), 1), T.of((3, 5, 7), 2))
    return [
        spatial, planar, T.of((1, 2), F(1, 2)), T.of((1, 2)),
        frame(spatial), frame(planar), classify(spatial), classify(planar),
        Point(1, F(2, 3)), Point(F(1, 3), 0), quad, square,
        subdivide(quad, spatial), subdivide(square, spatial), ParallelMarker(), ParallelMarker(),
        apex_of(quad, spatial), apex_of(ConvexQuad.parse("0,0;4,0;5,3;0,1"), spatial),
        Interval(F(1), F(3)), Interval(F(2), F(2)),
        accepted, planar_accepted, member(spatial, (1, 2, -3)), tailed,
        accepted.certificate, planar_accepted.certificate, tailed.certificate,
        Violation(None, (F(1), F(2)), "fold at pivot 2 disagrees"), Violation(quad, (F(1),), "rejected: boundary"),
        sample_convex_quads(spatial, 2, 1), SampleReport(spatial, "audited", 1, 0, (Violation(None, (), "r"),), 7),
        collapse(DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)), (1, 2, 3, 4), 2, "q2"),
        collapse(DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)), (1, 2, 3, 4), 2, "q1"),
        station_coefficients(T.of((1, 2, 3, 4))), station_coefficients(T.of((1, 1, 1))),
        station_check(T.of((1, 1, 1)), T.of((2, 3, 4), 1)), station_check(T.of((1, 1, 1)), T.of((-1, 3, 4))),
        synthesize_witness(spatial, (3, 8, 16)), synthesize_witness(planar, (46, 80, 90)),
    ]


SAMPLES = samples()
BY_CLASS = {name: [s for s in SAMPLES if type(s).__name__ == name] for name in FIELDS}


def as_twin(obj):
    name = type(obj).__name__
    return TWINS[name](**{f: getattr(obj, f) for f, _ in fields(name)})


def test_every_record_is_covered():
    records = {name for name in quadareas.__all__
               if isinstance(getattr(quadareas, name), type) and not issubclass(getattr(quadareas, name), Exception)}
    assert records == set(FIELDS) and len(records) == 18
    assert all(len(found) >= 2 for found in BY_CLASS.values())


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestRecordSemantics:
    def test_docstring_and_constructor_signature(self, name):
        cls = getattr(quadareas, name)
        assert cls.__doc__
        params = inspect.signature(cls).parameters
        assert [(p, params[p].default) for p in params] == [
            (f, inspect.Parameter.empty if d is _REQUIRED else d) for f, d in fields(name)]

    def test_repr_eq_ne_and_hash_agree_with_the_twin(self, name):
        for a, b in product(BY_CLASS[name], repeat=2):
            ta, tb = as_twin(a), as_twin(b)
            assert repr(a) == repr(ta)
            assert hash(a) == hash(ta)
            assert (a == b) == (ta == tb) and (a != b) == (ta != tb)

    def test_keyword_and_default_construction(self, name):
        cls = getattr(quadareas, name)
        for obj in BY_CLASS[name]:
            values = {f: getattr(obj, f) for f, _ in fields(name)}
            assert cls(**values) == obj and hash(cls(**values)) == hash(obj)
            required = {f: values[f] for f, d in fields(name) if d is _REQUIRED}
            defaulted = cls(**required)
            assert repr(defaulted) == repr(TWINS[name](**required))

    def test_comparison_with_other_objects(self, name):
        for obj in BY_CLASS[name]:
            values = tuple(getattr(obj, f) for f, _ in fields(name))
            assert obj != values and not obj == values
            assert obj.__eq__(values) is NotImplemented and obj.__eq__(as_twin(obj)) is NotImplemented
            assert obj != as_twin(obj)
            other = next(s for s in SAMPLES if type(s) is not type(obj))
            assert obj.__eq__(other) is NotImplemented and obj != other

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        obj = BY_CLASS[name][0]
        for attr in [f for f, _ in fields(name)] + ["unrelated"]:
            with pytest.raises(AttributeError):
                setattr(obj, attr, 1)
            with pytest.raises(AttributeError):
                delattr(obj, attr)
        assert repr(obj) == repr(as_twin(obj))
