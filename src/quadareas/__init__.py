"""Exact characterization, decision, and witnessing of the area tuples cut from
a convex quadrilateral by lines through prescribed division ratios of two
opposite sides.

The namespace is lazy (PEP 562): ``import quadareas`` loads no submodule, and
each public name imports its home module on first access.
"""

import importlib

__version__ = "0.1.0"

# every submodule, with the public names it is home to
_PUBLIC = {
    "cli": (),
    "cone": (
        "CaseLabel", "ConeFrame", "classify", "continue_degenerate", "cumulants", "discriminants",
        "evaluate_plane", "frame", "hyperplanes",
    ),
    "division": ("DivisionSpec", "TailSummedSequence", "to_fraction"),
    "errors": (
        "DegenerateCollapseError", "DegenerateDenominatorError", "InconsistentQuadError", "InternalError",
        "InvalidInputError", "InvalidPivotError", "NotAttainableError", "NoValidContinuationError",
        "QuadAreasError",
    ),
    "geometry": (
        "ApexFrame", "ConvexQuad", "DivisionPoints", "ParallelMarker", "Point", "apex_of", "is_convex_ccw",
        "polygon_area", "pt", "strip_areas", "subdivide",
    ),
    "linalg": (),
    "membership": ("Certificate", "Interval", "Verdict", "member", "parallel_diagnosis", "proportional_bounds"),
    "oracle": ("SampleReport", "Violation", "cross_validate", "sample_convex_quads", "sample_parallel_family"),
    "reduction": (
        "CollapsedInstance", "StationCoefficients", "StationReport", "collapse", "cumulant_tail_sums",
        "extend_solution", "member_tail", "member_via_collapse", "planar_ratio_bounds", "station_check",
        "station_coefficients", "tail_cumulants",
    ),
    "witness": ("WitnessOutput", "apex_areas", "apex_quad", "synthesize_witness"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
