import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# No bytecode under src/ or bench/: a leftover cache changes what a later timing of the package measures.
# Set before any test module imports quadareas; the CLI tests start their children with a copy of
# os.environ, so they write none either.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
# bench/reference.py, the quadareas-free derivations the tests compare against, imports as `reference`.
sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

settings.register_profile(
    "suite",
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("suite")


def grid_fraction(rng, lo=1, hi=64, den=8) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def continued(p, q, nxt):
    """(next AB ratio, next DC ratio) continuing the zero discriminants of the ratios p and q: the DC ratio
    nxt is halved until ``continue_degenerate`` succeeds, as a smaller next ratio always continues, at most
    64 times, so that a broken continuation fails the draw instead of halving forever."""
    from quadareas import NoValidContinuationError, continue_degenerate

    for _ in range(64):
        try:
            return continue_degenerate(p, q, nxt), nxt
        except NoValidContinuationError:
            nxt /= 2
    raise AssertionError("no positive continuation in 64 halvings of the next ratio")


def random_spec_cls():
    from quadareas import DivisionSpec

    return DivisionSpec


@pytest.fixture
def unit_spec():
    from quadareas import DivisionSpec

    return DivisionSpec.of((1, 1, 1), (1, 1, 1))


@pytest.fixture
def skew_spec():
    """A planar spec whose ratio tuples are not proportional."""
    from quadareas import DivisionSpec

    return DivisionSpec.of((1, 1, 1), (1, 2, 6))


@pytest.fixture
def spatial_spec():
    from quadareas import DivisionSpec

    return DivisionSpec.of((1, 2, 3), (1, 1, 1))
