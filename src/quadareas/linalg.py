"""Tiny exact linear algebra in ints: the 3x3 cofactor kernel, integer scaling and primitive vectors.

Every decision is one Cramer solve on the cofactors of a 3x3 integer block (``membership._pivot_solution``
on ``cone._block``, which ``cone.hyperplanes`` reads too); the block's cofactors are tuples, built
once per spec, mirror, tail-summed pair and fold and kept in its ``cone._Factored`` record.  Every block
is regular by construction, checked once where ``cone._factor`` builds it, so the solve is total and
returns the numerators and det*den as one primitive int vector (``_primitive``), the value the whole
decision passes along.  The solve reads its right-hand side in ints from x's numerators and denominators,
so it builds no Fraction and does not use ``_scaled``, which puts rationals over one common denominator:
the ratio triples from which ``cone.hyperplanes`` builds each planar plane, the strip weights of
``geometry.strip_areas``, a fold's shift and summed coordinate, and a planar realization's triple.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The rationals as ints over the lcm of their denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _primitive(values: Sequence[int]) -> tuple[int, ...]:
    """The ints divided by the gcd of them all, signed so that the last one is positive; it must be nonzero."""
    g = gcd(*values)
    if values[-1] < 0:
        g = -g
    return tuple(v // g for v in values)


def _cofactors(m: Sequence[Sequence]) -> tuple[tuple[tuple, ...], int]:
    """(cof, det): cof[i][j], the cofactor of entry (i, j) of a 3x3 matrix in the cyclic form
    that needs no signs, as tuples, and the determinant expanded along row 0."""
    cof = tuple(tuple(m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                      - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
                      for j in range(3)) for i in range(3))
    return cof, sum(e * f for e, f in zip(m[0], cof[0]))
