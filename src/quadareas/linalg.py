"""Tiny exact linear algebra in ints: the cross product, 3x3 cofactors, integer scaling and primitive vectors.

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


def _cross(u: Sequence, v: Sequence) -> tuple:
    """The cross product u x v of two 3-vectors, the package's only one."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


def _cofactors(m: Sequence[Sequence]) -> tuple[tuple[tuple, ...], int]:
    """(cof, det): the cofactors of a 3x3 matrix as tuples, row i the cross product of the other two rows in
    cyclic order (cof[2] = m[0] x m[1]), and the determinant m[0] . cof[0]."""
    cof = (_cross(m[1], m[2]), _cross(m[2], m[0]), _cross(m[0], m[1]))
    return cof, sum(e * f for e, f in zip(m[0], cof[0]))
