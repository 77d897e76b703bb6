"""Tiny exact linear algebra over Fractions: the 3x3 cofactor kernel and integer scaling.

Every decision is one Cramer solve on the cofactors of a 3x3 integer block
(``membership._pivot_solution`` on ``cone._pivot_block``, which ``cone.hyperplanes``
reads too); ``_scaled`` puts rationals over one common denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The rationals as ints over the lcm of their denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _cofactors(m: Sequence[Sequence]) -> tuple[list[list], int]:
    """(cof, det): cof[i][j], the cofactor of entry (i, j) of a 3x3 matrix in the cyclic form
    that needs no signs, and the determinant expanded along row 0."""
    cof = [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)] for i in range(3)]
    return cof, sum(e * f for e, f in zip(m[0], cof[0]))
