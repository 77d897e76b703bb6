"""Tiny exact linear algebra over Fractions: 2x2 and 3x3 solves.

The solves apply Cramer's rule to integer rows, each scaled by its own lcm of
denominators, and normalise once per unknown.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The rationals as ints over the lcm of their denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _cofactors(m: Sequence[Sequence]) -> list[list]:
    """cof[i][j], the cofactor of entry (i, j) of a 3x3 matrix, in the cyclic form that needs no signs."""
    return [[m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
             for j in range(3)] for i in range(3)]


def solve2(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a 2x2 system by Cramer's rule; None when singular."""
    (a, b, e), (c, d, f) = (_scaled((*row, r))[0] for row, r in zip(m, rhs))
    det = a * d - b * c
    if det == 0:
        return None
    return (Fraction(e * d - b * f, det), Fraction(a * f - e * c, det))


def solve3(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a 3x3 system by Cramer's rule; None when singular."""
    rows = [_scaled((*row, r))[0] for row, r in zip(m, rhs)]
    cof = _cofactors(rows)
    det = sum(rows[0][j] * cof[0][j] for j in range(3))
    if det == 0:
        return None
    # replacing column j by the right-hand side gives the determinant sum_i rhs_i * cof[i][j]
    return tuple(Fraction(sum(rows[i][3] * cof[i][j] for i in range(3)), det) for j in range(3))

