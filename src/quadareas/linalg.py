"""Tiny exact linear algebra over Fractions: 2x2 and 3x3 solves, determinants, 3x3 inverse."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def det2(m: Sequence[Sequence[Fraction]]) -> Fraction:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def det3(m: Sequence[Sequence[Fraction]]) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def solve2(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a 2x2 system by Cramer's rule; None when singular."""
    d = det2(m)
    if d == 0:
        return None
    x = (rhs[0] * m[1][1] - m[0][1] * rhs[1]) / d
    y = (m[0][0] * rhs[1] - rhs[0] * m[1][0]) / d
    return (x, y)


def solve3(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a 3x3 system by Cramer's rule; None when singular."""
    d = det3(m)
    if d == 0:
        return None
    cols = []
    for j in range(3):
        mj = [[rhs[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]
        cols.append(det3(mj) / d)
    return tuple(cols)


def inverse3(m: Sequence[Sequence[Fraction]]):
    """The inverse of a 3x3 matrix, its adjugate (cyclic cofactors) over det; None when singular."""
    d = det3(m)
    if d == 0:
        return None
    return tuple(tuple(
        (m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
         - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]) / d
        for j in range(3)) for i in range(3))
