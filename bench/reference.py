"""Exact reference arithmetic the benchmark checks quadareas against.

Nothing here imports quadareas: expected verdicts, certificates, strip areas
and oracle counts are computed from the documented formulas, so a result
produced by the library is compared against an independent derivation and
never against itself.  Points are ``(x, y)`` tuples of Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)


def cumulants(p, q, tail_p=ZERO, tail_q=ZERO):
    """Head and tail cumulant vectors; the optional tail sums extend the tail arm."""
    n = len(p)
    head, tail = [], [ZERO] * n
    sp = sq = ZERO
    for i in range(n):
        sp += p[i]
        sq += q[i]
        head.append(p[i] * sq + q[i] * sp - p[i] * q[i])
    sp, sq = tail_p, tail_q
    for i in reversed(range(n)):
        sp += p[i]
        sq += q[i]
        tail[i] = p[i] * sq + q[i] * sp - p[i] * q[i]
    return tuple(head), tuple(tail)


def discriminants(p, q):
    return tuple(
        (p[j - 1] + p[j] + p[j + 1]) * q[j - 1] * q[j + 1] * p[j]
        - (q[j - 1] + q[j] + q[j + 1]) * p[j - 1] * p[j + 1] * q[j]
        for j in range(1, len(p) - 1)
    )


def pivot(p, q) -> Optional[int]:
    """1-based pivot (smallest index with a nonzero discriminant), None when planar."""
    for idx, d in enumerate(discriminants(p, q)):
        if d:
            return idx + 2
    return None


def combine(coeffs: Sequence[Fraction], vectors) -> tuple:
    return tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), ZERO) for i in range(len(vectors[0])))


def solve(rows, rhs):
    """Exact Gauss-Jordan solve of a small square system; None when singular."""
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    size = len(m)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(size):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[i][size] / m[i][i] for i in range(size))


def independent_pair(u, v):
    """First (0, j) with a nonzero 2x2 minor of (u, v), or None when proportional."""
    for j in range(1, len(u)):
        if u[0] * v[j] != u[j] * v[0]:
            return 0, j
    return None


def redecomposition(ab, dc, arm, x, a, b, arm_is_head):
    """Open range of c > 0 with x - c*arm = A*ab + B*dc, A, B > 0, as (lo, hi).

    (a, b) are the planar coefficients of x on (head, tail).  When ab and dc
    are proportional the range collapses to one point, c = a - b on the head
    arm and b - a on the tail arm (from head + tail = total(dc)*ab +
    total(ab)*dc).  Returns None when no c qualifies.
    """
    pair = independent_pair(ab, dc)
    if pair is None:
        c = a - b if arm_is_head else b - a
        return (c, c) if c > 0 else None
    i, j = pair
    base = solve([[ab[i], dc[i]], [ab[j], dc[j]]], [x[i], x[j]])
    slope = solve([[ab[i], dc[i]], [ab[j], dc[j]]], [arm[i], arm[j]])
    lo, hi = ZERO, None
    for k0, k1 in zip(base, slope):  # need k0 - c*k1 > 0
        if k1 > 0:
            hi = k0 / k1 if hi is None else min(hi, k0 / k1)
        elif k1 < 0:
            lo = max(lo, k0 / k1)
        elif k0 <= 0:
            return None
    return (lo, hi) if hi is not None and lo < hi else None


def subdivide(quad, p, q):
    """Division points on AB (from A) and DC (from D) at the consecutive ratios."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = quad
    tp, tq = sum(p, ZERO), sum(q, ZERO)
    on_ab, on_dc = [], []
    sp = sq = ZERO
    for k in range(len(p) + 1):
        s, t = sp / tp, sq / tq
        on_ab.append((ax + s * (bx - ax), ay + s * (by - ay)))
        on_dc.append((dx + t * (cx - dx), dy + t * (cy - dy)))
        if k < len(p):
            sp += p[k]
            sq += q[k]
    return on_ab, on_dc


def shoelace(points) -> Fraction:
    twice = ZERO
    for k, (x0, y0) in enumerate(points):
        x1, y1 = points[(k + 1) % len(points)]
        twice += x0 * y1 - y0 * x1
    return twice / 2


def strip_areas(quad, p, q) -> tuple:
    on_ab, on_dc = subdivide(quad, p, q)
    return tuple(
        shoelace((on_ab[i], on_ab[i + 1], on_dc[i + 1], on_dc[i])) for i in range(len(p))
    )


def convex_ccw(quad) -> bool:
    for k in range(4):
        (x0, y0), (x1, y1), (x2, y2) = quad[k], quad[(k + 1) % 4], quad[(k + 2) % 4]
        if (x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1) <= 0:
            return False
    return True


_PRIME = (1 << 61) - 1


def planes_ok(planes, vectors, dim: int) -> bool:
    """Planes cut out exactly the span of ``vectors`` (of dimension ``dim``).

    Checks the count, that every plane vanishes on every vector, and that the
    planes are linearly independent (rank modulo a large prime, which can only
    under-report the rank over the rationals).
    """
    n = len(vectors[0])
    if len(planes) != n - dim or any(len(pl) != n for pl in planes):
        return False
    for pl in planes:
        support = [(i, c) for i, c in enumerate(pl) if c]
        for v in vectors:
            if sum((c * v[i] for i, c in support), ZERO) != 0:
                return False
    pivots: dict[int, dict[int, int]] = {}
    for pl in planes:
        row = {i: c % _PRIME for i, c in enumerate(pl) if c % _PRIME}
        while row:
            col = max(row)
            if col not in pivots:
                inv = pow(row[col], -1, _PRIME)
                pivots[col] = {i: c * inv % _PRIME for i, c in row.items()}
                break
            f = row[col]
            for i, c in pivots[col].items():
                row[i] = (row.get(i, 0) - f * c) % _PRIME
                if not row[i]:
                    del row[i]
        else:
            return False
    return True


class Stream:
    """The oracle's documented draw stream (64-bit LCG, one stream per sample index)."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MIX = 0x9E3779B97F4A7C15
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int, index: int):
        self.state = (seed + (index + 1) * self._MIX) & self._MASK

    def value(self, n: int) -> int:
        self.state = (self._MULT * self.state + self._INC) & self._MASK
        return (self.state >> 40) % n

    def grid(self) -> Fraction:
        return Fraction(self.value(64) + 1, 8)


def strict_parallel_accepted(seed: int, count: int) -> int:
    """Samples of the parallel family strict mode accepts on a spatial spec.

    Sample i is a height-one trapezoid with strips (mu*p_i + mu'*p'_i)/2, a
    point of the face; strict mode keeps only the ray mu == mu'.
    """
    accepted = 0
    for index in range(count):
        s = Stream(seed, index)
        accepted += s.grid() == s.grid()
    return accepted
