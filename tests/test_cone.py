import random
from fractions import Fraction as F
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from quadareas import (
    DivisionSpec,
    InvalidInputError,
    NoValidContinuationError,
    classify,
    continue_degenerate,
    discriminants,
    frame,
    hyperplanes,
    member,
)
from quadareas.cone import _factored
import reference
from test_kernels import det3, ratios, specs


def rank(rows):
    """Row rank by fraction-exact Gaussian elimination."""
    work = [list(map(F, row)) for row in rows]
    if not work:
        return 0
    r = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][col]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                factor = work[i][col] / lead
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def rand_spec(rng, n):
    return DivisionSpec.of(
        [F(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(n)],
        [F(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(n)],
    )


class TestDiscriminants:
    def test_identical_tuples_vanish(self):
        assert discriminants(DivisionSpec.of((1, 1, 1), (1, 1, 1))) == (F(0),)

    def test_direct_value(self):
        assert discriminants(DivisionSpec.of((1, 2, 3), (1, 1, 1))) == (F(3),)

    def test_proportional_tuples_vanish(self):
        assert discriminants(DivisionSpec.of((2, 4, 6), (1, 2, 3))) == (F(0),)

    def test_length_two_empty(self):
        assert discriminants(DivisionSpec.of((1, 2), (2, 1))) == ()

    def test_chain_values(self):
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        assert discriminants(spec) == (F(3), F(3))


class TestFrame:
    def test_unit(self):
        fr = frame(DivisionSpec.of((1, 1, 1), (1, 1, 1)))
        assert fr.head == (F(1), F(3), F(5))
        assert fr.tail == (F(5), F(3), F(1))

    def test_skew(self):
        fr = frame(DivisionSpec.of((1, 2, 3), (1, 1, 1)))
        assert fr.head == (F(1), F(5), F(12))
        assert fr.tail == (F(8), F(7), F(3))
        assert tuple(h + t for h, t in zip(fr.head, fr.tail)) == (F(9), F(12), F(15))

    def test_length_four(self):
        fr = frame(DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1)))
        assert fr.head == (F(1), F(5), F(12), F(22))
        assert fr.tail == (F(13), F(13), F(10), F(4))
        for h, t, p, q in zip(fr.head, fr.tail, fr.ab, fr.dc):
            assert h + t == 4 * p + 10 * q

    def test_determinant_identities_random(self):
        rng = random.Random(17)
        for _ in range(200):
            spec = rand_spec(rng, 3)
            fr = frame(spec)
            delta = discriminants(spec)[0]
            assert det3([fr.ab, fr.dc, fr.head]) == -delta
            assert det3([fr.ab, fr.dc, fr.tail]) == delta

    def test_sum_identity_random(self):
        rng = random.Random(23)
        for _ in range(200):
            spec = rand_spec(rng, rng.randint(2, 16))
            fr = frame(spec)
            sp, sq = sum(fr.ab), sum(fr.dc)
            for h, t, p, q in zip(fr.head, fr.tail, fr.ab, fr.dc):
                assert h + t == sq * p + sp * q


class TestClassify:
    def test_spatial_with_minimal_pivot(self):
        label = classify(DivisionSpec.of((1, 2, 3), (1, 1, 1)))
        assert label.spatial and label.pivot == 2

    def test_minimal_pivot_skips_zero_entries(self):
        # ((1,1,1),(1,2,6)) extends degenerately, so appending a free column
        # keeps the first discriminant at zero
        spec = DivisionSpec.of((1, 1, 1, 5), (1, 2, 6, 1))
        deltas = discriminants(spec)
        assert deltas[0] == 0 and deltas[1] != 0
        assert classify(spec).pivot == 3

    def test_planar_proportional(self):
        label = classify(DivisionSpec.of((2, 4, 6), (1, 2, 3)))
        assert not label.spatial and label.proportional
        assert label.kind == "planar-proportional"

    def test_planar_skew(self):
        label = classify(DivisionSpec.of((1, 1, 1), (1, 2, 6)))
        assert not label.spatial and not label.proportional
        assert label.kind == "planar-skew"

    def test_length_two_always_planar(self):
        assert not classify(DivisionSpec.of((1, 2), (2, 1))).spatial
        assert classify(DivisionSpec.of((1, 2), (2, 4))).proportional


class TestSpecMemo:
    def test_frame_and_label_are_built_once_per_spec(self):
        # the frame is kept; the label is a view of the kept record, equal on every call
        spec = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        fr, label = frame(spec), classify(spec)
        assert frame(spec) is fr and classify(spec) == label

    def test_memo_is_invisible_to_equality_hash_and_repr(self):
        warmed = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        frame(warmed), classify(warmed), hyperplanes(warmed)
        fresh = DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))
        assert warmed == fresh and hash(warmed) == hash(fresh)
        assert repr(warmed) == repr(fresh)
        assert frame(fresh) == frame(warmed) and classify(fresh) == classify(warmed)


class TestHyperplanes:
    def test_unit_plane(self):
        assert hyperplanes(DivisionSpec.of((1, 1, 1), (1, 1, 1))) == ((1, -2, 1),)

    def test_skew_plane(self):
        spec = DivisionSpec.of((1, 1, 1), (1, 2, 6))
        assert hyperplanes(spec) == ((4, -5, 1),)
        fr = frame(spec)
        assert fr.head == (F(1), F(5), F(21))
        assert fr.tail == (F(11), F(10), F(6))

    def test_pivot_plane_length_four(self):
        assert hyperplanes(DivisionSpec.of((1, 2, 3, 4), (1, 1, 1, 1))) == ((-1, 3, -3, 1),)

    def test_spatial_length_three_has_no_planes(self):
        assert hyperplanes(DivisionSpec.of((1, 2, 3), (1, 1, 1))) == ()

    def test_length_two_rejected(self):
        with pytest.raises(InvalidInputError):
            hyperplanes(DivisionSpec.of((1, 2), (2, 1)))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_annihilation_and_independence(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        spec = rand_spec(rng, n)
        planes = hyperplanes(spec)
        label = classify(spec)
        assert len(planes) == (n - 3 if label.spatial else n - 2)
        fr = frame(spec)
        for plane in planes:
            for vec in (fr.ab, fr.dc, fr.head, fr.tail):
                assert sum(c * v for c, v in zip(plane, vec)) == 0
        if planes:
            assert rank(planes) == len(planes)

    def test_normalized_integer_coefficients(self):
        rng = random.Random(3)
        for _ in range(50):
            spec = rand_spec(rng, rng.randint(3, 7))
            for plane in hyperplanes(spec):
                assert all(isinstance(c, int) for c in plane)
                from math import gcd

                assert gcd(*(abs(c) for c in plane)) == 1


class TestContinueDegenerate:
    def test_known_continuations(self):
        assert continue_degenerate((F(1), F(1)), (F(1), F(2)), F(6)) == 1
        assert continue_degenerate((F(1), F(1), F(1)), (F(1), F(2), F(6)), F(12)) == F(1, 2)
        assert continue_degenerate((F(1), F(1)), (F(1), F(1)), F(1)) == 1

    def test_extension_keeps_chain_degenerate(self):
        rng = random.Random(41)
        for _ in range(40):
            p = [F(rng.randint(1, 8))]
            q = [F(rng.randint(1, 8))]
            p.append(F(rng.randint(1, 8)))
            q.append(F(rng.randint(1, 8)))
            for _ in range(4):
                nxt = F(rng.randint(1, 8))
                try:
                    p.append(continue_degenerate(tuple(p), tuple(q), nxt))
                except NoValidContinuationError:
                    break
                q.append(nxt)
            if len(p) >= 3:
                spec = DivisionSpec.of(p, q)
                assert all(d == 0 for d in discriminants(spec))

    def test_monotone_ratio_chain(self):
        # a degenerate non-proportional chain has strictly monotone p_i/p'_i
        rng = random.Random(4)
        for _ in range(40):
            p = [F(1), F(rng.randint(1, 8))]
            q = [F(1), F(rng.randint(1, 8))]
            if p[1] == q[1]:
                q[1] += 1
            for _ in range(5):
                nxt = F(rng.randint(1, 8))
                try:
                    p.append(continue_degenerate(tuple(p), tuple(q), nxt))
                except NoValidContinuationError:
                    break
                q.append(nxt)
            ratios = [a / b for a, b in zip(p, q)]
            diffs = [b - a for a, b in zip(ratios, ratios[1:])]
            assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)

    def test_positive_face_decomposition_in_planar_case(self):
        # both ratio vectors decompose positively on the cumulant vectors
        cases = [
            DivisionSpec.of((1, 1, 1), (1, 1, 1)),
            DivisionSpec.of((1, 1, 1), (1, 2, 6)),
            DivisionSpec.of((2, 4, 6), (1, 2, 3)),
            DivisionSpec.of((1, 1, 1, F(1, 2)), (1, 2, 6, 12)),
        ]
        for spec in cases:
            assert all(d == 0 for d in discriminants(spec))
            fr = frame(spec)
            for vec in (fr.ab, fr.dc):
                sol = reference.solve(
                    [[fr.head[0], fr.tail[0]], [fr.head[-1], fr.tail[-1]]],
                    [vec[0], vec[-1]],
                )
                a, b = sol
                assert a > 0 and b > 0
                assert all(
                    a * h + b * t == v for h, t, v in zip(fr.head, fr.tail, vec)
                )

    def test_no_valid_continuation(self):
        # a huge next ratio on the small side flips the denominator sign
        with pytest.raises(NoValidContinuationError):
            continue_degenerate((F(1), F(8)), (F(8), F(1)), F(100))

    def test_rejects_a_negative_ratio_at_any_length(self):
        with pytest.raises(InvalidInputError):
            continue_degenerate((1, 2), (-1, 1), 1)

    def test_rejects_non_degenerate_prefix(self):
        with pytest.raises(InvalidInputError):
            continue_degenerate((F(1), F(2), F(3)), (F(1), F(1), F(1)), F(1))


# spatial, proportional, skew and planar-prefix specs, each kind drawn on its own, with grid or 30-300-digit entries
each_kind = pytest.mark.parametrize("kind", ("spatial", "proportional", "planar-skew", "planar-prefix"))


def division_points(spec):
    """(S_k, T_k) for k = 0..n: the partial sums of ab and dc, added as plain Fractions."""
    return list(zip(accumulate(spec.p, initial=F(0)), accumulate(spec.p_prime, initial=F(0))))


def lifted(spec):
    """The division points lifted to (S_k, T_k, S_k*T_k)."""
    return [(s, t, s * t) for s, t in division_points(spec)]


def cross(u, v):
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def on_conic(conic, point):
    """alpha*S + beta*T + gamma*S*T at a lifted point (S, T, S*T)."""
    return sum(c * v for c, v in zip(conic, point)) == 0


class TestConicIdentities:
    """The attainable set in the partial sums S_k and T_k of the two sides (ROADMAP item 11)."""

    @each_kind
    @given(data=st.data())
    def test_the_cumulants_telescope_to_products_of_partial_sums(self, kind, data):
        spec = data.draw(specs(max_n=10, kinds=(kind,)))
        fr = frame(spec)
        points = division_points(spec)
        s, t = points[-1]
        for k in range(1, spec.n + 1):
            (s0, t0), (s1, t1) = points[k - 1], points[k]
            assert fr.head[k - 1] == s1 * t1 - s0 * t0
            assert fr.tail[k - 1] == (s - s0) * (t - t0) - (s - s1) * (t - t1)

    @each_kind
    @given(data=st.data(), arm=st.sampled_from(("head", "tail", "face", "ray")), a=ratios(big=False),
           b=ratios(big=False), c=ratios(big=False))
    def test_a_certificate_reads_every_partial_sum_of_x_from_the_division_points(self, kind, data, arm, a, b, c):
        # spatial: x = a*ab + b*dc + c*arm, with c = 0 on the face and a = b on the ray; planar: a*head + b*tail
        spec = data.draw(specs(max_n=10, kinds=(kind,)))
        fr = frame(spec)
        if classify(spec).spatial:
            b = a if arm == "ray" else b
            vector = {"head": fr.head, "tail": fr.tail}.get(arm, fr.ab)
            c = c if arm in ("head", "tail") else 0
            x = tuple(a * u + b * v + c * w for u, v, w in zip(fr.ab, fr.dc, vector))
            branches = {"head": "q1", "tail": "q2", "face": "ray" if a == b else "face", "ray": "ray"}
        else:
            x = tuple(a * h + b * t for h, t in zip(fr.head, fr.tail))
            branches = dict.fromkeys(("head", "tail", "face", "ray"), "degenerate")
        cert = member(spec, x).certificate
        assert cert.branch == branches[arm]
        points = division_points(spec)
        s, t = points[-1]
        for (sk, tk), xk in zip(points, accumulate(x, initial=F(0))):
            head_sum, tail_sum = sk * tk, s * t - (s - sk) * (t - tk)
            if cert.branch == "degenerate":
                expected = cert.coeffs[0] * head_sum + cert.coeffs[1] * tail_sum
            else:
                ca, cb, cc = {"q1": cert.coeffs, "q2": cert.coeffs, "face": (*cert.coeffs, 0),
                              "ray": (*cert.coeffs * 2, 0)}[cert.branch]
                expected = ca * sk + cb * tk + cc * (tail_sum if cert.branch == "q2" else head_sum)
            assert xk == expected

    @each_kind
    @given(data=st.data())
    def test_the_planar_conic_holds_every_division_point(self, kind, data):
        spec = data.draw(specs(max_n=10, kinds=(kind,)))
        # the conic through the origin and the first two division points, from the lifted points alone
        points = lifted(spec)
        through = cross(points[1], points[2])
        f = _factored(spec)
        if f.pivot is None:
            assert any(f.conic) and cross(f.conic, through) == (0, 0, 0)
            assert all(on_conic(f.conic, point) for point in points)
            assert (f.conic[2] == 0) == spec.proportional()
        else:
            assert not all(on_conic(through, point) for point in points)

    @each_kind
    @given(data=st.data())
    def test_a_discriminant_vanishes_exactly_when_four_lifted_points_are_affinely_dependent(self, kind, data):
        spec = data.draw(specs(max_n=10, kinds=(kind,)))
        points = lifted(spec)
        for j, delta in enumerate(discriminants(spec), start=2):  # the 1-based interior index
            base, *rest = points[j - 2:j + 2]
            dependent = det3([[u - v for u, v in zip(point, base)] for point in rest]) == 0
            assert (delta == 0) == dependent
