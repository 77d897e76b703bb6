"""The problem's symmetries as metamorphic properties: a map of the spec or of x whose effect on the
verdict is known, checked on spatial, proportional and planar-skew specs over every branch and reason."""
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from quadareas import Certificate, DivisionSpec, Interval, Verdict, cumulants, discriminants, member

from test_kernels import ratios
from test_memo import memo_specs

TARGETS = (
    *(("spatial", t) for t in ("q1", "q2", "face", "ray", "boundary", "negative", "off-subspace")),
    *(("planar", t) for t in ("degenerate", "face", "boundary", "negative", "off-subspace")),
)
IDS = [f"{case}-{target}" for case, target in TARGETS]


@st.composite
def cases(draw, case, target):
    """A spec of the case (spatial, or proportional or planar-skew) with grid or 30-digit entries and
    an x aimed at the target branch or reason: a*ab + b*dc + c*arm on a spatial spec, a*head + b*tail
    (or a face combination) on a planar one, with a zero coefficient for a boundary, a negated one
    for a negative and one bumped coordinate for an off-subspace tuple."""
    spatial = case == "spatial"
    _, spec = draw(memo_specs(kinds=("spatial",) if spatial else ("proportional", "planar-skew")))
    assume(any(discriminants(spec)) == spatial)
    a, b, c = (draw(ratios(big=False)) for _ in range(3))
    head, tail = cumulants(spec.p, spec.p_prime)
    zero = (F(0),) * spec.n
    if target == "ray":
        a, c = b, F(0)
    elif target == "boundary":
        a = F(0)
    elif target == "negative":
        c, a = (-c, a) if spatial else (c, -a)
    if spatial:
        arm = {"q1": head, "q2": tail, "face": zero, "ray": zero}.get(target) or draw(st.sampled_from((head, tail)))
        x = [a * u + b * v + c * w for u, v, w in zip(spec.p, spec.p_prime, arm)]
    elif target == "face":
        x = [a * u + b * v for u, v in zip(spec.p, spec.p_prime)]
    else:
        x = [a * h + b * t for h, t in zip(head, tail)]
    if target == "off-subspace":
        x[draw(st.integers(0, spec.n - 1))] += draw(ratios(big=False))
    return spec, tuple(x)


def mapped(verdict, scale=(1, 1, 1), swap=False):
    """The verdict after a map that multiplies the coefficients on ab, dc and the cumulant vectors by
    scale, and that exchanges ab and dc when swap: a face whose two coefficients become equal is the
    ray, and a ray whose two do not is a face.  A rejection keeps its reason."""
    cert = verdict.certificate
    if cert is None:
        return verdict
    sa, sb, sc = scale
    if cert.branch == "degenerate":
        intervals = (i and Interval(i.lo * sc, i.hi * sc) for i in (cert.q1_interval, cert.q2_interval))
        return Verdict(True, Certificate("degenerate", tuple(v * sc for v in cert.coeffs), *intervals))
    a, b, *c = cert.coeffs * 2 if cert.branch == "ray" else cert.coeffs
    a, b = (b, a) if swap else (a, b)
    a, b = a * sa, b * sb
    if c:
        return Verdict(True, Certificate(cert.branch, (a, b, c[0] * sc)))
    return Verdict(True, Certificate("ray", (a,)) if a == b else Certificate("face", (a, b)))


def assert_same(got, expected):
    assert got == expected and repr(got) == repr(expected)


@pytest.mark.parametrize("case, target", TARGETS, ids=IDS)
@given(data=st.data(), mode=st.sampled_from(("strict", "audited")))
def test_swapping_the_sides_swaps_the_ratio_coefficients(case, target, data, mode):
    # head and tail are symmetric in p and p': (a, b, c) becomes (b, a, c) and a face (a, b) becomes (b, a)
    spec, x = data.draw(cases(case, target))
    swapped = DivisionSpec(spec.p_prime, spec.p)
    assert_same(member(swapped, x, mode), mapped(member(spec, x, mode), swap=True))


@pytest.mark.parametrize("case, target", TARGETS, ids=IDS)
@given(data=st.data(), lam=ratios(big=False), mu=ratios(big=False))
def test_rescaling_the_sides_rescales_the_coefficients_in_audited_mode(case, target, data, lam, mu):
    # ab, dc and both cumulant vectors scale by lam, mu and lam*mu, so their coefficients by the inverses
    spec, x = data.draw(cases(case, target))
    scaled = DivisionSpec(tuple(lam * v for v in spec.p), tuple(mu * v for v in spec.p_prime))
    expected = mapped(member(spec, x), (1 / lam, 1 / mu, 1 / (lam * mu)))
    assert_same(member(scaled, x), expected)


@pytest.mark.parametrize("case, target", TARGETS, ids=IDS)
@given(data=st.data(), kappa=ratios(), mode=st.sampled_from(("strict", "audited")))
def test_scaling_x_scales_every_coefficient(case, target, data, kappa, mode):
    spec, x = data.draw(cases(case, target))
    expected = mapped(member(spec, x, mode), (kappa,) * 3)
    assert_same(member(spec, tuple(kappa * v for v in x), mode), expected)


@pytest.mark.parametrize("scale, expected", (
    (1, Verdict(False, reason="boundary")),
    (3, Verdict(True, Certificate("ray", (F(1),)))),
), ids=("as-written", "dc-tripled"))
def test_the_strict_ray_depends_on_the_units_of_the_sides(scale, expected):
    # x = ab + 3*dc is on the face; with p' tripled the same x is ab + dc', the strict ray
    p, p_prime = (1, 2, 3, 4), (2, 1, 1, 3)
    x = tuple(F(u + 3 * v) for u, v in zip(p, p_prime))
    spec = DivisionSpec.of(p, tuple(scale * v for v in p_prime))
    assert_same(member(spec, x, "strict"), expected)
    assert member(spec, x, "audited") == mapped(member(DivisionSpec.of(p, p_prime), x), (1, F(1, scale), 1))
