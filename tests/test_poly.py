from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify.poly import N, ONE, Poly, format_poly, low_degree_factors, poly_gcd


def test_construction_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0, 0]).degree == -1
    assert Poly().is_zero()


def test_difference_of_squares():
    assert (N + 1) * (N - 1) == N**2 - 1


def test_divrem_exact():
    q, r = divmod(N**2 - 1, N - 1)
    assert q == N + 1
    assert r.is_zero()


def test_product_expansion():
    # (n^2+n+1)(n^2-n+1) = n^4+n^2+1, expanded by independent convolution
    p = (N**2 + N + 1) * (N**2 - N + 1)
    assert p == N**4 + N**2 + 1


def test_divide_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(N, Poly())


def test_gcd_fixtures():
    assert poly_gcd(N**2 - 1, N - 1) == N - 1
    assert poly_gcd(N**4 + N**2 + 1, N**2 + N + 1) == N**2 + N + 1
    assert poly_gcd(Poly(), Poly()).is_zero()
    assert poly_gcd(Poly(), 3 * N) == N  # gcd(p, 0) normalizes p


def test_content_and_primitive():
    p = Poly([Fraction(2, 3), Fraction(4, 3)])
    assert p.content() == Fraction(2, 3)
    assert p.primitive() == Poly([1, 2])
    assert (-2 * N).monic_primitive() == N


def test_shift_round_trip():
    p = 3 * N**2 - N + 5
    assert p.shift(2).shift(-2) == p
    assert p.shift(1)(0) == p(1)


def test_format_round_trip():
    from pcf_unify.parsing import parse_poly

    for p in [Poly([Fraction(1, 2), -3, 0, 2]), -N, Poly.const(-7), Poly()]:
        assert parse_poly(format_poly(p)) == p


def test_integer_roots():
    p = (N - 3) * (N + 5) * (2 * N - 1)
    assert p.integer_roots() == [-5, 3]


def test_low_degree_factors():
    p = (N - 2) ** 2 * (N**2 + 1)
    factors, rem = low_degree_factors(p)
    assert factors == [N - 2, N - 2]
    assert rem == N**2 + 1


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@st.composite
def polys(draw, max_degree=6):
    coeffs = draw(st.lists(rationals, max_size=max_degree + 1))
    return Poly(coeffs)


@given(polys(), polys())
@settings(max_examples=200, deadline=None)
def test_add_sub_round_trip(p, q):
    assert (p + q) - q == p


@given(polys(), polys(), polys())
@settings(max_examples=100, deadline=None)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_divmod_invariant(p, q):
    if q.is_zero():
        return
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.degree < q.degree


@given(polys(max_degree=4), polys(max_degree=4), polys(max_degree=3))
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(p, q, m):
    g = poly_gcd(p * m, q * m)
    if not g.is_zero():
        assert g.divides(p * m)
        assert g.divides(q * m)
    if not (p.is_zero() and q.is_zero()) and not m.is_zero():
        assert g.degree >= m.degree  # common factor m must show up


# -- the integer kernel against the Fraction loops it replaced ----------------


def ref_mul(p: Poly, q: Poly) -> Poly:
    if not p.coeffs or not q.coeffs:
        return Poly()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def ref_divmod(p: Poly, q: Poly):
    rem = list(p.coeffs)
    dq = len(rem) - len(q.coeffs)
    if dq < 0:
        return Poly(), p
    quot = [Fraction(0)] * (dq + 1)
    lead = q.leading()
    for shift in range(dq, -1, -1):
        top = rem[shift + q.degree]
        if top:
            f = top / lead
            quot[shift] = f
            for i, c in enumerate(q.coeffs):
                rem[shift + i] -= f * c
    return Poly(quot), Poly(rem)


def ref_call(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * Fraction(x) + c
    return acc


def ref_integer_roots(p: Poly, bound: int) -> list[int]:
    if p.is_zero():
        return []
    return [r for r in range(-bound, bound + 1) if ref_call(p, r) == 0]


# numerators and denominators up to 10^30, so denominators are large and
# mostly coprime; the list strategies include the zero polynomial and constants
big_rationals = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)
)
mixed_rationals = st.one_of(rationals, big_rationals, st.integers(-5, 5).map(Fraction))


@st.composite
def mixed_polys(draw, max_degree=7):
    return Poly(draw(st.lists(mixed_rationals, max_size=max_degree + 1)))


@st.composite
def nonzero_lead_polys(draw, max_degree=5):
    """Divisors whose leading coefficient is rarely +-1."""
    lead = draw(mixed_rationals.filter(lambda c: c != 0))
    return Poly(draw(st.lists(mixed_rationals, max_size=max_degree)) + [lead])


@given(mixed_polys(), mixed_polys())
@settings(max_examples=200, deadline=None)
def test_mul_matches_fraction_loop(p, q):
    assert (p * q).coeffs == ref_mul(p, q).coeffs


@given(mixed_polys(max_degree=9), nonzero_lead_polys())
@settings(max_examples=200, deadline=None)
def test_divmod_matches_fraction_loop(p, q):
    quot, rem = divmod(p, q)
    ref_quot, ref_rem = ref_divmod(p, q)
    assert quot.coeffs == ref_quot.coeffs
    assert rem.coeffs == ref_rem.coeffs


def test_divmod_high_degree_matches_fraction_loop():
    p = Poly([Fraction((-1) ** i * (i * i + 1), 3 * i + 2) for i in range(121)])
    q = Poly([Fraction(7 - i, 5 + 2 * i) for i in range(10)] + [Fraction(-9, 4)])
    assert divmod(p, q) == ref_divmod(p, q)


@given(mixed_polys(), st.one_of(mixed_rationals, st.integers(-(10**6), 10**6)))
@settings(max_examples=200, deadline=None)
def test_call_matches_fraction_horner(p, x):
    value = p(x)
    assert isinstance(value, Fraction)
    assert value == ref_call(p, x)


def test_call_on_negative_and_fractional_points():
    p = Poly([Fraction(1, 3), -2, 0, Fraction(5, 7)])
    for x in [-3, 0, 4, Fraction(-5, 2), Fraction(7, 11), Fraction(-1, 10**20)]:
        assert p(x) == ref_call(p, x)
    assert Poly()(Fraction(3, 2)) == 0
    assert Poly.const(Fraction(-4, 9))(17) == Fraction(-4, 9)


@given(
    st.lists(st.integers(-40, 40), max_size=6),
    st.lists(mixed_rationals, max_size=3),
    mixed_rationals.filter(lambda c: c != 0),
    st.integers(0, 45),
)
@settings(max_examples=150, deadline=None)
def test_integer_roots_of_linear_factor_products(roots, cofactor, scale, bound):
    p = Poly.const(scale) * Poly(cofactor + [1])
    for r in roots:
        p = p * Poly([-r, 1])
    found = [r for r in p.integer_roots() if abs(r) <= bound]
    assert found == ref_integer_roots(p, bound)
    assert set(found) >= {r for r in roots if abs(r) <= bound}


@given(mixed_polys(max_degree=5), st.integers(0, 30))
@settings(max_examples=100, deadline=None)
def test_integer_roots_match_scan(p, bound):
    assert [r for r in p.integer_roots() if abs(r) <= bound] == ref_integer_roots(p, bound)


# small roots and cofactors keep the Cauchy bound, and so the scan, short
@given(
    st.lists(st.integers(-6, 6), max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_integer_roots_are_all_roots_within_the_cauchy_bound(roots, cofactor, scale):
    p = Poly(cofactor + [scale])
    for r in roots:
        p = p * Poly([-r, 1])
    if not p.is_zero():
        assert p.integer_roots() == ref_integer_roots(p, p.root_bound())


@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=5),
    st.integers(1, 10**6),
    mixed_rationals.filter(lambda c: c != 0),
)
@settings(max_examples=100, deadline=None)
def test_integer_roots_far_past_any_scan(roots, c, scale):
    p = Poly.const(scale) * (N**2 + c)  # no real roots of its own
    for r in roots:
        p = p * Poly([-r, 1])
    assert p.integer_roots() == sorted(set(roots))


def test_integer_roots_past_a_huge_bound():
    assert (N**2 - 10**12).integer_roots() == [-(10**6), 10**6]
    p = (N - 10**20) ** 3 * (N + 7) * (N**2 - 2) * N**2
    assert p.integer_roots() == [-7, 0, 10**20]
    assert (N**2 + 1).integer_roots() == Poly.const(3).integer_roots() == []


GCD_TABLE = [
    (N**2 - 1, N - 1, "n - 1"),
    ((N - 2) ** 2 * (N + 3), (N - 2) * (2 * N + 1), "n - 2"),
    (Poly([Fraction(1, 2), Fraction(3, 4)]) * (N + 1), (N + 1) * (N - 5) * Fraction(1, 7), "n + 1"),
    (6 * N**2 + 5 * N + 1, N**2 + 7, "1"),
    ((3 * N - 1) ** 2 * (N**2 + 1), (3 * N - 1) * (N**2 + 1) * (N + 4), "3*n^3 - n^2 + 3*n - 1"),
    (Poly(), -4 * N + 2, "2*n - 1"),
    (N**3, Fraction(5, 2) * N**2, "n^2"),
    (Fraction(2, 3) * N**4 - Fraction(2, 3), Fraction(9, 10) * N**6 - Fraction(9, 10), "n^2 - 1"),
]


@pytest.mark.parametrize("p, q, expected", GCD_TABLE)
def test_gcd_table(p, q, expected):
    assert format_poly(poly_gcd(p, q)) == expected


# scan: radius of a reference root scan; the factors cover every root it
# finds, and the roots past it too
FACTOR_TABLE = [
    ((N - 2) ** 2 * (N**2 + 1), 50, ["n - 2", "n - 2"], "n^2 + 1"),
    (N**2 * (N + 50) * (N - 51), 50, ["n + 50", "n", "n", "n - 51"], "1"),
    (Fraction(5, 3) * (2 * N - 1) * (N + 3), 50, ["n + 3"], "2*n - 1"),
    ((N + 1) ** 3 * (N - 4) * (3 * N**2 - 7), 50, ["n + 1"] * 3 + ["n - 4"], "3*n^2 - 7"),
    ((N - 7) * (N + 9) * (N - 30), 10, ["n + 9", "n - 7", "n - 30"], "1"),
    (Poly([Fraction(1, 2), Fraction(-7, 6), Fraction(1, 3)]), 50, ["n - 3"], "2*n - 1"),
    (Poly.const(Fraction(-4, 9)), 50, [], "1"),
    (Poly(), 50, [], "0"),
]


@pytest.mark.parametrize("p, scan, factors, rem", FACTOR_TABLE)
def test_low_degree_factors_table(p, scan, factors, rem):
    got_factors, got_rem = low_degree_factors(p)
    assert [format_poly(f) for f in got_factors] == factors
    assert set(ref_integer_roots(p, scan)) <= {-f[0] for f in got_factors}
    assert format_poly(got_rem) == rem
