from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify.matrix import Mat, det2, identity, mat_adjugate_inverse, projective_eq
from pcf_unify.multivar import MPoly, MRat, integer_split, restrict_to_line
from pcf_unify.parsing import parse_mrat, parse_ratfunc
from pcf_unify.poly import N, Poly
from pcf_unify.ratfunc import RationalFunction as RF


def test_identity_multiplication():
    a = Mat([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert identity(2) * a == a


def test_dimension_mismatch():
    a = Mat([[1, 2]])
    b = Mat([[1, 2]])
    with pytest.raises(ValueError):
        a * b


def test_companion_product_shape():
    # [[0,b],[1,a]] * [[0,b'],[1,a']] = [[b, a'b],[a, b'+aa']]
    b1, a1 = Poly.const(5), Poly.const(7)
    b2, a2 = Poly.const(11), Poly.const(13)
    m = Mat([[Poly(), b1], [Poly.const(1), a1]]) * Mat([[Poly(), b2], [Poly.const(1), a2]])
    assert m == Mat([[b1, a2 * b1], [a1, b2 + a1 * a2]])


def test_adjugate_inverse_fixtures():
    b, a = parse_ratfunc("b" if False else "3"), parse_ratfunc("2n")
    m = Mat([[RF(0), b], [RF(1), a]])
    adj, det = mat_adjugate_inverse(m)
    assert adj == Mat([[a, -b], [RF(-1), RF(0)]])
    assert det == -b
    eye = identity(2, one=RF(1), zero=RF(0))
    adj_i, det_i = mat_adjugate_inverse(eye)
    assert adj_i == eye and det_i == RF(1)
    nn = RF(N)
    m = Mat([[nn, RF(0)], [RF(0), nn]])
    adj, det = mat_adjugate_inverse(m)
    assert adj == m and det == RF(N * N)


def test_adjugate_identity_property():
    import random

    rng = random.Random(3)
    for _ in range(25):
        entries = [
            Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]) for _ in range(4)
        ]
        m = Mat([entries[:2], entries[2:]])
        d = det2(m)
        if d.is_zero():
            continue
        adj, det = mat_adjugate_inverse(m)
        prod = adj * m
        assert prod == Mat([[det, Poly()], [Poly(), det]])


def test_singular_matrix_rejected():
    m = Mat([[Poly.const(1), Poly.const(2)], [Poly.const(2), Poly.const(4)]])
    with pytest.raises(ZeroDivisionError):
        mat_adjugate_inverse(m)


def test_projective_equality():
    a = Mat([[Poly.const(1), N], [Poly(), N**2]])
    b = Mat([[Poly.const(3), 3 * N], [Poly(), 3 * N**2]])
    assert projective_eq(a, b)
    c = Mat([[Poly.const(3), 3 * N], [Poly.const(1), 3 * N**2]])
    assert not projective_eq(a, c)


NAMES = ("x", "y", "z")


def test_mv_substitution_fixtures():
    # the worked trajectory substitutions
    point = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))
    v = (0, 0, 1)
    f = MRat.var(NAMES, "x")
    assert f.substitute_affine(point, v) == parse_ratfunc("1/2")
    f = MRat.var(NAMES, "z")
    assert f.substitute_affine(point, v) == parse_ratfunc("n + 1/2")
    entry = parse_mrat("z/((y - z)*(x - z))", NAMES)
    assert entry.substitute_affine(point, v) == parse_ratfunc("(2n+1) / (2n(n+1))")


def test_mv_substitution_commutes_with_arithmetic():
    point = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    v = (1, -1, 2)
    f = parse_mrat("(x + 2*y)/(z - x*y)", NAMES)
    g = parse_mrat("y*z - x^2", NAMES)
    lhs = (f * g).substitute_affine(point, v)
    rhs = f.substitute_affine(point, v) * g.substitute_affine(point, v)
    assert lhs == rhs


def test_integer_split_over_one_denominator():
    entries = [
        parse_mrat(s, NAMES)
        for s in ["2/3", "y/(5*x)", "(x + 1/2)/(y - z)", "z/((y - z)*x)"]
    ]
    nums, den = integer_split(entries)
    for p in (*nums, den):
        assert all(c.denominator == 1 for c in p.terms.values())
    for e, num in zip(entries, nums):
        assert MRat(num, den) == e
    # restricted together, the vectors keep each entry's ratio to den
    point, v = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)), (1, -1, 2)
    *rows, d = restrict_to_line([*nums, den], point, v)
    for e, row in zip(entries, rows):
        assert RF(Poly(row), Poly(d)) == e.substitute_affine(point, v)


def test_mv_cross_multiplication_equality():
    a = parse_mrat("(x^2 - y^2)/(x - y)", NAMES)
    b = parse_mrat("x + y", NAMES)
    assert a == b


def test_mv_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        MRat(MPoly.var(NAMES, "x"), MPoly(NAMES, {}))


def test_mv_identically_zero_substitution_denominator():
    f = parse_mrat("1/(x - z)", NAMES)
    with pytest.raises(ZeroDivisionError):
        f.substitute_affine((Fraction(1, 2), Fraction(0), Fraction(1, 2)), (1, 0, 1))


small = st.integers(min_value=-4, max_value=4)


@st.composite
def mpolys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        expo = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in NAMES)
        terms[expo] = Fraction(draw(small))
    return MPoly(NAMES, terms)


@given(mpolys(), mpolys())
@settings(max_examples=60, deadline=None)
def test_mpoly_ring_round_trip(p, q):
    assert (p + q) - q == p
    assert p * q == q * p
