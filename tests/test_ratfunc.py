from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify.poly import N, Poly
from pcf_unify.ratfunc import RationalFunction as RF
from pcf_unify.ratfunc import clear_denominators, rf_reduce


def test_reduction_fixtures():
    assert rf_reduce(N**2 - 1, N - 1) == RF(N + 1)
    # content moves to the numerator; denominator stays primitive and positive
    r = rf_reduce(2 * N, Poly.const(4))
    assert r.num == Poly([0, Fraction(1, 2)]) and r.den == Poly.const(1)
    r = rf_reduce(-N, -(N**2))
    assert r.num == Poly.const(1) and r.den == N


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RF(N, Poly())


def test_structural_equality_is_mathematical():
    a = RF(N**2 - 1, N**2 + N) + RF(1, N)
    b = RF(N, N + 1) + RF(1, N + 1) - RF(0)
    assert a == b
    assert hash(a) == hash(b)


def test_evaluation_and_poles():
    f = RF(N + 1, N - 1)
    assert f(3) == Fraction(2)
    assert f.has_pole_at(1)
    with pytest.raises(ZeroDivisionError):
        f(1)


def test_shift():
    f = RF(N, N + 1)
    assert f.shift(1) == RF(N + 1, N + 2)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@st.composite
def ratfuncs(draw):
    num = Poly(draw(st.lists(rationals, max_size=4)))
    den = Poly(draw(st.lists(rationals, min_size=1, max_size=4)))
    if den.is_zero():
        den = Poly.const(1)
    return RF(num, den)


@given(ratfuncs(), ratfuncs())
@settings(max_examples=150, deadline=None)
def test_field_round_trip(f, g):
    assert (f + g) - g == f
    if not g.is_zero():
        assert (f / g) * g == f


@given(ratfuncs())
@settings(max_examples=100, deadline=None)
def test_reduce_idempotent(f):
    again = rf_reduce(f.num, f.den)
    assert again.num == f.num and again.den == f.den


@given(st.lists(st.one_of(ratfuncs(), rationals), max_size=5))
@settings(max_examples=100, deadline=None)
def test_clear_denominators(entries):
    polys, den = clear_denominators(entries)
    assert [RF(p, den) for p in polys] == entries
    assert den.content() == 1 and den.leading() > 0
