from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify.matrix import Mat, identity, projective_eq
from pcf_unify.parsing import parse_poly
from pcf_unify.poly import N, Poly
from pcf_unify.ratfunc import RationalFunction as RF
from pcf_unify.recurrence import PCF, Recurrence, companion, step_product
from pcf_unify.transforms import (
    DegenerateMatrixError,
    companion_reduce,
    fold,
    fold_pcf,
    index_shift,
    inflate,
    inflation_gauge,
    pcf_shift,
    to_pcf_canonical,
)


def pcf(a, b):
    return PCF(parse_poly(a), parse_poly(b))


def test_fold_by_one_is_identity():
    m = pcf("3n+1", "n(1-2n)").companion().matrix
    assert fold(m, 1) == m


def test_fold_product_identity():
    p = pcf("2n+1", "n^2+1")
    cm = p.companion()
    folded = fold(cm.matrix, 2)
    for n_val in range(1, 4):
        direct = step_product(cm, 1, 2 * n_val).matrix
        via_fold = identity(2)
        for i in range(1, n_val + 1):
            via_fold = via_fold * folded.map(lambda e: Fraction(e(i)))
        assert direct == via_fold


def test_fold_published_example():
    # 2-fold of PCF(3n+1, n(1-2n)), reduced back to a PCF
    out, trace = fold_pcf(pcf("3n+1", "n(1-2n)"), 2)
    assert out.a == parse_poly("60n^3 + 34n^2 - 11n - 3")
    assert out.b == parse_poly(
        "2n(-288n^5 + 624n^4 - 230n^3 - 225n^2 + 158n - 24)"
    )
    assert any(s["kind"] == "fold" for s in trace.steps)


def test_inflate_by_constant_one():
    rec = pcf("3n+1", "n(1-2n)").to_recurrence()
    assert inflate(rec, Poly.const(1)) == rec


def test_inflate_then_deflate_round_trip():
    rec = pcf("2", "(2n-1)^2").to_recurrence()
    c = N + 3
    up = inflate(rec, c)
    down = inflate(up, RF(1, c))
    assert to_pcf_canonical(down)[0] == pcf("2", "(2n-1)^2")


def test_inflation_coboundary_identity():
    # companion(inflated) * U(n+1) == c(n) * U(n) * companion(original)
    rec = pcf("3n+1", "n(1-2n)").to_recurrence()
    c = 2 * N + 1
    inflated = inflate(rec, c)
    a_mat = companion(inflated).matrix
    b_mat = companion(rec).matrix
    u = inflation_gauge(rec, c)
    lhs = a_mat * u.shift(1)
    rhs = u.map(lambda e: e * RF(c)) * b_mat
    assert lhs == rhs


def test_index_shift_round_trip():
    rec = pcf("3n+1", "n(1-2n)").to_recurrence()
    assert index_shift(rec, 0) == rec
    assert index_shift(index_shift(rec, 3), -3) == rec
    assert pcf_shift(pcf("3n+1", "n(1-2n)"), 1) == pcf("3n+4", "(n+1)(1-2n-2)")


def test_canonical_no_denominator_is_identity():
    p, trace = to_pcf_canonical(pcf("3n+1", "n(1-2n)"))
    assert p == pcf("3n+1", "n(1-2n)")
    assert trace.steps == []


def test_canonical_golden_ratio_deflation():
    p, _ = to_pcf_canonical(pcf("n^2+n+1", "n^4+n^2+1"))
    assert p == pcf("1", "1")


def test_canonical_from_rational_recurrence():
    # (2n+1) S_n = (3n+1) S_{n-1} - n S_{n-2}  ->  PCF(3n+1, n(1-2n))
    rec = Recurrence(coeffs=[parse_poly("3n+1"), parse_poly("-n")], den=parse_poly("2n+1"))
    p, trace = to_pcf_canonical(rec)
    assert p == pcf("3n+1", "n(1-2n)")
    assert any(s["kind"] == "inflate" for s in trace.steps)


def test_canonical_idempotent():
    for p0 in [pcf("2", "(2n-1)^2"), pcf("6", "(2n+1)^2"), pcf("1", "n(n+1)")]:
        p1, _ = to_pcf_canonical(p0)
        p2, _ = to_pcf_canonical(p1)
        assert p1 == p2 == p0


def test_companion_reduce_already_companion():
    m = pcf("2n+1", "n^2").companion().matrix
    rec, gauge, _ = companion_reduce(m)
    assert to_pcf_canonical(rec)[0] == pcf("2n+1", "n^2")


small_coeffs = st.integers(min_value=-4, max_value=4)


@st.composite
def small_pcfs(draw):
    a = Poly(draw(st.lists(small_coeffs, min_size=1, max_size=3)))
    b = Poly(draw(st.lists(small_coeffs, min_size=1, max_size=3)))
    if b.is_zero():
        b = Poly.const(1)
    if a.is_zero():
        a = Poly.const(1)
    return PCF(a, b)


@given(small_pcfs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_fold_product_identity_random(p, k):
    cm = p.companion()
    folded = fold(cm.matrix, k)
    for n_val in (2, 5):
        direct = step_product(cm, 1, k * n_val).matrix
        via = identity(2)
        for i in range(1, n_val + 1):
            via = via * folded.map(lambda e: Fraction(e(i)))
        assert direct == via


@given(small_pcfs())
@settings(max_examples=30, deadline=None)
def test_canonical_idempotent_random(p):
    try:
        p1, _ = to_pcf_canonical(p)
        p2, _ = to_pcf_canonical(p1)
    except ValueError:
        return
    assert p1 == p2


@given(
    small_pcfs(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.lists(small_coeffs, min_size=1, max_size=2).filter(any),
)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_a_fixed_point(p, roots, den):
    # d | a and d(n) d(n-1) | b give the deflation work; den the inflation
    d = Poly.const(1)
    for r in roots:
        d = d * Poly([-r, 1])
    rec = Recurrence(coeffs=[p.a * d, p.b * d * d.shift(-1)], den=Poly(den))
    canonical, _ = to_pcf_canonical(rec)
    again, trace = to_pcf_canonical(canonical)
    assert again == canonical
    assert trace.steps == []


def ref_companion_reduce(m: Mat):
    """companion_reduce by the explicit product U(n) m(n) adj U(n+1)."""
    from pcf_unify.matrix import mat_adjugate_inverse
    from pcf_unify.ratfunc import clear_denominators

    if not m[1, 0].is_zero():
        u = Mat([[m[1, 0], -m[0, 0]], [RF(0), RF(1)]])
    elif not m[0, 1].is_zero():
        u = Mat([[RF(1), RF(0)], [m[0, 0].shift(-1), m[0, 1].shift(-1)]])
    else:
        raise DegenerateMatrixError("matrix cannot generate a second-order recurrence")
    adj, _ = mat_adjugate_inverse(u.shift(1))
    e = u * m * adj
    if not e[0, 0].is_zero() or e[1, 0].is_zero():
        raise DegenerateMatrixError("gauge did not reach companion shape")
    (a, b), den = clear_denominators([e[1, 1] / e[1, 0], e[0, 1] / e[1, 0]])
    return Recurrence(coeffs=[a, b], den=den), u


def reduce_outcome(reduce, m: Mat):
    try:
        rec, u, *_ = reduce(m)
    except ValueError as exc:
        return type(exc), str(exc)
    return rec, u


small_rfs = st.builds(
    RF,
    st.lists(small_coeffs, max_size=3).map(Poly),
    st.lists(small_coeffs, min_size=1, max_size=2).filter(any).map(Poly),
)


@given(st.lists(small_rfs, min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_companion_reduce_matches_the_explicit_product(entries):
    m = Mat([entries[:2], entries[2:]])
    assert reduce_outcome(companion_reduce, m) == reduce_outcome(ref_companion_reduce, m)
