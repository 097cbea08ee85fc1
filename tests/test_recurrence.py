from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcf_unify import recurrence
from pcf_unify.matrix import Mat, identity
from pcf_unify.parsing import parse_poly
from pcf_unify.poly import N, Poly
from pcf_unify.recurrence import (
    INF,
    PCF,
    InitialConditions,
    Recurrence,
    _balanced_tail_series,
    companion,
    convergent,
    convergent_sequence,
    evaluate_limit,
    mobius_apply,
    step_product,
)


def pcf(a, b):
    return PCF(parse_poly(a), parse_poly(b))


def test_companion_shapes():
    c = pcf("1", "1").companion()
    assert [[str(e) for e in row] for row in c.matrix] == [["0", "1"], ["1", "1"]]
    c = pcf("3n+1", "n(1-2n)").companion()
    assert str(c[0, 1]) == "-2*n^2 + n"
    assert str(c[1, 1]) == "3*n + 1"
    # order 3: subdiagonal ones, coefficients up the last column
    rec = Recurrence(coeffs=[N, N + 1, N + 2])
    m = companion(rec).matrix
    assert str(m[0, 2]) == "n + 2"
    assert str(m[1, 2]) == "n + 1"
    assert str(m[2, 2]) == "n"
    assert m[1, 0] == m[2, 1] and str(m[1, 0]) == "1"
    assert str(m[0, 0]) == "0"


def test_fibonacci_step_product():
    sp = step_product(pcf("1", "1").companion(), 1, 3)
    assert sp.matrix == Mat([[1, 2], [2, 3]]).map(Fraction)
    # convergent ratios 1, 1/2, 2/3
    xs = convergent_sequence(pcf("1", "1"), 3)
    assert xs == [Fraction(1), Fraction(1, 2), Fraction(2, 3)]


def test_empty_range_is_identity():
    sp = step_product(pcf("2", "(2n-1)^2").companion(), 5, 4)
    assert sp.matrix == identity(2)


def test_two_step_product_by_hand():
    sp = step_product(pcf("2", "(2n-1)^2").companion(), 1, 2)
    hand = Mat([[0, 1], [1, 2]]).map(Fraction) * Mat([[0, 9], [1, 2]]).map(Fraction)
    assert sp.matrix == hand


def test_fibonacci_convergent():
    assert convergent(pcf("1", "1"), 4) == Fraction(3, 5)


def test_series_reproduction_with_init():
    # partial sums 1, 4/3, 22/15 of sum n!/(2i+1) products, via init [[0,1],[1,1]]
    p = pcf("3n+1", "n(1-2n)")
    init = InitialConditions(Mat([[0, 1], [1, 1]]).map(Fraction))
    assert mobius_apply(init.matrix, Fraction(0)) == 1
    assert convergent(p, 1, init) == Fraction(4, 3)
    assert convergent(p, 2, init) == Fraction(22, 15)


def test_mobius_conventions():
    m = Mat([[1, 0], [0, 1]]).map(Fraction)
    assert mobius_apply(m, Fraction(5)) == 5
    m = Mat([[2, 3], [5, 7]]).map(Fraction)
    assert mobius_apply(m, Fraction(0)) == Fraction(3, 7)
    assert mobius_apply(m, INF) == Fraction(2, 5)
    assert mobius_apply(Mat([[1, 0], [0, 0]]).map(Fraction), Fraction(1)) is INF


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=3)
rational_polys = st.lists(small_fractions, min_size=1, max_size=3).map(Poly)
init_matrices = st.none() | st.lists(small_fractions, min_size=4, max_size=4).filter(
    any
).map(lambda v: InitialConditions(Mat([v[:2], v[2:]])))


@given(
    rational_polys,
    rational_polys.filter(bool),
    init_matrices,
    st.sampled_from([1, 2]),
    st.integers(min_value=1, max_value=40),
    st.none() | st.integers(min_value=1, max_value=3),
)
@example(parse_poly("2n+1"), parse_poly("n^2"), None, 1, 37, None)
@settings(max_examples=60, deadline=None)
def test_binary_splitting_equals_naive(a, b, init, start, depth, pole_free_shift):
    """The product engine against the naive Fraction product of the factors."""
    from pcf_unify.ratfunc import RationalFunction as RF

    p = PCF(a, b)
    base = init.matrix if init is not None else identity(2)
    naive, prefixes = identity(2), []
    for n in range(start, start + depth):
        naive = naive * Mat([[Fraction(0), b(n)], [Fraction(1), a(n)]])
        prefixes.append(base * naive)
    assert step_product(p.companion(), start, start + depth - 1).matrix == naive
    if pole_free_shift is not None:
        # a rational companion: b(n) / (n + shift), no pole for n >= 1
        d = N + pole_free_shift
        cm = recurrence.CompanionMatrix(Mat([[RF(0), RF(b, d)], [RF(1), RF(a)]]))
        by_hand = identity(2)
        for n in range(start, start + depth):
            by_hand = by_hand * Mat([[Fraction(0), b(n) / d(n)], [Fraction(1), a(n)]])
        assert step_product(cm, start, start + depth - 1).matrix == by_hand

    columns = [(m[0, 1], m[1, 1]) for m in prefixes]
    pairs = recurrence.convergent_pairs(p, depth, init, start)
    entries = list(a.coeffs) + list(b.coeffs) + [e for row in base for e in row]
    if all(Fraction(e).denominator == 1 for e in entries):
        assert pairs == columns
    else:  # a positive common scale per depth: the same ratios and signs
        for (u, v), (cu, cv) in zip(pairs, columns, strict=True):
            assert u * cv == v * cu
            assert (u > 0, u < 0, v > 0, v < 0) == (cu > 0, cu < 0, cv > 0, cv < 0)
    depths = [depth // 4, depth // 2, depth]
    at_depths = recurrence._products_at_depths(p, init, start, depths)
    assert at_depths == [prefixes[k - 1] if k else base for k in depths]
    exact = [Fraction(cu) / cv if cv else INF for cu, cv in columns]
    assert convergent_sequence(p, depth, init, start) == exact
    for k in (0, depth // 2, depth):
        want = mobius_apply(base, Fraction(0)) if k == 0 else exact[k - 1]
        if want is INF:
            with pytest.raises(ZeroDivisionError):
                convergent(p, k, init, start)
        else:
            assert convergent(p, k, init, start) == want


def test_pole_reporting():
    from pcf_unify.ratfunc import RationalFunction as RF
    from pcf_unify.recurrence import CompanionMatrix, PoleError

    # a genuine pole: rational-function entry with denominator n-3
    m = CompanionMatrix(
        Mat([[RF(0), RF(1, N - 3)], [RF(1), RF(1)]])
    )
    with pytest.raises(PoleError) as e:
        step_product(m, 1, 5)
    assert e.value.index == 3


def test_singular_factor_is_fine_but_start_shifts():
    p = PCF(Poly([1]), (N - 3) * (N + 1))  # b(3) = 0: singular factor, no pole
    sp = step_product(p.companion(), 1, 5)
    assert sp.matrix[0, 0] is not None
    assert p.first_valid_index() == 4


def test_first_valid_index_past_a_large_root():
    # b = n^2 - 360000 vanishes at n = 600; the limit starts at 601
    p = pcf("3n", "n^2 - 360000")
    assert p.first_valid_index() == 601
    v = evaluate_limit(p, depth=400, precision_digits=50)
    with mp.workdps(80):
        tail = mp.mpf(0)  # b(601) / (a(601) + b(602) / (a(602) + ...))
        for n in range(1201, 600, -1):
            tail = mp.mpf(n * n - 360000) / (3 * n + tail)
        assert v.error_bound < mp.mpf(10) ** -40
        assert abs(v.value - tail) <= v.error_bound


def test_root_bound_covers_every_root():
    assert pcf("1", "n^2 - 360000").b.root_bound() == 360001
    assert parse_poly("2n^3 - 7n + 3").root_bound() == 4  # 1 + 7 // 2
    assert parse_poly("5").root_bound() == 1
    p = parse_poly("(n - 37)(n + 2)(3n - 1)")
    assert p.integer_roots() == [-2, 37]
    assert p.root_bound() >= 37


def test_first_valid_index_past_a_huge_root():
    # b's Cauchy bound is 10^12 + 1, far past any scan of candidates
    assert pcf("3n", "n^2 - 10^12").first_valid_index() == 10**6 + 1


def test_limit_golden_ratio():
    # limit of the Eq-3 convergents of PCF(1,1) is 1/phi
    v = evaluate_limit(pcf("1", "1"), depth=120, precision_digits=40)
    with mp.workdps(50):
        target = 2 / (1 + mp.sqrt(5))
        assert abs(v.value - target) < mp.mpf(10) ** -38


def test_limit_euler_pcf():
    # full written fraction 1 + 2/(1 + 6/(1 + ...)) = 2/(pi-2); convergents
    # converge to that minus a(0) = 1 (polynomial convergence, accelerated)
    p = pcf("1", "n(n+1)")
    v = evaluate_limit(p, depth=400, precision_digits=60)
    with mp.workdps(80):
        target = 2 / (mp.pi - 2) - 1
        assert abs(v.value - target) < mp.mpf(10) ** -55
    assert v.error_bound < mp.mpf(10) ** -55


def test_limit_table_value_one_over_pi_minus_3():
    p = pcf("6", "(2n+1)^2")
    init = InitialConditions(Mat([[0, 1], [1, 6]]).map(Fraction))
    # with the init matrix the generated sequence reproduces the series
    # partial sums of sum (-1)^(n+1)/(n(n+1)(2n+1)) = pi - 3
    v = evaluate_limit(p, init=init, depth=400, precision_digits=50)
    with mp.workdps(60):
        assert abs(v.value - (mp.pi - 3)) < mp.mpf(10) ** -45


def test_limit_agreement_across_precisions():
    p = pcf("2", "(2n-1)^2")
    v1 = evaluate_limit(p, depth=200, precision_digits=40)
    v2 = evaluate_limit(p, depth=200, precision_digits=80)
    assert abs(v1.value - v2.value) < mp.mpf(10) ** -38


# -- balanced regime: lead(a)^2 + 4 lead(b) = 0 ----------------------------------


def _catalan_pair_closed_forms():
    # L_A by PSLQ in Catalan's G; L_B from the pair's certificate U(1) =
    # [[6, 16], [-1, -3]], since L_A = U(1)(L_B)
    with mp.workdps(260):
        g = mp.catalan
        la = (13 - 14 * g) / (2 * g - 2)
        return la, -(3 * la + 16) / (la + 6)


def _direct_limit(p, depth, dps):
    """b(1)/(a(1) + b(2)/(...)) by plain forward recurrence (no package code)."""
    with mp.workdps(dps):
        p0, q0, p1, q1 = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
        for n in range(1, depth + 1):
            an, bn = mp.mpf(int(p.a(n))), mp.mpf(int(p.b(n)))
            p0, q0, p1, q1 = p1, q1, bn * p0 + an * p1, bn * q0 + an * q1
            p0, q0, p1, q1 = p0 / q1, q0 / q1, p1 / q1, mp.mpf(1)
        return p1


@pytest.mark.parametrize("which", [0, 1])
def test_limit_balanced_catalan_pair(which):
    # both fractions of the catalan pair stall Richardson at 14-24 digits;
    # the tail series must carry them far past 60, inside an honest bound
    p = [pcf("8n^2+8n+7", "-16n^4"), pcf("8n^2+12n+5", "-16n^3(n+1)")][which]
    assert _balanced_tail_series(p)[0] == 1
    v = evaluate_limit(p, depth=4000, precision_digits=200)
    assert v.good_digits() >= 60
    with mp.workdps(260):
        assert abs(v.value - _catalan_pair_closed_forms()[which]) <= v.error_bound


@pytest.mark.parametrize(
    "a, b, r, irrational",
    [
        ("2n+1", "-n^2", 1, False),  # double root: convergents err like 1/log n
        ("2n+3", "-n^2-2n+2", 1, True),  # c_1 = -2 + sqrt(3)
        ("2n+4", "-n^2-n-1", 2, True),  # tail in powers of n^(-1/2)
    ],
)
def test_limit_balanced_tail_regimes(a, b, r, irrational):
    p = pcf(a, b)
    kind, coeffs = _balanced_tail_series(p)
    c0, c1 = next(coeffs), next(coeffs)
    assert kind == r and c0.q == 0 and (c1.q != 0) == irrational
    v = evaluate_limit(p, depth=2000, precision_digits=150)
    raw = evaluate_limit(p, depth=2000, precision_digits=150, accelerate=False)
    assert v.good_digits() >= 100 > raw.good_digits()
    with mp.workdps(200):
        if b == "-n^2":
            reference = mp.mpf(-1)  # tail t_n = -(n + 1) exactly
        elif b == "-n^2-2n+2":
            reference = mp.sqrt(3) - 2  # tail t_n = -n + sqrt(3) - 2 exactly
        else:  # exp(-4 sqrt(2n)) convergence: about 1e-220 at n = 8000
            reference = _direct_limit(p, 8000, 250)
        assert abs(v.value - reference) <= v.error_bound


def test_balanced_without_minimal_solution_diverges():
    # c_1^2 = -1: two solutions of equal size, so no minimal one and no
    # limit; the raw value comes back marked diverging, without the
    # Richardson passes that would only hide it
    p = pcf("2n", "-n^2-1")
    assert _balanced_tail_series(p) is None
    v = evaluate_limit(p, depth=2000, precision_digits=100)
    assert not v.converged


def test_limit_bound_never_beats_the_rounding():
    # the raw path rounds the value to precision_digits + 15 digits; its
    # inter-depth gap (6e-107 here at precision 60) must not claim more
    p = pcf("2n+4", "-n^2-n-1")
    v = evaluate_limit(p, depth=4000, precision_digits=60)
    reference = evaluate_limit(p, depth=16000, precision_digits=60)
    with mp.workdps(100):
        assert abs(v.value - reference.value) <= v.error_bound
    # PCF(1; 1) at zero requested digits: a 15-digit value, not 1e-896
    g = evaluate_limit(pcf("1", "1"), precision_digits=0)
    assert g.error_bound >= mp.mpf(10) ** -15


@pytest.mark.parametrize("which", [0, 1])
def test_richardson_fallback_bound_is_honest(which, monkeypatch):
    # with the tail path out of the way the catalan pair takes the Richardson
    # fallback, whose parity gap understates the error by 1-2 orders; the
    # bound it returns must still cover the true error
    monkeypatch.setattr(recurrence, "_is_balanced", lambda pcf: False)
    p = [pcf("8n^2+8n+7", "-16n^4"), pcf("8n^2+12n+5", "-16n^3(n+1)")][which]
    v = evaluate_limit(p, depth=4000, precision_digits=200)
    with mp.workdps(260):
        assert abs(v.value - _catalan_pair_closed_forms()[which]) <= v.error_bound


small_polys = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=1, max_size=3
).map(Poly)


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_column_solution_property(a, b):
    """Step-matrix columns are the basis solutions of the scalar recurrence."""
    if b.is_zero():
        return
    p = PCF(a, b)
    if p.first_valid_index() != 1:
        return
    # u_n = a(n) u_{n-1} + b(n) u_{n-2}, basis initial conditions
    for which, (u0, u1) in enumerate([(1, 0), (0, 1)]):
        us = [Fraction(u0), Fraction(u1)]
        for n in range(1, 21):
            us.append(a(n) * us[-1] + b(n) * us[-2])
        sp = step_product(p.companion(), 1, 20)
        # column `which`... rows are (p_{n-1}, p_n; q_{n-1}, q_n) style:
        # row 0 tracks the solution with (u_{-1}, u_0) = (1, 0), row 1 = (0, 1)
        assert sp.matrix[which, 1] == us[21]
        assert sp.matrix[which, 0] == us[20]
