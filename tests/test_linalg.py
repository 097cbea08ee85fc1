from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify.guess import _candidate_rows, _mod_p_solvable
from pcf_unify.linalg import (
    _FILTER_PRIME,
    nullspace,
    nullspace_dim_mod_p,
    primitive_ints,
    rational_fit_screen,
)


def test_simple_nullspace():
    # x + y = 0 over two unknowns
    basis = nullspace([[Fraction(1), Fraction(1)]])
    assert len(basis) == 1
    x, y = basis[0]
    assert x + y == 0 and (x, y) != (0, 0)


def test_full_rank_has_empty_nullspace():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert nullspace(rows) == []
    assert nullspace_dim_mod_p(rows) == 0


def test_known_kernel_vector():
    # rows all orthogonal to (1, -2, 3)
    target = [1, -2, 3]
    rows = [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(3), Fraction(3), Fraction(1)],
    ]
    for r in rows:
        assert sum(a * b for a, b in zip(r, target)) == 0
    basis = nullspace(rows)
    assert len(basis) == 1
    assert basis[0] == [Fraction(1), Fraction(-2), Fraction(3)]


@pytest.mark.parametrize(
    "values, expected",
    [
        ([0, -4, 6, -8], [0, 2, -3, 4]),  # mixed signs: gcd out, lead made positive
        ([Fraction(-2, 3), Fraction(4, 9), 0], [3, -2, 0]),  # lcm 9, gcd 2
        ([Fraction(1, 2), Fraction(1, 3)], [3, 2]),
        ([3, -5, 7], [3, -5, 7]),  # already primitive
        ([Fraction(6), Fraction(-10, 1)], [3, -5]),
        ([0, 0, 0, 0], [0, 0, 0, 0]),  # zero vector stays zero
    ],
)
def test_primitive_ints(values, expected):
    assert primitive_ints(values) == expected
    assert primitive_ints(iter(values)) == expected


def test_prefilter_agrees_with_exact():
    rows = [
        [Fraction(1, 2), Fraction(1, 3), Fraction(1)],
        [Fraction(1), Fraction(-1), Fraction(2)],
    ]
    assert nullspace_dim_mod_p(rows) == len(nullspace(rows))


@st.composite
def systems(draw):
    ncols = draw(st.integers(min_value=2, max_value=5))
    nrows = draw(st.integers(min_value=1, max_value=6))
    rows = [
        [
            Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    return rows


@given(systems())
@settings(max_examples=80, deadline=None)
def test_nullspace_vectors_annihilate(rows):
    for vec in nullspace(rows):
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@given(systems())
@settings(max_examples=80, deadline=None)
def test_mod_p_dim_bounds_rational_dim(rows):
    exact = len(nullspace(rows))
    modular = nullspace_dim_mod_p(rows)
    assert modular >= exact


@st.composite
def recurrence_candidates(draw):
    """(terms, m, d, rows_used) for guess's screen: random sequences, and
    sequences with a low-order relation so that both outcomes occur."""
    m = draw(st.integers(1, 2))
    d = draw(st.integers(0, 2))
    rows_used = draw(st.integers(1, (m + 1) * (d + 1) + 4))
    count = rows_used + m
    kind = draw(st.sampled_from(["random", "geometric", "polynomial"]))
    if kind == "random":
        terms = [
            Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 9)))
            for _ in range(count)
        ]
    elif kind == "geometric":
        r = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 5)))
        terms = [r**n for n in range(count)]
    else:
        cs = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
        terms = [Fraction(sum(c * n**k for k, c in enumerate(cs))) for n in range(count)]
    return terms, m, d, rows_used


@given(recurrence_candidates())
@settings(max_examples=120, deadline=None)
def test_recurrence_screen_matches_prefilter(candidate):
    # the denominators are below every prime, so both decide at the first one
    terms, m, d, rows_used = candidate
    rows = _candidate_rows(terms, m, d, rows_used)
    assert _mod_p_solvable(terms, m, d, rows_used) == (nullspace_dim_mod_p(rows) > 0)


def _fit_rows(samples, dn, dd):
    """The rows of fit_rational_function's (deg P, deg Q) = (dn, dd) system."""
    return [
        [Fraction(t) ** k for k in range(dn + 1)]
        + [-v * Fraction(t) ** k for k in range(dd + 1)]
        for t, v in samples
    ]


@st.composite
def fit_samples(draw):
    """(index, value) samples at distinct indices: values of a random rational
    function, a random sequence, or either with one value whose denominator
    is a multiple of the prime (its row is dropped mod p)."""
    ts = draw(st.lists(st.integers(1, 60), min_size=1, max_size=14, unique=True))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    if draw(st.booleans()):
        num = draw(st.lists(coeff, min_size=1, max_size=5))
        den = draw(st.lists(coeff, min_size=1, max_size=4).filter(any))
        samples = []
        for t in ts:
            q = sum(c * t**k for k, c in enumerate(den))
            if q:
                samples.append((t, sum(c * t**k for k, c in enumerate(num)) / q))
    else:
        samples = [(t, draw(coeff)) for t in ts]
    if samples and draw(st.booleans()):
        i = draw(st.integers(0, len(samples) - 1))
        samples[i] = (samples[i][0], Fraction(1, _FILTER_PRIME * draw(st.integers(1, 3))))
    return samples


@given(fit_samples())
@settings(max_examples=80, deadline=None)
def test_rational_fit_screen_matches_prefilter(samples):
    # up to 14 samples, so splits with more unknowns than rows occur as well
    feasible = rational_fit_screen(samples)
    for dn in range(11):
        for dd in range(11 - dn):
            rows = _fit_rows(samples, dn, dd) if samples else [[0] * (dn + dd + 2)]
            assert feasible(dn, dd) == (nullspace_dim_mod_p(rows) > 0), (dn, dd)


def test_rational_fit_screen_accepts_everything_on_repeated_indices():
    # indices 1 and 1 + p coincide mod p, so no interpolant exists; the screen
    # then rejects nothing, leaving every split to the exact solve
    samples = [(1, Fraction(1)), (1 + _FILTER_PRIME, Fraction(2)), (2, Fraction(3))]
    feasible = rational_fit_screen(samples)
    assert all(feasible(dn, 3 - dn) for dn in range(4))
    assert all(feasible(0, dd) for dd in range(3))
