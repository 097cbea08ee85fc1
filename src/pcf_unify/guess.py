"""Fitting minimal polynomial-coefficient recurrences to exact sequences.

The solver looks for c_0(n), ..., c_m(n) of degree <= d with

    sum_j c_j(n) * s_{n+j} = 0   for all positions n,

searching (order, degree) pairs by increasing order, then degree.  Positions
index the sequence from 0 regardless of the original summation variable:
that convention is what makes differently-indexed series with the same
shape land on the same recurrence.

Each candidate system is first screened modulo a word-sized prime (a
rational solution survives reduction, so an empty modular nullspace proves
there is nothing to find); only survivors pay for the exact fraction-free
solve.  The screen builds its matrix from the terms' residues and calls the
modular kernel in ``linalg`` (``residues_mod_p``, ``rank_mod_p``), which
also normalises the initial conditions (``primitive_ints``).  A successful
fit must annihilate every provided term, including the surplus the solver
never saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import nullspace, primitive_ints, rank_mod_p, residues_mod_p
from .matrix import Mat
from .poly import Poly
from .recurrence import PCF, InitialConditions, Recurrence

_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)

# extra equations beyond the unknown count that a candidate must satisfy
SURPLUS = 20


@dataclass(frozen=True)
class RationalSequence:
    """Exact sequence with its original start index (positions count from 0)."""

    start_index: int
    terms: tuple[Fraction, ...]

    def __init__(self, start_index, terms):
        terms = tuple(Fraction(t) for t in terms)
        if not terms:
            raise ValueError("empty sequence")
        object.__setattr__(self, "start_index", int(start_index))
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class GuessResult:
    recurrence: Recurrence
    order: int
    degree: int
    surplus_verified: int
    # solved relation: sum_j rel_coeffs[j](n) * s_{n+j} = 0 from position 0
    rel_coeffs: tuple[Poly, ...]


def _terms_needed(m: int, d: int) -> int:
    return (m + 1) * (d + 1) + m + SURPLUS


def _mod_p_solvable(terms, m, d, rows_used) -> bool:
    """Quick modular feasibility check for the (m, d) candidate.

    The first of the primes at which no term's denominator vanishes decides;
    if there is none, the exact solve does.
    """
    ncols = (m + 1) * (d + 1)
    for p in _PRIMES:
        tm = residues_mod_p(terms, p)
        if tm is None:
            continue
        rows = []
        for n in range(rows_used):
            powers = [pow(n, i, p) for i in range(d + 1)]
            rows.append([pw * tm[n + j] % p for j in range(m + 1) for pw in powers])
        return rank_mod_p(np.array(rows, dtype=np.int64), p) < ncols
    return True


def _candidate_rows(terms, m, d, rows_used):
    """Equations of the (m, d) candidate; column j * (d + 1) + i holds n^i s_{n+j}."""
    rows = []
    for n in range(rows_used):
        powers = [Fraction(n) ** i for i in range(d + 1)]
        rows.append([pw * terms[n + j] for j in range(m + 1) for pw in powers])
    return rows


def _vector_to_polys(vec, m, d):
    return [Poly(vec[j * (d + 1) : (j + 1) * (d + 1)]) for j in range(m + 1)]


def _annihilates(cs, terms, m) -> int:
    """Number of positions verified; -1 if some equation fails."""
    count = 0
    for n in range(len(terms) - m):
        acc = Fraction(0)
        for j, c in enumerate(cs):
            acc += c(n) * terms[n + j]
        if acc != 0:
            return -1
        count += 1
    return count


def _relation_to_recurrence(cs, m) -> Recurrence:
    """Rewrite sum_j c_j(n) s_{n+j} = 0 as c(n) u_n = sum_i a_i(n) u_{n-i}."""
    den = cs[m].shift(-m)
    coeffs = [-(cs[m - i].shift(-m)) for i in range(1, m + 1)]
    if den.leading() < 0:
        den = -den
        coeffs = [-c for c in coeffs]
    return Recurrence(coeffs=coeffs, den=den)


def guess_recurrence(
    seq: RationalSequence, max_order: int = 3, max_degree: int = 20
) -> GuessResult | None:
    """Minimal (order, then degree) polynomial recurrence fitting the sequence."""
    terms = seq.terms
    for m in range(1, max_order + 1):
        for d in range(0, max_degree + 1):
            if _terms_needed(m, d) > len(terms):
                break
            rows_used = (m + 1) * (d + 1) + SURPLUS
            if not _mod_p_solvable(terms, m, d, rows_used):
                continue
            for vec in nullspace(_candidate_rows(terms, m, d, rows_used)):
                cs = _vector_to_polys(vec, m, d)
                if cs[m].is_zero() or cs[0].is_zero():
                    continue  # lower order / shifted relation in disguise
                verified = _annihilates(cs, terms, m)
                if verified < 0:
                    continue
                # normalize: leading coefficient polynomial with content 1,
                # positive leading sign
                scale = cs[m].content()
                if cs[m].leading() < 0:
                    scale = -scale
                cs = [c * (1 / scale) for c in cs]
                return GuessResult(
                    recurrence=_relation_to_recurrence(cs, m),
                    order=m,
                    degree=d,
                    surplus_verified=verified - (rows_used - SURPLUS),
                    rel_coeffs=tuple(cs),
                )
    return None


# -- series support -----------------------------------------------------------------


def eval_series_terms(expr, n0: int = 0, count: int = 200, var: str = "n") -> RationalSequence:
    """Exact partial sums S_{n0} ... S_{n0+count-1} of a series summand.

    ``expr`` is a summand in the term grammar (string or parsed AST).
    """
    from .parsing import eval_term, parse_ast

    ast = expr if not isinstance(expr, str) else parse_ast(expr)
    total = Fraction(0)
    sums = []
    for k in range(n0, n0 + count):
        try:
            total += eval_term(ast, {var: Fraction(k)})
        except ZeroDivisionError as exc:
            raise ZeroDivisionError(f"series term undefined at index {k}: {exc}") from exc
        sums.append(total)
    return RationalSequence(start_index=n0, terms=sums)


def series_initial_conditions(s0: Fraction, s1: Fraction, s2: Fraction, a: Poly, b: Poly):
    """Initial-condition matrix reproducing a series from its PCF, per the
    second-convergent matching rule.

    Returns (x, init) with init = [[S0, x*S1], [1, x]]; applying the PCF's
    companion products from index 2 on the right of init generates the
    partial sums S2, S3, ...
    """
    s0, s1, s2 = Fraction(s0), Fraction(s1), Fraction(s2)
    if s2 == s1:
        raise ValueError("degenerate series: S2 == S1")
    if a(2) == 0:
        raise ValueError("a(2) = 0: matching rule undefined at index 2")
    x = Fraction(-b(2), 1) / a(2) * ((s2 - s0) / (s2 - s1))
    init = InitialConditions(Mat([[s0, x * s1], [1, x]]).map(Fraction))
    return x, init


def table_style_init(init: InitialConditions, pcf: PCF) -> InitialConditions:
    """Convert an apply-from-index-2 init into the products-from-1 convention.

    The result is integerized with content 1 and its first nonzero entry
    positive, the form initial-condition matrices are usually quoted in.
    """
    cm1 = Mat(
        [
            [Fraction(0), Fraction(pcf.b(1))],
            [Fraction(1), Fraction(pcf.a(1))],
        ]
    )
    det = -Fraction(pcf.b(1))
    if det == 0:
        raise ValueError("b(1) = 0: index-1 companion is singular")
    inv = Mat([[cm1[1, 1], -cm1[0, 1]], [-cm1[1, 0], cm1[0, 0]]]).map(lambda e: e / det)
    ints = primitive_ints(e for row in init.matrix * inv for e in row)
    return InitialConditions(Mat([ints[:2], ints[2:]]).map(Fraction))
