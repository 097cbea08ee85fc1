"""Exact linear algebra for the fitting and guessing steps.

Homogeneous systems are solved over the rationals with fraction-free
(Bareiss-style) elimination on integer-cleared rows, so there are no
numeric false positives.  Because most candidate systems in the degree
searches have no solution at all, cheap modular screens reject them before
any big-integer work: a nontrivial rational nullspace always survives
reduction mod p, so an empty mod-p nullspace is a proof of rational
infeasibility.

This module is also the one home of two decisions other modules share:
``primitive_ints`` (scale a vector to coprime integers, first nonzero entry
positive) normalises nullspace bases and, through ``primitive_mat2``,
Moebius matrices, propagated U(n) and initial conditions;
``residues_mod_p`` is the modular kernel of the recurrence screen in
``guess`` (through ``rank_mod_p``) and of ``rational_fit_screen``, which
settles every (deg P, deg Q) split of a rational fit with one
extended-Euclid pass.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .matrix import Mat
from .poly import _WORD_PRIMES, _poly_rem_mod_p, _scaled_ints

_FILTER_PRIME = _WORD_PRIMES[0]


def primitive_ints(values) -> list[int]:
    """``values`` (ints or Fractions) scaled to coprime integers.

    Denominators are cleared by their lcm, the result is divided by its gcd
    and its first nonzero entry made positive; an all-zero input returns all
    zeros.  This is the normal form of anything known only up to scale.
    """
    ints, _ = _scaled_ints(list(values))
    g = gcd(*ints)
    if g == 0:
        return ints
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]


def primitive_mat2(values) -> Mat:
    """2x2 Fraction matrix of four ``values`` (row by row) in ``primitive_ints`` form."""
    ints = primitive_ints(values)
    return Mat([ints[:2], ints[2:]]).map(Fraction)


def residues_mod_p(values, p: int) -> list[int] | None:
    """``values`` (ints or Fractions) reduced mod p; None if a denominator vanishes."""
    out = []
    for x in values:
        d = x.denominator % p
        if d == 0:
            return None
        out.append(x.numerator % p * pow(d, -1, p) % p)
    return out


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank mod p of an int64 matrix of residues in [0, p), reduced in place.

    p must be below 2^31 so that products of two residues fit in int64.
    """
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        piv = rank + int(nonzero[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
        below = a[rank + 1 :]
        below -= below[:, col, None] * a[rank]
        below %= p
        rank += 1
    return rank


def nullspace_dim_mod_p(rows, p: int = _FILTER_PRIME) -> int:
    """Nullspace dimension of the system reduced mod p (>= rational dimension).

    Rows whose denominators vanish mod p are dropped, which can only enlarge
    the modular nullspace, keeping the filter conservative.
    """
    ncols = len(rows[0])
    red = [r for r in (residues_mod_p(row, p) for row in rows) if r is not None]
    if not red:
        return ncols
    return ncols - rank_mod_p(np.array(red, dtype=np.int64), p)


def _times_x_minus(poly: list[int], a: int, p: int) -> list[int]:
    """poly * (x - a) mod p; coefficients low to high."""
    out = [0] + poly
    for k, c in enumerate(poly):
        out[k] = (out[k] - c * a) % p
    return out


def rational_fit_screen(samples):
    """Predicate ``feasible(dn, dd)``: does P(t) = v Q(t) on every (t, v) in
    ``samples``, deg P <= dn, deg Q <= dd, have a nonzero solution mod
    ``_FILTER_PRIME``?

    It answers ``nullspace_dim_mod_p(rows) > 0`` for the rows
    [1, t, .., t^dn, -v, -v t, .., -v t^dd] of every split at once (Cauchy
    interpolation; von zur Gathen & Gerhard, *Modern Computer Algebra*,
    Lemma 5.15): a sample whose denominator vanishes mod p is dropped as its
    row would be; V interpolates the m remaining points and M = prod (x - t);
    the extended Euclidean algorithm on (M, V) gives remainders r_j with
    cofactor degrees deg t_j = m - deg r_{j-1}.  With more unknowns than rows
    the answer is yes; otherwise it is deg t_j <= dd for the first j with
    deg r_j <= dn.  Indices that coincide mod p make every split feasible,
    which keeps the screen conservative.
    """
    p = _FILTER_PRIME
    pts = []
    for t, v in samples:
        res = residues_mod_p([v], p)
        if res is not None:
            pts.append((t % p, res[0]))
    m = len(pts)
    xs = [t for t, _ in pts]
    if len(set(xs)) < m:
        return lambda dn, dd: True
    # Newton divided differences, then V and M expanded by Horner
    coef = [v for _, v in pts]
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - k], -1, p) % p
    interp, modulus = [], [1]
    for x, c in zip(reversed(xs), reversed(coef)):
        interp = _times_x_minus(interp, x, p)
        interp[0] = (interp[0] + c) % p
        modulus = _times_x_minus(modulus, x, p)
    while interp and interp[-1] == 0:
        interp.pop()
    # (deg r_j, deg t_j) for j = 1 .. l+1, the last remainder being zero
    steps = []
    prev, cur = modulus, interp
    while True:
        steps.append((len(cur) - 1, m - (len(prev) - 1)))
        if not cur:
            break
        prev, cur = cur, _poly_rem_mod_p(prev, cur, p)

    def feasible(dn: int, dd: int) -> bool:
        if dn + dd + 2 > m:
            return True
        return next(dt for dr, dt in steps if dr <= dn) <= dd

    return feasible


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the rational nullspace of a homogeneous system.

    ``rows`` is a sequence of equation coefficient rows (Fractions or ints).
    The basis is in reduced echelon order, each vector scaled to coprime
    integers with its first nonzero entry positive, so results are
    deterministic.
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [primitive_ints(r) for r in rows if any(r)]
    if not mat:
        return [_unit(ncols, j) for j in range(ncols)]

    # fraction-free (Bareiss) echelon form; the uniform update rule keeps all
    # intermediate entries integral
    pivots = []  # (row, col)
    r = 0
    prev_piv = 1
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pr = mat[r]
        pc_val = pr[c]
        for i in range(r + 1, len(mat)):
            ri = mat[i]
            f = ri[c]
            mat[i] = [(pc_val * ri[j] - f * pr[j]) // prev_piv for j in range(ncols)]
        prev_piv = pc_val
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break

    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        # back substitution in echelon order
        for (pr_i, pc) in reversed(pivots):
            row = mat[pr_i]
            s = sum((Fraction(row[j]) * vec[j] for j in range(pc + 1, ncols)), Fraction(0))
            vec[pc] = -s / row[pc]
        basis.append([Fraction(v) for v in primitive_ints(vec)])
    return basis


def _unit(n, j):
    v = [Fraction(0)] * n
    v[j] = Fraction(1)
    return v
