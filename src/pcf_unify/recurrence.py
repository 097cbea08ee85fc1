"""Polynomial recurrences, continued fractions, and exact convergent evaluation.

Conventions (fixed package-wide, validated against the worked fixtures):

* The companion matrix of ``u_n = a_1(n) u_{n-1} + ... + a_m(n) u_{n-m}`` has
  subdiagonal ones and the coefficients up the last column, highest lag first.
* Step products run over ``n = 1 .. N``.  For a PCF the Moebius action of the
  product on 0 gives the classical convergent ``p_N/q_N`` of
  ``b(1)/(a(1) + b(2)/(...))`` -- the leading ``a(0)`` term of the written
  continued fraction is *not* included.  ``cf_value`` adds it back.
* Initial-condition matrices multiply the step product on the left.  A
  depth-0 convergent is ``init`` applied to 0.

Every exact product of companion factors comes from one engine here:
``_factors`` clears the companion's denominators once (numerators scaled by
one lcm, denominators kept as integer polynomials) and evaluates each factor
by integer Horner.  ``step_product`` multiplies the factors by binary
splitting, ``convergent_pairs`` runs them as a sequential product, and
``_products_at_depths`` extends one product across the depths that the
limit, the metrics and ``convergent`` read.  Only a companion with rational
entries can raise ``PoleError``; a PCF's companion never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod

import mpmath as mp

from .matrix import Mat, identity
from .poly import ONE, Poly, format_poly
from .ratfunc import RationalFunction

INF = object()  # projective infinity marker for Moebius arithmetic


class PoleError(ArithmeticError):
    def __init__(self, index: int):
        super().__init__(f"companion matrix has a pole at integer index {index}")
        self.index = index


@dataclass(frozen=True)
class PCF:
    """Polynomial continued fraction PCF(a(n), b(n))."""

    a: Poly
    b: Poly

    def __post_init__(self):
        if self.b.is_zero():
            raise ValueError("PCF partial numerator b(n) must not be identically zero")

    def __str__(self) -> str:
        return f"PCF({format_poly(self.a)}; {format_poly(self.b)})"

    def companion(self) -> "CompanionMatrix":
        return companion(self.to_recurrence())

    def to_recurrence(self) -> "Recurrence":
        return Recurrence(coeffs=[self.a, self.b])

    def first_valid_index(self) -> int:
        """Smallest s >= 1 with b(n) != 0 for all n >= s.

        A root k of b is a singular factor (zero determinant), not a pole:
        the product stays exact, but the fraction is cut off at k, so
        evaluation starts after the last root.
        """
        roots = [r for r in self.b.integer_roots() if r >= 1]
        return max(roots) + 1 if roots else 1


@dataclass(frozen=True)
class Recurrence:
    """Order-m linear recurrence c(n) u_n = sum_i a_i(n) u_{n-i}.

    ``coeffs[i-1]`` is the polynomial on u_{n-i}; ``den`` is c(n) and defaults
    to 1 (the purely polynomial form).
    """

    coeffs: tuple[Poly, ...]
    den: Poly = ONE

    def __init__(self, coeffs, den=ONE):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1].is_zero():
            raise ValueError("highest-lag coefficient must be nonzero (true order)")
        if den.is_zero():
            raise ValueError("recurrence denominator must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0 and self.den[0] == 1


@dataclass(frozen=True)
class CompanionMatrix:
    matrix: Mat

    @property
    def order(self) -> int:
        return self.matrix.nrows

    def __getitem__(self, ij):
        return self.matrix[ij]


def companion(rec: Recurrence) -> CompanionMatrix:
    """Companion matrix with subdiagonal ones and coefficients up the last column."""
    if not rec.is_polynomial():
        raise ValueError("inflate the recurrence to polynomial form before companion()")
    m = rec.order
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            if j == m - 1:
                row.append(RationalFunction(rec.coeffs[m - 1 - i]))
            elif j == i - 1:
                row.append(RationalFunction(1))
            else:
                row.append(RationalFunction(0))
        rows.append(row)
    return CompanionMatrix(Mat(rows))


@dataclass(frozen=True)
class StepMatrix:
    """Exact product of companion (or general step) matrices over an index range."""

    matrix: Mat  # entries are Fractions
    from_index: int
    to_index: int


@dataclass(frozen=True)
class InitialConditions:
    matrix: Mat  # m x m Fractions, applied on the left of the step product

    def __post_init__(self):
        if all(e == 0 for row in self.matrix for e in row):
            raise ValueError("initial-condition matrix must be nonzero")

    @staticmethod
    def eye(m: int = 2) -> "InitialConditions":
        return InitialConditions(identity(m))


@dataclass
class ApproxValue:
    """High-precision evaluation of a limit with a heuristic error bound."""

    value: mp.mpf
    precision_digits: int
    error_bound: mp.mpf
    converged: bool = True

    def good_digits(self) -> int:
        if self.error_bound == 0:
            return self.precision_digits
        return max(0, int(-mp.log10(abs(self.error_bound))))


# -- the exact product engine ---------------------------------------------------


def _horner(coeffs, n: int) -> int:
    acc = 0
    for c in coeffs:
        acc = acc * n + c
    return acc


def _factors(cm: CompanionMatrix, lo: int, hi: int):
    """Yield (integer matrix, integer den) with cm(n) = matrix / den, n = lo..hi.

    The denominators are cleared once per call: entry (i, j) at n is
    ``nums[i][j](n) / (scale * dens[i][j](n))`` with integer coefficient
    lists (highest power first), so a factor costs integer Horner steps
    only; a polynomial companion (every denominator 1) skips ``dens``.
    """
    rows = cm.matrix.rows
    scale = lcm(*(c.denominator for row in rows for e in row for c in e.num.coeffs))
    nums = [
        [[c.numerator * (scale // c.denominator) for c in reversed(e.num.coeffs)] for e in row]
        for row in rows
    ]
    dens = [[[int(c) for c in reversed(e.den.coeffs)] for e in row] for row in rows]
    polynomial = all(e.is_polynomial() for row in rows for e in row)
    for n in range(lo, hi + 1):
        ints = [[_horner(p, n) for p in row] for row in nums]
        if polynomial:
            yield ints, scale
            continue
        ds = [[_horner(q, n) for q in row] for row in dens]
        if any(d == 0 for row in ds for d in row):
            raise PoleError(n)
        common = lcm(*(d for row in ds for d in row))
        yield (
            [[v * (common // d) for v, d in zip(vr, dr)] for vr, dr in zip(ints, ds)],
            scale * common,
        )


def _imat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def _split_product(factors, lo, hi):
    """Balanced product of integer matrices factors[lo..hi] (inclusive)."""
    if lo == hi:
        return factors[lo]
    mid = (lo + hi) // 2
    return _imat_mul(
        _split_product(factors, lo, mid), _split_product(factors, mid + 1, hi)
    )


def step_product(cm: CompanionMatrix, lo: int, hi: int) -> StepMatrix:
    """Exact product of cm(n) for n = lo..hi; empty range (lo > hi) gives I."""
    if lo > hi:
        return StepMatrix(identity(cm.order), lo, hi)
    ints, dens = zip(*_factors(cm, lo, hi))
    top = _split_product(ints, 0, len(ints) - 1)
    den = prod(dens)
    frac = Mat([[Fraction(v, den) for v in row] for row in top])
    return StepMatrix(frac, lo, hi)


def _products_at_depths(pcf: PCF, init: InitialConditions | None, start: int, depths):
    """``init * step_product(start .. start + d - 1)`` for each increasing depth d.

    Each product extends the one before it, so every factor is taken once.
    """
    cm = pcf.companion()
    m = init.matrix if init is not None else identity(2)
    out, done = [], 0
    for d in depths:
        m = m * step_product(cm, start + done, start + d - 1).matrix
        out.append(m)
        done = d
    return out


def convergent_pairs(
    pcf: PCF, depth: int, init: InitialConditions | None = None, start: int = 1
) -> list:
    """(numerator, denominator) integer pairs of the convergents, unreduced.

    Skipping the gcd reduction matters when thousands of large convergents
    feed a float conversion (extrapolation); the ratios are the
    convergents, and for an integer PCF with an integer ``init`` the pairs
    are the last column of the exact product itself.
    """
    base = init.matrix if init is not None else identity(2)
    den = lcm(*(f.denominator for row in base.rows for f in row))
    ints = [[f.numerator * (den // f.denominator) for f in row] for row in base.rows]
    out = []
    for fac, _ in _factors(pcf.companion(), start, start + depth - 1):
        ints = _imat_mul(ints, fac)
        out.append((ints[-2][-1], ints[-1][-1]))
    return out


def convergent_sequence(
    pcf: PCF, depth: int, init: InitialConditions | None = None, start: int = 1
) -> list:
    """Exact convergents at depths 1..depth (Fraction or INF per entry)."""
    return [Fraction(p, q) if q else INF for p, q in convergent_pairs(pcf, depth, init, start)]


def mobius_apply(m: Mat, x):
    """(a x + b) / (c x + d) with the projective conventions M(inf) = a/c."""
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    if x is INF:
        if c == 0:
            return INF
        return Fraction(a) / Fraction(c)
    if isinstance(x, mp.mpf):
        den = c * x + d
        if den == 0:
            return INF
        return (a * x + b) / den
    x = Fraction(x)
    den = Fraction(c) * x + Fraction(d)
    if den == 0:
        return INF
    return (Fraction(a) * x + Fraction(b)) / den


def convergent(pcf: PCF, depth: int, init: InitialConditions | None = None, start: int = 1):
    """p_N/q_N of the continued fraction (init applied on the left).

    Depth 0 returns init applied to 0.  Raises ZeroDivisionError when the
    denominator vanishes at this exact depth.
    """
    (m,) = _products_at_depths(pcf, init, start, [depth])
    v = mobius_apply(m, Fraction(0))
    if v is INF:
        raise ZeroDivisionError(f"zero denominator at depth {depth}")
    return v


def parse_pcf(text: str) -> PCF:
    """Parse the text form ``PCF(a-poly; b-poly)``."""
    from .parsing import parse_poly

    s = text.strip()
    if not (s.startswith("PCF(") and s.endswith(")")):
        raise ValueError(f"expected PCF(a; b), got {text!r}")
    body = s[4:-1]
    if ";" not in body:
        raise ValueError("expected ';' separating the two polynomials")
    a_txt, b_txt = body.split(";", 1)
    return PCF(parse_poly(a_txt), parse_poly(b_txt))


# -- limit evaluation -----------------------------------------------------------


def _to_mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


class _Surd:
    """Exact p + q*sqrt(D) with rational p, q; D = 0 for plain rationals."""

    __slots__ = ("p", "q", "D")

    def __init__(self, p, q=0, D=0):
        self.p, self.q, self.D = p, q, D

    def __add__(self, o):
        if not isinstance(o, _Surd):
            return _Surd(self.p + o, self.q, self.D)
        return _Surd(self.p + o.p, self.q + o.q, self.D or o.D)

    __radd__ = __add__

    def __neg__(self):
        return _Surd(-self.p, -self.q, self.D)

    def __mul__(self, o):
        if not isinstance(o, _Surd):
            return _Surd(self.p * o, self.q * o, self.D)
        D = self.D or o.D
        if not D:
            return _Surd(self.p * o.p)
        return _Surd(self.p * o.p + self.q * o.q * D, self.p * o.q + self.q * o.p, D)

    def __truediv__(self, o):
        norm = o.p * o.p - o.q * o.q * o.D
        return self * _Surd(o.p / norm, -o.q / norm, o.D)

    def to_mpf(self) -> mp.mpf:
        v = _to_mpf(self.p)
        return v + _to_mpf(self.q) * mp.sqrt(_to_mpf(self.D)) if self.q else v


def _rational_sqrt(x: Fraction) -> Fraction | None:
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num == x.numerator and den * den == x.denominator:
        return Fraction(num, den)
    return None


def _is_balanced(pcf: PCF) -> bool:
    """deg b = 2 deg a and lead(a)^2 + 4 lead(b) = 0."""
    d = pcf.a.degree
    return (
        d >= 0
        and pcf.b.degree == 2 * d
        and pcf.a.leading() ** 2 + 4 * pcf.b.leading() == 0
    )


TAIL_POWERS = 80  # cap on the powers of n a balanced tail series runs to


def _balanced_tail_series(pcf: PCF):
    """Asymptotic series of the tail of a balanced PCF, or None.

    The tail t_n = b(n+1)/(a(n+1) + b(n+2)/(...)) solves
    t_n (a(n+1) + t_{n+1}) = b(n+1).  For a balanced PCF (deg a = d) both
    formal solutions start with c_0 n^d, c_0 = -lead(a)/2, and the expansion
    t_n ~ n^d sum_k c_k n^(-k/r) is found order by order:

    * r = 1 when the order-1 equation holds identically; c_1 is then a root
      of c^2 + B c + C = 0, rational (the catalan pair), irrational or double;
    * r = 2 otherwise, with c_1^2 = -C (tails in powers of n^(-1/2));
    * the tail is the minimal solution (Pincherle), whose root c_1 has the
      smaller c_1/c_0; every later c_k is linear in the earlier ones, with a
      coefficient that never vanishes on that branch.

    Returns (r, iterator over c_0, c_1, ... as exact _Surds, up to
    TAIL_POWERS powers of n), or None for a negative discriminant: two
    solutions of equal size, no minimal one, so the fraction diverges.
    """
    a, b = pcf.a, pcf.b
    d = a.degree
    c0 = _Surd(-a.leading() / 2)
    a1, b1 = a.shift(1), b.shift(1)
    for r in (1, 2):
        size = TAIL_POWERS * r + 2
        # a(n+1)/n^d and b(n+1)/n^(2d) in powers of y = n^(-1/r)
        av = [Fraction(0)] * size
        bv = [Fraction(0)] * size
        for k in range(2 * d + 1):
            if r * k < size:
                bv[r * k] = b1[2 * d - k]
                if k <= d:
                    av[r * k] = a1[d - k]
        coeffs = []
        shifted = [_Surd(0)] * size  # t_{n+1}/n^d from the coefficients so far

        def push(c, k):
            coeffs.append(c)
            u = Fraction(d) - Fraction(k, r)
            w, j = Fraction(1), 0
            for idx in range(k, size, r):  # c_k y^k (1 + y^r)^(d - k/r)
                shifted[idx] = shifted[idx] + c * w
                w = w * (u - j) / (j + 1)
                j += 1
            return c

        def residual(m):  # order-y^m coefficient of t_n (a(n+1) + t_{n+1}) - b(n+1)
            out = _Surd(-bv[m])
            for i in range(min(m + 1, len(coeffs))):
                out = out + coeffs[i] * (shifted[m - i] + av[m - i])
            return out

        push(c0, 0)
        if r == 1 and residual(1).p != 0:
            continue
        # c_1^2 + B c_1 + C = 0 at order 2, with C read off at c_1 = 0
        B = av[1] + (c0.p * (2 * d - 1) if r == 1 else 0)
        disc = B * B - 4 * residual(2).p
        if disc < 0:
            return None
        root = _rational_sqrt(disc)
        root = _Surd(root) if root is not None else _Surd(0, 1, disc)
        c1 = push((root * (1 if c0.p < 0 else -1) + -B) * Fraction(1, 2), 1)

        def later():
            yield c0
            yield c1
            lam = c1 * 2 + B  # the coefficient of c_k in the order-(k+1) equation
            for k in range(2, size - 2):
                if r == 1:
                    lam = lam + -c0
                yield push(-residual(k + 1) / lam, k)

        return r, later()
    return None


def _tail_at(r: int, d: int, coeffs, n: int) -> mp.mpf:
    """n^d sum_k coeffs[k] n^(-k/r), by Horner in n^(-1/r)."""
    y = mp.mpf(n) ** (-mp.mpf(1) / r)
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc * mp.mpf(n) ** d


def _balanced_limit(pcf, r, series, m_half, n_half, m_full, n_full,
                    precision_digits, workdps):
    """Tail-modified approximants S_N(t_N) of a balanced PCF, or None.

    ``series`` yields the tail coefficients and ``m_half``/``m_full`` are
    the exact products through indices ``n_half``/``n_full``; the tail
    series stands in for the rest of the fraction (a Bauer-Muir-style
    modification).  Terms are taken until two in a row, scaled by the
    sensitivity |dS/dw| = |det M| / (c w + d)^2 at n_half, fall below the
    working precision.  The error bound is the larger disagreement of the
    value against the half-depth value and against the series one power of
    n shorter.
    """
    d = pcf.a.degree
    with mp.workdps(workdps):
        coeffs = [next(series).to_mpf() for _ in range(2)]
        (a, b), (c, e) = ([_to_mpf(x) for x in row] for row in m_half.rows)
        den = c * _tail_at(r, d, coeffs, n_half) + e
        slope = abs((a * e - b * c) / den**2) if den else mp.mpf(0)
        y = mp.mpf(max(n_half, 2)) ** (-mp.mpf(1) / r)
        scale = slope * mp.mpf(n_half) ** d * y**2  # of the c_2 term, per unit c_2
        eps = mp.mpf(10) ** -workdps
        small = 0
        for c_k in series:  # the c_k can grow factorially, so watch the terms
            coeffs.append(c_k.to_mpf())
            small = small + 1 if scale * abs(coeffs[-1]) < eps else 0
            if small == 2:
                break
            scale *= y
        value = mobius_apply(m_full, _tail_at(r, d, coeffs, n_full))
        half = mobius_apply(m_half, _tail_at(r, d, coeffs, n_half))
        shorter = mobius_apply(m_full, _tail_at(r, d, coeffs[:-r], n_full))
        if INF in (value, half, shorter):
            return None
        bound = max(abs(value - half), abs(value - shorter), _rounding(value, workdps))
        return ApproxValue(+value, precision_digits, +bound, converged=True)


def _rounding(value, workdps):
    """Error floor of a value rounded to ``workdps`` digits.

    It leaves 10 digits of slack: S_N(w) cancels about log10(N) digits.
    """
    return mp.mpf(10) ** (10 - workdps) * max(1, abs(value))


def _richardson_parity(pairs, dps):
    """Richardson-extrapolate even/odd subsequences; their gap is the error bound.

    ``pairs`` holds unreduced (numerator, denominator) convergents.
    """
    with mp.workdps(dps):
        vals = [mp.mpf(p) / mp.mpf(q) for p, q in pairs if q]
        v1, _ = mp.richardson(vals[0::2])
        v2, _ = mp.richardson(vals[1::2])
        return (v1 + v2) / 2, abs(v1 - v2)


def evaluate_limit(
    pcf: PCF,
    init: InitialConditions | None = None,
    depth: int = 4000,
    precision_digits: int = 250,
    accelerate: bool | None = None,
) -> ApproxValue:
    """Limit of the convergents, as a high-precision float with an error bound.

    The convergents are computed exactly and rounded once.  The error bound is
    the heuristic inter-depth difference |x_depth - x_{depth/2}|.  When that
    bound cannot reach the requested precision and ``accelerate`` is not
    disabled, two accelerations are tried:

    * balanced fractions (lead(a)^2 + 4 lead(b) = 0) with a minimal solution
      replace the rest of the fraction by the asymptotic series of its tail
      (``_balanced_tail_series``) and return S_depth(t_depth), bounded by its
      disagreement with the half-depth value and with a series one power of
      n shorter; at depth 4000 this holds well over 100 digits;
    * otherwise (polynomially converging fractions) Richardson extrapolation
      of the even/odd convergent subsequences, bounded by the larger of their
      gap and the drift between doubling passes.

    Whichever bound is smaller than the raw one wins.  The bounds are
    heuristic, like the raw one, and ``precision_digits`` is the working
    target, not a promise: the bound says what the value holds.  No bound is
    below the rounding of the value, 10^-(precision_digits + 5) max(1, |value|).
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    lim = _evaluate_limit_from(
        pcf, init, depth, precision_digits, accelerate, pcf.first_valid_index()
    )
    # no bound may claim more digits than the rounded value carries
    workdps = precision_digits + 15
    with mp.workdps(workdps):
        lim.error_bound = max(lim.error_bound, _rounding(lim.value, workdps))
    return lim


def _evaluate_limit_from(pcf, init, depth, precision_digits, accelerate, start):
    m_quarter, m_half, m_full = _products_at_depths(
        pcf, init, start, [depth // 4, depth // 2, depth]
    )
    x_quarter = mobius_apply(m_quarter, Fraction(0))
    x_half = mobius_apply(m_half, Fraction(0))
    x_full = mobius_apply(m_full, Fraction(0))
    if INF in (x_quarter, x_half, x_full):
        raise ZeroDivisionError("zero denominator while evaluating the limit")

    workdps = precision_digits + 15
    with mp.workdps(workdps):
        raw_bound = abs(_to_mpf(x_full - x_half))
        prev_gap = abs(_to_mpf(x_half - x_quarter))
        raw_value = _to_mpf(x_full)
    target = mp.mpf(10) ** (-precision_digits)
    converged = raw_bound <= prev_gap or raw_bound < target
    raw = ApproxValue(raw_value, precision_digits, raw_bound, converged=converged)

    if accelerate is False or (accelerate is None and raw_bound < target):
        return raw
    if not converged:
        return raw  # diverging: acceleration would only hide it
    if _is_balanced(pcf):
        tail_series = _balanced_tail_series(pcf)
        if tail_series is None:
            raw.converged = False  # no minimal solution (Pincherle): no limit
            return raw
        tail = _balanced_limit(
            pcf, *tail_series, m_half, start + depth // 2 - 1, m_full,
            start + depth - 1, precision_digits, workdps,
        )
        if tail is not None and tail.error_bound < raw_bound:
            return tail
    # geometric convergence: the exact convergent is already the best value;
    # extrapolation only pays off below the paper's slow-convergence threshold
    if accelerate is None and raw_bound > 0:
        est_rate = float(-mp.log(raw_bound) / depth)
        if est_rate >= 0.05:
            return raw

    # polynomial-convergence path: parity-split Richardson on exact convergents.
    # For clean 1/n asymptotics a few hundred terms give hundreds of digits.
    # Log terms or fractional powers in the error (the balanced regime, whose
    # tails the path above handles) stall it at a few digits per doubling and
    # make the parity gap optimistic; the drift between passes then is the
    # honest scale, and no pass after a stall may claim less.
    nterms = min(max(2 * int(precision_digits / 0.6) + 40, 80), 1400)
    prev_value = None
    while True:
        pairs = convergent_pairs(pcf, nterms, init, start)
        value, bound = _richardson_parity(pairs, precision_digits + nterms)
        stalled = False
        with mp.workdps(workdps):
            value = +value
            bound = +bound
            if prev_value is not None:
                drift = abs(value - prev_value)
                stalled = bound < drift
                bound = max(bound, drift)
        if bound < target or bound < mp.mpf(10) ** -120 or nterms >= 4200 or stalled:
            break
        prev_value = value
        nterms *= 2
    if bound < raw_bound:
        return ApproxValue(value, precision_digits, bound, converged=True)
    return raw
