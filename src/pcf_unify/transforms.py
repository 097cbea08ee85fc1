"""Limit-preserving transformations of recurrences and their canonical form.

Fold compresses a recurrence to k steps at a time; inflation rescales a
solution by a running product, trading rational coefficients for polynomial
ones; index shifts reindex.  All three are coboundary operations, so the
canonical form built from them represents the same formula.

The operational canonical form of an order-2 recurrence is computed by

  1. inflating away the coefficient denominators (lcm),
  2. deflating by the largest polynomial d(n) with d | a and d(n) d(n-1) | b,
  3. normalizing the remaining rational content (a / r, b / r^2 with the
     largest admissible r) and flipping a's leading sign positive
     (a constant inflation by -1 leaves b unchanged).

Every step is recorded in a replayable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .matrix import Mat, mat_adjugate_inverse
from .poly import ONE, Poly, format_poly, gcd_many, low_degree_factors
from .ratfunc import RationalFunction as RF, clear_denominators
from .recurrence import PCF, Recurrence


@dataclass
class TransformTrace:
    """Ordered, replayable record of the transforms applied to a recurrence."""

    steps: list = field(default_factory=list)

    def record(self, kind: str, **params):
        self.steps.append({"kind": kind, **params})

    def extend(self, other: "TransformTrace"):
        self.steps.extend(other.steps)

    def to_json(self):
        out = []
        for s in self.steps:
            enc = {}
            for k, v in s.items():
                if isinstance(v, Poly):
                    enc[k] = format_poly(v)
                elif isinstance(v, Fraction):
                    enc[k] = str(v)
                else:
                    enc[k] = v
            out.append(enc)
        return out


def fold(m: Mat, k: int) -> Mat:
    """k-step compression: product of m(kn-k+j) for j = 1..k, symbolically."""
    if k < 1:
        raise ValueError("fold step must be >= 1")
    if k == 1:
        return m
    kn = Poly([-k, k])  # kn - k + j added per factor below
    out = None
    for j in range(1, k + 1):
        factor = m.map(lambda e: _rf_compose(e, kn + j))
        out = factor if out is None else out * factor
    return out


def _rf_compose(e: RF, inner: Poly) -> RF:
    return RF(e.num.compose(inner), e.den.compose(inner))


def inflate(rec: Recurrence, c) -> Recurrence:
    """Rescale u_n by prod c_i: a_i(n) picks up c(n) c(n-1) ... c(n-i+1).

    ``c`` may be a Poly or a RationalFunction (rational c performs deflation);
    the result must have polynomial coefficient numerators over a single
    denominator, which holds for every use in this package.
    """
    c = c if isinstance(c, RF) else RF(c)
    if c.is_zero():
        raise ValueError("inflation factor must be nonzero")
    new_coeffs = []
    running = RF(1)
    for i, a in enumerate(rec.coeffs, start=1):
        running = running * c.shift(-(i - 1))
        new_coeffs.append(RF(a, rec.den) * running)
    polys, den = clear_denominators(new_coeffs)
    return Recurrence(coeffs=polys, den=den)


def inflation_gauge(rec: Recurrence, c: Poly) -> Mat:
    """The diagonal coboundary matrix linking companion(rec) to the inflation.

    Diagonal entries are prod_{i=1}^{m-1-j} c(n-i) for row j (top row has the
    longest product, bottom row 1).
    """
    m = rec.order
    rows = []
    for j in range(m):
        prod = RF(1)
        for i in range(1, m - j):
            prod = prod * RF(c.shift(-i))
        row = [RF(0)] * m
        row[j] = prod
        rows.append(row)
    return Mat(rows)


def index_shift(rec: Recurrence, s: int) -> Recurrence:
    """Evaluate all coefficients at n + s."""
    return Recurrence(
        coeffs=[p.shift(s) for p in rec.coeffs],
        den=rec.den.shift(s),
    )


def pcf_shift(pcf: PCF, s: int) -> PCF:
    return PCF(pcf.a.shift(s), pcf.b.shift(s))


# -- companion reduction (gauge to companion form) ------------------------------


class DegenerateMatrixError(ValueError):
    pass


def companion_reduce(m: Mat) -> tuple[Recurrence, Mat, TransformTrace]:
    """Gauge a 2x2 matrix over Q(n) into companion form.

    Returns (order-2 recurrence with rational-function coefficients expressed
    as c(n) u_n = a(n) u_{n-1} + b(n) u_{n-2}, gauge U, trace), where
    U(n) * m(n) * U(n+1)^{-1} is projectively the recurrence's companion.
    """
    alpha, beta = m[0, 0], m[0, 1]
    gamma, delta = m[1, 0], m[1, 1]
    trace = TransformTrace()
    if not gamma.is_zero():
        u = Mat([[gamma, -alpha], [RF(0), RF(1)]])
        branch = "lower-left nonzero"
    elif not beta.is_zero():
        u = Mat([[RF(1), RF(0)], [alpha.shift(-1), beta.shift(-1)]])
        branch = "lower-left zero"
    else:
        raise DegenerateMatrixError("matrix cannot generate a second-order recurrence")
    trace.record("gauge", branch=branch, u=[[str(e) for e in row] for row in u.rows])

    try:
        adj, _det = mat_adjugate_inverse(u.shift(1))
    except ZeroDivisionError:
        raise DegenerateMatrixError("gauge matrix is singular") from None
    e = u * m * adj  # companion up to the scalar det
    if not e[0, 0].is_zero() or e[1, 0].is_zero():
        raise DegenerateMatrixError("gauge did not reach companion shape")
    (a_num, b_num), den = clear_denominators([e[1, 1] / e[1, 0], e[0, 1] / e[1, 0]])
    return Recurrence(coeffs=[a_num, b_num], den=den), u, trace


# -- canonical form ---------------------------------------------------------------


def _max_deflation(a: Poly, b: Poly):
    """Largest-degree d with d | a and d(n) d(n-1) | b, found iteratively."""
    applied = ONE
    while True:
        g = gcd_many([a, b, b.shift(1)])
        if g.degree < 1:
            break
        candidates = [g]
        factors, rem = low_degree_factors(g)
        blocks = factors + ([rem] if rem.degree >= 1 else [])
        # subsets by decreasing total degree, deterministic order; with many
        # factors fall back to one block at a time (the outer loop peels
        # repeatedly, so multi-factor deflations still complete)
        if 1 < len(blocks) <= 10:
            subsets = []
            for mask in range(1, 1 << len(blocks)):
                prod = ONE
                for i in range(len(blocks)):
                    if mask >> i & 1:
                        prod = prod * blocks[i]
                subsets.append(prod.monic_primitive())
            subsets.sort(key=lambda p: (-p.degree, p.coeffs))
            candidates = subsets
        elif len(blocks) > 10:
            candidates = [g] + sorted(
                (b.monic_primitive() for b in blocks),
                key=lambda p: (-p.degree, p.coeffs),
            )
        chosen = None
        for d in candidates:
            if d.degree < 1:
                continue
            if d.divides(a) and (d * d.shift(-1)).divides(b):
                chosen = d
                break
        if chosen is None:
            break
        a = a // chosen
        b = b // (chosen * chosen.shift(-1))
        applied = applied * chosen
    return a, b, applied


def _content_normalize(a: Poly, b: Poly):
    """Divide (a, b) by (r, r^2) with the largest valid rational r; fix a's sign."""
    ca, cb = a.content(), b.content()
    r = Fraction(1)
    for p in _primes_of(ca) | _primes_of(cb):
        va = _valuation(ca, p)
        vb = _valuation(cb, p)
        e = min(va, vb // 2 if vb >= 0 else -((-vb + 1) // 2))
        if e:
            r *= Fraction(p) ** e
    a = a * (1 / r)
    b = b * (1 / Fraction(r) ** 2)
    sign = 1
    if a.leading() < 0:
        a, sign = -a, -1
    return a, b, r, sign


def _primes_of(x: Fraction) -> set[int]:
    out = set()
    for v in (x.numerator, x.denominator):
        v = abs(v)
        d = 2
        while d * d <= v:
            if v % d == 0:
                out.add(d)
                while v % d == 0:
                    v //= d
            d += 1
        if v > 1:
            out.add(v)
    return out


def _valuation(x: Fraction, p: int) -> int:
    if x == 0:
        return 0
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def to_pcf_canonical(rec: Recurrence | PCF) -> tuple[PCF, TransformTrace]:
    """Canonical polynomial PCF of an order-2 recurrence, with a full trace."""
    if isinstance(rec, PCF):
        rec = rec.to_recurrence()
    if rec.order != 2:
        raise ValueError("canonical PCF form is defined for order-2 recurrences")
    trace = TransformTrace()
    a_rf = RF(rec.coeffs[0], rec.den)
    b_rf = RF(rec.coeffs[1], rec.den)
    if b_rf.is_zero():
        raise ValueError("degenerate recurrence: b identically zero")
    # 1. clear denominators: inflation by c(n) = lcm of the denominators
    (a, b), c = clear_denominators([a_rf, b_rf])
    b = b * c.shift(-1)
    if c.degree > 0 or c[0] != 1:
        trace.record("inflate", c=format_poly(c))
    # 2. maximal polynomial deflation
    a, b, removed = _max_deflation(a, b)
    if removed.degree > 0:
        trace.record("deflate", d=format_poly(removed))
    # 3. rational content and sign normalization
    a, b, r, sign = _content_normalize(a, b)
    if r != 1 or sign < 0:
        trace.record("content", r=str(r * sign))
    return PCF(a, b), trace


def fold_pcf(pcf: PCF, k: int) -> tuple[PCF, TransformTrace]:
    """Canonical PCF of the k-fold compression (k = 1 returns the canonical form)."""
    trace = TransformTrace()
    if k == 1:
        out, t = to_pcf_canonical(pcf)
        trace.extend(t)
        return out, trace
    trace.record("fold", k=k)
    folded = fold(pcf.companion().matrix, k)
    rec, _gauge, t_reduce = companion_reduce(folded)
    trace.extend(t_reduce)
    out, t_canon = to_pcf_canonical(rec)
    trace.extend(t_canon)
    return out, trace
