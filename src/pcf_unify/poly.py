"""Exact univariate polynomials over the rationals.

A polynomial is a dense tuple of Fraction coefficients indexed by power of
the formal variable (conventionally printed as ``n``).  The trailing
(highest-degree) coefficient is always nonzero; the zero polynomial is the
empty tuple and has degree -1.

That representation is what callers see; multiplication, division,
evaluation and the integer-root search run on integer coefficient vectors
with one common denominator (``_scaled_ints``, which ``poly_gcd`` and
``linalg.primitive_ints`` use too) and build one reduced Fraction per result
coefficient, instead of paying a gcd for every Fraction product and sum.
``_poly_rem_mod_p`` is the package's one mod-p polynomial remainder, shared
by the gcd degree check here and ``linalg.rational_fit_screen``.

``fractions.Fraction`` plays the role of the exact rational scalar
throughout the package: it is always reduced and has a positive denominator,
which is exactly the normalization the algorithms rely on.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _reduced(cls, cs: list[Fraction]) -> "Poly":
        """Poly from Fractions (reduced already), top zeros stripped."""
        while cs and not cs[-1]:
            cs.pop()
        p = object.__new__(cls)
        p.coeffs = tuple(cs)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly([_as_fraction(c)])

    @staticmethod
    def var() -> "Poly":
        """The formal variable itself."""
        return Poly([0, 1])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        if not self.coeffs or not other.coeffs:
            return Poly()
        a, da = _scaled_ints(self.coeffs)
        b, db = _scaled_ints(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        d = da * db
        return Poly._reduced([Fraction(c, d) for c in out])

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result, base = Poly.const(1), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        # pseudo-division: the remainder is r / dr, and every step that
        # clears a nonzero top rescales it by the divisor's integer lead
        r, dr = _scaled_ints(self.coeffs)
        b, db = _scaled_ints(other.coeffs)
        lead, low = b[-1], b[:-1]
        quot = [Fraction(0)] * (dq + 1)
        for shift in range(dq, -1, -1):
            top = r.pop()
            if top:
                quot[shift] = Fraction(top * db, dr * lead)
                r = [c * lead for c in r]
                for i, c in enumerate(low):
                    r[shift + i] -= top * c
                dr *= lead
        return Poly._reduced(quot), Poly._reduced([Fraction(c, dr) for c in r])

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True if self divides other exactly (over Q[n])."""
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    # -- evaluation and composition ----------------------------------------

    def __call__(self, x):
        """Horner evaluation; x may be a Fraction/int or another Poly."""
        if isinstance(x, Poly):
            return self.compose(x)
        x = _as_fraction(x)
        if not self.coeffs:
            return Fraction(0)
        a, d = _scaled_ints(self.coeffs)
        v = x.denominator
        return Fraction(_horner(a, x.numerator, v), d * v ** (len(a) - 1))

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def shift(self, s: int) -> "Poly":
        """p(n + s)."""
        if s == 0:
            return self
        return self.compose(Poly([s, 1]))

    # -- normalization helpers ----------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients.

        Content of the zero polynomial is 0.
        """
        if not self.coeffs:
            return Fraction(0)
        a, d = _scaled_ints(self.coeffs)
        return Fraction(_int_gcd(*a), d)

    def primitive(self) -> "Poly":
        """self divided by its content (zero stays zero)."""
        c = self.content()
        if c == 0:
            return self
        return Poly([x / c for x in self.coeffs])

    def monic_primitive(self) -> "Poly":
        """Content-1 form with positive leading coefficient."""
        p = self.primitive()
        if p.leading() < 0:
            p = -p
        return p

    def integer_roots(self, bound: int = 50) -> list[int]:
        """Integer roots with |root| <= bound, in increasing order.

        A nonzero integer root divides the lowest nonzero coefficient of the
        integer multiple (rational root theorem), so only such candidates
        are evaluated.
        """
        if self.is_zero():
            return []
        a, _ = _scaled_ints(self.coeffs)
        k = next(i for i, c in enumerate(a) if c)
        a = a[k:]
        roots = []
        for r in range(-bound, bound + 1):
            if r == 0:
                if k:
                    roots.append(0)
            elif a[0] % r == 0 and _horner(a, r, 1) == 0:
                roots.append(r)
        return roots

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _scaled_ints(coeffs) -> tuple[list[int], int]:
    """(ints, d) with coeffs[i] == ints[i] / d, d the lcm of the denominators."""
    dens = [c.denominator for c in coeffs]
    d = lcm(*dens)
    return [c.numerator * (d // e) for c, e in zip(coeffs, dens)], d


def _horner(a: list[int], u: int, v: int) -> int:
    """v^deg * a(u / v) for a nonempty integer vector a, low to high."""
    acc, w = a[-1], 1
    for c in reversed(a[:-1]):
        w *= v
        acc = acc * u + c * w
    return acc


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")


ZERO = Poly()
ONE = Poly.const(1)
N = Poly.var()


def format_poly(p: Poly, var: str = "n") -> str:
    """Render in the package's expression grammar (parse round-trips)."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if i == 0:
            body = str(c)
        else:
            head = var if i == 1 else f"{var}^{i}"
            body = head if c == 1 else f"{c}*{head}"
        parts.append((sign, body))
    sign, body = parts[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# Primes below 2^31 (products of two residues fit in int64), shared by every
# modular check in the package.
_WORD_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)


def _poly_rem_mod_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b mod p, trimmed; b trimmed and nonzero."""
    a = a[:]
    inv = pow(b[-1], -1, p)
    for shift in range(len(a) - len(b), -1, -1):
        c = a.pop() * inv % p
        for k, bk in enumerate(b[:-1]):
            a[shift + k] = (a[shift + k] - c * bk) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_degree_mod_p(a: list[int], b: list[int], prime: int) -> int | None:
    """Degree of gcd(a, b) mod prime; None if the reduction degenerates.

    For primes not dividing either leading coefficient this upper-bounds the
    rational gcd degree, so degree 0 proves coprimality.
    """
    am = [c % prime for c in a]
    bm = [c % prime for c in b]
    while am and am[-1] == 0:
        am.pop()
    while bm and bm[-1] == 0:
        bm.pop()
    if len(am) != len(a) or len(bm) != len(b):
        return None  # leading coefficient vanished: bad prime
    while bm:
        am, bm = bm, _poly_rem_mod_p(am, bm, prime)
    return len(am) - 1


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Content-normalized gcd with positive leading coefficient.

    gcd(p, 0) is the normalized p; gcd(0, 0) is 0.  A modular degree check
    short-circuits the (typical) coprime case; the exact computation is a
    primitive pseudo-remainder cascade over the integers.
    """
    if p.is_zero():
        return q.monic_primitive() if not q.is_zero() else ZERO
    if q.is_zero():
        return p.monic_primitive()
    if p.degree == 0 or q.degree == 0:
        return ONE
    a, _ = _scaled_ints(p.coeffs)
    b, _ = _scaled_ints(q.coeffs)
    for prime in _WORD_PRIMES:
        deg = _gcd_degree_mod_p(a, b, prime)
        if deg == 0:
            return ONE
        if deg is not None:
            break
    # integer primitive-PRS Euclid
    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    def primitive(v):
        g = 0
        for c in v:
            g = _int_gcd(g, c)
        return [c // g for c in v] if g > 1 else v

    a, b = primitive(a[:]), primitive(b[:])
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _pseudo_rem(a, b)
        b = primitive(strip(b))
    return Poly([Fraction(c) for c in a]).monic_primitive()


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Integer pseudo-remainder of a by b (lc(b)-scaled long division)."""
    r = a[:]
    db = len(b) - 1
    lcb = b[-1]
    while len(r) - 1 >= db and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - 1 - db
        top = r[-1]
        r = [c * lcb for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_lcm(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return ZERO
    g = poly_gcd(p, q)
    return (p * q // g).monic_primitive()


def gcd_many(polys) -> Poly:
    out = ZERO
    for p in polys:
        out = poly_gcd(out, p)
        if out.degree == 0:
            break
    return out


def low_degree_factors(p: Poly, root_bound: int = 50):
    """Split p into linear factors from an integer-root scan plus a remainder.

    Returns (factors, remainder) with p proportional to remainder * prod(factors).
    Used by the deflation search; full factorization is deliberately out of
    scope, so the remainder may stay composite.
    """
    rem = p.monic_primitive()
    factors = []
    if rem.is_zero():
        return factors, rem
    # strip powers of n first (root 0)
    while rem.degree >= 1 and rem[0] == 0:
        rem = Poly(rem.coeffs[1:])
        factors.append(Poly([0, 1]))
    for r in rem.integer_roots(root_bound):
        lin = Poly([-r, 1])
        while rem.degree >= 1 and rem(r) == 0:
            rem = (rem // lin).monic_primitive()
            factors.append(lin)
    return factors, rem.monic_primitive()
