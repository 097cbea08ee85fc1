"""Rational functions in one variable, kept in a canonical reduced form.

The normalization makes structural equality coincide with mathematical
equality: numerator and denominator are coprime, the denominator has
coprime integer coefficients (content 1) and a positive leading
coefficient.  All rational content therefore lives in the numerator,
e.g. (2n)/4 reduces to (n/2)/1 and (-n)/(-n^2) to 1/n.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ONE, Poly, _coerce as _coerce_poly, format_poly, poly_gcd, poly_lcm


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE, _normalized=False):
        num, den = _coerce_poly(num), _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if not _normalized:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num  # a constant reduced denominator is 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, _normalized=True)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return _coerce(other) - self

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return (ONE_RF / self) ** (-k)
        return RationalFunction(self.num**k, self.den**k)

    # -- evaluation --------------------------------------------------------------

    def __call__(self, x: Fraction | int) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole of {self} at {x}")
        return self.num(x) / d

    def has_pole_at(self, x) -> bool:
        return self.den(x) == 0

    def shift(self, s: int) -> "RationalFunction":
        return RationalFunction(self.num.shift(s), self.den.shift(s))

    def __str__(self) -> str:
        if self.den == ONE:
            return format_poly(self.num)
        num = format_poly(self.num)
        den = format_poly(self.den)
        return f"({num}) / ({den})"

    def __repr__(self) -> str:
        return f"RF({self})"


def _reduce(num: Poly, den: Poly):
    if num.is_zero():
        return num, ONE
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num, den = num // g, den // g
    # all content moves to the numerator; denominator gets content 1 and a
    # positive leading coefficient
    unit = den.monic_primitive()
    c = den.leading() / unit.leading()
    if c != 1:
        num = Poly._reduced([x / c for x in num.coeffs])
    return num, unit


def _coerce(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RationalFunction(x)
    raise TypeError(f"cannot coerce {x!r} to RationalFunction")


def clear_denominators(entries) -> tuple[list[Poly], Poly]:
    """(polys, den) with every entry equal to its poly / den, where den is the
    lcm of the entries' denominators (content 1, positive leading coefficient)."""
    entries = [_coerce(e) for e in entries]
    den = ONE
    for e in entries:
        den = poly_lcm(den, e.den)
    return [e.num * (den // e.den) for e in entries], den


def rf_reduce(num, den) -> RationalFunction:
    """Reduced, sign/content-normalized rational function num/den."""
    return RationalFunction(num, den)


ONE_RF = RationalFunction(ONE)
