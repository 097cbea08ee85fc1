"""Multivariate polynomials and rational functions over the rationals.

These back the matrix-field entries (small expressions in x, y, z), so the
representation favors simplicity: a sparse dict from exponent tuples to
Fraction coefficients, with a fixed tuple of variable names.

Full multivariate gcd is deliberately not implemented.  Reduction is
best-effort (content, common monomials, and exact division when one side
divides the other); equality of fractions is decided by cross-multiplication,
which never needs the reduced form.

``integer_split`` and ``restrict_to_line`` take rational functions on a line
without Fraction arithmetic: both ``MRat.substitute_affine`` and the matrix
field walk run on them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm, prod

from .poly import Poly, _int_add, _int_mul
from .ratfunc import RationalFunction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class MPoly:
    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        clean = {}
        for expo, c in (terms or {}).items():
            c = _as_fraction(c)
            if c != 0:
                clean[tuple(expo)] = c
        self.terms = clean

    @staticmethod
    def const(names, c) -> "MPoly":
        names = tuple(names)
        return MPoly(names, {(0,) * len(names): _as_fraction(c)})

    @staticmethod
    def var(names, name) -> "MPoly":
        names = tuple(names)
        expo = [0] * len(names)
        expo[names.index(name)] = 1
        return MPoly(names, {tuple(expo): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.names, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    def _check(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.names, other)
        if other.names != self.names:
            raise ValueError("variable mismatch between multivariate polynomials")
        return other

    def __add__(self, other) -> "MPoly":
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.names, out)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other) -> "MPoly":
        other = self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.names, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative power of a multivariate polynomial")
        result = MPoly.const(self.names, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def content(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        num, den = 0, 1
        for c in self.terms.values():
            num = _int_gcd(num, c.numerator)
            den = den * c.denominator // _int_gcd(den, c.denominator)
        return Fraction(num, den)

    def common_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * len(self.names)
        mins = None
        for e in self.terms:
            mins = e if mins is None else tuple(map(min, mins, e))
        return mins

    def divide_monomial(self, mono) -> "MPoly":
        return MPoly(
            self.names,
            {tuple(a - b for a, b in zip(e, mono)): c for e, c in self.terms.items()},
        )

    def try_divide(self, other: "MPoly"):
        """Exact multivariate division self/other, or None if not divisible."""
        other = self._check(other)
        if other.is_zero():
            return None
        rem = self
        quot = MPoly(self.names, {})
        lead_e, lead_c = max(other.terms.items(), key=lambda t: t[0])
        guard = len(self.terms) * (len(other.terms) + 2) + 10
        while not rem.is_zero():
            guard -= 1
            if guard < 0:
                return None
            re, rc = max(rem.terms.items(), key=lambda t: t[0])
            qe = tuple(a - b for a, b in zip(re, lead_e))
            if any(e < 0 for e in qe):
                return None
            qt = MPoly(self.names, {qe: rc / lead_c})
            quot = quot + qt
            rem = rem - qt * other
        return quot

    def subst(self, mapping: dict[str, "MPoly"]) -> "MPoly":
        """Substitute variables by multivariate polynomials (missing vars stay)."""
        names = self.names
        images = [
            mapping.get(name, MPoly.var(names, name)) for name in names
        ]
        out = MPoly(names, {})
        for e, c in self.terms.items():
            term = MPoly.const(names, c)
            for img, k in zip(images, e):
                if k:
                    term = term * img**k
            out = out + term
        return out

    def eval(self, point: dict[str, Fraction]) -> Fraction:
        out = Fraction(0)
        vals = [_as_fraction(point[name]) for name in self.names]
        for e, c in self.terms.items():
            v = c
            for x, k in zip(vals, e):
                if k:
                    v *= x**k
            out += v
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MPoly({self})"


class MRat:
    """Quotient of multivariate polynomials, reduced on a best-effort basis."""

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly | None = None):
        if den is None:
            den = MPoly.const(num.names, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in multivariate rational function")
        self.num, self.den = _mreduce(num, den)

    @staticmethod
    def const(names, c) -> "MRat":
        return MRat(MPoly.const(names, c))

    @staticmethod
    def var(names, name) -> "MRat":
        return MRat(MPoly.var(names, name))

    @property
    def names(self):
        return self.num.names

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, MPoly)):
            other = MRat(other if isinstance(other, MPoly) else MPoly.const(self.names, other))
        if not isinstance(other, MRat):
            return NotImplemented
        # cross-multiplication: exact regardless of reduction state
        return (self.num * other.den) == (other.num * self.den)

    def __add__(self, other) -> "MRat":
        other = self._coerce(other)
        return MRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "MRat":
        return MRat(-self.num, self.den)

    def __sub__(self, other) -> "MRat":
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other) -> "MRat":
        other = self._coerce(other)
        return MRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "MRat":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero multivariate rational function")
        return MRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "MRat":
        if k < 0:
            return MRat(self.den, self.num) ** (-k)
        return MRat(self.num**k, self.den**k)

    def _coerce(self, other) -> "MRat":
        if isinstance(other, MRat):
            if other.names != self.names:
                raise ValueError("variable mismatch")
            return other
        if isinstance(other, MPoly):
            return MRat(other)
        if isinstance(other, (int, Fraction)):
            return MRat.const(self.names, other)
        raise TypeError(f"cannot coerce {other!r}")

    def subst(self, mapping: dict[str, MPoly]) -> "MRat":
        return MRat(self.num.subst(mapping), self.den.subst(mapping))

    def eval(self, point: dict[str, Fraction]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num.eval(point) / d

    def substitute_affine(self, point, direction) -> RationalFunction:
        """Restrict to the line t -> point + (t-1)*direction, as a function of t.

        ``point`` is a vector of rationals, ``direction`` a vector of integers,
        both in variable order.
        """
        [num], den = integer_split([self])
        num, den = restrict_to_line([num, den], point, direction)
        if not den:
            raise ZeroDivisionError(
                "denominator vanishes identically along the substitution line"
            )
        return RationalFunction(Poly(num), Poly(den))

    def __str__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"MRat({self})"


def _mreduce(num: MPoly, den: MPoly):
    if num.is_zero():
        return num, MPoly.const(num.names, 1)
    # common monomial
    mono = tuple(map(min, num.common_monomial(), den.common_monomial()))
    if any(mono):
        num = num.divide_monomial(mono)
        den = den.divide_monomial(mono)
    # exact-division attempts cover the cases the matrix fields produce
    q = num.try_divide(den)
    if q is not None:
        num, den = q, MPoly.const(num.names, 1)
    else:
        q = den.try_divide(num)
        if q is not None and not q.is_zero():
            num, den = MPoly.const(num.names, 1), q
    # content normalization: denominator content 1 and positive first leading coeff
    c = den.content()
    if den.terms:
        lead = den.terms[max(den.terms)]
        if lead < 0:
            c = -c
    num = MPoly(num.names, {e: v / c for e, v in num.terms.items()})
    den = MPoly(den.names, {e: v / c for e, v in den.terms.items()})
    return num, den


def integer_split(entries) -> tuple[list[MPoly], MPoly]:
    """(nums, den), integer-coefficient polynomials with entries[i] == nums[i] / den.

    ``den`` is the product of the entries' distinct denominators (there is no
    multivariate gcd), and numerators and denominator are scaled together by
    the lcm of their coefficient denominators.
    """
    dens = list(dict.fromkeys(e.den for e in entries))
    den = prod(dens)
    nums = [prod((d for d in dens if d != e.den), start=e.num) for e in entries]
    scale = lcm(*(c.denominator for p in (*nums, den) for c in p.terms.values()))
    if scale != 1:
        nums = [p * scale for p in nums]
        den = den * scale
    return nums, den


def restrict_to_line(polys, point, direction) -> list[list[int]]:
    """Integer coefficient vectors in n of q^K * p(point + (n-1)*direction).

    ``polys`` share one variable tuple and have integer coefficients; q is
    the lcm of the point's denominators and K the largest total degree among
    the polys, so every result is an integer vector (low to high, [] for
    zero) and the results keep the ratios of the restricted polys.
    """
    names = polys[0].names
    if len(point) != len(names) or len(direction) != len(names):
        raise ValueError("point/direction length must match variable count")
    point = [Fraction(p) for p in point]
    q = lcm(*(p.denominator for p in point))
    # q * x_k = a_k + b_k n on the line
    forms = []
    for p, v in zip(point, direction):
        b = q * int(v)
        a = p.numerator * (q // p.denominator) - b
        forms.append([a, b] if b else [a] if a else [])
    top = max((sum(e) for p in polys for e in p.terms), default=0)
    monomials = {}
    out = []
    for p in polys:
        acc = []
        for e, c in p.terms.items():
            vec = monomials.get(e)
            if vec is None:
                vec = [q ** (top - sum(e))]
                for form, k in zip(forms, e):
                    for _ in range(k):
                        vec = _int_mul(vec, form)
                monomials[e] = vec
            acc = _int_add(acc, vec, c.numerator)
        out.append(acc)
    return out
