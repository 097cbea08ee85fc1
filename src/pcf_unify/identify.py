"""Integer-relation detection and Moebius identification of limits.

PSLQ itself is standard machinery (mpmath's implementation is used under
the hood); this module owns the acceptance policy: a candidate relation is
accepted only if its re-evaluated residual is below 10^(-0.6 * working
digits), and insufficient working precision is a distinct error rather
than a silent None.

``identify_mobius`` runs PSLQ on {L*c, L, c, 1}: a relation
a1*L*c + a2*L + a3*c + a4 = 0 rearranges to L = (-a3*c - a4)/(a1*c + a2),
an integer 2x2 Moebius matrix applied to the constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .constants import ConstantRef, constant_value
from .linalg import primitive_mat2
from .matrix import Mat, det2
from .recurrence import ApproxValue, mobius_apply


class InsufficientPrecision(ValueError):
    pass


@dataclass(frozen=True)
class IntegerRelation:
    coefficients: tuple[int, ...]
    residual: mp.mpf
    working_digits: int


@dataclass(frozen=True)
class MobiusIdentification:
    matrix: Mat  # 2x2 integers, gcd 1, first nonzero entry positive
    constant: ConstantRef

    def value(self, precision_digits: int = 100) -> mp.mpf:
        with mp.workdps(precision_digits + 10):
            c = constant_value(self.constant, precision_digits)
            return mobius_apply(self.matrix, c)

    def describe(self) -> str:
        a, b = self.matrix[0, 0], self.matrix[0, 1]
        c, d = self.matrix[1, 0], self.matrix[1, 1]
        name = self.constant.name
        num = _linear_str(a, b, name)
        den = _linear_str(c, d, name)
        return num if den == "1" else f"({num})/({den})"


def _linear_str(u, v, name):
    u, v = int(u), int(v)
    if u == 0:
        return str(v)
    head = name if u == 1 else (f"-{name}" if u == -1 else f"{u}*{name}")
    if v == 0:
        return head
    return f"{head} + {v}" if v > 0 else f"{head} - {-v}"


def pslq(
    values,
    max_coeff_digits: int = 30,
    working_digits: int | None = None,
) -> IntegerRelation | None:
    """Integer relation among the given high-precision values, or None.

    ``values`` may be mpf's or ApproxValues sharing a working precision.
    Raises InsufficientPrecision when the requested precision cannot support
    the coefficient size (10 + len * max_coeff_digits rule).  A value that
    vanishes at the working precision gives None.
    """
    xs = [v.value if isinstance(v, ApproxValue) else v for v in values]
    if len(xs) < 2:
        raise ValueError("pslq needs at least two values")
    if working_digits is None:
        working_digits = mp.mp.dps
    needed = 10 + len(xs) * max_coeff_digits
    if working_digits < needed:
        raise InsufficientPrecision(
            f"{working_digits} working digits < {needed} required for "
            f"{len(xs)} values with {max_coeff_digits}-digit coefficients"
        )
    threshold = mp.mpf(10) ** (-0.6 * working_digits)
    with mp.workdps(working_digits):
        # the achievable residual floor is the working precision degraded by
        # the coefficient size, so the stop tolerance must sit above it
        tol = min(mp.mpf(10) ** (-(working_digits - 10 - max_coeff_digits)), threshold)
        # mpmath answers None for a value below tol/100 but raises on one that
        # is zero at its precision, such as a zero limit (rational anyway)
        if min(abs(x) for x in xs) < tol / 100:
            return None
        rel = mp.pslq(
            xs,
            tol=tol,
            maxcoeff=10**max_coeff_digits,
            maxsteps=3000 + 100 * len(xs) ** 2,
        )
        if rel is None:
            return None
        residual = abs(mp.fsum(c * x for c, x in zip(rel, xs)))
        if residual >= threshold:
            return None
        return IntegerRelation(tuple(rel), residual, working_digits)


def identify_mobius(
    value: ApproxValue | mp.mpf,
    constant: ConstantRef | str,
    max_coeff_digits: int = 30,
    working_digits: int | None = None,
) -> MobiusIdentification | None:
    """Identify a limit as an integer Moebius transformation of a constant.

    The candidate matrix is re-verified against the value at half the
    working precision before being returned; degenerate (singular) matrices
    signal a rational limit and are rejected.
    """
    constant = constant if isinstance(constant, ConstantRef) else ConstantRef(constant)
    explicit = working_digits is not None
    if isinstance(value, ApproxValue):
        good = value.good_digits()
        if working_digits is None:
            working_digits = min(value.precision_digits, good - 10)
        elif working_digits > good:
            raise InsufficientPrecision(
                f"requested {working_digits} working digits but only ~{good} are solid"
            )
        x = value.value
    else:
        if working_digits is None:
            working_digits = mp.mp.dps
        x = value
    # the standard floor; callers may opt into less (with a proportionally
    # smaller coefficient budget) by passing working_digits explicitly
    if working_digits < (20 if explicit else 100):
        raise InsufficientPrecision(
            f"identification needs >= 100 solid digits by default, have {working_digits}"
        )
    with mp.workdps(working_digits + 10):
        c = constant_value(constant, working_digits)
        rel = pslq(
            [x * c, x, c, mp.mpf(1)],
            max_coeff_digits=max_coeff_digits,
            working_digits=working_digits,
        )
        if rel is None:
            return None
        a1, a2, a3, a4 = rel.coefficients
        m = primitive_mat2([-a3, -a4, a1, a2])
        if det2(m) == 0:
            return None
        check = mobius_apply(m, c)
        if check is None or abs(check - x) > mp.mpf(10) ** (-working_digits // 2):
            return None
        return MobiusIdentification(m, constant)
