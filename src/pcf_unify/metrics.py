"""Dynamical metrics of converging recurrences.

The finite-depth irrationality measure is

    delta_n = -1 - log|L - p_n/q_n| / log|q_n|

and the convergence rate is |log|L - x_n|| / n, thresholded to 0 below
5e-2 (slow, polynomially-converging fractions).  Natural logarithms
throughout; the 0.69 / 1.38 rate fixtures (= ln 2, 2 ln 2) pin that down.

Both metrics are computed from exact rational convergents, with the
reference limit taken at twice the metric depth, so the only floating
point involved is the final logarithm of exact big integers.  The
convergents come from ``recurrence``'s product engine; this module holds
no product code of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .recurrence import INF, PCF, InitialConditions, _products_at_depths, mobius_apply

RATE_ZERO_THRESHOLD = 0.05


@dataclass(frozen=True)
class DeltaEstimate:
    delta: float
    depth: int
    defined: bool = True


@dataclass(frozen=True)
class RateEstimate:
    rate: float  # thresholded: exactly 0.0 below RATE_ZERO_THRESHOLD
    raw: float
    depth: int
    defined: bool = True


def _log_abs(x: Fraction) -> float:
    """Natural log of |x| for an exact rational, safe for huge numerators."""
    if x == 0:
        raise ValueError("log of zero")
    return math.log(abs(x.numerator)) - math.log(x.denominator)


def _exact_points(pcf: PCF, depth: int, init: InitialConditions | None):
    """The exact convergents (x_depth, L~x_{2*depth})."""
    products = _products_at_depths(pcf, init, pcf.first_valid_index(), [depth, 2 * depth])
    return [mobius_apply(m, Fraction(0)) for m in products]


def irrationality_delta(
    pcf: PCF, depth: int = 2000, init: InitialConditions | None = None
) -> DeltaEstimate:
    """Finite-depth irrationality measure with L taken from depth 2*depth.

    The denominator entering the measure is that of the convergent in lowest
    terms (the Diophantine quality of the raw matrix entries would be
    arbitrarily inflatable); the published cluster values pin this reading.
    """
    x_n, limit = _exact_points(pcf, depth, init)
    if x_n is INF or limit is INF:
        return DeltaEstimate(math.nan, depth, defined=False)
    q_n = x_n.denominator  # Fraction keeps it reduced
    if q_n <= 1:
        return DeltaEstimate(math.nan, depth, defined=False)
    gap = limit - x_n
    if gap == 0:
        # exact hit: rational limit, delta undefined (flagged, not NaN-silent)
        return DeltaEstimate(math.inf, depth, defined=False)
    delta = -1 - _log_abs(gap) / math.log(q_n)
    return DeltaEstimate(delta, depth)


def convergence_rate(
    pcf: PCF, depth: int = 2000, init: InitialConditions | None = None
) -> RateEstimate:
    """|log|L - x_depth|| / depth, thresholded to 0 below 5e-2."""
    x_n, limit = _exact_points(pcf, depth, init)
    if x_n is INF or limit is INF:
        return RateEstimate(math.nan, math.nan, depth, defined=False)
    gap = limit - x_n
    if gap == 0:
        return RateEstimate(0.0, 0.0, depth, defined=False)
    raw = _log_abs(gap) / depth
    rate = abs(raw)
    if rate < RATE_ZERO_THRESHOLD:
        rate = 0.0
    return RateEstimate(rate, raw, depth)


def rate_ratio(r_a: RateEstimate, r_b: RateEstimate, max_den: int = 12, tol: float = 0.02):
    """|r_A|/|r_B| as a small-denominator Fraction; 0 when either rate is 0.

    Returns None (no-match signal) when no denominator-<=max_den rational
    approximates the ratio within tol.
    """
    if r_a.rate == 0.0 or r_b.rate == 0.0:
        return Fraction(0)
    ratio = abs(r_a.rate) / abs(r_b.rate)
    approx = Fraction(ratio).limit_denominator(max_den)
    if approx <= 0 or abs(float(approx) - ratio) > tol:
        return None
    return approx
