"""Discovery and rigorous verification of coboundary equivalences.

Two order-2 recurrences with companion matrices A(n), B(n) are coboundary
equivalent when polynomials U(n) (2x2), p_A(n), p_B(n) exist with

    p_A(n) * A(n) * U(n+1)  =  p_B(n) * U(n) * B(n)

as an exact polynomial matrix identity.  Everything before the final
verification is heuristic: the limits give U(1) up to scale (their Moebius
relation), the necessary condition U(n+1) ~ A(n)^{-1} U(n) B(n) propagates
it, rational functions are fitted to the normalized samples, and the
candidate either passes the exact identity or is rejected.  A verified
certificate is a machine-checkable proof object independent of how it was
found.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import mpmath as mp

from .linalg import nullspace, primitive_mat2, rational_fit_screen
from .matrix import Mat, adjugate2, det2
from .metrics import convergence_rate, irrationality_delta, rate_ratio
from .parsing import parse_poly
from .poly import ONE, Poly, format_poly
from .ratfunc import RationalFunction as RF, clear_denominators
from .recurrence import PCF, evaluate_limit, mobius_apply
from .identify import InsufficientPrecision, MobiusIdentification, identify_mobius
from .transforms import fold_pcf, pcf_shift


class VerificationError(ValueError):
    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


@dataclass
class CoboundaryCertificate:
    """Verified proof that two (folded, shifted) recurrences are equivalent."""

    u: Mat  # 2x2 polynomial matrix
    p_a: Poly
    p_b: Poly
    fold_a: int = 1
    fold_b: int = 1
    shift_a: int = 0
    shift_b: int = 0
    verified: bool = False

    def u_at(self, n: int) -> Mat:
        return self.u.map(lambda p: p(n))

    def to_json(self, pair=None) -> dict:
        out = {
            "schema_version": 1,
            "fold_a": self.fold_a,
            "fold_b": self.fold_b,
            "shift_a": self.shift_a,
            "shift_b": self.shift_b,
            "u": [[format_poly(e) for e in row] for row in self.u.rows],
            "p_a": format_poly(self.p_a),
            "p_b": format_poly(self.p_b),
            "verified": self.verified,
        }
        if pair is not None:
            out["pair"] = list(pair)
        out["verification_hash"] = self.identity_hash()
        return out

    @staticmethod
    def from_json(data: dict) -> "CoboundaryCertificate":
        u = Mat([[parse_poly(e) for e in row] for row in data["u"]])
        return CoboundaryCertificate(
            u=u,
            p_a=parse_poly(data["p_a"]),
            p_b=parse_poly(data["p_b"]),
            fold_a=data.get("fold_a", 1),
            fold_b=data.get("fold_b", 1),
            shift_a=data.get("shift_a", 0),
            shift_b=data.get("shift_b", 0),
            verified=False,  # trust nothing serialized; re-verify
        )

    def identity_hash(self) -> str:
        blob = json.dumps(
            {
                "u": [[format_poly(e) for e in row] for row in self.u.rows],
                "p_a": format_poly(self.p_a),
                "p_b": format_poly(self.p_b),
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class MatchResult:
    status: str  # matched | metrics-mismatch | mobius-not-found | fit-failed | verify-failed
    certificate: CoboundaryCertificate | None = None
    pcf_a: PCF | None = None  # the (folded, shifted) forms the certificate links
    pcf_b: PCF | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def matched(self) -> bool:
        return self.status == "matched"


# -- step 1: U(1) from the identified limits ------------------------------------


def solve_initial_u(ident_a: MobiusIdentification, ident_b: MobiusIdentification) -> Mat:
    """Integer U(1), up to scale, with L_A = U(1)(L_B) as a formal identity.

    Writing L_A = (alpha c + beta)/(gamma c + delta), L_B likewise, and
    equating coefficients of powers of the (non-quadratic) constant yields a
    homogeneous linear system for the four entries.
    """
    if ident_a.constant.name != ident_b.constant.name:
        raise ValueError("limits identified against different constants")
    al, be = ident_a.matrix[0, 0], ident_a.matrix[0, 1]
    ga, de = ident_a.matrix[1, 0], ident_a.matrix[1, 1]
    ap, bp = ident_b.matrix[0, 0], ident_b.matrix[0, 1]
    cp, dp = ident_b.matrix[1, 0], ident_b.matrix[1, 1]
    # unknowns (u11, u12, u21, u22); rows are coefficients of c^2, c^1, c^0 in
    # (alpha c + beta)(u21 L_B^num + u22 L_B^den) - (gamma c + delta)(u11 ... ) = 0
    rows = [
        [-ga * ap, -ga * cp, al * ap, al * cp],
        [
            -ga * bp - de * ap,
            -ga * dp - de * cp,
            al * bp + be * ap,
            al * dp + be * cp,
        ],
        [-de * bp, -de * dp, be * bp, be * dp],
    ]
    basis = nullspace(rows)
    if len(basis) != 1:
        raise VerificationError(
            "limit relation under-determined or inconsistent "
            f"(nullspace dimension {len(basis)})"
        )
    u11, u12, u21, u22 = basis[0]
    return Mat([[u11, u12], [u21, u22]])


# -- step 2: propagation -----------------------------------------------------------


class SingularAt(ArithmeticError):
    def __init__(self, index):
        super().__init__(f"matrix singular at index {index}")
        self.index = index


def _eval_mat(m: Mat, n: int) -> Mat:
    return m.map(lambda p: Fraction(p(n)))


def propagate_u(a_mat: Mat, b_mat: Mat, u1: Mat, depth: int) -> list[Mat]:
    """U(1..depth) via U(n+1) ~ adj(A(n)) U(n) B(n), each integer-normalized."""
    us = [primitive_mat2(e for row in u1 for e in row)]
    for i in range(1, depth):
        a_i = _eval_mat(a_mat, i)
        if det2(a_i) == 0:
            raise SingularAt(i)
        b_i = _eval_mat(b_mat, i)
        u = adjugate2(a_i) * us[-1] * b_i
        if all(e == 0 for row in u for e in row):
            raise SingularAt(i)
        us.append(primitive_mat2(e for row in u for e in row))
    return us


# -- step 3: normalization entry ------------------------------------------------------


def choose_normalization_entry(us: list[Mat]) -> tuple[tuple[int, int], int]:
    """Entry whose last zero across the samples occurs earliest, plus the
    first sample index (1-based) from which it is nonzero everywhere."""
    best = None
    for i in range(2):
        for j in range(2):
            last_zero = 0
            for t, u in enumerate(us, start=1):
                if u[i, j] == 0:
                    last_zero = t
            cand = (last_zero, (i, j))
            if best is None or cand < best:
                best = cand
    last_zero, entry = best
    return entry, last_zero + 1


# -- step 4: rational-function fit ------------------------------------------------------
#
# Screen first (one mod-p pass per entry), then one exact lift per accepted split.


def fit_rational_function(samples, degree_cap: int = 24):
    """Fit one entry: P/Q with P(t) = v * Q(t) on every sample, minimal total degree.

    ``samples`` is a list of (index, Fraction).  Splits are tried by total
    degree, deg P upward within a total; a split the mod-p screen rejects has
    no rational solution and is skipped, and each accepted one gets one exact
    solve (an unlucky prime just falls through to the next split).  Returns
    an RF or None; the string "underdetermined" is returned when every
    attempt ran out of samples before the cap, signaling the caller to
    deepen propagation.
    """
    feasible = rational_fit_screen(samples)
    ran_out = False
    for total in range(0, degree_cap + 1):
        for dn in range(0, total + 1):
            dd = total - dn
            if 2 * (dn + dd + 2) > len(samples):
                ran_out = True
                continue
            if not feasible(dn, dd):
                continue
            rows = []
            for t, v in samples:
                tf = Fraction(t)
                prow = []
                power = Fraction(1)
                for _ in range(dn + 1):
                    prow.append(power)
                    power *= tf
                qrow = []
                power = Fraction(1)
                for _ in range(dd + 1):
                    qrow.append(-v * power)
                    power *= tf
                rows.append(prow + qrow)
            for vec in nullspace(rows):
                p = Poly(vec[: dn + 1])
                q = Poly(vec[dn + 1 :])
                if q.is_zero():
                    continue
                if any(q(t) == 0 for t, _ in samples):
                    continue
                return RF(p, q)
    return "underdetermined" if ran_out else None


def fit_rational_matrix(samples: list[tuple[int, Mat]], degree_cap: int = 24):
    """Entrywise rational fit of normalized coboundary samples.

    ``samples`` holds (index, 2x2 Fraction matrix) pairs.  Returns a 2x2 Mat
    of RationalFunctions, None on a definite failure, or "underdetermined".
    """
    entries = []
    for i in range(2):
        row = []
        for j in range(2):
            fit = fit_rational_function([(t, m[i, j]) for t, m in samples], degree_cap)
            if fit is None or fit == "underdetermined":
                return fit
            row.append(fit)
        entries.append(row)
    return Mat(entries)


# -- step 5: rigorous verification --------------------------------------------------


def _clear_denominators(m: Mat) -> Mat:
    """The 2x2 polynomial matrix proportional to ``m`` with common content 1."""
    polys, _den = clear_denominators(e for row in m for e in row)
    c = Fraction(0)  # gcd of the contents; a zero entry (content 0) leaves it
    for x in (p.content() for p in polys):
        c = Fraction(gcd(c.numerator, x.numerator), lcm(c.denominator, x.denominator))
    if c not in (0, 1):
        polys = [p * (1 / c) for p in polys]
    return Mat([polys[:2], polys[2:]])


def verify_coboundary(a_mat: Mat, b_mat: Mat, u) -> CoboundaryCertificate:
    """The rigorous step: exact polynomial proportionality of the two products.

    ``u`` may have rational-function entries; denominators are cleared first.
    On success the proportionality factor yields the external polynomials
    (p_a with positive leading coefficient).  Raises VerificationError with
    the offending entry when the products are not proportional.
    """
    u_poly = _clear_denominators(u if isinstance(u, Mat) else Mat(u))
    if all(p.is_zero() for row in u_poly for p in row):
        raise VerificationError("zero coboundary matrix")
    # rescaling A or B by a scalar function only moves the proportionality
    # factor, so rational-function inputs can be cleared to polynomials
    a_p = _clear_denominators(a_mat)
    b_p = _clear_denominators(b_mat)
    m1 = a_p * u_poly.shift(1)
    m2 = u_poly * b_p
    piv = None
    for i in range(2):
        for j in range(2):
            if not m2[i, j].is_zero():
                piv = (i, j)
                break
        if piv:
            break
    if piv is None:
        raise VerificationError("right-hand product is identically zero")
    pi, pj = piv
    if m1[pi, pj].is_zero():
        raise VerificationError("products cannot be proportional", entry=piv)
    for i in range(2):
        for j in range(2):
            if (i, j) == piv:
                continue
            lhs = m1[i, j] * m2[pi, pj]
            rhs = m2[i, j] * m1[pi, pj]
            if lhs != rhs:
                raise VerificationError(
                    f"products differ at entry ({i}, {j})", entry=(i, j)
                )
    factor = RF(m1[pi, pj], m2[pi, pj])  # = p_b / p_a
    num, den = factor.num, factor.den
    c = num.content()
    p_b = (num * (1 / c)) * c.numerator
    p_a = den * c.denominator
    if p_a.leading() < 0:
        p_a, p_b = -p_a, -p_b
    # final full expansion check of p_a * A * U(n+1) == p_b * U * B
    lhs = m1.map(lambda e: e * p_a)
    rhs = m2.map(lambda e: e * p_b)
    if lhs != rhs:  # pragma: no cover - guarded above
        raise VerificationError("expanded identity failed after factor extraction")
    return CoboundaryCertificate(u=u_poly, p_a=p_a, p_b=p_b, verified=True)


def reverse_certificate(
    cert: CoboundaryCertificate, a_mat: Mat, b_mat: Mat
) -> CoboundaryCertificate:
    """Certificate for the reversed pair (B, A), built from the adjugate."""
    rev = verify_coboundary(b_mat, a_mat, adjugate2(cert.u))
    rev.fold_a, rev.fold_b = cert.fold_b, cert.fold_a
    rev.shift_a, rev.shift_b = cert.shift_b, cert.shift_a
    return rev


def lemma_limit_check(
    cert: CoboundaryCertificate, pcf_a: PCF, pcf_b: PCF, digits: int = 200
) -> mp.mpf:
    """|L_A - U(1)(L_B)| at the given precision (both limits from index 1)."""
    with mp.workdps(digits + 20):
        la = evaluate_limit(pcf_a, depth=4000, precision_digits=digits).value
        lb = evaluate_limit(pcf_b, depth=4000, precision_digits=digits).value
        u1 = cert.u_at(1)
        image = mobius_apply(u1, lb)
        return abs(la - image)


# -- the full matching flow ----------------------------------------------------------


@dataclass
class MatchContext:
    """Shared configuration and memoized per-PCF analysis for match runs."""

    constant: str = "pi"
    metric_depth: int = 2000
    limit_depth: int = 4000
    limit_digits: int = 250
    delta_tol: float = 0.05
    propagation_depth: int = 40
    degree_cap: int = 24
    max_fold: int = 12
    _cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.max_fold < 1:
            raise ValueError(f"fold cap must be at least 1, got {self.max_fold}")

    def _key(self, pcf: PCF):
        return (pcf.a.coeffs, pcf.b.coeffs)

    def delta(self, pcf: PCF):
        key = ("delta", self._key(pcf))
        if key not in self._cache:
            self._cache[key] = irrationality_delta(pcf, self.metric_depth)
        return self._cache[key]

    def rate(self, pcf: PCF):
        key = ("rate", self._key(pcf))
        if key not in self._cache:
            self._cache[key] = convergence_rate(pcf, self.metric_depth)
        return self._cache[key]

    def limit(self, pcf: PCF):
        """Limit at the target precision, deepening while it pays off.

        A limit short of 115 digits at the base depth (slowly converging
        fractions outside the reach of the balanced-tail and Richardson
        accelerations) is recomputed at doubled depth; doubling stops as
        soon as the improvement stalls, and identification downstream adapts
        its coefficient budget to the digits actually available.
        """
        key = ("limit", self._key(pcf))
        if key not in self._cache:
            depth = self.limit_depth
            lim = evaluate_limit(pcf, depth=depth, precision_digits=self.limit_digits)
            while lim.converged and lim.good_digits() < 115 and depth < 8 * self.limit_depth:
                depth *= 2
                deeper = evaluate_limit(
                    pcf, depth=depth, precision_digits=self.limit_digits
                )
                if deeper.good_digits() < lim.good_digits() * 1.25 + 5:
                    lim = max((lim, deeper), key=lambda v: v.good_digits())
                    break
                lim = deeper
            self._cache[key] = lim
        return self._cache[key]

    def identification(self, pcf: PCF):
        """Moebius identification of the limit, degrading gracefully.

        When the limit cannot reach the standard 100-digit floor (fractions
        whose convergence no acceleration in ``evaluate_limit`` covers),
        identification retries at the digits actually available with a
        proportionally smaller coefficient budget; PSLQ's own precision rule
        keeps that sound, and the certificate verification downstream is the
        rigorous gate either way.
        """
        key = ("ident", self._key(pcf))
        if key not in self._cache:
            lim = self.limit(pcf)
            available = lim.good_digits() - 3
            ident = None
            ladder = [min(self.limit_digits, available), 100, 60, 40, 25, 20]
            for digits in sorted({d for d in ladder if 20 <= d <= available}, reverse=True):
                coeff_budget = min(30, max(1, (digits - 12) // 4))
                try:
                    ident = identify_mobius(
                        lim,
                        self.constant,
                        max_coeff_digits=coeff_budget,
                        working_digits=digits,
                    )
                except InsufficientPrecision:
                    ident = None
                if ident is not None:
                    break
            self._cache[key] = ident
        return self._cache[key]


def _structural_identity_result(pcf: PCF) -> MatchResult:
    cert = CoboundaryCertificate(
        u=Mat([[ONE, Poly()], [Poly(), ONE]]),
        p_a=ONE,
        p_b=ONE,
        verified=True,
    )
    return MatchResult("matched", cert, pcf, pcf, {"note": "identical canonical forms"})


def match_pair(rec_a, rec_b, ctx: MatchContext | None = None) -> MatchResult:
    """Full matching flow: metric gate, folds, U(1), propagation, fit, verify.

    ``rec_a``/``rec_b`` may be PCFs or order-2 Recurrences (canonicalized
    here).  Recurrences of order > 2 participate only via structural
    equality.
    """
    from .transforms import to_pcf_canonical
    from .recurrence import Recurrence

    ctx = ctx or MatchContext()
    diagnostics = {}

    if isinstance(rec_a, Recurrence) and rec_a.order > 2:
        if isinstance(rec_b, Recurrence) and rec_b == rec_a:
            return _structural_identity_result(None)
        return MatchResult(
            "fit-failed",
            diagnostics={"note": "order > 2: only structural equality is supported"},
        )

    pcf_a, _ = to_pcf_canonical(rec_a)
    pcf_b, _ = to_pcf_canonical(rec_b)
    if pcf_a == pcf_b:
        return _structural_identity_result(pcf_a)

    delta_a, delta_b = ctx.delta(pcf_a), ctx.delta(pcf_b)
    diagnostics["delta"] = (delta_a.delta, delta_b.delta)
    if not (delta_a.defined and delta_b.defined) or abs(
        delta_a.delta - delta_b.delta
    ) >= ctx.delta_tol:
        return MatchResult("metrics-mismatch", diagnostics=diagnostics)

    rate_a, rate_b = ctx.rate(pcf_a), ctx.rate(pcf_b)
    diagnostics["rate"] = (rate_a.rate, rate_b.rate)
    ratio = rate_ratio(rate_a, rate_b, ctx.max_fold)
    if ratio is None:
        return MatchResult("metrics-mismatch", diagnostics=diagnostics)
    if ratio == 0:
        fold_options = [(1, 1), (2, 1), (1, 2), (2, 2)]
    elif ratio.numerator > ctx.max_fold:  # the denominator is capped already
        diagnostics["note"] = f"rate ratio {ratio} beyond fold cap"
        return MatchResult("metrics-mismatch", diagnostics=diagnostics)
    else:
        fold_options = [(ratio.denominator, ratio.numerator)]
    diagnostics["fold_options"] = fold_options

    deepest = "mobius-not-found"
    for k_a, k_b in fold_options:
        result = _attempt_fold_option(pcf_a, pcf_b, k_a, k_b, ctx, diagnostics)
        if result.matched:
            return result
        order = ["metrics-mismatch", "mobius-not-found", "fit-failed", "verify-failed"]
        if order.index(result.status) > order.index(deepest):
            deepest = result.status
    return MatchResult(deepest, diagnostics=diagnostics)


def _initial_u_candidates(fa: PCF, fb: PCF, ctx) -> list[Mat]:
    """U(1) hypotheses from the limits, best-founded first.

    Preferred route: both limits identified against the context constant and
    the coefficient-matching system solved.  When a limit resists
    identification (too few digits, or no Moebius relation to the context
    constant), the direct bilinear relation
    u21 L_A L_B + u22 L_A - u11 L_B - u12 = 0 is attempted by
    integer-relation detection at the precision the limits honestly carry; a
    wrong hypothesis only costs a failed fit or verification downstream,
    never a wrong certificate.
    """
    candidates = []

    def push(m):
        if m is not None and det2(m) != 0 and m not in candidates:
            candidates.append(m)

    ident_a = ctx.identification(fa)
    ident_b = ctx.identification(fb)
    if ident_a is not None and ident_b is not None:
        try:
            push(solve_initial_u(ident_a, ident_b))
        except VerificationError:
            pass
    if not candidates:
        lim_a, lim_b = ctx.limit(fa), ctx.limit(fb)
        digits = min(lim_a.good_digits(), lim_b.good_digits())
        for working, budget in ((digits - 2, 2), (digits - 2, 3), (digits - 6, 2)):
            if working < 10:
                continue
            with mp.workdps(working + 10):
                la, lb = lim_a.value, lim_b.value
                rel = mp.pslq(
                    [la * lb, la, -lb, mp.mpf(-1)],
                    tol=mp.mpf(10) ** (-(working - 6)),
                    maxcoeff=10**budget,
                    maxsteps=8000,
                )
            if rel is None:
                continue
            u21, u22, u11, u12 = rel
            push(primitive_mat2([u11, u12, u21, u22]))
    return candidates


def _attempt_fold_option(pcf_a, pcf_b, k_a, k_b, ctx, diagnostics) -> MatchResult:
    from .transforms import to_pcf_canonical

    try:
        fa, _ = fold_pcf(pcf_a, k_a)
        fb, _ = fold_pcf(pcf_b, k_b)
    except (ValueError, ZeroDivisionError) as exc:
        diagnostics[f"fold {k_a},{k_b}"] = f"fold failed: {exc}"
        return MatchResult("fit-failed", diagnostics=diagnostics)

    shift = max(fa.first_valid_index(), fb.first_valid_index()) - 1
    if shift:
        fa = to_pcf_canonical(pcf_shift(fa, shift))[0]
        fb = to_pcf_canonical(pcf_shift(fb, shift))[0]

    if fa == fb:
        res = _structural_identity_result(fa)
        res.certificate.fold_a, res.certificate.fold_b = k_a, k_b
        res.certificate.shift_a = res.certificate.shift_b = shift
        return res

    candidates = _initial_u_candidates(fa, fb, ctx)
    if not candidates:
        diagnostics[f"fold {k_a},{k_b}"] = "limit identification failed"
        return MatchResult("mobius-not-found", diagnostics=diagnostics)

    a_mat = fa.companion().matrix
    b_mat = fb.companion().matrix
    failure = "fit-failed"
    for u1 in candidates:
        for depth in (ctx.propagation_depth, 2 * ctx.degree_cap + 8):
            try:
                us = propagate_u(a_mat, b_mat, u1, depth)
            except SingularAt as exc:
                diagnostics[f"fold {k_a},{k_b}"] = f"propagation singular at {exc.index}"
                break
            entry, first = choose_normalization_entry(us)
            samples = []
            for t, u in enumerate(us, start=1):
                if t < first:
                    continue
                piv = u[entry]
                samples.append((t, u.map(lambda e: e / piv)))
            fit = fit_rational_matrix(samples, ctx.degree_cap)
            if fit == "underdetermined":
                continue  # deepen propagation and retry
            if fit is None:
                diagnostics[f"fold {k_a},{k_b}"] = "no rational fit within degree cap"
                break
            try:
                cert = verify_coboundary(a_mat, b_mat, fit)
            except VerificationError as exc:
                diagnostics[f"fold {k_a},{k_b}"] = f"verification failed: {exc}"
                failure = "verify-failed"
                break
            cert.fold_a, cert.fold_b = k_a, k_b
            cert.shift_a = cert.shift_b = shift
            return MatchResult("matched", cert, fa, fb, diagnostics)
        else:
            diagnostics[f"fold {k_a},{k_b}"] = "fit underdetermined at maximum depth"
    return MatchResult(failure, diagnostics=diagnostics)
