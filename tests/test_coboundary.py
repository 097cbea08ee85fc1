"""Certificate verification against the published equivalences, and solver
rediscovery for the lighter pairs (the heavy ones run in the acceptance
suite)."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcf_unify import coboundary

from pcf_unify.coboundary import (
    CoboundaryCertificate,
    MatchContext,
    VerificationError,
    fit_rational_function,
    lemma_limit_check,
    match_pair,
    propagate_u,
    reverse_certificate,
    solve_initial_u,
    verify_coboundary,
)
from pcf_unify.linalg import nullspace
from pcf_unify.matrix import Mat, projective_eq
from pcf_unify.parsing import parse_poly
from pcf_unify.poly import Poly
from pcf_unify.ratfunc import RationalFunction
from pcf_unify.recurrence import PCF
from pcf_unify.transforms import fold_pcf


def pcf(a, b):
    return PCF(parse_poly(a), parse_poly(b))


def umat(*rows):
    return Mat([[parse_poly(e) for e in row] for row in rows])


# the five published certificates, oriented so the identity holds exactly
ZETA3_A = pcf("2n^3 + 9n^2 + 15n + 9", "-(n+1)^6")
ZETA3_B = pcf("2n^3 + 9n^2 + 17n + 12", "-n(n+1)^4(n+2)")
ZETA3_U = umat(
    ["n^3 + n^2 + n + 1", "n^6 + 5n^5 + 10n^4 + 10n^3 + 5n^2 + n"],
    ["-1", "-n^3 - 4n^2 - 5n"],
)

PI34_A = pcf("2", "(2n-1)^2")
PI34_B = pcf("6", "(2n+1)^2")
PI34_U = umat(
    ["4n^2 - 4n + 1", "8n^3 + 4n^2 - 10n + 3"],
    ["2n + 1", "4n^2 + 8n + 7"],
)

CATALAN_A = pcf("8n^2 + 8n + 7", "-16n^4")
CATALAN_B = pcf("8n^2 + 12n + 5", "-16n^3(n+1)")
CATALAN_U = umat(["4n^2 + 2n", "16n^4"], ["-1", "-4n^2 + 2n - 1"])

E_A = pcf("n^2 + 6n + 7", "-n^2 (n+3)")
E_B = pcf("n^2 + 3n + 3", "-n^2 (n+2)")
E_U = umat(
    ["n^3 + 4n^2 + 6n + 6", "n^4 + 4n^3 + 4n^2"],
    ["-n - 1", "-n^2 - n + 2"],
)

FOLDED1 = pcf(
    "60n^3 + 34n^2 - 11n - 3",
    "2n(-288n^5 + 624n^4 - 230n^3 - 225n^2 + 158n - 24)",
)
PCF5 = pcf(
    "240n^3 + 164n^2 - 54n - 29",
    "-9216n^6 + 12288n^5 + 11264n^4 - 15520n^3 - 764n^2 + 3802n - 714",
)
FOLDED1_U = umat(
    [
        "48n^3 - 85n^2 + 28n",
        "2304n^6 - 9792n^5 + 15440n^4 - 11100n^3 + 3586n^2 - 408n",
    ],
    ["-1", "-48n^3 + 200n^2 - 223n + 51"],
)


def test_verify_zeta3_certificate():
    cert = verify_coboundary(ZETA3_A.companion().matrix, ZETA3_B.companion().matrix, ZETA3_U)
    assert cert.verified
    assert cert.p_a == parse_poly("n")
    assert cert.p_b == parse_poly("n + 1")


def test_verify_pi_3_4_certificate():
    cert = verify_coboundary(PI34_A.companion().matrix, PI34_B.companion().matrix, PI34_U)
    assert cert.p_a == parse_poly("1")
    assert cert.p_b == parse_poly("1")


def test_verify_catalan_certificate():
    cert = verify_coboundary(
        CATALAN_A.companion().matrix, CATALAN_B.companion().matrix, CATALAN_U
    )
    assert cert.p_a == parse_poly("1")
    assert cert.p_b == parse_poly("1")


def test_verify_e_certificate():
    cert = verify_coboundary(E_A.companion().matrix, E_B.companion().matrix, E_U)
    assert cert.p_a == parse_poly("n + 2")
    assert cert.p_b == parse_poly("n + 3")


def test_verify_folded_pair_certificate():
    # the published display carries a typo in p_a (12n - 7); the printed
    # matrices force 12n - 17, which the extraction recovers
    cert = verify_coboundary(FOLDED1.companion().matrix, PCF5.companion().matrix, FOLDED1_U)
    assert cert.p_a == parse_poly("12n - 17")
    assert cert.p_b == parse_poly("3n + 2")


def test_perturbed_certificate_fails():
    bad = Mat(
        [
            [ZETA3_U[0, 0] + 1, ZETA3_U[0, 1]],
            [ZETA3_U[1, 0], ZETA3_U[1, 1]],
        ]
    )
    with pytest.raises(VerificationError):
        verify_coboundary(ZETA3_A.companion().matrix, ZETA3_B.companion().matrix, bad)


def test_reverse_certificate():
    a_m, b_m = ZETA3_A.companion().matrix, ZETA3_B.companion().matrix
    cert = verify_coboundary(a_m, b_m, ZETA3_U)
    rev = reverse_certificate(cert, a_m, b_m)
    assert rev.verified


def test_lemma_limit_check_zeta3():
    cert = verify_coboundary(ZETA3_A.companion().matrix, ZETA3_B.companion().matrix, ZETA3_U)
    gap = lemma_limit_check(cert, ZETA3_A, ZETA3_B, digits=200)
    assert gap < mp.mpf(10) ** -40


def test_propagation_matches_printed_zeta3_u():
    # propagated matrices are proportional to the printed U evaluated at n
    a_m, b_m = ZETA3_A.companion().matrix, ZETA3_B.companion().matrix
    u1 = ZETA3_U.map(lambda p: Fraction(p(1)))
    us = propagate_u(a_m, b_m, u1, 10)
    for n, u in enumerate(us, start=1):
        printed = ZETA3_U.map(lambda p: Fraction(p(n)))
        assert projective_eq(u, printed)


def test_propagation_identity_when_equal():
    a_m = PI34_A.companion().matrix
    eye = Mat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    us = propagate_u(a_m, a_m, eye, 8)
    for u in us:
        assert projective_eq(u, eye)


def test_solve_initial_u_same_limit_is_identity():
    from pcf_unify.constants import ConstantRef
    from pcf_unify.identify import MobiusIdentification

    ident = MobiusIdentification(
        Mat([[2, 1], [1, 3]]).map(Fraction), ConstantRef("pi")
    )
    u = solve_initial_u(ident, ident)
    assert projective_eq(u, Mat([[Fraction(1), 0], [0, Fraction(1)]]).map(Fraction))


def test_solver_rediscovers_pi_3_4(shared_ctx):
    res = match_pair(PI34_A, PI34_B, shared_ctx)
    assert res.matched, res.diagnostics
    assert projective_eq(res.certificate.u, PI34_U)
    assert res.certificate.p_a == parse_poly("1")


def test_solver_rediscovers_gauss_pair(shared_ctx):
    res = match_pair(pcf("2n+1", "n^2"), pcf("2n+3", "n(n+2)"), shared_ctx)
    assert res.matched, res.diagnostics
    assert res.certificate.verified


def test_solver_rediscovers_zeta3(zeta3_ctx):
    res = match_pair(ZETA3_A, ZETA3_B, zeta3_ctx)
    assert res.matched, res.diagnostics
    assert projective_eq(res.certificate.u, ZETA3_U)
    assert res.certificate.p_a == parse_poly("n")
    assert res.certificate.p_b == parse_poly("n+1")


def test_match_same_pcf_is_identity(shared_ctx):
    res = match_pair(PI34_A, PI34_A, shared_ctx)
    assert res.matched
    assert res.certificate.u == Mat([[parse_poly("1"), parse_poly("0")], [parse_poly("0"), parse_poly("1")]])


def test_certificate_json_round_trip():
    cert = verify_coboundary(ZETA3_A.companion().matrix, ZETA3_B.companion().matrix, ZETA3_U)
    blob = cert.to_json(pair=("a", "b"))
    back = CoboundaryCertificate.from_json(blob)
    re_cert = verify_coboundary(
        ZETA3_A.companion().matrix, ZETA3_B.companion().matrix, back.u
    )
    assert re_cert.identity_hash() == blob["verification_hash"]


@pytest.fixture(scope="module")
def shared_ctx():
    return MatchContext(constant="pi")


@pytest.fixture(scope="module")
def zeta3_ctx():
    return MatchContext(constant="zeta3")


def _sweep_fit(samples, degree_cap=24):
    """Reference fit: every (deg P, deg Q) split goes to the exact solve, in
    fit_rational_function's order."""
    ran_out = False
    for total in range(degree_cap + 1):
        for dn in range(total + 1):
            dd = total - dn
            if 2 * (dn + dd + 2) > len(samples):
                ran_out = True
                continue
            rows = [
                [Fraction(t) ** k for k in range(dn + 1)]
                + [-v * Fraction(t) ** k for k in range(dd + 1)]
                for t, v in samples
            ]
            for vec in nullspace(rows):
                p, q = Poly(vec[: dn + 1]), Poly(vec[dn + 1 :])
                if not q.is_zero() and all(q(t) != 0 for t, _ in samples):
                    return RationalFunction(p, q)
    return "underdetermined" if ran_out else None


@st.composite
def entry_samples(draw):
    """Consecutive-index samples of a rational function of total degree <= 6,
    or of a sequence that is not one."""
    start = draw(st.integers(1, 5))
    count = draw(st.integers(12, 40))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    if draw(st.booleans()):
        dn = draw(st.integers(0, 6))
        num = draw(st.lists(coeff, min_size=dn + 1, max_size=dn + 1))
        den = draw(st.lists(coeff, min_size=1, max_size=7 - dn).filter(any))
        values = []
        for t in range(start, start + count):
            q = sum(c * t**k for k, c in enumerate(den))
            if q:
                values.append((t, sum(c * t**k for k, c in enumerate(num)) / q))
        return values
    kind = draw(st.sampled_from(["random", "geometric", "harmonic"]))
    if kind == "random":
        return [(t, draw(coeff)) for t in range(start, start + count)]
    if kind == "geometric":
        r = draw(st.sampled_from([Fraction(2), Fraction(-3, 2), Fraction(5, 3)]))
        return [(t, r**t) for t in range(start, start + count)]
    h = Fraction(0)
    values = []
    for t in range(1, start + count):
        h += Fraction(1, t)
        if t >= start:
            values.append((t, h))
    return values


@given(entry_samples(), st.sampled_from([3, 8, 24]))
@settings(max_examples=30, deadline=None)
def test_fit_matches_full_sweep(samples, degree_cap):
    fit = fit_rational_function(samples, degree_cap)
    ref = _sweep_fit(samples, degree_cap)
    assert type(fit) is type(ref) and fit == ref


def test_fit_screen_skips_every_infeasible_split(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(1)
        return nullspace(rows)

    monkeypatch.setattr(coboundary, "nullspace", counting)
    # 56 samples of 2^n: all 325 splits up to total degree 24 fit in the
    # samples, and none has a solution, so none needs an exact solve
    samples = [(t, Fraction(2) ** t) for t in range(1, 57)]
    assert fit_rational_function(samples, degree_cap=24) is None
    assert calls == []


def test_zero_coboundary_matrix_is_a_verification_error():
    a_m = PI34_A.companion().matrix
    with pytest.raises(VerificationError, match="zero coboundary"):
        verify_coboundary(a_m, a_m, Mat([[0, 0], [0, 0]]))
