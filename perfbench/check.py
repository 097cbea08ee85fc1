"""Output checks for the benchmark workloads.

The checks avoid the code paths they judge: limits are re-evaluated by a
plain mpmath recurrence (not ``recurrence.evaluate_limit``), the constant is
read from the shipped digit file, and certificates are re-checked pointwise
with exact fractions from their JSON text alone (not through
``verify_coboundary``'s symbolic expansion).  Each ``check_*`` function takes
the workload's recorded outputs and returns one verdict per item:
``{"id", "failed": bool, "found": bool, "reason": str}``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import mpmath as mp

from gen import DATA, poly_value

# Extra digits a re-checked identification must hold beyond those it used.
EXTRA_DIGITS = 50
# identification never works above this many digits (MatchContext.limit_digits).
MAX_IDENT_DIGITS = 250
MAX_TERMS = 1 << 16

_POLY_TEXT = re.compile(r"^[0-9n+\-*/^() ]+$")


def verdict(item_id, failed=False, found=False, reason=""):
    return {"id": item_id, "failed": failed, "found": found, "reason": reason}


# -- exact evaluation of grammar text --------------------------------------------


def eval_poly_text(text: str, n) -> Fraction:
    """Value at n of a polynomial written in the package grammar."""
    if not _POLY_TEXT.match(text):
        raise ValueError(f"unexpected characters in {text!r}")
    expr = re.sub(r"(\d+)", r"F(\1)", text).replace("^", "**")
    expr = re.sub(r"(\)|n)\s*(\(|n)", r"\1*\2", expr)  # implicit products
    return Fraction(eval(expr, {"__builtins__": {}}, {"F": Fraction, "n": Fraction(n)}))


def split_pcf_text(text: str) -> tuple[str, str]:
    body = text.strip()
    if not (body.startswith("PCF(") and body.endswith(")")):
        raise ValueError(f"not a PCF: {text!r}")
    a, b = body[4:-1].split(";", 1)
    return a.strip(), b.strip()


def _mat_mul(x, y):
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


# -- search -----------------------------------------------------------------------------


def load_constant(name: str, digits: int) -> mp.mpf:
    """The shipped constant, read straight from its digit file."""
    lines = (DATA / f"{name}.txt").read_text().split()
    return mp.mpf(f"{lines[0]}.{''.join(lines[1:])[: digits + 10]}")


def cf_limit(a, b, digits):
    """Limit of b(s)/(a(s) + b(s+1)/(a(s+1) + ...)) by forward recurrence.

    ``a``/``b`` are coefficient lists (low to high) and ``s`` is one past
    the largest positive integer root of b, as the package starts its
    products.  Depth doubles until two depths agree to ``digits`` digits;
    returns (value, agreeing digits).
    """
    roots = [n for n in range(1, 501) if poly_value(b, n) == 0]
    start = max(roots) + 1 if roots else 1
    with mp.workdps(digits + 30):
        p0, q0 = mp.mpf(1), mp.mpf(0)  # first column of the running product
        p1, q1 = mp.mpf(0), mp.mpf(1)  # second column
        n = start
        prev = None
        depth = 256
        while True:
            while n < start + depth:
                an, bn = poly_value(a, n), poly_value(b, n)
                an = mp.mpf(an.numerator) / an.denominator
                bn = mp.mpf(bn.numerator) / bn.denominator
                p0, q0, p1, q1 = p1, q1, bn * p0 + an * p1, bn * q0 + an * q1
                scale = abs(q1) or mp.mpf(1)
                p0, q0, p1, q1 = p0 / scale, q0 / scale, p1 / scale, q1 / scale
                n += 1
            value = p1 / q1 if q1 else mp.inf
            agree = 0
            if prev is not None and mp.isfinite(value) and mp.isfinite(prev):
                gap = abs(value - prev)
                agree = digits if gap == 0 else int(-mp.log10(gap / max(abs(value), 1)))
            if agree >= digits or depth >= MAX_TERMS:
                return value, max(0, min(agree, digits))
            prev = value
            depth *= 2


def mobius(matrix, x):
    (a, b), (c, d) = matrix
    return (a * x + b) / (c * x + d)


def check_search(outputs, known: dict):
    """Planted candidates must give their known canonical form and matrix;
    every other identification must hold to EXTRA_DIGITS digits beyond the
    digits identification used, by direct evaluation of the fraction."""
    out = []
    for rec in outputs:
        rid = rec["id"]
        if rec.get("error"):
            out.append(verdict(rid, failed=True, reason=f"raised {rec['error']}"))
            continue
        ident = rec["ident"]
        planted = rec.get("planted")
        if planted:
            want = known[planted]
            if [rec["canonical"]["a"], rec["canonical"]["b"]] != want["canonical"]:
                out.append(verdict(rid, failed=True, reason="planted: canonical form differs"))
            elif ident is None or ident["matrix"] != want["matrix"]:
                out.append(verdict(rid, failed=True, reason="planted: wrong identification"))
            else:
                out.append(verdict(rid, found=True, reason="planted: known answer"))
            continue
        if ident is None:
            out.append(verdict(rid, reason="not identified"))
            continue
        used = min(MAX_IDENT_DIGITS, rec["good_digits"] - 3)
        need = used + EXTRA_DIGITS
        a = [Fraction(c) for c in rec["canonical"]["a"]]
        b = [Fraction(c) for c in rec["canonical"]["b"]]
        value, agree = cf_limit(a, b, need)
        if agree < need:
            out.append(verdict(rid, failed=True,
                               reason=f"identification unconfirmed: fraction gives {agree} of {need} digits"))
            continue
        with mp.workdps(need + 30):
            image = mobius(ident["matrix"], load_constant(ident["constant"], need + 20))
            gap = abs(value - image)
        if gap > mp.mpf(10) ** (-need):
            out.append(verdict(rid, failed=True,
                               reason=f"spurious identification: off by {mp.nstr(gap, 3)} at {need} digits"))
        else:
            out.append(verdict(rid, found=True, reason="identification confirmed"))
    return out


# -- certificates ------------------------------------------------------------------------


def _companion_at(pcf_text, n):
    a, b = split_pcf_text(pcf_text)
    return [[Fraction(0), eval_poly_text(b, n)], [Fraction(1), eval_poly_text(a, n)]]


def _u_at(cert, n):
    return [[eval_poly_text(e, n) for e in row] for row in cert["u"]]


def certificate_holds(cert: dict, a_at, b_at, exact: bool, points=range(1, 7)) -> str | None:
    """None if p_a A(n) U(n+1) = p_b U(n) B(n) at the sample points.

    With ``exact`` false only proportionality of A U(n+1) and U(n) B is
    required: the package clears denominators of rational-function step
    matrices, which moves the scalar factor.  Returns the reason otherwise.
    """
    tested = 0
    for n in points:
        try:
            lhs = _mat_mul(a_at(n), _u_at(cert, n + 1))
            rhs = _mat_mul(_u_at(cert, n), b_at(n))
        except ZeroDivisionError:
            continue  # a pole of a rational step matrix: sample elsewhere
        tested += 1
        if exact:
            pa, pb = eval_poly_text(cert["p_a"], n), eval_poly_text(cert["p_b"], n)
            if any(pa * lhs[i][j] != pb * rhs[i][j] for i in range(2) for j in range(2)):
                return f"identity fails at n = {n}"
        else:
            flat_l = [lhs[i][j] for i in range(2) for j in range(2)]
            flat_r = [rhs[i][j] for i in range(2) for j in range(2)]
            if not any(flat_r) or any(
                flat_l[i] * flat_r[j] != flat_l[j] * flat_r[i]
                for i in range(4) for j in range(4)
            ):
                return f"products not proportional at n = {n}"
    if tested < 3:
        return "too few regular sample points"
    return None


def check_cluster(output):
    """Every exported certificate must hold from its JSON alone and must have
    re-verified through the package's own verifier; records joined to a
    cluster of size >= 2 by such certificates are found."""
    bad_nodes = {}
    for name, text in sorted(output["certificates"].items()):
        cert = json.loads(text)
        parent, child = cert["pair"]
        reason = None
        if "linked_a" in cert:
            reason = certificate_holds(
                cert,
                lambda n: _companion_at(cert["linked_a"], n),
                lambda n: _companion_at(cert["linked_b"], n),
                exact=True,
            )
        else:
            recs = output["deep_recurrences"]
            if parent not in recs or recs[parent] != recs.get(child):
                reason = "identity edge between different recurrences"
        if reason is None and output["verify"].get(name) != "ok":
            reason = f"re-verification: {output['verify'].get(name)}"
        if reason is not None:
            bad_nodes[child] = f"certificate {name}: {reason}"
    comp_of = {}
    for root, members in output["components"].items():
        for m in members:
            comp_of[m] = root
    bad_roots = {comp_of[n] for n in bad_nodes if n in comp_of}
    sizes = {root: len(members) for root, members in output["components"].items()}
    out = []
    for rec in output["records"]:
        rid = rec["id"]
        if rec.get("error"):
            out.append(verdict(rid, failed=True, reason=f"raised {rec['error']}"))
        elif rid in bad_nodes:
            out.append(verdict(rid, failed=True, reason=bad_nodes[rid]))
        elif rec["outcome"] == "rejection":
            out.append(verdict(rid, reason=f"rejected: {rec['reason']}"))
        else:
            root = comp_of.get(rid)
            found = root is not None and sizes[root] >= 2 and root not in bad_roots
            out.append(verdict(rid, found=found, reason="clustered" if found else "alone"))
    return out


# -- field --------------------------------------------------------------------------------


def _rf_matrix_at(rows, n):
    out = []
    for row in rows:
        vals = []
        for text in row:
            if " / " in text:
                num, den = text.split(" / ")
                d = eval_poly_text(den, n)
                if d == 0:
                    raise ZeroDivisionError(text)
                vals.append(eval_poly_text(num, n) / d)
            else:
                vals.append(eval_poly_text(text, n))
        out.append(vals)
    return out


def check_field(outputs, published: dict):
    """Gauge certificates must hold pointwise from their JSON and re-verify
    after the round trip with the same external polynomials; planted
    trajectories must give their published PCFs."""
    out = []
    for rec in outputs:
        rid = rec["id"]
        if rec.get("error"):
            out.append(verdict(rid, failed=True, reason=f"raised {rec['error']}"))
            continue
        if rec.get("singular"):
            out.append(verdict(rid, reason="trajectory singularity"))
            continue
        cert = json.loads(rec["cert_json"])
        reason = certificate_holds(
            cert,
            lambda n: _rf_matrix_at(rec["t_xv"], n),
            lambda n: _rf_matrix_at(rec["t_x2v"], n),
            exact=False,
            points=range(1, 9),
        )
        if reason is None and rec["roundtrip"] != [cert["p_a"], cert["p_b"]]:
            reason = "round trip changed the external polynomials"
        if reason is not None:
            out.append(verdict(rid, failed=True, reason=reason))
            continue
        planted = rec.get("planted")
        if planted and rec["pcf"] != published[planted]:
            out.append(verdict(rid, failed=True, reason="planted: PCF differs from published"))
            continue
        found = rec["pcf"] is not None
        out.append(verdict(rid, found=found, reason="canonical PCF" if found else "no PCF"))
    return out
