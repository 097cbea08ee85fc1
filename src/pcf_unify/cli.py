"""Command-line interface.

Exit codes: 0 success, 1 not-matched / not-found, 2 input error (including
input the exact arithmetic cannot evaluate: a zero denominator or a pole),
3 internal verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp


def _add_common(p):
    p.add_argument("--depth", type=int, default=None, help="evaluation depth")
    p.add_argument(
        "--precision-digits", type=int, default=250, help="working decimal digits"
    )
    p.add_argument("--delta-tol", type=float, default=0.05)
    p.add_argument("--fold-cap", type=int, default=12)
    p.add_argument("--degree-cap", type=int, default=24)
    p.add_argument("--radius", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--constant", default="pi", help="target constant name")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="pcf-unify",
        description=(
            "Exact-arithmetic toolkit for polynomial continued fractions: "
            "metrics, coboundary certificates, and conservative matrix fields."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate the limit of a PCF")
    p.add_argument("pcf", help="PCF(a; b)")
    _add_common(p)

    p = sub.add_parser("delta", help="finite-depth irrationality measure")
    p.add_argument("pcf")
    _add_common(p)

    p = sub.add_parser("rate", help="convergence rate (0 when below threshold)")
    p.add_argument("pcf")
    _add_common(p)

    p = sub.add_parser("canonicalize", help="canonical form of a PCF")
    p.add_argument("pcf")
    _add_common(p)

    p = sub.add_parser("guess", help="fit a recurrence to a series")
    p.add_argument("term", help="series summand in the term grammar")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--terms", type=int, default=200)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--max-degree", type=int, default=24)
    _add_common(p)

    p = sub.add_parser("match", help="find a coboundary certificate for a pair")
    p.add_argument("a", help="PCF(a; b)")
    p.add_argument("b", help="PCF(a; b)")
    p.add_argument("--out", help="write the certificate JSON here")
    _add_common(p)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate", help="certificate JSON path")
    _add_common(p)

    p = sub.add_parser("cmf", help="conservative matrix field operations")
    p.add_argument("action", choices=["check", "trajectory", "scan"])
    p.add_argument("--file", help="CMF definition JSON (default: bundled pi field)")
    p.add_argument("--point", default="1/2,1/2,1/2")
    p.add_argument("--direction", default="1,0,0")
    _add_common(p)

    p = sub.add_parser("cluster", help="validate and cluster a corpus")
    p.add_argument("corpus", help="corpus JSON path, or 'bundled:pi' / 'bundled:table1'")
    p.add_argument("--out", default="out", help="report directory")
    p.add_argument(
        "--directions",
        default="",
        help="comma-separated field directions to attach, e.g. '1,0,0;1,1,1'",
    )
    _add_common(p)

    p = sub.add_parser("report", help="re-render the digest from a report directory")
    p.add_argument("outdir")
    _add_common(p)
    return ap


def _ctx(args):
    from .coboundary import MatchContext

    return MatchContext(
        constant=args.constant,
        metric_depth=args.depth or 2000,
        limit_depth=args.depth or 4000,
        limit_digits=args.precision_digits,
        delta_tol=args.delta_tol,
        degree_cap=args.degree_cap,
        max_fold=args.fold_cap,
    )


def _parse_point(text):
    return tuple(Fraction(x) for x in text.split(","))


def _parse_direction(text):
    return tuple(int(x) for x in text.split(","))


def cmd_eval(args):
    from .recurrence import evaluate_limit, parse_pcf

    pcf = parse_pcf(args.pcf)
    lim = evaluate_limit(
        pcf, depth=args.depth or 4000, precision_digits=args.precision_digits
    )
    with mp.workdps(args.precision_digits):
        print(mp.nstr(lim.value, min(args.precision_digits, lim.good_digits() + 1) or 10))
        print(f"# error bound ~ 1e{int(mp.log10(lim.error_bound)) if lim.error_bound else '-inf'}")
    return 0


def cmd_delta(args):
    from .metrics import irrationality_delta
    from .recurrence import parse_pcf

    d = irrationality_delta(parse_pcf(args.pcf), args.depth or 2000)
    print(f"{d.delta:.6f}" if d.defined else "undefined")
    return 0


def cmd_rate(args):
    from .metrics import convergence_rate
    from .recurrence import parse_pcf

    r = convergence_rate(parse_pcf(args.pcf), args.depth or 2000)
    print(f"{r.rate:.6f}" if r.defined else "undefined")
    return 0


def cmd_canonicalize(args):
    from .recurrence import parse_pcf
    from .transforms import to_pcf_canonical

    canon, trace = to_pcf_canonical(parse_pcf(args.pcf))
    print(str(canon))
    for step in trace.to_json():
        print(f"# {step}")
    return 0


def cmd_guess(args):
    from .guess import eval_series_terms, guess_recurrence
    from .transforms import to_pcf_canonical

    sums = eval_series_terms(args.term, args.start, args.terms)
    g = guess_recurrence(sums, args.max_order, args.max_degree)
    if g is None:
        print("no recurrence found within bounds", file=sys.stderr)
        return 1
    rec = g.recurrence
    print(f"order {g.order}, degree {g.degree}, surplus verified {g.surplus_verified}")
    print(f"den: {rec.den}")
    for i, c in enumerate(rec.coeffs, 1):
        print(f"a_{i}: {c}")
    if g.order == 2:
        canon, _ = to_pcf_canonical(rec)
        print(f"canonical: {canon}")
    return 0


def cmd_match(args):
    from .coboundary import match_pair
    from .recurrence import parse_pcf

    res = match_pair(parse_pcf(args.a), parse_pcf(args.b), _ctx(args))
    if not res.matched:
        print(f"not matched: {res.status}", file=sys.stderr)
        for k, v in res.diagnostics.items():
            print(f"#   {k}: {v}", file=sys.stderr)
        return 1
    blob = res.certificate.to_json(pair=(args.a, args.b))
    blob["linked_a"] = str(res.pcf_a)
    blob["linked_b"] = str(res.pcf_b)
    text = json.dumps(blob, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_verify(args):
    from .coboundary import CoboundaryCertificate, VerificationError, verify_coboundary
    from .recurrence import parse_pcf

    data = json.loads(Path(args.certificate).read_text())
    cert = CoboundaryCertificate.from_json(data)
    try:
        a = parse_pcf(data["linked_a"])
        b = parse_pcf(data["linked_b"])
    except KeyError:
        print("certificate lacks linked_a/linked_b forms", file=sys.stderr)
        return 2
    try:
        fresh = verify_coboundary(a.companion().matrix, b.companion().matrix, cert.u)
    except VerificationError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 3
    if (fresh.p_a, fresh.p_b) != (cert.p_a, cert.p_b):
        print("verification FAILED: external polynomials differ", file=sys.stderr)
        return 3
    print("certificate verifies: "
          f"p_a = {fresh.p_a}, p_b = {fresh.p_b}, hash {fresh.identity_hash()[:16]}...")
    return 0


def cmd_cmf(args):
    from .cmf import CMF, check_conserving, pi_cmf, scan_trajectories, trajectory_pcf

    field = CMF.load(args.file) if args.file else pi_cmf()
    if args.action == "check":
        bad = check_conserving(field)
        if bad:
            print(f"conserving property violated for pairs: {bad}", file=sys.stderr)
            return 3
        print("conserving property holds")
        return 0
    point = _parse_point(args.point)
    if args.action == "trajectory":
        direction = _parse_direction(args.direction)
        pcf, trace = trajectory_pcf(field, point, direction)
        print(str(pcf))
        return 0
    results = scan_trajectories(
        field, point, radius=args.radius, metric_depth=args.depth or 2000
    )
    for v, pcf, delta in results:
        if pcf is None:
            print(f"{v}: (singular)")
        else:
            print(f"{v}: {pcf}  delta={delta.delta:.4f}" if delta.defined else f"{v}: {pcf}")
    return 0


def cmd_cluster(args):
    from importlib import resources

    from .cmf import pi_cmf
    from .pipeline import (
        cmf_nodes_for_directions,
        export_report,
        grow_coboundary_graph,
        ingest_corpus,
        validate_many,
    )

    if args.corpus.startswith("bundled:"):
        name = {"pi": "corpus_pi", "table1": "corpus_table1", "other": "corpus_other"}[
            args.corpus.split(":", 1)[1]
        ]
        data = json.loads(
            resources.files("pcf_unify.data").joinpath(name + ".json").read_text()
        )
        records = ingest_corpus(data)
    else:
        records = ingest_corpus(args.corpus)

    ctx = _ctx(args)
    nodes, rejections = validate_many(
        records, ctx, jobs=args.jobs, progress=lambda m: print(m, file=sys.stderr)
    )

    cmf_nodes = []
    if args.directions:
        directions = [
            _parse_direction(part) for part in args.directions.split(";") if part
        ]
        start = (Fraction(1, 2),) * 3
        cmf_nodes = cmf_nodes_for_directions(pi_cmf(), start, directions, ctx)

    graph = grow_coboundary_graph(
        nodes, cmf_nodes, ctx, progress=lambda m: print(m, file=sys.stderr)
    )
    summary = export_report(graph, args.out, rejections)
    print(json.dumps({"clusters": len(summary["clusters"]), "edges": summary["edge_count"]}))
    return 0


def cmd_report(args):
    outdir = Path(args.outdir)
    cl = outdir / "clusters.json"
    if not cl.exists():
        print(f"no clusters.json under {outdir}", file=sys.stderr)
        return 2
    summary = json.loads(cl.read_text())
    for c in summary["clusters"]:
        label = f" field {tuple(c['cmf_direction'])}" if "cmf_direction" in c else ""
        delta = f" delta={c['delta']}" if "delta" in c else ""
        print(f"{c['root']}{label}{delta}: {c['size']} members")
    return 0


COMMANDS = {
    "eval": cmd_eval,
    "delta": cmd_delta,
    "rate": cmd_rate,
    "canonicalize": cmd_canonicalize,
    "guess": cmd_guess,
    "match": cmd_match,
    "verify": cmd_verify,
    "cmf": cmd_cmf,
    "cluster": cmd_cluster,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
