"""The timed work of each workload, driven through ``pcf_unify``'s public API.

Each ``run_*`` function receives only generated inputs, calls the library
with its defaults, and records per item its latency and the outputs the
checker needs.  Documented outcomes (``Rejection``, non-``matched`` match
statuses, ``TrajectorySingularity``) are recorded as outcomes; any other
exception is recorded as the item's error.  ``tracer``, when given, is told
which item is running so that its spans carry the item id.
"""

from __future__ import annotations

import json
import tempfile
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pcf_unify as pu
from pcf_unify import CoboundaryCertificate, MatchContext, cmf, constants, pipeline
from pcf_unify.cmf import TrajectorySingularity
from pcf_unify.coboundary import VerificationError
from pcf_unify.pipeline import GraphNode

# Library functions are looked up on their modules at call time, so that a
# tracer installed after this import sees every call.

HALF = Fraction(1, 2)
CLUSTER_START = (HALF, HALF, HALF)
CLUSTER_DIRECTIONS = [(1, 0, 0), (1, 1, 1)]


def _coeffs(poly) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _set_item(tracer, item):
    if tracer is not None:
        tracer.item = item


# -- setup ---------------------------------------------------------------------------


def setup(workload: str):
    """Program-side set-up before the first item: constant load, field parse,
    and the conserving check (field) or ingestion of the bundled corpora
    (cluster), read the way ``pcf-unify cluster bundled:...`` reads them."""
    constants.constant_value("pi", 300)
    field = pu.pi_cmf()
    if workload == "field" and cmf.check_conserving(field):
        raise RuntimeError("bundled pi field failed its conserving check")
    if workload == "cluster":
        data = resources.files("pcf_unify.data")
        for name in ("corpus_pi.json", "corpus_table1.json"):
            pu.ingest_corpus(json.loads(data.joinpath(name).read_text()))
    return field


# -- search --------------------------------------------------------------------------


def run_search(candidates, tracer=None):
    """parse -> to_pcf_canonical -> MatchContext.limit/.delta/.rate/.identification,
    with one MatchContext for the whole run, as a search service keeps."""
    ctx = MatchContext()
    outputs = []
    for cand in candidates:
        _set_item(tracer, cand["id"])
        rec = {"id": cand["id"], "planted": cand["planted"], "kind": cand["kind"]}
        t0 = time.perf_counter()
        try:
            canon, _ = pu.to_pcf_canonical(pu.parse_pcf(cand["text"]))
            lim = ctx.limit(canon)
            ctx.delta(canon)
            ctx.rate(canon)
            ident = ctx.identification(canon)
        except Exception as exc:  # any raise is a failed item, recorded not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["canonical"] = {"a": _coeffs(canon.a), "b": _coeffs(canon.b)}
            rec["good_digits"] = lim.good_digits()
            rec["ident"] = None if ident is None else {
                "matrix": [[int(ident.matrix[i, j]) for j in range(2)] for i in range(2)],
                "constant": ident.constant.name,
            }
        rec["latency_s"] = time.perf_counter() - t0
        outputs.append(rec)
    _set_item(tracer, None)
    return outputs


# -- cluster -------------------------------------------------------------------------


def run_cluster(doc: dict, field, workdir: Path, tracer=None):
    """ingest -> validate_many -> field nodes -> grow graph -> export -> verify
    every exported certificate from its JSON alone."""
    _set_item(tracer, "cluster")
    ctx = MatchContext()
    records_out = []
    marks = []

    def progress(_msg):
        marks.append(time.perf_counter())

    t0 = time.perf_counter()
    records = pu.ingest_corpus(doc)
    marks.append(time.perf_counter())
    nodes, rejections = pipeline.validate_many(records, ctx, progress=progress)
    latencies = [b - a for a, b in zip(marks, marks[1:])]
    by_id = {n.id: n for n in nodes}
    rejected = {r.id: r for r in rejections}
    for rec, lat in zip(records, latencies):
        if rec.id in rejected:
            records_out.append({"id": rec.id, "outcome": "rejection",
                                "reason": rejected[rec.id].reason, "latency_s": lat})
        else:
            records_out.append({"id": rec.id, "outcome": "node", "latency_s": lat})
    cmf_nodes = pipeline.cmf_nodes_for_directions(field, CLUSTER_START, CLUSTER_DIRECTIONS, ctx)
    graph = pu.grow_coboundary_graph(nodes, cmf_nodes, ctx)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        pu.export_report(graph, tmp, rejections)
        certs = {p.name: p.read_text() for p in sorted((Path(tmp) / "certificates").glob("*.json"))}
    verify = {name: _verify_certificate_json(text) for name, text in certs.items()}
    wall = time.perf_counter() - t0
    _set_item(tracer, None)
    deep = {
        n.id: [str(c) for c in n.recurrence.coeffs] + [str(n.recurrence.den)]
        for n in by_id.values()
        if isinstance(n, GraphNode) and n.recurrence is not None
    }
    return {
        "records": records_out,
        "certificates": certs,
        "verify": verify,
        "components": graph.components(),
        "canonical": [str(n.canonical_pcf) for n in nodes + cmf_nodes if n.canonical_pcf],
        "deep_recurrences": deep,
        "wall_s": wall,
    }


def _verify_certificate_json(text: str) -> str:
    """What ``pcf-unify verify`` does with a certificate file."""
    data = json.loads(text)
    cert = CoboundaryCertificate.from_json(data)
    if "linked_a" not in data:
        return "ok"  # identity edge between order > 2 nodes; checked by recurrence
    a, b = pu.parse_pcf(data["linked_a"]), pu.parse_pcf(data["linked_b"])
    try:
        fresh = pu.verify_coboundary(a.companion().matrix, b.companion().matrix, cert.u)
    except VerificationError as exc:
        return f"failed: {exc}"
    if (fresh.p_a, fresh.p_b) != (cert.p_a, cert.p_b):
        return "failed: external polynomials differ"
    return "ok"


# -- field ---------------------------------------------------------------------------


def run_field(instances, field, tracer=None):
    """Two trajectory matrices, the parallel gauge and its certificate, the
    trajectory PCF, and a JSON round trip of the certificate."""
    outputs = []
    for inst in instances:
        _set_item(tracer, inst["id"])
        rec = {"id": inst["id"], "planted": inst["planted"]}
        point = [Fraction(p) for p in inst["point"]]
        v, w = inst["direction"], inst["offset"]
        shifted = [p + d for p, d in zip(point, w)]
        t0 = time.perf_counter()
        try:
            t_xv = pu.trajectory_matrix(field, point, v)
            t_x2v = pu.trajectory_matrix(field, shifted, v)
            gauge = cmf.parallel_gauge(field, point, v, w)
            cert = pu.verify_coboundary(t_xv.matrix, t_x2v.matrix, gauge)
            pcf, _ = pu.trajectory_pcf(field, point, v)
            text = json.dumps(cert.to_json())
            back = CoboundaryCertificate.from_json(json.loads(text))
            again = pu.verify_coboundary(t_xv.matrix, t_x2v.matrix, back.u)
        except TrajectorySingularity:
            rec["singular"] = True
        except Exception as exc:  # any raise is a failed item, recorded not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["t_xv"] = [[str(e) for e in row] for row in t_xv.matrix.rows]
            rec["t_x2v"] = [[str(e) for e in row] for row in t_x2v.matrix.rows]
            rec["cert_json"] = text
            again_json = again.to_json()
            rec["roundtrip"] = [again_json["p_a"], again_json["p_b"]]
            rec["pcf"] = [_coeffs(pcf.a), _coeffs(pcf.b)]
        rec["latency_s"] = time.perf_counter() - t0
        outputs.append(rec)
    _set_item(tracer, None)
    return outputs
