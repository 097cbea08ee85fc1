"""Corpus ingestion, validation, coboundary-graph clustering, and reports.

A corpus is a JSON file of formula records (series summands, continued
fractions, or raw recurrences) declaring a target constant.  Validation
turns each record into a canonical-form node: series are summed exactly and
fitted with a minimal recurrence, limits are evaluated to high precision and
identified against the declared constant by integer-relation detection, and
the dynamical metrics are attached.

Clustering grows a forest per the delta-binned hub algorithm, deterministic
variant: hubs are chosen by smallest id rather than at random (the resulting
equivalence classes are the same; tree shapes may differ), and a node that
falls into two bins is processed in its nearest-center bin first with a
global matched set preventing duplicates.  Matched field-generated nodes
become roots of their trees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .coboundary import CoboundaryCertificate, MatchContext, match_pair
from .guess import eval_series_terms, guess_recurrence
from .metrics import DeltaEstimate, RateEstimate
from .parsing import ParseError, parse_ast, parse_poly
from .poly import ONE
from .recurrence import PCF, Recurrence
from .transforms import to_pcf_canonical

CORPUS_SCHEMA_VERSION = 1
CERTIFICATE_SCHEMA_VERSION = 1

KINDS = ("series", "cf", "pcf", "recurrence")


class CorpusError(ValueError):
    pass


@dataclass
class FormulaRecord:
    id: str
    constant: str
    kind: str
    payload: dict
    start_index: int = 0
    declared_value: str | None = None
    source: str = ""
    sources: tuple = ()

    def payload_key(self):
        """Structural identity of the mathematical content, for dedup."""
        return (self.kind, json.dumps(self.payload, sort_keys=True), self.start_index)


def _check_payload(rec: FormulaRecord, index: int):
    where = f"record {index} (id={rec.id!r})"
    try:
        if rec.kind == "series":
            parse_ast(rec.payload["term"])
        elif rec.kind in ("cf", "pcf"):
            parse_poly(rec.payload["a"])
            parse_poly(rec.payload["b"])
        elif rec.kind == "recurrence":
            for c in rec.payload["coeffs"]:
                parse_poly(c)
            if "den" in rec.payload:
                parse_poly(rec.payload["den"])
        else:
            raise CorpusError(f"{where}: unknown kind {rec.kind!r}")
    except KeyError as exc:
        raise CorpusError(f"{where}: missing payload field {exc}") from exc
    except (ParseError, ValueError, ZeroDivisionError) as exc:
        raise CorpusError(f"{where}: payload does not parse: {exc}") from exc


def ingest_corpus(path) -> list[FormulaRecord]:
    """Load, validate, and deduplicate a corpus file."""
    if isinstance(path, (str, Path)):
        with open(path) as f:
            data = json.load(f)
    else:
        data = path
    if data.get("schema_version") != CORPUS_SCHEMA_VERSION:
        raise CorpusError(
            f"unsupported corpus schema_version {data.get('schema_version')!r}"
        )
    records = []
    seen_ids = set()
    by_payload = {}
    for i, raw in enumerate(data.get("formulas", [])):
        try:
            rec = FormulaRecord(
                id=raw["id"],
                constant=raw["constant"],
                kind=raw["kind"],
                payload=raw["payload"],
                start_index=int(raw.get("start_index", 0)),
                declared_value=raw.get("declared_value"),
                source=raw.get("source", ""),
            )
        except KeyError as exc:
            raise CorpusError(f"record {i}: missing field {exc}") from exc
        if rec.id in seen_ids:
            raise CorpusError(f"record {i}: duplicate id {rec.id!r}")
        seen_ids.add(rec.id)
        _check_payload(rec, i)
        key = rec.payload_key()
        if key in by_payload:
            prev = by_payload[key]
            prev.sources = tuple(sorted(set(prev.sources) | {rec.source}))
            continue
        rec.sources = (rec.source,) if rec.source else ()
        by_payload[key] = rec
        records.append(rec)
    return records


# -- validation ---------------------------------------------------------------------


@dataclass
class GraphNode:
    id: str
    canonical_pcf: PCF | None
    delta: DeltaEstimate | None
    rate: RateEstimate | None
    source_kind: str = "formula"  # formula | cmf
    was_hub: bool = False
    recurrence: Recurrence | None = None  # set for order > 2 nodes
    identified_value: str | None = None
    record: FormulaRecord | None = None
    direction: tuple | None = None  # for cmf nodes

    @property
    def clusterable(self) -> bool:
        return self.canonical_pcf is not None and self.delta is not None


@dataclass
class Rejection:
    id: str
    reason: str
    detail: str = ""


def validate_formula(rec: FormulaRecord, ctx: MatchContext) -> GraphNode | Rejection:
    """Canonicalize one record, identify its limit, and attach metrics."""
    try:
        if rec.kind == "series":
            sums = eval_series_terms(rec.payload["term"], rec.start_index, 200)
            guess = guess_recurrence(sums, max_order=3, max_degree=24)
            if guess is None:
                return Rejection(rec.id, "fit-failed", "no recurrence within bounds")
            recurrence = guess.recurrence
        elif rec.kind in ("cf", "pcf"):
            recurrence = PCF(
                parse_poly(rec.payload["a"]), parse_poly(rec.payload["b"])
            ).to_recurrence()
        else:
            coeffs = [parse_poly(c) for c in rec.payload["coeffs"]]
            den = parse_poly(rec.payload["den"]) if "den" in rec.payload else ONE
            recurrence = Recurrence(coeffs=coeffs, den=den)
    except (ValueError, ZeroDivisionError) as exc:
        return Rejection(rec.id, "payload-error", str(exc))

    if recurrence.order == 1:
        return Rejection(
            rec.id, "degenerate-recurrence", "order-1 (telescoping) fit"
        )
    if recurrence.order > 2:
        # stored for structural matching only (accepted-but-unclusterable)
        return GraphNode(
            id=rec.id,
            canonical_pcf=None,
            delta=None,
            rate=None,
            recurrence=recurrence,
            record=rec,
        )

    canonical, _ = to_pcf_canonical(recurrence)
    ident = ctx.identification(canonical)
    if ident is None:
        lim = ctx.limit(canonical)
        return Rejection(
            rec.id,
            "identification-failed",
            f"limit ~ {str(lim.value)[:30]}... not a Moebius image of {rec.constant}",
        )
    delta = ctx.delta(canonical)
    rate = ctx.rate(canonical)
    return GraphNode(
        id=rec.id,
        canonical_pcf=canonical,
        delta=delta,
        rate=rate,
        identified_value=ident.describe(),
        record=rec,
    )


def _validate_worker(args):
    rec, ctx = args
    return validate_formula(rec, ctx), ctx._cache


def validate_many(records, ctx: MatchContext, jobs: int = 1, progress=None):
    """Validate records, optionally in parallel processes.

    Results are applied in record order either way, and the per-formula
    analysis computed by workers is merged into ``ctx``'s memo so the
    clustering stage does not repeat it.
    """
    nodes, rejections = [], []
    if jobs <= 1:
        outputs = (validate_formula(rec, ctx) for rec in records)
        for rec, out in zip(records, outputs):
            if progress:
                progress(f"validated {rec.id}" if isinstance(out, GraphNode) else f"rejected {rec.id}")
            (nodes if isinstance(out, GraphNode) else rejections).append(out)
        return nodes, rejections
    from concurrent.futures import ProcessPoolExecutor

    blank = replace(ctx, _cache={})
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_validate_worker, [(rec, blank) for rec in records]))
    for rec, (out, memo) in zip(records, results):
        ctx._cache.update(memo)
        if progress:
            progress(f"validated {rec.id}" if isinstance(out, GraphNode) else f"rejected {rec.id}")
        (nodes if isinstance(out, GraphNode) else rejections).append(out)
    return nodes, rejections


def cmf_nodes_for_directions(cmf, start, directions, ctx: MatchContext) -> list[GraphNode]:
    """Field-generated nodes (roots-to-be) for the given trajectory directions."""
    from .cmf import TrajectorySingularity, trajectory_pcf

    nodes = []
    for v in directions:
        try:
            pcf, _ = trajectory_pcf(cmf, start, v)
        except TrajectorySingularity:
            continue
        nodes.append(
            GraphNode(
                id="cmf" + str(tuple(int(c) for c in v)).replace(" ", ""),
                canonical_pcf=pcf,
                delta=ctx.delta(pcf),
                rate=ctx.rate(pcf),
                source_kind="cmf",
                direction=tuple(int(c) for c in v),
            )
        )
    return nodes


# -- graph growing --------------------------------------------------------------------


@dataclass
class Edge:
    parent: str
    child: str
    certificate: CoboundaryCertificate
    linked_a: PCF | None = None  # the (folded, shifted) forms the identity relates
    linked_b: PCF | None = None


@dataclass
class CoboundaryGraph:
    nodes: dict  # id -> GraphNode
    edges: list  # Edge, parent is the hub / field node

    def roots(self):
        childed = {e.child for e in self.edges}
        return sorted(i for i in self.nodes if i not in childed)

    def components(self):
        """Sorted member lists of each tree, keyed by root id."""
        parent = {}
        for e in self.edges:
            parent[e.child] = e.parent

        def find_root(i):
            while i in parent:
                i = parent[i]
            return i

        comps = {}
        for i in self.nodes:
            comps.setdefault(find_root(i), []).append(i)
        return {root: sorted(members) for root, members in sorted(comps.items())}


BIN_CENTERS = [Fraction(-100 + 5 * k, 100) for k in range(21)]  # -1.00 .. 0.00


def bins_for_delta(delta: float, tol: float = 0.05):
    """Centers whose bin contains delta, nearest first."""
    hits = [c for c in BIN_CENTERS if abs(delta - float(c)) < tol]
    return sorted(hits, key=lambda c: (abs(delta - float(c)), c))


def grow_coboundary_graph(
    nodes: list[GraphNode],
    cmf_nodes: list[GraphNode] | None = None,
    ctx: MatchContext | None = None,
    progress=None,
) -> CoboundaryGraph:
    """Deterministic delta-binned hub matching; field nodes end up as roots."""
    ctx = ctx or MatchContext()
    cmf_nodes = cmf_nodes or []
    all_nodes = {}
    for n in nodes + cmf_nodes:
        if n.id in all_nodes:
            raise ValueError(f"duplicate node id {n.id!r}")
        all_nodes[n.id] = n

    edges: list[Edge] = []
    childed: set[str] = set()

    def try_match(parent: GraphNode, child: GraphNode) -> bool:
        if progress:
            progress(f"match {parent.id} ~ {child.id}")
        res = match_pair(parent.canonical_pcf, child.canonical_pcf, ctx)
        if not res.matched:
            return False
        edges.append(
            Edge(
                parent=parent.id,
                child=child.id,
                certificate=res.certificate,
                linked_a=res.pcf_a,
                linked_b=res.pcf_b,
            )
        )
        childed.add(child.id)
        return True

    # structural matching for order > 2 nodes: identical recurrences only
    deep = sorted(
        (n for n in nodes if n.recurrence is not None and n.recurrence.order > 2),
        key=lambda n: n.id,
    )
    for i, a in enumerate(deep):
        if a.id in childed:
            continue
        for b in deep[i + 1 :]:
            if b.id in childed:
                continue
            if a.recurrence == b.recurrence:
                from .coboundary import _structural_identity_result

                res = _structural_identity_result(None)
                edges.append(Edge(a.id, b.id, res.certificate))
                childed.add(b.id)

    clusterable = [n for n in nodes if n.clusterable]
    bin_members: dict[Fraction, list[GraphNode]] = {c: [] for c in BIN_CENTERS}
    for n in clusterable:
        for c in bins_for_delta(n.delta.delta, ctx.delta_tol):
            bin_members[c].append(n)

    roots_by_bin: dict[Fraction, list[GraphNode]] = {}
    for center in BIN_CENTERS:
        members = sorted(bin_members[center], key=lambda n: n.id)
        pool = [
            n
            for n in members
            if n.id not in childed
            and bins_for_delta(n.delta.delta, ctx.delta_tol)[0] == center
        ]
        # nodes whose primary bin is elsewhere still participate as candidates
        secondary = [
            n
            for n in members
            if n.id not in childed
            and bins_for_delta(n.delta.delta, ctx.delta_tol)[0] != center
        ]
        pool = pool + secondary
        bin_roots = []
        while True:
            pool = [n for n in pool if n.id not in childed]
            hubs = [n for n in pool if not n.was_hub]
            if not hubs:
                break
            hub = hubs[0]
            for cand in list(pool):
                if cand.id == hub.id or cand.id in childed:
                    continue
                try_match(hub, cand)
            hub.was_hub = True
            pool = [n for n in pool if n.id != hub.id]
            bin_roots.append(hub)
        bin_roots.extend(n for n in pool if n.id not in childed and n not in bin_roots)
        roots_by_bin[center] = bin_roots

    # attach field-generated nodes to the surviving hubs of their bins
    for center in BIN_CENTERS:
        field_here = sorted(
            (
                n
                for n in cmf_nodes
                if n.clusterable
                and center in bins_for_delta(n.delta.delta, ctx.delta_tol)
            ),
            key=lambda n: n.direction or (),
        )
        for fnode in field_here:
            for root in roots_by_bin.get(center, []):
                if root.id in childed:
                    continue
                try_match(fnode, root)  # a field node may collect several roots
    return CoboundaryGraph(nodes=all_nodes, edges=edges)


# -- reports ---------------------------------------------------------------------------


def _cert_json(edge: Edge, graph: CoboundaryGraph) -> dict:
    out = edge.certificate.to_json(pair=(edge.parent, edge.child))
    if edge.linked_a is not None:
        out["linked_a"] = str(edge.linked_a)
        out["linked_b"] = str(edge.linked_b)
    pa = graph.nodes[edge.parent].canonical_pcf
    pb = graph.nodes[edge.child].canonical_pcf
    if pa is not None:
        out["canonical_a"] = str(pa)
    if pb is not None:
        out["canonical_b"] = str(pb)
    return out


def export_report(graph: CoboundaryGraph, outdir, rejections=None) -> dict:
    """Write certificate files, the cluster summary, and a readable digest.

    Output is deterministic: same corpus and defaults give byte-identical
    files.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    certdir = outdir / "certificates"
    certdir.mkdir(exist_ok=True)
    for e in sorted(graph.edges, key=lambda e: (e.parent, e.child)):
        blob = _cert_json(e, graph)
        name = f"{e.parent}__{e.child}.json".replace("/", "_")
        (certdir / name).write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")

    comps = graph.components()
    clusters = []
    for root, members in comps.items():
        node = graph.nodes[root]
        entry = {
            "root": root,
            "members": members,
            "size": len(members),
        }
        if node.source_kind == "cmf":
            entry["cmf_direction"] = list(node.direction)
        if node.delta is not None:
            entry["delta"] = round(node.delta.delta, 4)
        clusters.append(entry)
    clusters.sort(key=lambda c: (-c["size"], c["root"]))
    summary = {
        "schema_version": CERTIFICATE_SCHEMA_VERSION,
        "clusters": clusters,
        "edge_count": len(graph.edges),
        "node_count": len(graph.nodes),
        "rejected": [
            {"id": r.id, "reason": r.reason, "detail": r.detail}
            for r in sorted(rejections or [], key=lambda r: r.id)
        ],
    }
    (outdir / "clusters.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    lines = ["# Coboundary graph summary", ""]
    lines.append(f"{len(graph.nodes)} nodes, {len(graph.edges)} verified edges.")
    lines.append("")
    for c in clusters:
        head = f"## {c['root']}"
        if "cmf_direction" in c:
            head += f"  (field trajectory {tuple(c['cmf_direction'])})"
        lines.append(head)
        if "delta" in c:
            lines.append(f"delta = {c['delta']}")
        for m in c["members"]:
            node = graph.nodes[m]
            desc = str(node.canonical_pcf) if node.canonical_pcf else "(order > 2)"
            val = f"  = {node.identified_value}" if node.identified_value else ""
            lines.append(f"- {m}: {desc}{val}")
        lines.append("")
    if summary["rejected"]:
        lines.append("## Rejected")
        for r in summary["rejected"]:
            lines.append(f"- {r['id']}: {r['reason']} ({r['detail']})")
        lines.append("")
    (outdir / "report.md").write_text("\n".join(lines))
    return summary
