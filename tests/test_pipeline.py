import hashlib
import json
from fractions import Fraction

import pytest

from pcf_unify.coboundary import MatchContext
from pcf_unify.parsing import parse_poly
from pcf_unify.pipeline import (
    CorpusError,
    GraphNode,
    Rejection,
    bins_for_delta,
    cmf_nodes_for_directions,
    export_report,
    grow_coboundary_graph,
    ingest_corpus,
    validate_formula,
)
from pcf_unify.recurrence import PCF


@pytest.fixture(scope="module")
def ctx():
    return MatchContext(constant="pi")


def corpus(formulas):
    return {"schema_version": 1, "formulas": formulas}


def test_ingest_empty():
    assert ingest_corpus(corpus([])) == []


def test_ingest_rejects_bad_schema():
    with pytest.raises(CorpusError):
        ingest_corpus({"schema_version": 99, "formulas": []})


def test_ingest_rejects_malformed_polynomial():
    with pytest.raises(CorpusError) as e:
        ingest_corpus(
            corpus(
                [
                    {
                        "id": "bad",
                        "constant": "pi",
                        "kind": "pcf",
                        "payload": {"a": "3n+", "b": "1"},
                    }
                ]
            )
        )
    assert "bad" in str(e.value)


def test_ingest_rejects_zero_division_payload():
    with pytest.raises(CorpusError) as e:
        ingest_corpus(
            corpus(
                [
                    {
                        "id": "div0",
                        "constant": "pi",
                        "kind": "pcf",
                        "payload": {"a": "n", "b": "1/0"},
                    }
                ]
            )
        )
    assert "div0" in str(e.value)


def test_ingest_rejects_duplicate_ids():
    rec = {
        "id": "x",
        "constant": "pi",
        "kind": "pcf",
        "payload": {"a": "1", "b": "1"},
    }
    with pytest.raises(CorpusError):
        ingest_corpus(corpus([rec, dict(rec)]))


def test_ingest_collapses_structural_duplicates():
    a = {
        "id": "first",
        "constant": "pi",
        "kind": "pcf",
        "payload": {"a": "2", "b": "(2n-1)^2"},
        "source": "src1",
    }
    b = dict(a, id="second", source="src2")
    recs = ingest_corpus(corpus([a, b]))
    assert len(recs) == 1
    assert recs[0].sources == ("src1", "src2")


def test_bundled_corpora_ingest():
    from importlib import resources

    for name, minimum in [("corpus_table1", 5), ("corpus_pi", 90), ("corpus_other", 6)]:
        data = json.loads(
            resources.files("pcf_unify.data").joinpath(name + ".json").read_text()
        )
        recs = ingest_corpus(data)
        assert len(recs) >= minimum


def test_validate_leibniz_series(ctx):
    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "leibniz",
                    "constant": "pi",
                    "kind": "series",
                    "payload": {"term": "(-1)^n / (2n+1)"},
                    "start_index": 0,
                    "declared_value": "pi/4",
                }
            ]
        )
    )
    node = validate_formula(recs[0], ctx)
    assert isinstance(node, GraphNode)
    assert node.canonical_pcf == PCF(parse_poly("2"), parse_poly("(2n-1)^2"))
    # identified full-fraction value is a(0) + limit = 1 + 4/pi; the node
    # stores the limit identification (pi + 4)/pi ... as a Moebius string
    assert "pi" in node.identified_value


def test_validate_rejects_rational_limit(ctx):
    # order-2 fit with a rational limit: the degenerate integer relation is
    # flagged during identification
    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "rational",
                    "constant": "pi",
                    "kind": "series",
                    "payload": {"term": "n / 2^n"},
                    "start_index": 1,
                }
            ]
        )
    )
    out = validate_formula(recs[0], ctx)
    assert isinstance(out, Rejection)
    assert out.reason == "identification-failed"


@pytest.mark.parametrize("a, b", [("n-n", "1"), ("0", "n^2+1"), ("0", "1")])
def test_validate_rejects_zero_limit(ctx, a, b):
    # a(n) = 0 makes every convergent 0: a rational limit, so PSLQ has
    # nothing to identify, and the record is rejected rather than crashing
    (rec,) = ingest_corpus(
        corpus([{"id": "zero", "constant": "pi", "kind": "pcf", "payload": {"a": a, "b": b}}])
    )
    out = validate_formula(rec, ctx)
    assert isinstance(out, Rejection)
    assert out.reason == "identification-failed"


def test_cli_cluster_lists_zero_limit_as_rejected(tmp_path):
    from pcf_unify.cli import main

    path = tmp_path / "corpus.json"
    path.write_text(
        json.dumps(
            corpus(
                [
                    {"id": "zero", "constant": "pi", "kind": "pcf",
                     "payload": {"a": "0", "b": "1"}},
                    {"id": "leibniz", "constant": "pi", "kind": "pcf",
                     "payload": {"a": "2", "b": "(2n-1)^2"}},
                ]
            )
        )
    )
    assert main(["cluster", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "clusters.json").read_text())
    assert summary["node_count"] == 1
    assert [(r["id"], r["reason"]) for r in summary["rejected"]] == [
        ("zero", "identification-failed")
    ]


def test_validate_rejects_telescoping(ctx):
    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "telescoping",
                    "constant": "pi",
                    "kind": "series",
                    "payload": {"term": "1 / (n (n+1))"},
                    "start_index": 1,
                }
            ]
        )
    )
    out = validate_formula(recs[0], ctx)
    assert isinstance(out, Rejection)
    assert out.reason == "degenerate-recurrence"


def test_validate_order3_unclusterable(ctx):
    # double sum whose minimal recurrence has order 3
    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "deep",
                    "constant": "catalan",
                    "kind": "series",
                    "payload": {
                        "term": "(1/2^(n+1)) * sum(binom(n,k) (-1)^k / (2k+1)^2, k, 0, n)"
                    },
                    "start_index": 0,
                }
            ]
        )
    )
    out = validate_formula(recs[0], ctx)
    assert isinstance(out, GraphNode)
    assert out.canonical_pcf is None
    assert out.recurrence is not None and out.recurrence.order == 3


def test_bins():
    assert bins_for_delta(-1.0)[0] == Fraction(-1)
    assert len(bins_for_delta(-0.63)) == 2
    assert bins_for_delta(-0.63)[0] == Fraction(-65, 100)
    assert all(-1 <= c <= 0 for c in bins_for_delta(-0.98))


def test_grow_single_node(ctx):
    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "only",
                    "constant": "pi",
                    "kind": "pcf",
                    "payload": {"a": "2n+1", "b": "n^2"},
                }
            ]
        )
    )
    node = validate_formula(recs[0], ctx)
    graph = grow_coboundary_graph([node], [], ctx)
    assert graph.roots() == ["only"]
    assert graph.edges == []


def test_grow_identical_pair_identity_edge(ctx):
    formulas = [
        {
            "id": f"copy{i}",
            "constant": "pi",
            "kind": "pcf",
            "payload": {"a": "2n+1", "b": "n^2"},
            "source": f"s{i}",
        }
        for i in (1, 2)
    ]
    # different ids but same payload: deduped at ingest; force two nodes by
    # distinct payloads that canonicalize identically
    formulas[1]["payload"] = {"a": "4n+2", "b": "4n^2"}
    recs = ingest_corpus(corpus(formulas))
    nodes = [validate_formula(r, ctx) for r in recs]
    graph = grow_coboundary_graph(nodes, [], ctx)
    assert len(graph.edges) == 1
    assert graph.edges[0].certificate.p_a == parse_poly("1")
    comps = graph.components()
    assert list(comps.values()) == [["copy1", "copy2"]]


def test_export_report_deterministic(ctx, tmp_path):
    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "g1813",
                    "constant": "pi",
                    "kind": "pcf",
                    "payload": {"a": "2n+1", "b": "n^2"},
                },
                {
                    "id": "rm2021",
                    "constant": "pi",
                    "kind": "pcf",
                    "payload": {"a": "2n+3", "b": "n(n+2)"},
                },
            ]
        )
    )
    nodes = [validate_formula(r, ctx) for r in recs]
    graph = grow_coboundary_graph(nodes, [], ctx)
    s1 = export_report(graph, tmp_path / "a")
    s2 = export_report(graph, tmp_path / "b")
    assert (tmp_path / "a" / "clusters.json").read_bytes() == (
        tmp_path / "b" / "clusters.json"
    ).read_bytes()
    assert (tmp_path / "a" / "report.md").read_bytes() == (
        tmp_path / "b" / "report.md"
    ).read_bytes()
    assert s1 == s2
    certs = sorted((tmp_path / "a" / "certificates").glob("*.json"))
    assert len(certs) == 1


def test_certificates_self_contained(ctx, tmp_path):
    from pcf_unify.coboundary import CoboundaryCertificate, verify_coboundary
    from pcf_unify.recurrence import parse_pcf

    recs = ingest_corpus(
        corpus(
            [
                {
                    "id": "a",
                    "constant": "pi",
                    "kind": "pcf",
                    "payload": {"a": "2", "b": "(2n-1)^2"},
                },
                {
                    "id": "b",
                    "constant": "pi",
                    "kind": "pcf",
                    "payload": {"a": "6", "b": "(2n+1)^2"},
                },
            ]
        )
    )
    nodes = [validate_formula(r, ctx) for r in recs]
    graph = grow_coboundary_graph(nodes, [], ctx)
    export_report(graph, tmp_path)
    (cert_file,) = (tmp_path / "certificates").glob("*.json")
    blob = json.loads(cert_file.read_text())
    cert = CoboundaryCertificate.from_json(blob)
    a = parse_pcf(blob["linked_a"])
    b = parse_pcf(blob["linked_b"])
    fresh = verify_coboundary(a.companion().matrix, b.companion().matrix, cert.u)
    assert fresh.verified
    assert fresh.identity_hash() == blob["verification_hash"]


def test_cmf_nodes(ctx):
    from pcf_unify.cmf import pi_cmf

    nodes = cmf_nodes_for_directions(
        pi_cmf(),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        [(1, 0, 0)],
        ctx,
    )
    assert len(nodes) == 1
    assert nodes[0].source_kind == "cmf"
    assert nodes[0].canonical_pcf == PCF(parse_poly("3n+1"), parse_poly("n(1-2n)"))


def test_cli_exit_codes(tmp_path):
    from pcf_unify.cli import main

    assert main(["delta", "PCF(2; (2n-1)^2)", "--depth", "400"]) == 0
    assert main(["eval", "PCF(1 +; 1)"]) == 2  # parse error
    assert (
        main(["match", "PCF(1; 1)", "PCF(2; (2n-1)^2)", "--constant", "pi"]) == 1
    )  # golden ratio is not a pi formula: metrics/moebius mismatch


def test_cli_arithmetic_failures_are_input_errors(capsys):
    from pcf_unify.cli import main

    assert main(["eval", "PCF(n; 1/0)"]) == 2  # zero division in the input
    assert main(["eval", "PCF(n-n; 1)", "--depth", "10"]) == 2  # zero denominator
    assert capsys.readouterr().err.count("error: ") == 2


# sha256 of every file the README's cluster example writes
TABLE1_REPORT = {
    "certificates/cmf(1,0,0)__t1.1.json": "eb48dae4f12f15ab9ef158b33d8aa37e4b01ac2f1147374ce3963dea52653443",
    "certificates/cmf(1,1,1)__t1.3.json": "29f9daa3362e5dbe09c915f2ffedad057683d99b2e02f9d0ef887c1d65bd9e0f",
    "certificates/t1.1__t1.2.json": "31fa9a6164481a6c73379eee2429f072eeb48194e5b3def57003cd72f6f17d76",
    "certificates/t1.1__t1.5.json": "f2a6199bb8534d8f5185980fd9b77186097f64acdc340e90c2f0418c6aa738d2",
    "certificates/t1.3__t1.4.json": "8ed0af88d791278e97ba2f2d45b03abed3015684500b5ba58385fd04aaefc025",
    "clusters.json": "4f0e1de4e43ce0d5036d97f7ce8eadfb6dd357a316ccd42d7bf8b11e57635537",
    "report.md": "26bb96d1498f6e5335050c134ed7c255e2915662d4dba7da610f58b3e2ce0fab",
}


def test_cli_cluster_table1_report_is_pinned(tmp_path):
    from pcf_unify.cli import main

    out = tmp_path / "out"
    argv = ["cluster", "bundled:table1", "--out", str(out), "--directions", "1,0,0;1,1,1"]
    assert main(argv) == 0
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.rglob("*")
        if p.is_file()
    }
    assert digests == TABLE1_REPORT


def test_cli_subcommands_accept_only_the_flags_they_read():
    from pcf_unify.cli import build_parser, main

    ctx_flags = {"--depth", "--precision-digits", "--delta-tol", "--fold-cap",
                 "--degree-cap", "--constant"}
    expected = {
        "eval": {"--depth", "--precision-digits"},
        "delta": {"--depth"},
        "rate": {"--depth"},
        "canonicalize": set(),
        "guess": {"--start", "--terms", "--max-order", "--max-degree"},
        "match": ctx_flags | {"--out"},
        "verify": set(),
        "cmf": {"--file", "--point", "--direction", "--radius", "--depth"},
        "cluster": ctx_flags | {"--out", "--directions", "--jobs"},
        "report": set(),
    }
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    for name, p in sub.choices.items():
        flags = {s for a in p._actions for s in a.option_strings if s.startswith("--")}
        assert flags - {"--help"} == expected[name], name
    args = parser.parse_args(["cluster", "corpus.json"])
    assert (args.depth, args.precision_digits, args.delta_tol, args.fold_cap,
            args.degree_cap, args.jobs, args.constant) == (None, 250, 0.05, 12, 24, 1, "pi")
    for argv in (["eval", "PCF(1; 1)", "--constant", "e"], ["report", "out", "--jobs", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
