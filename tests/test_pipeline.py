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
