"""Self-test of the benchmark's checker: each workload at a tiny size, then
tampered answers that the checker must count as failed."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

KNOWN = json.loads((BENCH / "known.json").read_text())
PUBLISHED = {t["id"]: t["coeffs"] for t in gen.PUBLISHED_TRAJECTORIES}


def _by_id(verdicts):
    return {v["id"]: v for v in verdicts}


def _tamper_u(cert_text: str) -> str:
    cert = json.loads(cert_text)
    cert["u"][0][0] = f"({cert['u'][0][0]}) + n"
    return json.dumps(cert)


@pytest.fixture(scope="module")
def search_out():
    cands = [
        dict(gen.search_planted_pool()[1], id="planted"),  # t2.02, PCF(2n+1; n^2)
        {"id": "genuine", "text": "PCF(3n+2; -2n^2+n+1)", "kind": "convergent", "planted": None},
        {"id": "spurious", "text": "PCF(3n-1; 4n^2+1)", "kind": "convergent", "planted": None},
    ]
    return workloads.run_search(cands)


def test_search_checker(search_out):
    v = _by_id(check.check_search(search_out, KNOWN))
    assert v["planted"]["found"] and not v["planted"]["failed"]
    assert v["genuine"]["found"] and not v["genuine"]["failed"]
    # the seed's spurious 100-digit identification is a failure, not a find
    assert v["spurious"]["failed"] and "spurious" in v["spurious"]["reason"]


def test_search_checker_rejects_wrong_matrix(search_out):
    bad = copy.deepcopy(search_out)
    for rec in bad:
        rec["ident"]["matrix"][0][1] += 1
    v = _by_id(check.check_search(bad, KNOWN))
    assert v["planted"]["failed"] and v["genuine"]["failed"]


def test_field_checker():
    out = workloads.run_field(gen.field_inputs(gen.DEVELOPMENT_SEED, 4), workloads.setup("field"))
    verdicts = check.check_field(out, PUBLISHED)
    assert not any(v["failed"] for v in verdicts)
    assert out[0]["planted"] and verdicts[0]["found"]

    bad = copy.deepcopy(out)
    bad[1]["cert_json"] = _tamper_u(bad[1]["cert_json"])
    bad[0]["pcf"] = [["2"], ["0", "1", "1"]]
    v = check.check_field(bad, PUBLISHED)
    assert v[0]["failed"] and v[1]["failed"] and not v[2]["failed"]


def test_cluster_checker(tmp_path):
    records = {r["id"]: r for r in gen.load_corpus("corpus_table1") + gen.load_corpus("corpus_pi")}
    doc = {"schema_version": 1, "formulas": [records[i] for i in ("t1.1", "t1.2", "t2.17")]}
    out = workloads.run_cluster(doc, workloads.setup("cluster"), tmp_path)
    verdicts = check.check_cluster(out)
    assert out["certificates"] and all(s == "ok" for s in out["verify"].values())
    assert all(v["found"] and not v["failed"] for v in verdicts)

    bad = copy.deepcopy(out)
    name = next(n for n, t in bad["certificates"].items() if json.loads(t)["pair"][1] == "t2.17")
    bad["certificates"][name] = _tamper_u(bad["certificates"][name])
    assert _by_id(check.check_cluster(bad))["t2.17"]["failed"]


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "field", "--seed", "5", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
