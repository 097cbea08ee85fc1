"""Benchmark of pcf_unify: search, cluster and field workloads.

    python3 perfbench/run.py --workload search|cluster|field --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.
Inputs are generated from ``--seed`` before the timed phase; ``--seconds``
sizes a fixed amount of search and field work that takes about that long at
the seed commit on a 2-core machine, so every commit measures the same work
(a cluster run is one pipeline job of fixed composition).  Outputs are
checked after the timed phase (see check.py).

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer
metrics from a traced run of the same inputs, next to the untraced wall
time of those inputs.  The line before it holds details (environment
stamp, tail latency, failure reasons); the same and the spans of a traced
run are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer, median, percentile_with_tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("search", "cluster", "field")
SETUP_PROBES = 5

# Nominal seconds per item at the seed commit on a 2-core machine; they turn
# --seconds into a fixed item count (field gets more items than its pace,
# 0.15-0.2 s, would fill, for a steadier median).  A cluster run is one
# pipeline job of fixed composition (strata.json), 40-55 s there.
ITEM_SECONDS = {"search": 1.9, "field": 0.15}


def item_count(workload: str, seconds: float) -> int | None:
    if workload == "cluster":
        return None
    return max(4, round(seconds / ITEM_SECONDS[workload]))


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the package sources and data, identifying the program
    measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for p in sorted((SRC / "pcf_unify").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def measure_setup(workload: str) -> list[float]:
    """Process start to first item ready, in SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return times


class Workload:
    """Inputs, timed run and checks of one workload."""

    def __init__(self, name: str, seed: int, count: int | None):
        import check
        import gen
        import workloads

        self.name, self.check, self.workloads = name, check, workloads
        self.field = self.setup()
        if name == "search":
            self.inputs = gen.search_inputs(seed, count)
            self.known = json.loads((HERE / "known.json").read_text())
        elif name == "field":
            self.inputs = gen.field_inputs(seed, count)
            self.published = {t["id"]: t["coeffs"] for t in gen.PUBLISHED_TRAJECTORIES}
        else:
            strata = json.loads((HERE / "strata.json").read_text())
            self.inputs = gen.cluster_inputs(seed, strata["strata"], strata["quota"])
        self.workdir = OUT
        OUT.mkdir(exist_ok=True)

    def setup(self):
        return self.workloads.setup(self.name)

    def run(self, tracer=None):
        """(outputs, wall seconds, per-item latencies)."""
        w = self.workloads
        t0 = time.perf_counter()
        if self.name == "search":
            out = w.run_search(self.inputs, tracer)
        elif self.name == "field":
            out = w.run_field(self.inputs, self.field, tracer)
        else:
            out = w.run_cluster(self.inputs, self.field, self.workdir, tracer)
        wall = time.perf_counter() - t0
        items = out["records"] if self.name == "cluster" else out
        return out, wall, [r["latency_s"] for r in items]

    def verdicts(self, out):
        if self.name == "search":
            return self.check.check_search(out, self.known)
        if self.name == "field":
            return self.check.check_field(out, self.published)
        return self.check.check_cluster(out)

    def correct(self, out, verdicts) -> bool:
        """Every exactly known answer holds: planted search candidates, and
        every certificate and planted trajectory of cluster and field.
        Other rejections (spurious identifications of random candidates,
        raised exceptions) count as failed items only."""
        if self.name == "search":
            planted = {r["id"] for r in out if r.get("planted")}
            return all(not v["failed"] for v in verdicts if v["id"] in planted)
        return not any(v["failed"] and not v["reason"].startswith("raised") for v in verdicts)


def repeated_share(workload: Workload, out) -> float:
    """Share of canonical forms (of items, and for cluster also of the field
    nodes) that already occurred earlier in the run."""
    if workload.name == "search":
        keys = [json.dumps(r["canonical"]) for r in out if "canonical" in r]
    elif workload.name == "field":
        keys = [json.dumps(r["pcf"]) for r in out if r.get("pcf")]
    else:
        keys = out["canonical"]
    seen, repeats = set(), 0
    for k in keys:
        repeats += k in seen
        seen.add(k)
    return repeats / len(keys) if keys else 0.0


def tail(latencies):
    t = percentile_with_tail(latencies)
    if t is None:
        return None
    return {"percentile": t[0], "value_s": t[1], "samples": len(latencies),
            "beyond": 10}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pcf_unify" / "__init__.py").is_file():
        print(f"error: no pcf_unify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    setup_times = measure_setup(args.workload)
    wl = Workload(args.workload, args.seed, item_count(args.workload, args.seconds))

    out, wall, latencies = wl.run()
    verdicts = wl.verdicts(out)
    attempted = len(verdicts)
    failed = sum(v["failed"] for v in verdicts)
    found = sum(v["found"] for v in verdicts)
    correct = wl.correct(out, verdicts)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "items": attempted,
        "failed_frac": failed / attempted,
        "failures": Counter(v["reason"].split(":")[0] for v in verdicts if v["failed"]),
        "item_tail": tail(latencies),
        "setup_probes_s": setup_times,
        "repeated_canonical_share": repeated_share(wl, out),
    }

    if args.trace:
        tr = Tracer().install()
        try:
            tr.item = "setup"
            wl.setup()
            _, traced_wall, _ = wl.run(tracer=tr)
        finally:
            tr.uninstall()
        layer = tr.summary()
        layer["trace.wall_s"] = traced_wall
        layer["trace.untraced_wall_s"] = wall
        layer["trace.overhead"] = traced_wall / wall
        detail["per_layer"] = layer
        tr.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {
            m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "setup_s": median(setup_times),
            "wall_s": wall,
            "items_per_s": attempted / wall,
            "item_p50_s": median(latencies),
            "found_frac": found / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    detail["verdicts"] = verdicts
    detail["latencies_s"] = latencies
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n"
    )
    summary = {k: v for k, v in detail.items() if k not in ("verdicts", "latencies_s")}
    print(json.dumps({"detail": summary}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
