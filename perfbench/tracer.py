"""Span tracing of ``pcf_unify`` from outside the package.

``Tracer.install`` replaces every public function of the package's modules
with a wrapper that records a span (name, start, end, parent span, item id),
on the defining module and on every module that bound it with
``from .x import y`` (the package itself included), plus the
``MatchContext`` methods.  Callers must look functions up on the modules
at call time to be seen.  A few arithmetic methods run hundreds of
thousands of times per item; they are only counted, and their time shows up
in the self time of the span that calls them.
``uninstall`` puts the originals back.

Spans stay in memory; ``summary`` turns them into per-function and
per-layer numbers, and ``dump`` writes them out as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = (
    "parsing", "poly", "ratfunc", "multivar", "matrix", "linalg", "recurrence",
    "metrics", "transforms", "guess", "constants", "identify", "coboundary",
    "cmf", "pipeline",
)

# (module, class or None, attribute): counted, never spanned.
COUNT_ONLY = (
    ("poly", "Poly", "__call__"),
    ("poly", "Poly", "__mul__"),
    ("poly", None, "poly_gcd"),
    ("ratfunc", "RationalFunction", "__call__"),
    ("matrix", "Mat", "__mul__"),
    ("multivar", "MPoly", "__mul__"),
    ("multivar", "MRat", "substitute_affine"),
)

CTX_METHODS = ("delta", "rate", "limit", "identification")
CTX_TAGS = {"delta": "delta", "rate": "rate", "limit": "limit", "identification": "ident"}

MATCH_STATUSES = ("matched", "metrics-mismatch", "mobius-not-found", "fit-failed", "verify-failed")


def percentile_with_tail(values, min_beyond: int = 10):
    """(percentile, value) of the highest percentile with at least
    ``min_beyond`` samples above it, or None when there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= min_beyond:
        return None
    k = n - min_beyond - 1  # index of the value with min_beyond samples above
    pct = 100.0 * (k + 1) / n
    return pct, xs[k]


def median(values):
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 0.0
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item, outermost]
        self.stack = []  # indices of open spans
        self.open_names = Counter()
        self.counts = Counter()
        self.extra = defaultdict(float)
        self.item = None
        self.step_cover = {}  # (item, companion) -> set of indices multiplied
        self.match_times = []
        self.match_status = Counter()
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item,
                           self.open_names[name] == 0])
        self.open_names[name] += 1
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        self.open_names[self.spans[idx][0]] -= 1

    def _span_wrapper(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if tracer.stack and tracer.spans[tracer.stack[-1]][0] == name:
                return fn(*args, **kwargs)  # direct recursion: one span
            if before:
                before(args, kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                after(args, kwargs, out, idx)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-function extras ---------------------------------------------------

    def _after_step_product(self, args, kwargs, out, idx):
        cm, lo, hi = args[0], args[1], args[2]
        if hi < lo:
            return
        self.extra["recurrence.step_product.factors"] += hi - lo + 1
        cover = self.step_cover.setdefault((self.item, cm), set())
        span = range(lo, hi + 1)
        self.extra["recurrence.step_product.repeats"] += sum(1 for i in span if i in cover)
        cover.update(span)

    def _after_convergent_pairs(self, args, kwargs, out, idx):
        self.extra["recurrence.convergent_pairs.terms"] += len(out)

    def _after_identify(self, args, kwargs, out, idx):
        if out is not None:
            self.extra["identify.identify_mobius.hits"] += 1

    def _after_prefilter(self, args, kwargs, out, idx):
        called = any(
            s[3] == idx and s[0] == "linalg.nullspace" for s in self.spans[idx + 1:]
        )
        if not called:
            self.extra["linalg.nullspace_with_prefilter.pruned"] += 1

    def _after_match(self, args, kwargs, out, idx):
        s = self.spans[idx]
        self.match_times.append(s[2] - s[1])
        self.match_status[out.status] += 1

    def _after_export(self, args, kwargs, out, idx):
        outdir = Path(args[1] if len(args) > 1 else kwargs["outdir"])
        self.extra["pipeline.export_report.bytes"] += sum(
            p.stat().st_size for p in outdir.rglob("*") if p.is_file()
        )

    def _ctx_before(self, tag):
        def before(args, kwargs):
            ctx, pcf = args[0], args[1]
            self.extra["coboundary.ctx.lookups"] += 1
            if (tag, ctx._key(pcf)) in ctx._cache:
                self.extra["coboundary.ctx.hits"] += 1
        return before

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"pcf_unify.{name}") for name in LAYERS}
        after = {
            "recurrence.step_product": self._after_step_product,
            "recurrence.convergent_pairs": self._after_convergent_pairs,
            "identify.identify_mobius": self._after_identify,
            "linalg.nullspace_with_prefilter": self._after_prefilter,
            "coboundary.match_pair": self._after_match,
            "pipeline.export_report": self._after_export,
        }
        count_only_funcs = {(m, a) for m, c, a in COUNT_ONLY if c is None}
        wrappers = {}  # id(original function) -> wrapper
        for mod in list(modules.values()) + [importlib.import_module("pcf_unify")]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.split(".")
                if home[0] != "pcf_unify" or home[-1] not in modules:
                    continue
                name = f"{home[-1]}.{obj.__name__}"
                if id(obj) not in wrappers:
                    if (home[-1], obj.__name__) in count_only_funcs:
                        wrappers[id(obj)] = self._count_wrapper(name, obj)
                    else:
                        wrappers[id(obj)] = self._span_wrapper(name, obj, after=after.get(name))
                self._patch(mod, attr, wrappers[id(obj)])
        for short, cls_name, attr in COUNT_ONLY:
            if cls_name is None:
                continue
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.{attr}"
            self._patch(cls, attr, self._count_wrapper(name, vars(cls)[attr]))
        ctx_cls = modules["coboundary"].MatchContext
        for attr in CTX_METHODS:
            name = f"coboundary.MatchContext.{attr}"
            wrapper = self._span_wrapper(
                name, vars(ctx_cls)[attr], before=self._ctx_before(CTX_TAGS[attr])
            )
            self._patch(ctx_cls, attr, wrapper)
        return self

    def _patch(self, target, attr, value):
        self._patched.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls / total_s / self_s, per-layer self_s, and extras."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        funcs = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0})
        layers = defaultdict(float)
        for i, (name, start, end, _parent, _item, outer) in enumerate(self.spans):
            own = end - start - child[i]
            funcs[name]["self_s"] += own
            if outer:
                funcs[name]["total_s"] += end - start
            layers[name.split(".")[0]] += own
        out = {}
        for name, calls in sorted(self.counts.items()):
            out[f"{name}.calls"] = calls
        for name, v in sorted(funcs.items()):
            out[f"{name}.total_s"] = v["total_s"]
            out[f"{name}.self_s"] = v["self_s"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = layers.get(layer, 0.0)
        ex = self.extra
        out["recurrence.step_product.factors"] = int(ex["recurrence.step_product.factors"])
        out["recurrence.step_product.repeat_frac"] = _ratio(
            ex["recurrence.step_product.repeats"], ex["recurrence.step_product.factors"])
        out["recurrence.convergent_pairs.terms"] = int(ex["recurrence.convergent_pairs.terms"])
        out["identify.identify_mobius.hit_frac"] = _ratio(
            ex["identify.identify_mobius.hits"], self.counts["identify.identify_mobius"])
        out["linalg.nullspace_with_prefilter.pruned_frac"] = _ratio(
            ex["linalg.nullspace_with_prefilter.pruned"],
            self.counts["linalg.nullspace_with_prefilter"])
        out["coboundary.ctx.hit_frac"] = _ratio(
            ex["coboundary.ctx.hits"], ex["coboundary.ctx.lookups"])
        out["pipeline.export_report.bytes"] = int(ex["pipeline.export_report.bytes"])
        for status in MATCH_STATUSES:
            out[f"coboundary.match_pair.status.{status}"] = self.match_status[status]
        out["coboundary.match_pair.p50_s"] = median(self.match_times)
        tail = percentile_with_tail(self.match_times)
        if tail is not None:
            out["coboundary.match_pair.tail_pct"] = tail[0]
            out["coboundary.match_pair.tail_s"] = tail[1]
        return out

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item", "outermost"],
                    "spans": self.spans,
                },
                f,
            )


def _ratio(num, den):
    return float(num) / den if den else 0.0
