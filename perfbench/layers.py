"""Spans around calls into diosum's layers, recorded from the benchmark side.

`Tracer.install()` replaces each target function with a wrapper in every
diosum module that holds it, re-imports included (`sums.frac_scaled`,
`counting.frac_scaled` and `reals.frac_scaled` are one function), and
`uninstall()` puts the originals back.  Spans stay in memory as tuples
(id, name, start, end, parent, op, attrs) until the run writes them out.
Self time is a span's duration minus the durations of its child spans;
children are found through a per-thread stack, so work that a thread pool
runs on behalf of a span is not subtracted from it.
"""

import functools
import json
import sys
import threading
import time

# (module, attribute, span name).  `sums._argmin_variant` is the argmin that
# both `find_min_index` and `sum_shifted(mode="exclude_min")` run.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("sums", "sum_dist", "sums.sum_dist"),
    ("sums", "sum_harmonic_dist", "sums.sum_harmonic_dist"),
    ("sums", "sum_frac", "sums.sum_frac"),
    ("sums", "sum_shifted", "sums.sum_shifted"),
    ("sums", "sum_multidim", "sums.sum_multidim"),
    ("sums", "_argmin_variant", "sums.find_min_index"),
    ("kernel", "sum_block", "kernel.sum_block"),
    ("kernel", "count_block", "kernel.count_block"),
    ("reals", "frac_scaled", "reals.frac_scaled"),
    ("reals", "dist_nearest", "reals.dist_nearest"),
    ("counting", "count_fast", "counting.count_fast"),
    ("counting", "count_dist_le", "counting.count_dist_le"),
    ("counting", "discrepancy", "counting.discrepancy"),
    ("counting", "discrepancy_profile", "counting.discrepancy_profile"),
    ("counting", "local_disc_extrema_batch", "counting.local_disc_extrema_batch"),
    ("counting", "count_multidim", "counting.count_multidim"),
    ("cf", "expand", "cf.expand"),
    ("cf", "spec_interval", "cf.spec_interval"),
    ("predict", "metric_stats", "predict.metric_stats"),
    ("predict", "predict_badly", "predict.reports"),
    ("predict", "predict_sum_dist", "predict.reports"),
    ("predict", "predict_sum_harmonic", "predict.reports"),
    ("predict", "predict_frac", "predict.reports"),
    ("predict", "predict_shifted", "predict.reports"),
    ("predict", "predict_multidim", "predict.reports"),
]

SUM_FUNCTIONS = ("sum_dist", "sum_harmonic_dist", "sum_frac", "sum_shifted",
                 "sum_multidim")
COUNT_FUNCTIONS = ("count_fast", "count_dist_le", "discrepancy",
                   "discrepancy_profile", "local_disc_extrema_batch",
                   "count_multidim")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _kernel_sum(args, kwargs, res):
    return {"terms": _arg(args, kwargs, 5, "n1") - _arg(args, kwargs, 4, "n0") + 1,
            "bits": _arg(args, kwargs, 10, "bits"), "flagged": len(res[3])}


def _kernel_count(args, kwargs, res):
    return {"terms": _arg(args, kwargs, 5, "n1") - _arg(args, kwargs, 4, "n0") + 1,
            "bits": _arg(args, kwargs, 9, "bits"), "flagged": len(res[1])}


ANNOTATE = {
    "kernel.sum_block": _kernel_sum,
    "kernel.count_block": _kernel_count,
    "reals.frac_scaled": lambda a, k, r: {"bits": _arg(a, k, 1, "bits")},
    "cf.spec_interval": lambda a, k, r: {"bits": _arg(a, k, 1, "bits")},
    "cf.expand": lambda a, k, r: {"digits": len(r)},
    "predict.metric_stats": lambda a, k, r: {"samples": len(r["samples"])},
}


def diosum_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "diosum" or name.startswith("diosum.")) and m is not None]


def patch(original, replacement):
    """Point every diosum module attribute that holds `original` at
    `replacement`; return the (module, attribute) pairs changed."""
    changed = []
    for mod in diosum_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        annotate = ANNOTATE.get(name)
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            attrs = annotate(args, kwargs, res) if annotate else None
            spans.append((span_id, name, start, end, parent, self.op, attrs))
            return res

        return wrapper

    def install(self):
        import diosum.cli  # noqa: F401  (loads every layer)

        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in diosum_modules()}
        for mod_name, attr, name in TARGETS:
            fn = getattr(modules.get(mod_name), attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((fn, patch(fn, self._wrap(name, fn))))

    def uninstall(self):
        for fn, changed in self._patched:
            for mod, attr in changed:
                setattr(mod, attr, fn)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans):
    """{span id: duration minus the durations of its direct children}."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans, passes, op_wall_s, frac_cache):
    """Per-layer metrics per traced pass, from the spans of `passes` passes.

    `op_wall_s` is the summed latency of the traced operations; `frac_cache`
    the (hits, misses) of `reals.frac_scaled`'s cache over those passes.
    """
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls, self_s, attr_sum, attr_max = {}, {}, {}, {}
    for s in spans:
        name = s[1]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[s[0]]
        for key, value in (s[6] or {}).items():
            attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
            attr_max[(name, key)] = max(attr_max.get((name, key), 0), value)

    # a sum escalated if some kernel pass under it ran above 128 bits
    escalated = set()
    for s in spans:
        if s[1] == "kernel.sum_block" and s[6]["bits"] > 128:
            parent = by_id.get(s[4])
            while parent is not None and not parent[1].startswith("sums.sum_"):
                parent = by_id.get(parent[4])
            if parent is not None:
                escalated.add(parent[0])
    wide = sum(1 for s in spans if s[1] == "kernel.sum_block" and s[6]["bits"] > 128)
    kernel_busy = sum(s[3] - s[2] for s in spans
                      if s[1] in ("kernel.sum_block", "kernel.count_block"))

    per = float(max(passes, 1))

    def c(name):
        return calls.get(name, 0) / per

    def t(name):
        return self_s.get(name, 0.0) / per

    def a(name, key):
        return attr_sum.get((name, key), 0) / per

    ks_terms, ks_self = a("kernel.sum_block", "terms"), t("kernel.sum_block")
    hits, misses = frac_cache
    m = {
        "kernel.sum_block.calls": c("kernel.sum_block"),
        "kernel.sum_block.terms": ks_terms,
        "kernel.sum_block.self_s": ks_self,
        "kernel.sum_block.terms_per_s": ks_terms / ks_self if ks_self else 0.0,
        "kernel.sum_block.flagged": a("kernel.sum_block", "flagged"),
        "kernel.sum_block.flag_ratio":
            a("kernel.sum_block", "flagged") / ks_terms if ks_terms else 0.0,
        "kernel.sum_block.wide_calls": wide / per,
        "kernel.count_block.calls": c("kernel.count_block"),
        "kernel.count_block.terms": a("kernel.count_block", "terms"),
        "kernel.count_block.self_s": t("kernel.count_block"),
        "kernel.count_block.flagged": a("kernel.count_block", "flagged"),
        "kernel.concurrency": kernel_busy / op_wall_s if op_wall_s else 0.0,
    }
    for fn in SUM_FUNCTIONS + ("find_min_index",):
        m[f"sums.{fn}.calls"] = c(f"sums.{fn}")
        m[f"sums.{fn}.self_s"] = t(f"sums.{fn}")
    m["sums.escalated"] = len(escalated) / per
    m.update({
        "reals.frac_scaled.calls": c("reals.frac_scaled"),
        "reals.frac_scaled.self_s": t("reals.frac_scaled"),
        "reals.frac_scaled.max_bits": attr_max.get(("reals.frac_scaled", "bits"), 0),
        "reals.frac_scaled.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "reals.dist_nearest.calls": c("reals.dist_nearest"),
        "reals.dist_nearest.self_s": t("reals.dist_nearest"),
    })
    for fn in COUNT_FUNCTIONS:
        m[f"counting.{fn}.calls"] = c(f"counting.{fn}")
        m[f"counting.{fn}.self_s"] = t(f"counting.{fn}")
    m.update({
        "cf.expand.calls": c("cf.expand"),
        "cf.expand.digits": a("cf.expand", "digits"),
        "cf.expand.self_s": t("cf.expand"),
        "cf.spec_interval.calls": c("cf.spec_interval"),
        "cf.spec_interval.self_s": t("cf.spec_interval"),
        "cf.spec_interval.max_bits": attr_max.get(("cf.spec_interval", "bits"), 0),
        "predict.metric_stats.samples": a("predict.metric_stats", "samples"),
        "predict.metric_stats.self_s": t("predict.metric_stats"),
        "predict.reports.self_s": t("predict.reports"),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": t("cli.main"),
    })
    return m
