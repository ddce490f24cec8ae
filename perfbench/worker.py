"""Runs one workload's operations in a fresh interpreter, closed loop, one
client: each operation starts when the previous one has returned.

The whole operation list is one pass; passes repeat until `--seconds` have
gone (at least `--min-passes`).  Before each operation every lru cache in
diosum is cleared and the garbage collector runs, outside the timed region,
so each operation pays the alpha set-up a fresh `diosum` process pays.  With
`--trace 1` every operation runs untraced and then traced, and the traced
runs carry the layer spans of `layers.py`.

Usage: python worker.py --ops OPS.json --out RESULT.json --seconds S
                        --min-passes M --trace 0|1 [--spans SPANS.jsonl]
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

import layers


def _interpreter_work():
    m = (1 << 128) - 1
    a = 0x9E3779B97F4A7C15F39CC0605CEDC834
    r, acc = 0, 0.0
    start = time.perf_counter()
    for _ in range(4000):
        r = (r + a) & m
        acc += 1.0 / ((min(r, m - r) >> 64) | 1)
    return time.perf_counter() - start


def _bigint_work():
    m = (1 << 9973) - 1
    x, y = (1 << 9000) // 7 + 12345, (1 << 8500) // 3 + 1
    start = time.perf_counter()
    for _ in range(5):
        x = (x * y) % m + 3
    return time.perf_counter() - start


def reference():
    """Times of two fixed pieces of work that never call diosum: an
    interpreter loop in the style of the term kernel (128-bit steps and a
    float reciprocal) and big-integer products, as in count_fast and digit
    extraction.  Their times track the machine's current speed, which a
    neighbour on a shared host moves by up to 2x, the interpreter loop
    about four times as strongly as the big-integer work."""
    return (min(_interpreter_work(), _interpreter_work()),
            min(_bigint_work(), _bigint_work()))


def _specs(text):
    from diosum.cf import IrrationalSpec

    return [IrrationalSpec.parse(tok) for tok in text.split(",")]


def _lib_text(fn, args):
    """Run a library operation through the module attribute (so trace
    wrappers see it) and return its result as canonical text."""
    from diosum import counting

    spec = _specs(args["alpha"])
    if fn == "oracle":
        t = Fraction(args["t"])
        fast = counting.count_fast(spec[0], args["N"], t)
        brute = counting.count_dist_le(spec[0], args["N"], t)
        return f"{fast} {brute}"
    if fn == "count_fast":
        return str(counting.count_fast(spec[0], int(args["N"]), Fraction(args["t"])))
    if fn == "discrepancy_profile":
        out, slack = counting.discrepancy_profile(spec[0], args["N_max"])
        h = hashlib.sha256(out.tobytes() + slack.tobytes()).hexdigest()
        return f"{h} {out[-1]!r} {slack[-1]!r}"
    if fn == "discrepancy":
        ball = counting.discrepancy(spec[0], args["N"])
        return f"{ball.mid} {ball.rad}"
    if fn == "local_disc_extrema_batch":
        res = counting.local_disc_extrema_batch(
            spec[0], args["K_max"], [Fraction(t) for t in args["ts"]])
        return ";".join(f"{k},{t}:{hi},{lo}" for (k, t), (hi, lo) in sorted(res.items()))
    if fn == "count_multidim":
        return str(counting.count_multidim(spec, args["N"], Fraction(args["t"])))
    raise ValueError(f"unknown library operation {fn!r}")


class Runner:
    def __init__(self):
        from diosum import cli, reals

        self.cli = cli
        self.frac_scaled = reals.frac_scaled
        self.caches = {id(obj): obj for mod in layers.diosum_modules()
                       for obj in vars(mod).values()
                       if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")}
        self.frac_cache = [0, 0]
        self.enclosures = []
        from diosum import sums

        for name in layers.SUM_FUNCTIONS:
            fn = getattr(sums, name)
            layers.patch(fn, self._capture(fn))

    def _capture(self, fn):
        """Record the exact enclosure of every sum a CLI operation computes."""
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            enc = res.enclosure
            self.enclosures.append(f"{enc.mid} {enc.rad} {res.terms_included}")
            return res

        return wrapper

    def reset(self):
        for cache in self.caches.values():
            cache.cache_clear()
        self.enclosures = []
        gc.collect()

    def count_frac_cache(self):
        info = getattr(self.frac_scaled, "cache_info", None)
        if info is not None:
            hits, misses = info()[:2]
            self.frac_cache[0] += hits
            self.frac_cache[1] += misses

    def run(self, op):
        """(latency s, reference times, stdout or result text, error or None).

        The reference times are the geometric means of `reference()` just
        before and just after the operation."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        before = reference()
        start = time.perf_counter()
        try:
            if op["kind"] == "cli":
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(op["argv"]))
                text = out.getvalue()
            else:
                rc, text = 0, _lib_text(op["fn"], op["args"])
        except Exception as exc:  # any failure of the program counts as failed
            rc, text = None, ""
            error = f"{type(exc).__name__}: {exc}"[:500]
        latency = time.perf_counter() - start
        after = reference()
        if error is None and (rc != 0 or err.getvalue()):
            error = f"exit {rc}: {err.getvalue()[:500]}"
        return latency, [math.sqrt(b * a) for b, a in zip(before, after)], text, error


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)

    import numpy

    from diosum import kernel

    runner = Runner()
    tracer = layers.Tracer() if args.trace else None
    passes, first = [], {}
    traced_rows = 0
    start = time.perf_counter()
    while True:
        # with tracing, each operation runs untraced and then traced, back to
        # back, so the overhead is measured at the same machine speed
        plain, traced = [], []
        for op in ops:
            for record in (plain, traced) if tracer else (plain,):
                runner.reset()
                if record is traced:
                    tracer.op = f"{len(passes)}:{op['id']}"
                    tracer.install()
                latency, ref, text, error = runner.run(op)
                if record is traced:
                    tracer.uninstall()
                    traced_rows += text.count("\n")
                    runner.count_frac_cache()
                # sorted: mc computes its samples on a thread pool
                text += "".join(f"\n#enclosure {e}" for e in sorted(runner.enclosures))
                digest = hashlib.sha256(text.encode()).hexdigest()
                record.append([op["id"], latency, digest, error, *ref])
                first.setdefault(op["id"], text)
        passes.append({"traced": False, "ops": plain})
        if tracer:
            passes.append({"traced": True, "ops": traced})
        walls = [sum(r[1] for r in p["ops"]) for p in passes]
        rounds = len(passes) // (2 if tracer else 1)
        if (rounds >= args.min_passes
                and time.perf_counter() - start + sum(walls) / rounds > args.seconds):
            break

    result = {
        "backend": kernel.backend(),
        "available_backends": list(kernel.available_backends()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "first": first,
    }
    if tracer:
        traced_passes = [p for p in passes if p["traced"]]
        op_wall = sum(r[1] for p in traced_passes for r in p["ops"])
        result["layers"] = layers.layer_metrics(
            tracer.spans, len(traced_passes), op_wall, tuple(runner.frac_cache))
        result["layers"]["cli.rows"] = traced_rows / len(traced_passes)
        result["trace_missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
