#!/usr/bin/env python3
"""diosum benchmark: time to a certified answer on three seeded workloads.

    python3 perfbench/run.py --workload sum_grid --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it measures the code under
`src/` (after `setup.py build_ext --inplace`, which builds the compiled
kernel when the build can).  One client sends one operation at a time
(closed loop) to a fresh interpreter (`worker.py`); `workloads.py` says what
the operations are and why each workload exists.

With `--trace 0` the last line of stdout holds the end-to-end metrics.
Operation times are scaled to a fixed machine speed (see `end_to_end`);
the unscaled figures are in the run record.
  setup_s        median over fresh interpreters of the time until
                 `import diosum.cli` is done and the kernel backend is chosen
  wall_s         time of one pass over the operation list: the sum of each
                 operation's median latency over the passes
  terms_per_s    certified terms (indices n or lattice points) per second of
                 the operations that certify terms
  samples_per_s  results per second: Monte Carlo samples for `mc`, output rows
                 for other CLI operations, one per library call; on
                 mc_ensemble this is Monte Carlo samples per second
  op_p50_s       median operation latency
  op_tail_s      highest percentile of operation latency with at least ten
                 samples beyond it at the minimum pass count (stated above
                 the result line with the sample count)
  peak_rss_mb    peak resident set of the worker
With `--trace 1` it holds the per-layer metrics of `layers.py` (per traced
pass), the import-time split from `python -X importtime`, and
trace.overhead_ratio = traced time / untraced time - 1, both scaled.

Every operation's output is checked: CLI rows against docs/row_schema.json,
each oracle pair count_fast == count_dist_le, small sums over quadratic
surds against an mpmath evaluation, outputs equal on every pass (traced or
not) and equal to the digests in golden.json for the seeds recorded there.
Failed operations are counted in `failed`; any failure makes the exit code 1.
When diosum has more than one kernel backend, sum_grid is rerun under each
backend and under DIOSUM_WORKERS=1 and nproc, and the outputs must be
bit-identical.  Run records and spans go to .bench_build/perfbench/.

`--record-golden` reruns both recorded seeds of every workload and rewrites
golden.json; do it only on a commit whose outputs are known to be right.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"
MIN_PASSES = 3
SETUP_PROBES = 11
TAIL_SAMPLES = 10
# the two parts of worker.reference() take about this long on an unloaded
# core of the machine the benchmark was written on (Xeon, Sapphire Rapids,
# 2.1 GHz, 2 vCPUs)
REFERENCE_S = (1.4e-3, 1.0e-3)
SETUP_PROBE = ("import diosum.cli, diosum.kernel; diosum.kernel.backend(); "
               "print('ready', flush=True)")



class BenchError(Exception):
    """The benchmark could not run (no program, build or worker failure)."""


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIOSUM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra or {})
    return env


def build():
    if not (ROOT / "src" / "diosum" / "cli.py").is_file():
        raise BenchError(f"no diosum sources under {ROOT / 'src'}")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(OUT / "build")],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=850)
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stderr[-2000:]}")


def setup_time():
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError("set-up probe failed")
    return elapsed


def import_times():
    """(import.diosum_cli_s, import.numpy_s) from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import diosum.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr[-2000:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
    return cumulative.get("diosum.cli", 0.0), cumulative.get("numpy", 0.0)


def run_worker(ops, tag, seconds, min_passes, trace, env=None):
    OUT.mkdir(parents=True, exist_ok=True)
    ops_path, out_path = OUT / f"ops-{tag}.json", OUT / f"result-{tag}.json"
    ops_path.write_text(json.dumps(ops), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), "--ops", str(ops_path),
           "--out", str(out_path), "--seconds", str(seconds),
           "--min-passes", str(min_passes), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(env), capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-3000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Output checks


def _flags(argv):
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}


def spot_check(op, enclosure, row):
    """mpmath evaluation of a small 1-D sum over a quadratic surd, which must
    lie inside the exact enclosure the program returned."""
    from mpmath import mp, mpf

    mp.dps = 50
    f = _flags(op["argv"])
    alpha = {"phi": (1 + mp.sqrt(5)) / 2, "sqrt2": mp.sqrt(2)}[f["alpha"]]
    family, N = f["family"], int(f["N"])
    beta = Fraction(f.get("beta", "0"))
    beta = mpf(beta.numerator) / beta.denominator
    cut = None
    if family == "dist" or "c" in f:
        c = Fraction(f.get("c", "1/2")) / N
        cut = mpf(c.numerator) / c.denominator
    weighted = family == "harmonic" or f.get("weight") == "1/n"
    values = []
    for n in range(1, N + 1):
        x = n * alpha + beta
        x -= mp.floor(x)
        v = x if family == "frac" else 1 - x if family == "cofrac" else min(x, 1 - x)
        values.append((v, n))
    if f.get("mode") == "exclude-min":
        skip = min(values)[1]
        if skip != row["excluded_index"]:
            return f"argmin {row['excluded_index']} != mpmath {skip}"
        values = [(v, n) for v, n in values if n != skip]
    total = mp.fsum(1 / (v * n) if weighted else 1 / v
                    for v, n in values if cut is None or v > cut)
    mid, rad = (Fraction(x) for x in enclosure.split()[:2])
    lo, hi = mid - rad, mid + rad
    if not (mpf(lo.numerator) / lo.denominator <= total <= mpf(hi.numerator) / hi.denominator):
        return f"mpmath sum {mp.nstr(total, 20)} outside [{float(lo)!r}, {float(hi)!r}]"
    return None


def check_op(op, text, validator):
    """Problems with one operation's first-pass output (empty when fine)."""
    if op["kind"] == "lib":
        if op["fn"] == "oracle":
            fast, brute = text.split()
            if fast != brute:
                return [f"count_fast {fast} != count_dist_le {brute}"]
        return []
    body, _, tail = text.partition("\n#enclosure ")
    enclosures = tail.split("\n#enclosure ") if tail else []
    problems = []
    try:
        rows = [json.loads(line) for line in body.splitlines()]
    except ValueError:
        return ["stdout is not JSON rows"]
    if len(rows) != op["rows"]:
        problems.append(f"{len(rows)} rows, expected {op['rows']}")
    for row in rows:
        problems += [f"schema: {e.message}" for e in validator.iter_errors(row)]
    if op.get("spot") and not problems:
        problem = spot_check(op, enclosures[0], rows[0]) if enclosures else "no enclosure"
        if problem:
            problems.append(problem)
    return problems


def check(seed, ops, result, golden):
    """(failed executions, per-op problems, golden status)."""
    import jsonschema

    schema = json.loads((ROOT / "docs" / "row_schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    first_digest = {r[0]: r[2] for r in result["passes"][0]["ops"]}
    problems = {}
    for op in ops:
        text = result["first"][op["id"]]
        errs = [f"{r[3]}" for p in result["passes"] for r in p["ops"]
                if r[0] == op["id"] and r[3]]
        errs = errs[:1] if errs else check_op(op, text, validator)
        if any(r[0] == op["id"] and r[2] != first_digest[op["id"]]
               for p in result["passes"] for r in p["ops"]):
            errs.append("output differs between passes")
        if golden and golden["outputs"].get(op["id"]) != first_digest[op["id"]]:
            errs.append("output differs from golden digest")
        if errs:
            problems[op["id"]] = errs
    failed = sum(1 for p in result["passes"] for r in p["ops"] if r[0] in problems)
    if golden is None:
        status = f"no golden digests for seed {seed}; outputs checked for equality across passes"
    elif golden["ops_digest"] != workloads.digest(ops):
        status = "operation list differs from the recorded one"
    else:
        same = sum(golden["outputs"].get(k) == v for k, v in first_digest.items())
        status = f"{same}/{len(ops)} outputs match seed {seed} golden digests"
    return failed, problems, status


def witness(ops, result):
    """Rerun sum_grid under every backend and worker count; outputs must be
    bit-identical.  Only meaningful when more than one backend exists."""
    backends = result["available_backends"]
    if len(backends) < 2:
        return True, f"single backend ({backends[0]}): cross-backend and worker-count equality not checked"
    want = {r[0]: r[2] for r in result["passes"][0]["ops"]}
    runs = [{"DIOSUM_KERNEL": b} for b in backends]
    runs += [{"DIOSUM_WORKERS": "1"}, {"DIOSUM_WORKERS": str(result["nproc"])}]
    for env in runs:
        got = run_worker(ops, "witness", 0, 1, 0, env)
        diff = [r[0] for r in got["passes"][0]["ops"] if r[2] != want[r[0]]]
        if diff:
            return False, f"outputs differ under {env}: {', '.join(diff)}"
    return True, f"outputs bit-identical across backends {backends} and DIOSUM_WORKERS 1/{result['nproc']}"


# ---------------------------------------------------------------------------
# Metrics


def tail_percentile(ops_per_pass):
    n = MIN_PASSES * ops_per_pass
    return math.floor(100 * (1 - TAIL_SAMPLES / n))


def speed(row, share):
    """How much slower than nominal the machine ran around one operation:
    the reference times over REFERENCE_S, weighted by the operation's
    interpreter share."""
    return ((row[4] / REFERENCE_S[0]) ** share
            * (row[5] / REFERENCE_S[1]) ** (1 - share))


def shares(ops):
    return {op["id"]: workloads.INTERPRETER_SHARE[op["work"]] for op in ops}


def end_to_end(ops, result, setup, scale=True):
    """End-to-end metrics from the worker's operation latencies.

    The host's speed drifts by up to 2x within seconds (neighbours on a
    shared machine); `worker.reference()`, timed around every operation,
    tracks that drift.  Each latency is divided by the `speed` around it:
    seconds at the nominal speed where the reference takes REFERENCE_S.
    An operation's cost is the median of its scaled latencies over the
    passes; wall time and the throughputs add these up.  The latency
    percentiles use every execution.  `scale=False` gives the unscaled
    figures for the run record.
    """
    share = shares(ops)
    latencies = {op["id"]: [] for op in ops}
    for p in result["passes"]:
        for r in p["ops"]:
            latencies[r[0]].append(r[1] / speed(r, share[r[0]]) if scale else r[1])
    cost = {k: statistics.median(v) for k, v in latencies.items()}
    every = [x for v in latencies.values() for x in v]
    pct = tail_percentile(len(ops))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(cost.values()),
        "terms_per_s": sum(op["terms"] for op in ops)
                       / sum(cost[op["id"]] for op in ops if op["terms"]),
        "samples_per_s": sum(op["results"] for op in ops) / sum(cost.values()),
        "op_p50_s": statistics.median(every),
        "op_tail_s": statistics.quantiles(every, n=100)[pct - 1],
        "peak_rss_mb": result["peak_rss_mb"],
    }, pct, len(every)


def measure(workload, seed, seconds, trace):
    golden_all = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    golden = golden_all.get("workloads", {}).get(workload, {}).get(str(seed))
    ops = workloads.generate(workload, seed)
    build()
    setup = []
    if not trace:
        setup_time()  # warm-up: compiles bytecode caches
        setup = [setup_time() for _ in range(SETUP_PROBES)]
    else:
        import_times()
        probes = [import_times() for _ in range(3)]
    tag = f"{workload}-s{seed}-t{trace}"
    result = run_worker(ops, tag, seconds, 1 if trace else MIN_PASSES, trace)
    failed, problems, golden_status = check(seed, ops, result, golden)
    ok, witness_status = True, "run with --trace 0 on sum_grid only"
    if workload == "sum_grid" and not trace:
        ok, witness_status = witness(ops, result)
    attempted = sum(len(p["ops"]) for p in result["passes"])

    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "ops_digest": workloads.digest(ops),
        "backend": result["backend"], "available_backends": result["available_backends"],
        "nproc": result["nproc"], "python": result["python"], "numpy": result["numpy"],
        "passes": len(result["passes"]), "ops_per_pass": len(ops),
        "attempted": attempted, "failed": failed, "failed_ratio": failed / attempted,
        "problems": problems, "golden": golden_status, "witness": witness_status,
    }
    if trace:
        metrics = dict(result["layers"])
        metrics["import.diosum_cli_s"] = statistics.median(p[0] for p in probes)
        metrics["import.numpy_s"] = statistics.median(p[1] for p in probes)
        share = shares(ops)
        walls = {t: [sum(r[1] / speed(r, share[r[0]]) for r in p["ops"])
                     for p in result["passes"] if p["traced"] == t]
                 for t in (False, True)}
        metrics["trace.overhead_ratio"] = sum(walls[True]) / sum(walls[False]) - 1
        record["spans"] = result["spans"]
        record["trace_missing"] = result["trace_missing"]
    else:
        metrics, pct, samples = end_to_end(ops, result, setup)
        record["unscaled"] = end_to_end(ops, result, setup, scale=False)[0]
        record["speed"] = statistics.median(
            speed(r, 1.0) for p in result["passes"] for r in p["ops"])
        record["op_tail"] = f"p{pct} of {samples} operation latencies"
    units = declared_units(trace)
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    record["metrics"] = metrics
    record["op_median_s"] = {
        op["id"]: statistics.median(r[1] for p in result["passes"] for r in p["ops"]
                                    if r[0] == op["id"]) for op in ops}
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"perfbench {workload} seed={seed} trace={trace}: backend {result['backend']} "
          f"(available {','.join(result['available_backends'])}), nproc {result['nproc']}, "
          f"python {result['python']}, numpy {result['numpy']}")
    each = ", each operation untraced then traced" if trace else ""
    print(f"  {record['passes'] // (2 if trace else 1)} pass(es) over {len(ops)} ops{each}, "
          f"closed loop, 1 client; "
          f"attempted {attempted}, failed {failed}, failed_ratio {failed / attempted:.4g}")
    if not trace:
        print(f"  op_tail_s is the {record['op_tail']}; times are scaled to the "
              f"nominal machine speed (median slowdown this run "
              f"{record['speed']:.3g}x; unscaled wall_s {record['unscaled']['wall_s']:.4g} s)")
    print(f"  golden: {golden_status}")
    print(f"  witness: {witness_status}")
    for op_id, errs in problems.items():
        print(f"  FAILED {op_id}: {'; '.join(errs)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  run record: {OUT / f'run-{tag}.json'}")
    correct = failed == 0 and ok
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    print(json.dumps(line))
    return correct


def declared_units(trace):
    """{metric: unit} for the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def record_golden():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    build()
    for workload in workloads.WORKLOADS:
        for seed in (data["default_seed"], data["heldout_seed"]):
            ops = workloads.generate(workload, seed)
            result = run_worker(ops, f"golden-{workload}-s{seed}", 0, 1, 0)
            failed, problems, _ = check(seed, ops, result, None)
            if failed:
                raise BenchError(f"{workload} seed {seed}: {problems}")
            data["workloads"].setdefault(workload, {})[str(seed)] = {
                "ops_digest": workloads.digest(ops),
                "outputs": {r[0]: r[2] for r in result["passes"][0]["ops"]},
            }
            print(f"recorded {workload} seed {seed}: {len(ops)} operations")
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        return 0 if measure(args.workload, args.seed, args.seconds, args.trace) else 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
