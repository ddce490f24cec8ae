"""Seeded operation lists for the three benchmark workloads.

An operation is either a `diosum` CLI invocation (`kind: "cli"`, run as
`diosum.cli.main(argv)` with stdout captured) or a library call where the
CLI has no route (`kind: "lib"`, counting and discrepancy).  The seed only
picks values whose cost does not depend on them (uniform-sample seeds,
cutoffs, shifts, thresholds, a few percent of jitter on N, the order of the
operations), so every seed yields the same mix of work and runs take the
same time.  Sizes are stratified, never drawn at random, for the same reason.

Each operation also carries what the benchmark needs to account for it:
`terms` (indices n, or lattice points, whose term in a sum or membership
in a count the operation certifies; discrepancy is neither), `results`
(Monte Carlo samples for `mc`, output rows for other CLI operations, one
value for library calls) and, for CLI operations, the number of output
`rows` it must print, and `work`, the kind of work it mostly does.
"""

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("sum_grid", "mc_ensemble", "theory_checks")

# Share of interpreter-bound work in an operation, by the kind of work it
# mostly does; it weighs the two parts of `worker.reference()` when times
# are scaled to a fixed machine speed.  Sums, brute-force counts and small
# fast counts run Python loops; count_fast at huge N and digit extraction
# run big-integer arithmetic, and discrepancy_profile numpy, which a busy
# neighbour slows about a quarter as much.
INTERPRETER_SHARE = {"interpreter": 1.0, "bigint": 1 / 3}

# The acceptance suite's constructed spec: q_10 = 89, a_11 = 10^4.
BIG_DIGITS = "digits:0,1*10,10000,1*300"


def huge_quotient(rng):
    """a_3 = 10^40 after q_2 = 3: every multiple of 3 is flagged by the
    128-bit kernel and resolved exactly.  The tail after the huge digit is
    seeded; it does not change which terms are flagged."""
    tail = ",".join(str(rng.randint(1, 3)) for _ in range(40))
    return f"digits:0,1,2,{10**40},1,3,{tail},1*200"


def _jitter(rng, n, share=0.02):
    return max(1, round(n * (1 + rng.uniform(-share, share))))


def _uniform(rng):
    return f"uniform:{rng.randrange(1, 10**6)}"


def _cli(argv, terms, results, rows, work="interpreter", **extra):
    op = {"kind": "cli", "argv": argv + ["--format", "json"], "terms": terms,
          "results": results, "rows": rows, "work": work}
    op.update(extra)
    return op


def _lib(fn, args, terms, work="interpreter"):
    return {"kind": "lib", "fn": fn, "args": args, "terms": terms, "results": 1,
            "work": work}


def _sum(family, alpha, N, spot=False, **flags):
    argv = ["sum", "--family", family, "--alpha", alpha, "--N", str(N)]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), value]
    extra = {"spot": True} if spot else {}
    return _cli(argv, N, 1, 1, **extra)


def sum_grid(rng):
    """Certified 1-D sums at N ~ 10^4..10^6 over every family and alpha kind,
    multidimensional sums at N <= 256, and compare rows.  The kernel does most
    of the work; argmin (shifted exclude-min) and exact resolution of flagged
    terms (huge-quotient spec) are the two other loaded paths.  The five
    heaviest operations cost about the same, so the tail percentile lands
    inside that group whatever the seed."""
    c = lambda: rng.choice(["1/2", "1/3", "2/3", "1"])  # noqa: E731
    beta = lambda: rng.choice(["1/3", "2/7", "3/5", "1/5"])  # noqa: E731
    huge = huge_quotient(rng)
    j = lambda n: _jitter(rng, n)  # noqa: E731
    grid = [j(10**4), j(10**5), j(4 * 10**5)]
    ops = [
        # heavy group
        _cli(["sum", "--family", "dist", "--alpha", _uniform(rng), "--c", c(),
              "--N", ",".join(map(str, grid))], sum(grid), 3, 3),
        _sum("shifted", "phi", j(2 * 10**5), beta=beta(), mode="exclude-min"),
        _sum("harmonic", huge, j(5 * 10**4)),
        _sum("dist", "phi", j(3 * 10**5), c=c()),
        _sum("dist", BIG_DIGITS, j(4 * 10**5), c=c()),
        # medium
        _sum("dist", "e", j(10**5), c=c()),
        _sum("dist", "cbrt2", j(10**5), c=c()),
        _sum("dist", huge, j(2 * 10**4), c=c()),
        _sum("harmonic", "sqrt2", j(10**5)),
        _sum("harmonic", _uniform(rng), j(10**5)),
        _sum("harmonic", BIG_DIGITS, j(10**5)),
        _sum("frac", "e", j(10**5), weight="1/n"),
        _sum("frac", _uniform(rng), j(10**5), c=c()),
        _sum("cofrac", "cbrt2", j(10**5), weight="1/n"),
        _sum("shifted", "e", j(10**5), beta=beta()),
        _sum("shifted", _uniform(rng), j(10**5), beta=beta(), weight="1/n"),
        # small sums over quadratic surds, also checked against mpmath
        _sum("dist", "sqrt2", j(10**4), spot=True, c=c()),
        _sum("harmonic", "phi", j(10**4), spot=True),
        _sum("frac", "phi", j(10**4), spot=True, c=c()),
        _sum("cofrac", "sqrt2", j(10**4), spot=True, c=c()),
        _sum("shifted", "sqrt2", j(10**4), spot=True, beta=beta(),
             mode="exclude-min"),
    ]
    # multidim: N <= 256; terms are all nonzero lattice points of [-N, N]^d
    for alpha, N, weight in (("cbrt2,cbrt4", j(250), "1"),
                             ("cbrt2,cbrt4", j(120), "linf"),
                             ("sqrt2,cbrt2,cbrt4", 16, "1")):
        d = alpha.count(",") + 1
        ops.append(_cli(["sum", "--family", "multidim", "--alpha", alpha,
                         "--N", str(N), "--weight", weight],
                        (2 * N + 1) ** d - 1, 1, 1))
    n, m = j(10**5), j(2 * 10**4)
    ops += [
        _cli(["compare", "--theorem", "thm2.2", "--alpha", "phi",
              "--N-geom", "100:100000:x10"], 111100, 4, 4),
        _cli(["compare", "--theorem", "thm2.1", "--alpha", BIG_DIGITS,
              "--c", c(), "--N", str(n)], n, 1, 1),
        _cli(["compare", "--theorem", "thm3.1", "--alpha", "sqrt2",
              "--N", str(n)], n, 1, 1),
        _cli(["compare", "--theorem", "thm1.1", "--alpha", "phi",
              "--family", "harmonic", "--N", str(n)], n, 1, 1),
        _cli(["compare", "--theorem", "thm3.2", "--alpha", "sqrt2",
              "--beta", beta(), "--N", str(m)], m, 1, 1),
        _cli(["compare", "--theorem", "thm3.3", "--alpha", "cbrt2,cbrt4",
              "--N", "64,128"], 129**2 - 1 + 257**2 - 1, 2, 2),
    ]
    return ops


def mc_ensemble(rng):
    """`mc --stat sums` batches over seeded uniform alphas at N ~ 10^5: many
    medium sums over distinct alphas, each with its own alpha set-up, under
    the per-sample thread pool of `cmd_mc` (nested in `_sum_range` when the
    compiled kernel runs).  Two thirds of the batches take one sample and a
    third take two, so the median and the tail each fall inside one group."""
    ops = []
    for i in range(24):
        samples = 2 if i % 3 == 2 else 1
        N = _jitter(rng, 10**5)
        seed0 = rng.randrange(1, 10**6)
        c = rng.choice(["1/2", "1/3", "1"])
        ops.append(_cli(["mc", "--samples", str(samples), "--seed0", str(seed0),
                         "--N", str(N), "--c", c],
                        2 * N * samples, samples, samples + 2))
    return ops


def theory_checks(rng):
    """Counting, continued-fraction digit extraction, predictions and
    `reals.dist_nearest`; the kernel does almost none of the work here.
    Oracle pairs are the majority, so the median is an oracle pair and the
    tail falls among the huge-N fast counts and the discrepancy profiles."""
    ops = []
    alphas = ["phi", "sqrt2", "e", "cbrt2", "uniform"]
    # 30 oracle pairs count_fast == count_dist_le, N stratified over [1, 2000]
    for i in range(30):
        alpha = alphas[i % 5]
        alpha = _uniform(rng) if alpha == "uniform" else alpha
        N = _jitter(rng, round(2000 * (i + 0.5) / 30), 0.05)
        t = str(Fraction(1, rng.randint(2, 200)))
        ops.append(_lib("oracle", {"alpha": alpha, "N": N, "t": t}, N))
    # fast counts at N = m * 10^k, k in 50..800 (fixed alpha for each k)
    for alpha, k in (("e", 800), ("phi", 400), ("cbrt2", 400), ("sqrt2", 300),
                     ("uniform", 200), ("phi", 100), ("e", 50)):
        alpha = _uniform(rng) if alpha == "uniform" else alpha
        N = rng.randint(1, 9) * 10**k + rng.randrange(10**6)
        t = str(Fraction(1, rng.randint(3, 50)))
        ops.append(_lib("count_fast", {"alpha": alpha, "N": str(N), "t": t}, 0,
                        "bigint"))
    # discrepancy_profile is O(N^2) (np.insert per N): 6000 already shows it
    for alpha, N in (("phi", _jitter(rng, 6000)), ("e", _jitter(rng, 3000)),
                     ("sqrt2", _jitter(rng, 1500))):
        ops.append(_lib("discrepancy_profile", {"alpha": alpha, "N_max": N}, 0,
                        "bigint"))
    ops.append(_lib("discrepancy", {"alpha": "cbrt2", "N": _jitter(rng, 20000)}, 0))
    ts = sorted({str(Fraction(rng.randint(1, 9), 10)) for _ in range(3)})
    ops.append(_lib("local_disc_extrema_batch",
                    {"alpha": "sqrt2", "K_max": 12, "ts": ts}, 0))
    ops.append(_lib("local_disc_extrema_batch",
                    {"alpha": "phi", "K_max": 16, "ts": ts}, 0))
    N = 40
    ops.append(_lib("count_multidim",
                    {"alpha": "cbrt2,cbrt4", "N": N,
                     "t": str(Fraction(1, rng.randint(20, 200)))},
                    (2 * N + 1) ** 2 - 1))
    for _ in range(3):
        ops.append(_cli(["mc", "--samples", "1", "--seed0",
                         str(rng.randrange(1, 10**6)), "--stat", "khinchin-levy",
                         "--K", "10000"], 0, 1, 2, "bigint"))
    beta = lambda: rng.choice(["1/3", "2/7", "3/5", "1/5"])  # noqa: E731
    for alpha, N in (("sqrt2", _jitter(rng, 4000)), ("phi", _jitter(rng, 2000))):
        ops.append(_cli(["compare", "--theorem", "thm3.2", "--alpha", alpha,
                         "--beta", beta(), "--N", str(N), "--evidence"],
                        2 * N, 1, 1))
    n = _jitter(rng, 10**4)
    ops += [
        _cli(["compare", "--theorem", "thm2.2", "--alpha", "e",
              "--N-geom", "10:10000:x10"], 11110, 4, 4),
        _cli(["compare", "--theorem", "thm2.1", "--alpha", "e", "--N", str(n)],
             n, 1, 1),
        _cli(["compare", "--theorem", "thm3.1", "--alpha", "cbrt2",
              "--variant", "complement", "--N", str(n)], n, 1, 1),
    ]
    return ops


def generate(workload, seed):
    """The operation list of `workload` for `seed`, shuffled, with ids."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = globals()[workload](rng)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["id"] = f"{workload}-{i:02d}"
    return ops


def digest(ops):
    """sha256 of the canonical JSON of an operation list."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
