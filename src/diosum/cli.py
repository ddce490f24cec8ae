"""Command-line front end: machine-readable tables of sums, predictions,
residuals, and Monte Carlo statistics.

Subcommands: expand, sum, compare, mc.  Output is CSV (RFC-4180 quoting,
always with a header row) or JSON objects one per line; identical
invocations produce byte-identical output.  Exit codes: 0 ok, 2 usage or
parse error, 3 precision exhaustion, 4 block mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import counting, kernel, predict, sums
from .cf import IrrationalSpec, convergents, expand, expand_data
from .errors import BlockMismatch, DiosumError, PrecisionExhausted
from .predict import clog
from .reals import precision_cap

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_BLOCK = 4


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise DiosumError(
            f"{text!r}: certified comparisons need exact rationals 'a/b', not reals"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DiosumError(f"cannot parse rational {text!r}") from exc


# int() parses at most this many digits by default
_MAX_EXPONENT = 4300


def _parse_count(text: str) -> int:
    text = text.strip().lower()
    try:
        if "e" in text:  # M e±k, read exactly: float would round 1e23
            mant, exp = text.split("e")
            k = int(exp)
            if "/" in mant or abs(k) > _MAX_EXPONENT:
                raise ValueError("not an integer")
            value = Fraction(mant) * Fraction(10) ** k
            if value.denominator != 1:
                raise ValueError("not an integer")
            return int(value)
        return int(text)
    except ValueError as exc:
        raise DiosumError(f"cannot parse integer {text!r}") from exc


def _grid(args) -> list:
    if args.N_geom:
        try:
            start_s, stop_s, fac_s = args.N_geom.split(":")
            if not fac_s.startswith("x"):
                raise ValueError("factor must look like x10")
            start, stop = _parse_count(start_s), _parse_count(stop_s)
            factor = _parse_count(fac_s[1:])
        except ValueError as exc:
            raise DiosumError(f"bad --N-geom {args.N_geom!r}: {exc}") from exc
        if start < 1 or factor < 2:
            raise DiosumError("--N-geom needs start >= 1 and factor >= 2")
        grid = []
        n = start
        while n <= stop:
            grid.append(n)
            n *= factor
        return grid
    if args.N:
        return [_parse_count(tok) for tok in args.N.split(",")]
    raise DiosumError("one of --N or --N-geom is required")


def _parse_alphas(text: str) -> list:
    """Comma-separated spec list; surd:P,D,Q and root:M,R keep their
    numeric arguments, and a digits: spec consumes the rest of the line."""
    parts = [p.strip() for p in text.split(",")]
    specs = []
    i = 0
    while i < len(parts):
        head = parts[i].split(":", 1)[0]
        if head == "surd":
            tok, i = ",".join(parts[i : i + 3]), i + 3
        elif head == "root":
            tok, i = ",".join(parts[i : i + 2]), i + 2
        elif head == "digits":
            tok, i = ",".join(parts[i:]), len(parts)
        else:
            tok, i = parts[i], i + 1
        specs.append(IrrationalSpec.parse(tok))
    return specs


class _RowWriter:
    """CSV (header per row shape) or JSON-lines row sink."""

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self._csv = None
        self._fields = None

    def write(self, row: dict):
        if self.fmt == "json":
            self.stream.write(json.dumps(row) + "\n")
            return
        fields = list(row.keys())
        if fields != self._fields:
            self._fields = fields
            self._csv = csv.DictWriter(self.stream, fieldnames=fields)
            self._csv.writeheader()
        self._csv.writerow(row)


def _frac_str(x):
    if x is None:
        return ""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_expand(args, writer) -> int:
    spec = IrrationalSpec.parse(args.alpha)
    digits = expand(spec, args.terms)
    conv = convergents(digits)
    # convergents of long expansions pass Python's 4300-digit int -> str limit
    # (Pythons without the limit have no get_int_max_str_digits)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        s = 0
        for k, (a, (p, q)) in enumerate(zip(digits, conv)):
            if k >= 1:
                s += a
            writer.write(
                {
                    "row_type": "digit",
                    "alpha": args.alpha,
                    "k": k,
                    "a_k": a,
                    "p_k": p,
                    "q_k": q,
                    "s_k": s,
                }
            )
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK


def _measure(family, specs, N, args):
    if family == "dist":
        return sums.sum_dist(specs[0], N, Fraction(1, 2) if args.c is None else args.c)
    if family == "harmonic":
        return sums.sum_harmonic_dist(specs[0], N)
    if family in ("frac", "cofrac"):
        variant = "frac" if family == "frac" else "complement"
        return sums.sum_frac(specs[0], N, args.c, variant, args.weight)
    if family == "shifted":
        return sums.sum_shifted(
            specs[0], args.beta or Fraction(0), N, args.mode.replace("-", "_"),
            args.weight
        )
    if family == "multidim":
        return sums.sum_multidim(specs, N, args.weight)
    raise DiosumError(f"unknown family {family!r}")


# the --weight values each sum family and each theorem take; the first is
# the default (thm1.1 takes its --family's)
_SUM_WEIGHTS = {
    "dist": ("1",),
    "harmonic": ("1/n",),
    "frac": ("1", "1/n"),
    "cofrac": ("1", "1/n"),
    "shifted": ("1", "1/n"),
    "multidim": ("1", "linf"),
}
_COMPARE_WEIGHTS = {
    "thm2.1": ("1",),
    "thm2.2": ("1/n",),
    "thm3.1": ("1/n", "1"),
    "thm3.2": ("1", "1/n"),
    "thm3.3": ("1", "linf"),
}


def _pick_weight(args, weights, owner):
    """Default args.weight to weights[0]; reject a weight not in weights."""
    if args.weight is None:
        args.weight = weights[0]
    elif args.weight not in weights:
        raise DiosumError(
            f"{owner} takes --weight {' or '.join(weights)}, not {args.weight}"
        )


def cmd_sum(args, writer) -> int:
    specs = _parse_alphas(args.alpha)
    if args.family != "multidim" and len(specs) != 1:
        raise DiosumError(f"family {args.family} takes exactly one alpha")
    _pick_weight(args, _SUM_WEIGHTS[args.family], f"family {args.family}")
    if args.family in ("frac", "cofrac") and args.weight == "1" and args.c is None:
        raise DiosumError("weight-1 fractional sums need --c")
    for N in _grid(args):
        res = _measure(args.family, specs, N, args)
        writer.write(
            {
                "row_type": "sum",
                "family": args.family,
                "alpha": args.alpha,
                "N": N,
                "value": res.value,
                "width": res.width,
                "c": _frac_str(res.cutoff * N if res.cutoff is not None else None),
                "beta": _frac_str(res.beta),
                "weight": res.weight,
                "terms": res.terms_included,
                "excluded_index": res.excluded_index if res.excluded_index else "",
                "precision_bits": res.precision_bits,
            }
        )
    return EXIT_OK


def _compare_row(args, specs, N):
    theorem = args.theorem
    c = Fraction(1, 2) if args.c is None else args.c
    if theorem == "thm1.1":
        if args.family == "harmonic":
            measured = sums.sum_harmonic_dist(specs[0], N).value
            report = predict.predict_badly(N)[1]
        else:
            measured = sums.sum_shifted(specs[0], 0, N, "full", "1").value
            report = predict.predict_badly(N)[0]
    elif theorem == "thm2.1":
        data = expand_data(specs[0], _table_depth(specs[0], N))
        report = predict.predict_sum_dist(data, N, c, K=args.K)
        measured = sums.sum_dist(specs[0], N, c).value
    elif theorem == "thm2.2":
        data = expand_data(specs[0], _table_depth(specs[0], N))
        report = predict.predict_sum_harmonic(data, N, K=args.K)
        measured = sums.sum_harmonic_dist(specs[0], N).value
    elif theorem == "thm3.1":
        data = expand_data(specs[0], _table_depth(specs[0], N))
        variant = args.variant
        weight = args.weight
        report = predict.predict_frac(data, N, variant, weight, K=args.K)
        if weight == "1":
            measured = sums.sum_frac(specs[0], N, c, variant, "1").value
        else:
            measured = sums.sum_frac(specs[0], N, None, variant, "1/n").value
    elif theorem == "thm3.2":
        weight = args.weight
        report = predict.predict_shifted(N, weight)
        beta = args.beta or Fraction(0)
        mode = "exclude_min" if weight == "1" else "full"
        measured = sums.sum_shifted(specs[0], beta, N, mode, weight).value
    elif theorem == "thm3.3":
        d = len(specs)
        weight = args.weight
        reports = predict.predict_multidim(d, N)
        report = reports["weighted"] if weight == "linf" else reports["sum"]
        measured = sums.sum_multidim(specs, N, weight).value
    else:
        raise DiosumError(f"unknown theorem tag {theorem!r}")
    return report.with_measured(measured)


def _table_depth(spec, N) -> int:
    from .cf import locate_block

    return locate_block(spec, N) + 1


def cmd_compare(args, writer) -> int:
    specs = _parse_alphas(args.alpha)
    if args.theorem == "thm1.1":
        _pick_weight(args, _SUM_WEIGHTS[args.family], f"thm1.1 --family {args.family}")
    else:
        _pick_weight(args, _COMPARE_WEIGHTS[args.theorem], args.theorem)
    if args.c is not None and args.c <= 0:
        raise DiosumError("c must be a positive rational")
    had_block_error = False
    for N in _grid(args):
        try:
            report = _compare_row(args, specs, N)
        except BlockMismatch as exc:
            had_block_error = True
            writer.write(
                {
                    "row_type": "compare",
                    "theorem": args.theorem,
                    "alpha": args.alpha,
                    "N": N,
                    "K": "",
                    "measured": "",
                    "main": "",
                    "second_order_total": "",
                    "residual": "",
                    "envelope": "",
                    "normalized_residual": "",
                    "error": f"block-mismatch: {exc}",
                }
            )
            continue
        row = {
            "row_type": "compare",
            "theorem": args.theorem,
            "alpha": args.alpha,
            "N": N,
            "K": report.K if report.K is not None else "",
            "measured": report.measured,
            "main": report.main,
            "second_order_total": report.second_order_total,
            "residual": report.residual,
            "envelope": report.envelope,
            "normalized_residual": report.normalized_residual,
            "error": "",
        }
        if args.evidence and args.theorem == "thm3.2":
            row["hyp_min_evidence"] = _shift_hypothesis_evidence(
                specs[0], args.beta or Fraction(0), N
            )
        writer.write(row)
    return EXIT_BLOCK if had_block_error else EXIT_OK


def _shift_hypothesis_evidence(spec, beta, N) -> float:
    """Finite-range min of (n log log n) ||n alpha + beta||: evidence only,
    never an assertion of the infinite hypothesis."""
    from .reals import DEFAULT_START_BITS, VARIANT_DIST, _refine_many

    ns = range(1, N + 1)
    boxes = _refine_many(spec, ns, beta, VARIANT_DIST, 20, DEFAULT_START_BITS)
    return min(n * clog(clog(n)) * (d_hi / (1 << bits)) for n, (_, d_hi, bits) in zip(ns, boxes))


def cmd_mc(args, writer) -> int:
    seeds = list(range(args.seed0, args.seed0 + args.samples))
    stat = args.stat
    skipped = []
    if stat in ("sums", "all"):
        N = args.N_mc
        if N is None:
            raise DiosumError("--N is required for --stat sums")
        sums._check_N(N)
        c = Fraction(1, 2) if args.c is None else args.c
        if c <= 0:
            raise DiosumError("--c must be a positive rational")
        # bad settings are usage errors here, not a skipped seed each
        sums._workers()
        precision_cap()
        kernel.backend()
        denom1 = 2.0 * N * clog(N)
        denom2 = clog(N) ** 2

        def one(seed):
            spec = IrrationalSpec.uniform(seed)
            try:
                s1 = sums.sum_dist(spec, N, c).value / denom1
                s2 = sums.sum_harmonic_dist(spec, N).value / denom2
                return seed, s1, s2, None
            except (PrecisionExhausted, DiosumError) as exc:
                return seed, None, None, str(exc)

        # serial: each sum already spreads its blocks over the worker threads
        rows = [one(seed) for seed in seeds]
        ratios1, ratios2 = [], []
        for seed, s1, s2, err in rows:
            if err is not None:
                skipped.append((seed, err))
                continue
            ratios1.append(s1)
            ratios2.append(s2)
            writer.write(
                {
                    "row_type": "mc-sample",
                    "stat": "sums",
                    "seed": seed,
                    "N": N,
                    "c": _frac_str(c),
                    "s1_over_2NlogN": s1,
                    "s2_over_log2N": s2,
                }
            )
        for name, vals in (("s1_over_2NlogN", ratios1), ("s2_over_log2N", ratios2)):
            writer.write(_aggregate_row(name, vals, N=N))
    if stat in ("khinchin-levy", "diamond-vaaler", "all"):
        if args.K is None:
            raise DiosumError("--K is required for metric statistics")
        res = predict.metric_stats(seeds, args.K)
        for s in res["samples"]:
            if s.skipped:
                skipped.append((s.seed, s.skipped))
                continue
            writer.write(
                {
                    "row_type": "mc-sample",
                    "stat": "metric",
                    "seed": s.seed,
                    "K": s.K,
                    "log_qK_over_K": s.log_qK_over_K,
                    "trimmed_over_KlogK": s.trimmed_over_KlogK,
                    "max_quotient": s.max_quotient,
                }
            )
        good = [s for s in res["samples"] if not s.skipped]
        if stat in ("khinchin-levy", "all"):
            writer.write(
                _aggregate_row(
                    "log_qK_over_K", [s.log_qK_over_K for s in good], K=args.K
                )
            )
        if stat in ("diamond-vaaler", "all"):
            writer.write(
                _aggregate_row(
                    "trimmed_over_KlogK",
                    [s.trimmed_over_KlogK for s in good],
                    K=args.K,
                )
            )
    for seed, reason in skipped:
        print(f"skipped seed {seed}: {reason}", file=sys.stderr)
    return EXIT_OK


def _aggregate_row(name, vals, **extra):
    import statistics

    vals = sorted(vals)
    row = {"row_type": "mc-aggregate", "stat": name, "count": len(vals)}
    row.update(extra)
    if vals:
        q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [vals[0]] * 3
        row.update(
            {
                "mean": statistics.fmean(vals),
                "median": statistics.median(vals),
                "q1": q[0],
                "q3": q[2],
            }
        )
    else:
        row.update({"mean": "", "median": "", "q1": "", "q3": ""})
    return row


# ---------------------------------------------------------------------------
# Parser


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diosum",
        description="Certified sums of reciprocals of fractional parts.",
    )
    parser.add_argument("--config", help="flat key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", help="write rows to this file instead of stdout")

    p_expand = sub.add_parser("expand", help="digit/convergent table")
    p_expand.add_argument("--alpha", required=True)
    p_expand.add_argument("--terms", type=int, required=True)
    common(p_expand)

    p_sum = sub.add_parser("sum", help="certified sum rows over an N grid")
    p_sum.add_argument("--family", required=True,
                       choices=("dist", "harmonic", "frac", "cofrac", "shifted",
                                "multidim"))
    p_sum.add_argument("--alpha", required=True)
    p_sum.add_argument("--c", type=_parse_rational, default=None)
    p_sum.add_argument("--beta", type=_parse_rational, default=None)
    p_sum.add_argument("--weight", choices=("1", "1/n", "linf"), default=None)
    p_sum.add_argument("--mode", choices=("full", "exclude-min"), default="full")
    p_sum.add_argument("--N", default=None)
    p_sum.add_argument("--N-geom", dest="N_geom", default=None)
    common(p_sum)

    p_cmp = sub.add_parser("compare", help="measured sums vs predictions")
    p_cmp.add_argument("--theorem", required=True,
                       choices=("thm1.1", "thm2.1", "thm2.2", "thm3.1", "thm3.2",
                                "thm3.3"))
    p_cmp.add_argument("--alpha", required=True)
    p_cmp.add_argument("--c", type=_parse_rational, default=None)
    p_cmp.add_argument("--beta", type=_parse_rational, default=None)
    p_cmp.add_argument("--variant", choices=("frac", "complement"), default="frac")
    p_cmp.add_argument("--weight", choices=("1", "1/n", "linf"), default=None)
    p_cmp.add_argument("--family", choices=("dist", "harmonic"), default="dist")
    p_cmp.add_argument("--K", type=int, default=None,
                       help="force the block index (block mismatch if wrong)")
    p_cmp.add_argument("--evidence", action="store_true",
                       help="report finite-range shifted-hypothesis minimum")
    p_cmp.add_argument("--N", default=None)
    p_cmp.add_argument("--N-geom", dest="N_geom", default=None)
    common(p_cmp)

    p_mc = sub.add_parser("mc", help="Monte Carlo statistics over uniform samples")
    p_mc.add_argument("--samples", type=int, required=True)
    p_mc.add_argument("--seed0", type=int, default=1)
    p_mc.add_argument("--stat", choices=("sums", "khinchin-levy", "diamond-vaaler",
                                         "all"), default="sums")
    p_mc.add_argument("--N", dest="N_mc", type=_parse_count, default=None)
    p_mc.add_argument("--c", type=_parse_rational, default=None)
    p_mc.add_argument("--K", type=int, default=None)
    common(p_mc)

    return parser


def _load_config(path: str) -> list:
    """(key, value) pairs of a flat key = value file."""
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DiosumError(f"bad config line {line!r}")
                key, _, value = line.partition("=")
                pairs.append((key.strip(), value.strip()))
    except OSError as exc:
        raise DiosumError(f"cannot read config {path!r}: {exc}") from exc
    return pairs


def _config_flags(parser, command: str, pairs) -> list:
    """Config pairs as flags of `command`'s subparser.  Keys it does not
    take are dropped; a store_true key adds the bare flag for true or 1 and
    nothing for false or 0."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    target = sub.choices.get(command)
    if target is None:  # argparse reports the bad subcommand
        return []
    actions = {opt: act for act in target._actions for opt in act.option_strings
               if not isinstance(act, argparse._HelpAction)}
    flags = []
    for key, value in pairs:
        action = actions.get(f"--{key}")
        if action is None:
            continue
        if not isinstance(action, argparse._StoreTrueAction):
            flags += [f"--{key}", value]
        elif value in ("true", "1"):
            flags.append(f"--{key}")
        elif value not in ("false", "0"):
            raise DiosumError(f"config key {key!r} takes true, false, 1 or 0, not {value!r}")
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # lift --config out, expand it into defaults placed before user flags
    try:
        if "--config" in argv:
            i = argv.index("--config")
            path = argv[i + 1] if i + 1 < len(argv) else None
            if path is None:
                print("--config needs a path", file=sys.stderr)
                return EXIT_USAGE
            del argv[i : i + 2]
            if not argv:
                print("a subcommand is required", file=sys.stderr)
                return EXIT_USAGE
            flags = _config_flags(parser, argv[0], _load_config(path))
            argv = [argv[0]] + flags + argv[1:]
        args = parser.parse_args(argv)
    except DiosumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    stream = sys.stdout
    close = False
    if args.output:
        stream = open(args.output, "w", encoding="utf-8", newline="")
        close = True
    writer = _RowWriter(args.format, stream)
    try:
        if args.command == "expand":
            return cmd_expand(args, writer)
        if args.command == "sum":
            return cmd_sum(args, writer)
        if args.command == "compare":
            return cmd_compare(args, writer)
        if args.command == "mc":
            return cmd_mc(args, writer)
        print(f"unknown command {args.command!r}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except BlockMismatch as exc:
        print(f"block mismatch: {exc}", file=sys.stderr)
        return EXIT_BLOCK
    except DiosumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close:
            stream.close()


if __name__ == "__main__":
    sys.exit(main())
