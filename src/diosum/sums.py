"""Certified brute-force evaluation of every reciprocal sum family.

All families share one pipeline: terms are evaluated in blocks by the
kernel at 128 working bits, block subtotals are combined by a fixed
balanced reduction over chunks of 2**14 indices (deterministic and
independent of worker count), and a final outward guard turns the
directed double bounds into an exact dyadic enclosure.  The terms the
kernel cannot certify go to reals.resolve_forms in one batch per call: all
of them at 256 bits, the ones still open at 512, and so on up to the cap.

The exclude-min argmin and small_dist_indices refine only the indices that
a kernel count pass flags as possibly below a small threshold; every other
index is certainly above it.  half_lattice walks the half lattice for the
multidimensional sums here and for counting.count_multidim.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from ._pykernel import GUARD_DN, GUARD_UP
from .cf import IrrationalSpec, expand_data, locate_block
from .errors import DiosumError, PrecisionExhausted, RationalDependence
from .reals import (
    OPEN,
    VARIANT_DIST,
    VARIANT_IDS,
    BallReal,
    beta_scaled,
    escalate,
    form_interval,
    frac_scaled,
    map_variant,
    precision_cap,
    resolve_forms,
)

__all__ = [
    "SumResult",
    "sum_dist",
    "sum_harmonic_dist",
    "sum_frac",
    "find_min_index",
    "sum_shifted",
    "sum_multidim",
    "small_dist_indices",
]

CHUNK = 1 << 14
DEFAULT_REL_TOL = Fraction(1, 10**9)


@dataclass(frozen=True)
class SumResult:
    enclosure: BallReal
    N: int
    variant: str
    weight: str
    cutoff: Fraction | None
    beta: Fraction | None
    excluded_index: int | None
    terms_included: int
    precision_bits: int

    @property
    def value(self) -> float:
        return float(self.enclosure.mid)

    @property
    def width(self) -> float:
        return float(self.enclosure.width)


def _workers() -> int:
    """Kernel threads per sum: DIOSUM_WORKERS, at most the CPU count."""
    cpus = os.cpu_count() or 1
    raw = os.environ.get("DIOSUM_WORKERS") or str(cpus)
    if not raw.isdecimal() or int(raw) < 1:
        raise DiosumError(f"DIOSUM_WORKERS must be a positive integer, not {raw!r}")
    return min(int(raw), cpus)


def _div_up(m: int, d: int) -> float:
    """Smallest double >= m / d (m, d > 0)."""
    f = m / d  # correctly rounded
    p, q = f.as_integer_ratio()
    return f if p * d >= m * q else math.nextafter(f, math.inf)


def _div_dn(m: int, d: int) -> float:
    """Largest double <= m / d (m, d > 0)."""
    f = m / d
    p, q = f.as_integer_ratio()
    return f if p * d <= m * q else math.nextafter(f, -math.inf)


def _pairwise(values):
    """Fixed balanced reduction; deterministic for a given leaf order."""
    values = list(values) or [0.0]
    while len(values) > 1:
        odd = values[-1:] if len(values) % 2 else []
        values = [a + b for a, b in zip(values[::2], values[1::2])] + odd
    return values[0]


def _assemble(lo_leaves, hi_leaves, included, bits, n_resolved) -> BallReal:
    """Enclosure from directed per-leaf bounds plus an outward summation guard.

    Each internal sequential run is at most CHUNK additions and the
    reduction tree depth is logarithmic, so (CHUNK + 64 + resolved) units of
    2**-50 per side dominates the accumulated rounding with a wide margin.
    """
    if included == 0:
        return BallReal(Fraction(0), Fraction(0), bits)
    s_lo = _pairwise(lo_leaves)
    s_hi = _pairwise(hi_leaves)
    eps = math.ldexp(CHUNK + 64 + n_resolved, -50)
    lo = s_lo * (1.0 - eps)
    hi = s_hi * (1.0 + eps)
    return BallReal.from_endpoints(Fraction(lo), Fraction(hi), bits)


# ---------------------------------------------------------------------------
# Exact resolution of kernel-flagged terms


def _resolve_terms(specs, terms, beta, variant, cutoff, dependence_suspect=False):
    """Certified (t_lo, t_hi) float bounds for each term, None if cut off.

    A term (key, coefs, weight_div) is 1 / (weight_div * f(x)) with f the
    variant map and x = sum(coefs[i] * alpha_i) + beta, alpha_i = specs[i].
    Every term is tried at 256 bits, those still open at 512, and so on;
    at the cap the first open term raises PrecisionExhausted, or, with
    dependence_suspect (multidimensional forms), RationalDependence if x
    stays next to an integer.  The bounds are the directed roundings of the
    exact quotients, whatever the level that decides them.
    """
    if cutoff is not None:
        cut_num, cut_den = cutoff.numerator, cutoff.denominator

    def decide(i, d_lo, d_hi, bits):
        if d_lo == 0:
            return OPEN
        if cutoff is not None:
            cut = cut_num << bits
            if d_hi * cut_den <= cut:
                return None  # certainly below the cutoff: excluded
            if d_lo * cut_den < cut:
                return OPEN
        if (d_hi - d_lo) << 48 > d_lo:
            return OPEN
        modulus, wd = 1 << bits, terms[i][2]
        return _div_dn(modulus, d_hi * wd), _div_up(modulus, d_lo * wd)

    def fail(i, box):
        cap = precision_cap()
        if dependence_suspect and (box is None or box[0] == 0):
            return RationalDependence(
                f"n={terms[i][0]}: linear form stays next to an integer at {cap} bits"
            )
        return PrecisionExhausted(f"n={terms[i][0]}: term not certified below {cap} bits", bits=cap)

    forms = [coefs for _, coefs, _ in terms]
    return resolve_forms(specs, forms, beta, variant, decide, fail, 256)


# ---------------------------------------------------------------------------
# One-dimensional driver


def _sum_range(spec, beta, N, variant, weight, cutoff, exclude, bits):
    a = frac_scaled(spec, bits)
    b, wb = beta_scaled(beta, bits)
    modulus = 1 << bits
    b %= modulus
    cut = None
    if cutoff is not None:  # cutoff * modulus lies in [lo, lo + w], exact
        lo, w = beta_scaled(cutoff, bits)
        cut = lo, lo + w
    if cut is not None and cut[0] >= modulus:
        # cutoff >= 1 excludes every term: the variant values are < 1 strictly
        return BallReal(Fraction(0), Fraction(0), bits), 0
    blocks = [(n0, min(n0 + CHUNK - 1, N)) for n0 in range(1, N + 1, CHUNK)]

    def run(block):
        n0, n1 = block
        return kernel.sum_block(a, 1, b, wb, n0, n1, variant, weight, cut, exclude, bits)

    workers = _workers()
    if len(blocks) > 1 and workers > 1 and kernel.backend() == "c":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, blocks))
    else:
        results = [run(block) for block in blocks]

    lo_leaves = [r[0] for r in results]
    hi_leaves = [r[1] for r in results]
    included = sum(r[2] for r in results)
    flagged = sorted(n for r in results for n in r[3])
    terms = [(n, (n,), n if weight else 1) for n in flagged]
    kept = [t for t in _resolve_terms((spec,), terms, beta, variant, cutoff) if t is not None]
    lo_leaves += [lo for lo, _ in kept]
    hi_leaves += [hi for _, hi in kept]
    included += len(kept)
    return _assemble(lo_leaves, hi_leaves, included, bits, len(flagged)), included


# sums add every term, and the compiled kernel's term indices are 64-bit
N_LIMIT = 1 << 64


def _check_N(N):
    if N < 1:
        raise DiosumError("N must be >= 1")
    if N >= N_LIMIT:
        raise DiosumError(f"N must be below 2**64 = {N_LIMIT}: sums add every term")


def _certified_sum(spec, N, variant_name, weight_name, cutoff, beta, exclude,
                   rel_tol=DEFAULT_REL_TOL):
    """Sum at 128 bits, then at 256, 512 and 768 (clamped to the cap) until
    the enclosure meets rel_tol."""
    _check_N(N)
    variant = VARIANT_IDS[variant_name]
    weight = 1 if weight_name == "1/n" else 0
    beta = Fraction(beta) if beta is not None else Fraction(0)
    cutoff = Fraction(cutoff) if cutoff is not None else None
    bits = 128
    while True:
        ball, included = _sum_range(spec, beta, N, variant, weight, cutoff, exclude, bits)
        if included == 0 or ball.width <= rel_tol * abs(ball.mid):
            return SumResult(
                enclosure=ball,
                N=N,
                variant=variant_name,
                weight=weight_name,
                cutoff=cutoff,
                beta=beta if beta != 0 else None,
                excluded_index=exclude if exclude else None,
                terms_included=included,
                precision_bits=bits,
            )
        bits = escalate(bits, min(precision_cap(), 768), PrecisionExhausted(
            f"relative tolerance {rel_tol} unreachable at {bits} bits", bits=bits))


# ---------------------------------------------------------------------------
# Public sum families


def sum_dist(spec: IrrationalSpec, N: int, c) -> SumResult:
    """Sum over n <= N with ||n alpha|| >= c/N of 1/||n alpha||."""
    c = Fraction(c)
    if c <= 0:
        raise DiosumError("c must be a positive rational")
    _check_N(N)
    return _certified_sum(spec, N, "dist", "1", c / Fraction(N), None, 0)


def sum_harmonic_dist(spec: IrrationalSpec, N: int) -> SumResult:
    """Sum over n <= N of 1/(n ||n alpha||); no cutoff needed."""
    return _certified_sum(spec, N, "dist", "1/n", None, None, 0)


def sum_frac(spec: IrrationalSpec, N: int, c=None, variant: str = "frac",
             weight: str = "1") -> SumResult:
    """Fractional-part sums: 1/{n alpha} or 1/(1 - {n alpha}), weight 1 or 1/n."""
    if variant not in ("frac", "complement"):
        raise DiosumError("variant must be 'frac' or 'complement'")
    if weight not in ("1", "1/n"):
        raise DiosumError("weight must be '1' or '1/n'")
    if weight == "1" and c is None:
        raise DiosumError("cutoff c is required for weight 1")
    cutoff = None
    if c is not None:
        c = Fraction(c)
        if c <= 0:
            raise DiosumError("c must be a positive rational")
        _check_N(N)
        cutoff = c / Fraction(N)
    return _certified_sum(spec, N, variant, weight, cutoff, None, 0)


def _argmin_variant(spec, beta, N, variant_name):
    """Certified argmin over 1 <= n <= N of the variant value of n alpha + beta.

    A kernel count pass with threshold T and nothing to count flags every n
    whose value may lie below T (T starts near 4/N and grows 8-fold until
    some flagged value is certainly below it).  Every other n is at least
    T, so the flagged ones are the only candidates refined.
    """
    variant = VARIANT_IDS[variant_name]
    beta = Fraction(beta)
    cap = precision_cap()

    def boxes(candidates, bits):
        a = frac_scaled(spec, bits)
        b, wb = beta_scaled(beta, bits)
        modulus = 1 << bits
        out = []
        for n in candidates:
            mapped = map_variant((n * a + b) % modulus, n + wb, modulus, variant)
            # a wrapped interval could be arbitrarily small
            out.append((n,) + (mapped or (0, modulus)))
        return out

    bits, modulus = 128, 1 << 128
    a = frac_scaled(spec, bits)
    b, wb = beta_scaled(beta, bits)
    threshold = max(1, (4 << bits) // N)
    while threshold < modulus:
        flagged = kernel.count_block(a, 1, b % modulus, wb, 1, N, variant, 0, threshold, bits)[1]
        ivals = boxes(flagged, bits)
        if any(hi < threshold for _, _, hi in ivals):
            break
        threshold <<= 3
    else:  # no threshold below 1 isolates a candidate: every index is one
        ivals = boxes(range(1, N + 1), bits)
    while True:
        best_hi = min(hi for _, _, hi in ivals)
        alive = [n for n, lo, _ in ivals if lo <= best_hi]
        if len(alive) == 1:
            return alive[0]
        shown = ", ".join(map(str, alive[:4])) + (", ..." if len(alive) > 4 else "")
        bits = escalate(bits, cap, PrecisionExhausted(
            f"argmin tie among {len(alive)} candidates [{shown}] unresolved at {cap} bits"
            " (reported, not guessed)", bits=cap))
        ivals = boxes(alive, bits)


def find_min_index(spec: IrrationalSpec, beta, N: int) -> int:
    """Certified argmin of ||n alpha + beta|| over 1 <= n <= N.

    Exact ties are impossible for rational beta and irrational alpha (a tie
    would force alpha rational), so refinement terminates in principle; an
    unresolved overlap at the cap is reported, never guessed.
    """
    _check_N(N)
    return _argmin_variant(spec, beta, N, "dist")


def sum_shifted(spec: IrrationalSpec, beta, N: int, mode: str = "exclude_min",
                weight: str = "1", variant: str = "dist") -> SumResult:
    """Shifted sums 1/||n alpha + beta|| and fractional-part variants.

    mode "exclude_min" omits the index minimizing the variant value over
    1 <= n <= N and records it in the result; mode "full" keeps every index.
    """
    if mode not in ("exclude_min", "full"):
        raise DiosumError("mode must be 'exclude_min' or 'full'")
    if variant not in VARIANT_IDS:
        raise DiosumError(f"unknown variant {variant!r}")
    if weight not in ("1", "1/n"):
        raise DiosumError("weight must be '1' or '1/n'")
    _check_N(N)
    exclude = _argmin_variant(spec, beta, N, variant) if mode == "exclude_min" else 0
    return _certified_sum(spec, N, variant, weight, None, beta, exclude)


# ---------------------------------------------------------------------------
# Higher-dimensional sums over [-N, N]^d \ {0}


def half_lattice(scaled, N, modulus):
    """Runs (mult, base, bw, vec_fn) covering {n in [-N, N]^d \\ 0 : first
    nonzero coordinate > 0}, d = len(scaled), scaled[i] = frac_scaled(alpha_i).

    In a run, j = 1..N is the vector vec_fn(j), and n . alpha * modulus lies
    in [base + j*mult, base + j*mult + bw + j] mod modulus: the first
    coordinates are a fixed prefix, the last nonzero one is +-j.  Runs come
    in lexicographic order of the prefix, the longest prefixes first.
    """
    d = len(scaled)
    for dim in range(d, 0, -1):
        a, origin, pad = scaled[dim - 1], (0,) * (dim - 1), (0,) * (d - dim)
        for p in itertools.product(range(-N, N + 1), repeat=dim - 1):
            if p < origin:
                continue  # first nonzero coordinate negative
            r, bw = form_interval(p, scaled)
            base = r % modulus
            if p != origin:  # the origin prefix takes positive j only
                yield modulus - a - 1, base, bw, lambda j, p=p, pad=pad: p + (-j,) + pad
            yield a, base, bw, lambda j, p=p, pad=pad: p + (j,) + pad


def _linf_half_2d(a1, a2, N, modulus):
    """Runs (mult, base, bw, j0, j1, vec_fn, weight_div) covering the half
    shells ||n||_inf = ell <= N for d = 2, with weight divisor ell**2."""
    neg2 = modulus - a2 - 1  # scaled floor of 1 - alpha_2
    for ell in range(1, N + 1):
        wd = ell * ell
        row_base = (ell * a1) % modulus
        yield a2, row_base, ell, 1, ell, lambda j, L=ell: (L, j), wd
        yield neg2, row_base, ell, 1, ell, lambda j, L=ell: (L, -j), wd
        yield a1, 0, 0, ell, ell, lambda j: (j, 0), wd
        # the two columns are empty for ell = 1
        yield a1, (ell * a2) % modulus, ell, 1, ell - 1, lambda j, L=ell: (j, L), wd
        yield a1, (ell * neg2) % modulus, ell, 1, ell - 1, lambda j, L=ell: (j, -L), wd
        yield a2, 0, 0, ell, ell, lambda j: (0, j), wd


def sum_multidim(specs, N: int, weight: str = "1") -> SumResult:
    """Sum over n in [-N, N]^d \\ {0} of weight(n) / ||n_1 a_1 + ... + n_d a_d||.

    weight "1" or "linf" (the latter is ||n||_inf ** -d).  Exploits the
    symmetry ||-x|| = ||x||: the half lattice with first nonzero coordinate
    positive is evaluated and the result doubled (an exact scaling).
    Raises RationalDependence if some nonzero vector appears to send the
    linear form to an integer.
    """
    specs = tuple(specs)
    d = len(specs)
    if d < 1 or N < 1:
        raise DiosumError("need d >= 1 and N >= 1")
    _check_N(N)
    if weight not in ("1", "linf"):
        raise DiosumError("weight must be '1' or 'linf'")
    bits = 128
    modulus = 1 << bits
    A = [frac_scaled(s, bits) for s in specs]
    lo_leaves, hi_leaves = [], []
    included = n_resolved = 0

    def run(mult, base, bw, j0, j1, vec_fn, wd):
        """Kernel run over j0 <= j <= j1, weight 1/wd (wd None: 1/j)."""
        nonlocal included, n_resolved
        if j1 < j0:
            return
        s_lo, s_hi, m, flags = kernel.sum_block(
            mult, 1, base, bw, j0, j1, VARIANT_DIST, int(wd is None), None, 0, bits)
        if wd not in (1, None):
            s_lo = (s_lo * _div_dn(1, wd)) * GUARD_DN
            s_hi = (s_hi * _div_up(1, wd)) * GUARD_UP
        lo_leaves.append(s_lo)
        hi_leaves.append(s_hi)
        if flags:
            terms = [(v, v, wd or v[0]) for v in map(vec_fn, flags)]
            resolved = _resolve_terms(specs, terms, 0, VARIANT_DIST, None, dependence_suspect=True)
            lo_leaves.extend(lo for lo, _ in resolved)
            hi_leaves.extend(hi for _, hi in resolved)
        included += m + len(flags)
        n_resolved += len(flags)

    if weight == "1":
        for mult, base, bw, vec_fn in half_lattice(A, N, modulus):
            run(mult, base, bw, 1, N, vec_fn, 1)
    elif d == 1:  # ||n||_inf = n on the half line: the kernel's 1/n weight
        run(A[0], 0, 0, 1, N, lambda j: (j,), None)
    elif d == 2:
        for args in _linf_half_2d(*A, N, modulus):
            run(*args)
    else:
        raise DiosumError("linf weight is implemented for d <= 2")

    ball = _assemble(lo_leaves, hi_leaves, included, bits, n_resolved)
    ball = BallReal(ball.mid * 2, ball.rad * 2, ball.precision)  # mirror half, exact
    return SumResult(
        enclosure=ball,
        N=N,
        variant="multidim-dist",
        weight=weight,
        cutoff=None,
        beta=None,
        excluded_index=None,
        terms_included=included * 2,
        precision_bits=bits,
    )


# ---------------------------------------------------------------------------
# Indices with ||n alpha|| < 1/(2n)


def small_dist_indices(spec: IrrationalSpec, N: int) -> list:
    """Sorted n <= N with ||n alpha|| < 1/(2n); each returned index is
    verified (not assumed) to be a multiple of its block's q_k.

    On [2**k, 2**(k+1)) such an n has ||n alpha|| < 2**-(k+1), so one kernel
    count pass per dyadic block with that threshold and nothing to count
    flags every candidate; only those are decided exactly, from 256 bits.
    """
    _check_N(N)
    bits = 128
    a = frac_scaled(spec, bits)
    candidates = []
    for k in range(N.bit_length()):
        threshold = 1 << (bits - 1 - k)
        candidates += kernel.count_block(
            a, 1, 0, 0, 1 << k, min((2 << k) - 1, N), VARIANT_DIST, 0, threshold, bits)[1]

    def decide(i, d_lo, d_hi, bits):
        n = candidates[i]
        if 2 * n * d_hi < 1 << bits:
            return True
        return False if 2 * n * d_lo >= 1 << bits else OPEN

    def fail(i, box):
        n, cap = candidates[i], precision_cap()
        return PrecisionExhausted(
            f"||{n} alpha|| vs 1/(2n) not separated below {cap} bits", index=n, bits=cap
        )

    small = resolve_forms((spec,), [(n,) for n in candidates], 0, VARIANT_DIST,
                          decide, fail, 256)
    out = [n for n, keep in zip(candidates, small) if keep]
    data = expand_data(spec, locate_block(spec, N) + 1)
    for n in out:
        k = data.block_index(n)
        if n % data.q[k] != 0:
            raise DiosumError(
                f"convergent-multiple structure violated at n={n}: "
                f"q_{k}={data.q[k]} does not divide it"
            )
    return out
