"""Pure-Python term kernel.

Evaluates blocks of terms 1/f(n*alpha + beta) where f is the fractional
part, its complement, or the distance to the nearest integer.  One loop,
block(), serves both modes: sums with certified cutoff filtering, and
membership counts against a threshold band.

The fractional part of n*alpha + beta is carried as an exact integer
interval [r, r+w] in units of 2**-bits; per-term reciprocal bounds are
produced as IEEE doubles with error-free directed conversion (shift to
<= 53 significant bits, then an exact power-of-two scaling) plus a single
outward guard multiplication covering the division rounding.  The compiled
kernel in _ckernel.c runs the same loop with bit-identical arithmetic at
bits == 128; this module is the reference it is tested against, the
fallback when it is not built, and the kernel for other precisions and for
blocks beyond its 64-bit indices.

Terms whose interval wraps the circle, touches zero, or is not separated
from the cutoff or threshold band are reported back by index for exact
resolution by the caller; they are never guessed.

The module also holds the numpy discrepancy profile that disc_profile in
_ckernel.c reproduces bit for bit; numpy is imported inside the functions
that use it.
"""

import math

# One rounding happens in 1/x and (optionally) one more in the weight
# division before the guard multiply; 2**-48 dominates three half-ulp
# roundings with a wide margin.
GUARD_UP = 1.0 + 2.0**-48
GUARD_DN = 1.0 - 2.0**-48

MAX_KERNEL_BITS = 900  # beyond this the double conversion would go subnormal


def block(
    a: int,
    aw: int,
    b: int,
    bw: int,
    n0: int,
    n1: int,
    variant: int,
    weight: int,
    band_lo,
    band_hi,
    exclude: int,
    counting: bool,
    bits: int,
):
    """One pass over n in [n0, n1]; returns (s_lo, s_hi, hits, flagged).

    Sums: certified double bounds on the sum over the certified-included
    terms (skipping n == exclude, and the terms certainly at or below the
    cut band [band_lo, band_hi] unless it is None), and their number.
    Counts: s_lo = s_hi = 0.0 and the number of n whose variant value is
    certainly at or below the threshold band; weight and exclude are unused.
    Either way `flagged` lists, in order, the indices needing exact
    resolution.  The checks are those of run() in _ckernel.c, in its order.
    """
    if bits > MAX_KERNEL_BITS and not counting:
        raise ValueError("kernel bits too large for double conversion")
    modulus = 1 << bits
    mask = modulus - 1
    half = modulus >> 1
    has_cut = band_lo is not None
    if counting:
        exclude = n0 - 1  # equals no n in the block
    s_lo = 0.0
    s_hi = 0.0
    hits = 0
    flagged = []
    ldexp = math.ldexp
    for n in range(n0, n1 + 1):
        if n == exclude:
            continue
        r = (n * a + b) & mask  # == % modulus, also for negative values
        top = r + n * aw + bw
        if top >= modulus:  # the interval wraps through 0
            flagged.append(n)
            continue
        if variant == 0:  # distance to nearest integer
            if top <= half:
                d_lo, d_hi = r, top
            elif r >= half:
                d_lo, d_hi = modulus - top, modulus - r
            else:
                m_top = modulus - top
                d_lo = r if r < m_top else m_top
                d_hi = half
        elif variant == 1:  # fractional part
            d_lo, d_hi = r, top
        else:  # complement 1 - {x}
            if r == 0:  # d_hi would be the full modulus (wraps in the u128 twin)
                flagged.append(n)
                continue
            d_lo, d_hi = modulus - top, modulus - r
        if counting:
            if d_hi <= band_lo:
                hits += 1
            elif d_lo < band_hi:
                flagged.append(n)
            continue
        if d_lo <= 0:
            flagged.append(n)
            continue
        if has_cut:
            if d_hi <= band_lo:
                continue
            if d_lo < band_hi:
                flagged.append(n)
                continue
        sh = d_hi.bit_length() - 53
        if sh > 0:
            mh = d_hi >> sh
            if (mh << sh) != d_hi:
                mh += 1
            x_hi = ldexp(mh, sh - bits)
            x_lo = ldexp(d_lo >> sh, sh - bits)
        else:
            x_hi = ldexp(d_hi, -bits)
            x_lo = ldexp(d_lo, -bits)
        q_hi = 1.0 / x_lo
        q_lo = 1.0 / x_hi
        if weight:
            q_hi = q_hi / n
            q_lo = q_lo / n
        s_hi += q_hi * GUARD_UP
        s_lo += q_lo * GUARD_DN
        hits += 1
    return s_lo, s_hi, hits, flagged


def disc_from_sorted(xs, N: int):
    """D_N from sorted sample floats.

    Overfull deviation sup over closed [x_i, x_j]:  max(u_j - min_{i<=j} u_i) + 1
    with u_j = j - N x_j (1-based j); underfull sup over open intervals and
    boundary gaps: max over i < j of (v_j - v_i) + 1 on v extended by
    v_0 = 0 (left boundary) and v_{N+1} = -1 (right boundary), v = -u.
    """
    import numpy as np

    idx = np.arange(1, N + 1, dtype=np.float64)
    u = idx - N * xs
    e_plus = float(np.max(u - np.minimum.accumulate(u))) + 1.0
    v = np.concatenate(([0.0], -u, [-1.0]))
    prefix = np.minimum.accumulate(v)[:-1]
    e_minus = float(np.max(v[1:] - prefix)) + 1.0
    return max(e_plus, e_minus)


def disc_profile(all_x):
    """out[N-1] = D_N of all_x[:N] for every N, inserting one point per N."""
    import numpy as np

    out = np.empty(len(all_x), dtype=np.float64)
    cur = np.empty(0, dtype=np.float64)
    for N in range(1, len(all_x) + 1):
        pos = np.searchsorted(cur, all_x[N - 1])
        cur = np.insert(cur, pos, all_x[N - 1])
        out[N - 1] = disc_from_sorted(cur, N)
    return out
