"""Counting functions and discrepancy quantities.

count_dist_le is the certified brute-force count: a kernel count pass at 128
bits, then a single reals.resolve_forms call for all the memberships it
flags (as in count_multidim and the local discrepancy scans).  count_fast
computes the same number by a Euclidean descent on floor sums:
#{n <= N : {n y + z} <= t} is a difference of two sums
G(N, y, z) = sum_{n<=N} floor(n y + z), and G satisfies an exact recursion
that replaces y by a unimodular image of itself with N shrinking
geometrically.  That is O(log N) levels, each doing a few
operations on integers of O(log N) bits, so the cost grows about
quadratically in the number of digits of N.  The state keeps y as an integer
Moebius transform of alpha and z = (U + V y) / D with integers U, V, D, so
every floor taken along the way is a certified decision about a linear
fractional expression in alpha (with an exact algebraic test for the integer
edge case, which alpha's irrationality makes decidable).  Each level takes
only the floors its last move left unknown, on an enclosure of y rounded
outward to the bits the current N needs; a floor left open there is retried
on the exact enclosure before the precision is doubled (see _gsum).

Discrepancy is computed by the standard finite reduction over intervals
with endpoints at the sample points; local discrepancy extrema are exact
integer scans.  The discrepancy profile is still O(N^2) arithmetic for
N <= N_max, but kernel.discrepancy_profile runs it in C with no allocation
per N, bit-identical to the numpy loop that the py backend keeps.  numpy
is imported by the functions that use it, so that importing this module
(and the CLI) does not load it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _pykernel, kernel
from .cf import ContinuedFractionData, IrrationalSpec, expand_data, locate_block
from .errors import DiosumError, PrecisionExhausted
from .reals import (
    OPEN,
    VARIANT_DIST,
    VARIANT_FRAC,
    VARIANT_IDS,
    BallReal,
    beta_scaled,
    escalate,
    frac_scaled,
    precision_cap,
    resolve_forms,
)
from .sums import half_lattice

__all__ = [
    "count_dist_le",
    "count_fast",
    "pigeonhole_bound",
    "discrepancy",
    "discrepancy_profile",
    "local_disc_extrema",
    "local_disc_extrema_batch",
    "schoissengeier_prediction",
    "count_multidim",
]

_BRUTE_CUTOFF = 64  # descent defers to direct evaluation below this length


# ---------------------------------------------------------------------------
# Certified brute-force count


def _resolve_members(specs, forms, beta, variant, t):
    """Exact decisions of `variant value <= t`, one per form: the value of
    sum(c_i * alpha_i) + beta for the coefficient tuples in `forms`."""
    t_num, t_den = t.numerator, t.denominator

    def decide(i, d_lo, d_hi, bits):
        scaled_t = t_num << bits
        if d_hi * t_den <= scaled_t:
            return True
        return False if d_lo * t_den >= scaled_t else OPEN

    def fail(i, box):
        cap = precision_cap()
        return PrecisionExhausted(f"membership vs t={t} not separated below {cap} bits", bits=cap)

    return resolve_forms(specs, forms, beta, variant, decide, fail, 256)


def count_dist_le(spec: IrrationalSpec, N: int, t, variant: str = "dist",
                  beta=None) -> int:
    """|{1 <= n <= N : variant(n alpha + beta) <= t}|, every membership certified."""
    t = Fraction(t)
    if t <= 0 or N < 1:
        raise DiosumError("need t > 0 and N >= 1")
    if variant not in VARIANT_IDS:
        raise DiosumError(f"unknown variant {variant!r}")
    beta = Fraction(beta) if beta is not None else Fraction(0)
    vid = VARIANT_IDS[variant]
    if (variant == "dist" and t >= Fraction(1, 2)) or t >= 1:
        return N
    bits = 128
    a = frac_scaled(spec, bits)
    b, wb = beta_scaled(beta, bits)
    b %= 1 << bits
    t_lo, tw = beta_scaled(t, bits)
    total, flagged = kernel.count_block(a, 1, b, wb, 1, N, vid, t_lo, t_lo + tw, bits)
    return total + sum(_resolve_members((spec,), [(n,) for n in flagged], beta, vid, t))


# ---------------------------------------------------------------------------
# Integer-state floor-sum descent for the fast count


class _Ctx:
    """frac(alpha) at a precision that only grows, shared by the descents of
    one count."""

    __slots__ = ("spec", "cap", "bits", "a")

    def __init__(self, spec):
        self.spec = spec
        self.cap = precision_cap()
        self.bits = 0
        self.a = 0

    def frac(self, w: int) -> int:
        """A with frac(alpha) * 2**w strictly inside (A, A + 1), w <= cap.

        Truncating a finer certified A keeps the enclosure strict, so one
        power-of-two precision serves every w below it."""
        if w > self.bits:
            self.bits = min(max(128, 1 << (w - 1).bit_length()), self.cap)
            self.a = frac_scaled(self.spec, self.bits)
        return self.a >> (self.bits - w)


def _enclose(ctx: _Ctx, w: int, y):
    """(nl, dl, nh, dh): y = (a x + b)/(c x + d) at the two ends of
    x = frac(alpha) in (A, A + 1) / 2**w, as exact numerator/denominator
    pairs (scaled by 2**w)."""
    A = ctx.frac(w)
    a, b, c, d = y
    nl, dl = a * A + (b << w), c * A + (d << w)
    return nl, dl, nl + a, dl + c


def _refine(ctx: _Ctx, w: int, y):
    """Double w, up to the cap, and enclose y again there."""
    w = escalate(w, ctx.cap, PrecisionExhausted(
        f"floor not certified below {ctx.cap} bits", bits=ctx.cap))
    return w, _enclose(ctx, w, y)


def _floor(K: int, U: int, D: int, y, e):
    """floor((K y + U) / D) for D > 0, or None if the enclosure e leaves it
    open.

    The caller has checked that the denominator of y keeps one sign between
    the ends of e, so the expression is monotone in alpha there and equal end
    floors certify the floor.  An expression identically equal to an integer
    m takes the value m at both ends; should the ends still disagree, the
    algebraic test K a + U c = m D c and K b + U d = m D d certifies m.
    """
    nl, dl, nh, dh = e
    lo = (K * nl + U * dl) // (D * dl)
    hi = (K * nh + U * dh) // (D * dh)
    if lo == hi:
        return lo
    m = max(lo, hi)
    a, b, c, d = y
    if abs(hi - lo) == 1 and K * a + U * c == m * D * c and K * b + U * d == m * D * d:
        return m
    return None


def _cut(n: int, d: int, bits: int, up: bool):
    """n/d for 0 <= n < d, rounded up or down to a denominator of about
    `bits` bits: one of n, d is floored and the other raised by one."""
    s = d.bit_length() - bits
    if s <= 0:
        return n, d
    if up:
        return (n >> s) + 1, d >> s
    return n >> s, (d >> s) + 1


def _round_out(e, bits: int, rising: bool):
    """e rounded outward, the lower end down and the upper end up, with
    positive denominators of about `bits` bits.

    Both ends must lie in [0, 1); `rising` says whether the first end is the
    lower one."""
    nl, dl, nh, dh = e
    if dl < 0:  # the pole check leaves both denominators one sign
        nl, dl, nh, dh = -nl, -dl, -nh, -dh
    return (*_cut(nl, dl, bits, not rising), *_cut(nh, dh, bits, rising))


def _retry(ctx: _Ctx, w: int, y, exact: bool):
    """(w, e) after a floor left open on e: the exact enclosure at the same
    w if e was rounded, else the exact one at the next precision."""
    if exact:
        return _refine(ctx, w, y)
    return w, _enclose(ctx, w, y)


def _gsum_brute(ctx: _Ctx, N: int, y, U: int, V: int, D: int, w: int, e,
                exact: bool) -> int:
    """Direct evaluation of sum_{n<=N} floor(((n D + V) y + U) / D);
    undecided indices are retried on the exact enclosure, then at doubled
    precision."""
    total = 0
    pending = range(1, N + 1)
    while True:
        retry = []
        for n in pending:
            f = _floor(n * D + V, U, D, y, e)
            if f is None:
                retry.append(n)
            else:
                total += f
        if not retry:
            return total
        pending = retry
        w, e = _retry(ctx, w, y, exact)
        exact = True


def _gsum(ctx: _Ctx, N: int, y, u: Fraction, v: Fraction) -> int:
    """sum_{n=1}^{N} floor(n y + z) with z = u + v y, exact.

    y is an integer Moebius 4-tuple acting on alpha; z is kept as
    (U + V y) / D over one fixed denominator D, which subtracting floors,
    reflecting and inverting all preserve, so the state is integers only.
    One enclosure of y moves with y through every step by the same integer
    row operations.  The descent keeps 0 < y < 1/2 (reflecting y -> 1 - y
    when needed) so N shrinks at least geometrically, and bottoms out at
    direct evaluation below _BRUTE_CUTOFF.  The result is
    total + sign * G(N, y, z) for the current state, so a reflection flips
    the sign instead of recursing.

    Each level takes floor(y) and floor(z) after an inversion, then
    floor(2 y), then M = floor(N y + z), but no floor that the last move
    already fixed: a translation by (floor(y), floor(z)) leaves both 0, and a
    reflection leaves floor(y) = 0 and y < 1/2, with z = -z_old, so
    floor(z) = -1 unless U = V = 0 (y is irrational).  Taken on the exact
    enclosure, these floors would need no refine either, unless after a
    reflection an end of it sat exactly on y = 1/2 or z = 0.

    Once 0 < y < 1 the enclosure is rounded outward to about
    bits(N D + |U| + |V|) + 64 bits, enough to decide M with a 2**-64
    margin, instead of carrying products about 2 bits(N_start) - bits(q)
    wide.  The rounded enclosure holds the exact one, so every floor it
    decides is certified and every floor open on the exact one is open on
    it.  A floor it leaves open is retried on the exact enclosure,
    _enclose(ctx, w, y) at the same w, and only a floor open there doubles
    w: the precision escalates, and PrecisionExhausted is raised, at the
    same steps as without rounding.  The levels below widen a rounding by
    about q^2, so the exact enclosure comes back about once per 64 bits
    of q.
    """
    D = math.lcm(u.denominator, v.denominator)
    U = u.numerator * (D // u.denominator)
    V = v.numerator * (D // v.denominator)
    # near convergent q the enclosure of y is about q^2 2**-w wide and the
    # current N is about N/q, so N q 2**-w <= N^2 2**-w bounds every floor's
    # uncertainty: twice N's bits plus a margin decide them
    w = min(ctx.cap, 2 * (N.bit_length() + max(map(abs, y)).bit_length()) + 64)
    e = _enclose(ctx, w, y)
    exact = True
    a, b, c, d = y
    rising = a * d > b * c  # the first end of e is the lower one
    stage = 0  # 0: floor(y), floor(z) unknown; 1: both 0; 2: also y < 1/2
    total = 0
    sign = 1
    while True:
        if N <= 0:
            return total
        nl, dl, nh, dh = e
        if not (dl > 0 < dh or dl < 0 > dh):  # a pole of y inside the enclosure
            w, e = _retry(ctx, w, y, exact)
            exact = True
            continue
        if N < _BRUTE_CUTOFF:
            return total + sign * _gsum_brute(ctx, N, y, U, V, D, w, e, exact)
        a, b, c, d = y
        if stage == 0:
            fy = _floor(1, 0, 1, y, e)
            fz = _floor(V, U, D, y, e)
            if fy is None or fz is None:
                w, e = _retry(ctx, w, y, exact)
                exact = True
                continue
            if fy or fz:
                total += sign * (fy * (N * (N + 1) // 2) + fz * N)
                a, b = a - fy * c, b - fy * d
                y = (a, b, c, d)
                e = (nl - fy * dl, dl, nh - fy * dh, dh)
                U += V * fy - fz * D
            # now 0 < y < 1, 0 <= z < 1
            e = _round_out(e, (N * D + abs(U) + abs(V)).bit_length() + 64, rising)
            nl, dl, nh, dh = e
            exact = False
            stage = 1
        if stage == 1:
            two_y = _floor(2, 0, 1, y, e)
            if two_y is None:
                w, e = _retry(ctx, w, y, exact)
                exact = True
                continue
            if two_y:
                # reflect y -> 1 - y (in (0, 1/2)); floor(n y + z) becomes
                # n - 1 - floor(n y' - z) except at exact-integer hits, which
                # require v = -n and u integral and are counted exactly.
                a, b = c - a, d - b
                y = (a, b, c, d)
                nl, nh = dl - nl, dh - nh
                e = (nl, dl, nh, dh)
                rising = not rising
                U = -(U + V)
                corr = 0
                if V % D == 0 and U % D == 0:
                    n_hit = -V // D  # an exact hit needs n = -v (and u integral)
                    if 1 <= n_hit <= N:
                        corr = 1
                # G_old = N(N+1)/2 - N + corr - G_new
                total += sign * (N * (N + 1) // 2 - N + corr)
                sign = -sign
                if U or V:  # z = -z_old in (-1, 0): translate by (0, -1)
                    total -= sign * N
                    U += D
            stage = 2
        M = _floor(V + N * D, U, D, y, e)
        if M is None:
            w, e = _retry(ctx, w, y, exact)
            exact = True
            continue
        if M <= 0:
            return total
        total += sign * (N * M + M)
        # y <- -1/y, z <- z / y = v + (-u) * (-1/y)
        y = (-c, -d, a, b)
        e = (-dl, nl, -dh, nh)
        U, V = V, -U
        N = M
        stage = 0


def count_fast(spec: IrrationalSpec, N: int, t, variant: str = "dist",
               beta=None) -> int:
    """Same value as count_dist_le, computed sublinearly in N.

    With C(x) = #{n <= N : {n alpha + beta} < x} = G(beta) - G(beta - x),
    the G(beta) terms cancel in every variant, leaving two floor-sum
    descents per count:
      dist:        N - G(beta - t) + G(beta + t - 1)
      frac:        G(beta) - G(beta - t)
      complement:  N - G(beta) + G(beta + t - 1)
    """
    t = Fraction(t)
    if t <= 0 or N < 1:
        raise DiosumError("need t > 0 and N >= 1")
    if variant not in VARIANT_IDS:
        raise DiosumError(f"unknown variant {variant!r}")
    beta = Fraction(beta) if beta is not None else Fraction(0)
    ctx = _Ctx(spec)
    y0 = (1, 0, 0, 1)  # frac(alpha); the shift enters through z

    def g(z):
        return _gsum(ctx, N, y0, z, Fraction(0))

    if variant == "dist":
        if t >= Fraction(1, 2):
            return N
        return N - g(beta - t) + g(beta + t - 1)
    if t >= 1:
        return N
    if variant == "frac":
        return g(beta) - g(beta - t)
    return N - g(beta) + g(beta + t - 1)


def pigeonhole_bound(spec: IrrationalSpec, N: int, t) -> Fraction:
    """4 q_{K+1} t + 1 for the block q_K <= N < q_{K+1}, exact rational."""
    t = Fraction(t)
    if t <= 0 or N < 1:
        raise DiosumError("need t > 0 and N >= 1")
    K = locate_block(spec, N)
    data = expand_data(spec, K + 1)
    return 4 * data.q[K + 1] * t + 1


# ---------------------------------------------------------------------------
# Discrepancy


def _sample_points(spec: IrrationalSpec, N: int, bits: int = 128):
    """Floats x_n ~ {n alpha} with |error| <= 2**-52 each, plus that bound."""
    import numpy as np

    a = frac_scaled(spec, bits)
    modulus = 1 << bits
    scale = math.ldexp(1.0, -bits)
    xs = np.empty(N, dtype=np.float64)
    r = 0
    for n in range(N):
        r = (r + a) % modulus
        xs[n] = r * scale
    return xs, math.ldexp(1.0, -52)


def discrepancy(spec: IrrationalSpec, N: int) -> BallReal:
    """D_N(alpha) = sup over subintervals of |count - length * N|, certified.

    The supremum is attained in the limit over intervals with endpoints at
    the sample points (closed and open limits both realized by the two
    scans); the float evaluation carries a rigorous error slack.
    """
    import numpy as np

    if N < 1:
        raise DiosumError("N must be >= 1")
    xs, point_err = _sample_points(spec, N)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    gaps = np.diff(xs)
    if N > 1 and float(np.min(gaps)) <= 4.0 * point_err:
        raise PrecisionExhausted("sample points too close to sort at 128 bits")
    d = _pykernel.disc_from_sorted(xs, N)
    # |u_j| error <= N * point_err plus N units of last-place slack
    slack = N * point_err * 2.0 + math.ldexp(float(N + 2), -40)
    return BallReal.from_endpoints(
        Fraction(d) - Fraction(slack), Fraction(d) + Fraction(slack), 128
    )


def discrepancy_profile(spec: IrrationalSpec, N_max: int):
    """(D_N, slack_N) floats for every N <= N_max, one incremental pass."""
    import numpy as np

    if N_max < 1:
        raise DiosumError("N_max must be >= 1")
    all_x, point_err = _sample_points(spec, N_max)
    out = kernel.discrepancy_profile(all_x)
    slack = np.empty(N_max, dtype=np.float64)
    for N in range(1, N_max + 1):
        slack[N - 1] = N * point_err * 2.0 + math.ldexp(float(N + 2), -40)
    return out, slack


# ---------------------------------------------------------------------------
# Local discrepancy


def _indicator_ints(spec: IrrationalSpec, Q: int, t: Fraction):
    """Exact 0/1 indicators of {n alpha} <= t for n = 1..Q-1."""
    bits = 128
    a = frac_scaled(spec, bits)
    modulus = 1 << bits
    t_lo, tw = beta_scaled(t, bits)
    ind = []
    open_ns = []
    r = 0
    for n in range(1, Q):
        r = (r + a) % modulus
        if r + n <= t_lo:
            ind.append(1)
        elif r >= t_lo + tw:
            ind.append(0)
        else:
            ind.append(None)
            open_ns.append(n)
    members = _resolve_members((spec,), [(n,) for n in open_ns], 0, VARIANT_FRAC, t)
    for n, member in zip(open_ns, members):
        ind[n - 1] = int(member)
    return ind


def local_disc_extrema(spec: IrrationalSpec, K: int, t):
    """Exact (max, min) over 1 <= N < q_{K+1} of |{n <= N : {n alpha} <= t}| - tN."""
    t = Fraction(t)
    if not (0 < t < 1):
        raise DiosumError("t must be in (0, 1)")
    if K < 1:
        raise DiosumError("K must be >= 1")
    data = expand_data(spec, K + 1)
    Q = data.q[K + 1]
    ind = _indicator_ints(spec, Q, t)
    best_hi = None
    best_lo = None
    cnt = 0
    td, tn = t.denominator, t.numerator
    for N in range(1, Q):
        cnt += ind[N - 1]
        val = cnt * td - tn * N  # (count - tN) * denominator, exact
        if best_hi is None or val > best_hi:
            best_hi = val
        if best_lo is None or val < best_lo:
            best_lo = val
    return Fraction(best_hi, td), Fraction(best_lo, td)


def local_disc_extrema_batch(spec: IrrationalSpec, K_max: int, ts):
    """Extrema for every K <= K_max and each rational t, sharing one pass.

    Returns {(K, t): (max, min)}.  Floats drive the scan; any sample closer
    than 2**-40 to a threshold is resolved exactly.
    """
    import numpy as np

    ts = [Fraction(t) for t in ts]
    if not all(0 < t < 1 for t in ts):
        raise DiosumError("t must be in (0, 1)")
    if K_max < 1:
        raise DiosumError("K must be >= 1")
    data = expand_data(spec, K_max + 1)
    Q = data.q[K_max + 1]
    xs, point_err = _sample_points(spec, Q - 1)
    out = {}
    for t in ts:
        if t.denominator * Q >= (1 << 62):  # int64 scan would overflow
            for k in range(1, K_max + 1):
                out[(k, t)] = local_disc_extrema(spec, k, t)
            continue
        tf = float(t)
        ind = (xs <= tf).astype(np.int64)
        near = np.nonzero(np.abs(xs - tf) <= 2**-40)[0]
        ind[near] = _resolve_members((spec,), [(int(i) + 1,) for i in near], 0, VARIANT_FRAC, t)
        cnt = np.cumsum(ind)
        ns = np.arange(1, Q, dtype=np.int64)
        vals = cnt * t.denominator - t.numerator * ns  # exact in int64 range
        run_max = np.maximum.accumulate(vals)
        run_min = np.minimum.accumulate(vals)
        for k in range(1, K_max + 1):
            edge = data.q[k + 1] - 1  # extrema over N in [1, q_{k+1})
            out[(k, t)] = (
                Fraction(int(run_max[edge - 1]), t.denominator),
                Fraction(int(run_min[edge - 1]), t.denominator),
            )
    return out


def schoissengeier_prediction(data: ContinuedFractionData, K: int, t):
    """Even/odd-index formula values for the local discrepancy extrema.

    max-formula:  sum over even k <= K of {q_k t}(a_{k+1}(1 - {q_k t})
                  + {q_{k+1} t} - {q_{k-1} t});
    min-formula:  minus the same sum over odd k <= K.
    Exact rationals for rational t.
    """
    t = Fraction(t)
    if K < 1:
        raise DiosumError("K must be >= 1")
    if data.K < K + 1:
        raise DiosumError("need digits through a_{K+1}")

    def frac_qt(k):
        v = data.q[k] * t
        return v - math.floor(v)

    even_sum = Fraction(0)
    odd_sum = Fraction(0)
    for k in range(1, K + 1):
        term = frac_qt(k) * (
            data.digits[k + 1] * (1 - frac_qt(k)) + frac_qt(k + 1) - frac_qt(k - 1)
        )
        if k % 2 == 0:
            even_sum += term
        else:
            odd_sum += term
    return even_sum, -odd_sum


# ---------------------------------------------------------------------------
# Higher-dimensional counting


def count_multidim(specs, N: int, t) -> int:
    """|{n in [-N,N]^d \\ {0} : ||n . alpha|| <= t}|, exact certified count."""
    specs = tuple(specs)
    d = len(specs)
    t = Fraction(t)
    if d < 1 or N < 1:
        raise DiosumError("need d >= 1 and N >= 1")
    if not (0 < t <= Fraction(1, 2)):
        raise DiosumError("t must be in (0, 1/2]")
    bits = 128
    t_lo, tw = beta_scaled(t, bits)
    total = 0
    flagged = []
    for mult, base, bw, vec_fn in half_lattice([frac_scaled(s, bits) for s in specs], N,
                                                1 << bits):
        cnt, flags = kernel.count_block(
            mult, 1, base, bw, 1, N, VARIANT_DIST, t_lo, t_lo + tw, bits)
        total += cnt
        flagged += map(vec_fn, flags)
    total += sum(_resolve_members(specs, flagged, 0, VARIANT_DIST, t))
    return 2 * total
