"""Deep soundness checks of the certified arithmetic.

These validate the two trust anchors directly: per-term double bounds from
the kernel against exact rational reciprocals, and the floor-sum descent
(including its reflection and exact-integer-hit correction) against an
independent exact-surd oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diosum import _pykernel, counting, kernel
from diosum.cf import IrrationalSpec
from diosum.reals import beta_scaled, frac_scaled, map_variant
from exact_surd import Surd

PHI = IrrationalSpec.phi()


def _sum_term(use_kernel, a, b, wb, n, variant, weight, band, bits, exclude=0):
    if use_kernel:
        return kernel.sum_block(a, 1, b, wb, n, n, variant, weight, band, exclude, bits)
    lo, hi = band if band is not None else (None, None)
    return _pykernel.block(a, 1, b, wb, n, n, variant, weight, lo, hi, exclude, False, bits)


def _count_term(use_kernel, a, b, wb, n, variant, band, bits):
    if use_kernel:
        return kernel.count_block(a, 1, b, wb, n, n, variant, band[0], band[1], bits)
    # a count ignores `exclude`
    return _pykernel.block(a, 1, b, wb, n, n, variant, 0, band[0], band[1], n, True, bits)[2:]


def _band(x: Fraction, bits: int):
    lo, w = beta_scaled(x, bits)
    return lo, lo + w


def test_single_term_bounds_contain_exact_reciprocal():
    """Kernel double bounds must bracket the exact rational 1/d for the very
    same integer interval the kernel saw, on the dispatching kernel and on
    the pure-Python loop, at 128 and 256 bits.  With a cut band, a term is
    included only if its whole interval is at or above the cutoff and
    skipped only if it is at or below; a count takes a term only if its
    whole interval is at or below the threshold.  Flags are raised exactly
    where the interval wraps, touches 0 (sums only), reaches 1 or meets
    the band."""
    rng = random.Random(99)
    specs = [PHI, IrrationalSpec.sqrt2(), IrrationalSpec.e(), IrrationalSpec.uniform(5)]
    for _ in range(400):
        spec = specs[rng.randrange(len(specs))]
        n = rng.randint(1, 10**6)
        variant = rng.randrange(3)
        weight = rng.randrange(2)
        bits = rng.choice((128, 256))
        mod = 1 << bits
        a = frac_scaled(spec, bits)
        # the last three start the interval at 0, end it at 1, put it across 1/2
        na = (n * a) % mod
        beta = rng.choice((Fraction(0), Fraction(rng.randint(-50, 50), rng.randint(1, 60)),
                           Fraction(-na, mod), Fraction(-na - n, mod),
                           Fraction((mod >> 1) - 1 - na, mod)))
        b, wb = beta_scaled(beta, bits)
        b %= mod
        mapped = map_variant((n * a + b) % mod, n + wb, mod, variant)
        d_lo, d_hi = mapped or (0, mod)
        unmapped = mapped is None or d_hi == mod
        probes = [Fraction(rng.randint(1, 10**6), 10**6 + rng.randint(1, 99))]
        if mapped is not None:  # bands at, just inside and between the ends
            probes += [Fraction(d, mod) + Fraction(e, 3 * mod)
                       for d, e in ((d_lo, 0), (d_lo, 1), (d_hi, -1), (d_hi, 0))]
            probes.append(Fraction(d_lo + d_hi, 2 * mod) + Fraction(1, 3 * mod))
        for use_kernel in (True, False):
            assert _sum_term(use_kernel, a, b, wb, n, variant, weight, None, bits,
                             exclude=n) == (0.0, 0.0, 0, [])
            for cut in [None] + probes:
                band = _band(cut, bits) if cut is not None else None
                s_lo, s_hi, m, flags = _sum_term(use_kernel, a, b, wb, n, variant,
                                                 weight, band, bits)
                meets = band is not None and band[0] < d_hi and d_lo < band[1]
                assert bool(flags) == (unmapped or d_lo == 0 or meets)
                if flags:
                    assert (m, flags) == (0, [n])
                    continue
                if m == 0:  # skipped by the cut
                    assert cut is not None and Fraction(d_hi, mod) <= cut
                    continue
                assert m == 1 and (cut is None or Fraction(d_lo, mod) >= cut)
                div = n if weight else 1
                exact_lo = Fraction(mod, d_hi * div)
                exact_hi = Fraction(mod, d_lo * div)
                assert Fraction(s_lo) <= exact_lo
                assert Fraction(s_hi) >= exact_hi
                # the bounds stay tight: within a relative 2**-40 of the exact ones
                assert Fraction(s_hi) - Fraction(s_lo) <= (exact_hi) * Fraction(1, 2**40) + (
                    exact_hi - exact_lo
                )
            for t in probes:
                band = _band(t, bits)
                count, flags = _count_term(use_kernel, a, b, wb, n, variant, band, bits)
                assert bool(flags) == (unmapped or (band[0] < d_hi and d_lo < band[1]))
                if flags:
                    assert count == 0 and flags == [n]
                elif count:
                    assert count == 1 and Fraction(d_hi, mod) <= t
                else:
                    assert Fraction(d_lo, mod) >= t


def _mobius_as_surd(y, n_plus_v: Fraction, u: Fraction) -> Surd:
    """(n + v) * y + u as an exact surd, for y a Moebius image of phi - 1.

    phi - 1 = (-1 + sqrt 5)/2, so (a(phi-1) + b)/(c(phi-1) + d) rationalizes
    to an explicit (U + V sqrt 5)/W with integer entries.
    """
    a, b, c, d = y
    num_r, num_s = 2 * b - a, a  # numerator = (num_r + num_s sqrt5)/2
    den_r, den_s = 2 * d - c, c
    # multiply by the conjugate of the denominator
    U = num_r * den_r - 5 * num_s * den_s
    V = num_s * den_r - num_r * den_s
    W = den_r * den_r - 5 * den_s * den_s
    # y = (U + V sqrt5)/W; now (n+v) y + u with rationals
    p, q = n_plus_v, u
    return Surd(
        p.numerator * q.denominator * U + q.numerator * p.denominator * W,
        p.numerator * q.denominator * V,
        W * p.denominator * q.denominator,
        5,
    )


def _oracle_gsum(y, N, u, v):
    total = 0
    for n in range(1, N + 1):
        total += _mobius_as_surd(y, v + n, u).floor()
    return total


def _random_unimodular(rng, depth):
    # compose digit matrices [[a,1],[1,0]]: always a valid Moebius state
    m = (1, 0, 0, 1)
    for _ in range(depth):
        a = rng.randint(1, 4)
        p, q, r, s = m
        m = (a * p + q, p, a * r + s, r)
    return m


def test_gsum_matches_exact_surd_oracle():
    ctx = counting._Ctx(PHI)
    rng = random.Random(7)
    for trial in range(60):
        y = _random_unimodular(rng, rng.randint(0, 4))
        u = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        v = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        N = rng.randint(1, 90)
        got = counting._gsum(ctx, N, y, u, v)
        want = _oracle_gsum(y, N, u, v)
        assert got == want, (y, N, u, v)


def test_gsum_exact_integer_hit_correction():
    """State engineered so the reflection step meets an exact integer:
    y = phi - 1 in (1/2, 1), v = -3, u = 2 gives floor((3+v) y + u) = 2
    exactly at n = 3."""
    ctx = counting._Ctx(PHI)
    y = (1, 0, 0, 1)
    for N in (5, 10, 40, 80):
        got = counting._gsum(ctx, N, y, Fraction(2), Fraction(-3))
        want = _oracle_gsum(y, N, Fraction(2), Fraction(-3))
        assert got == want
    # the n = 3 term really is the exact integer 2 (n + v = 0 leaves just u)
    x = _mobius_as_surd(y, Fraction(0), Fraction(2))
    assert x.v == 0 and x.u == 2 * x.w


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(1, 120),
    un=st.integers(-9, 9),
    ud=st.integers(1, 7),
    vn=st.integers(-9, 9),
    vd=st.integers(1, 7),
)
def test_gsum_property_vs_oracle(N, un, ud, vn, vd):
    ctx = counting._Ctx(PHI)
    u, v = Fraction(un, ud), Fraction(vn, vd)
    assert counting._gsum(ctx, N, (1, 0, 0, 1), u, v) == _oracle_gsum(
        (1, 0, 0, 1), N, u, v
    )
