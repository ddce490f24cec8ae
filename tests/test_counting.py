import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diosum import counting, kernel, reals, sums
from diosum.cf import IrrationalSpec, expand_data
from diosum.errors import DiosumError, PrecisionExhausted

CBRT2 = IrrationalSpec.root(2, 3)
CBRT4 = IrrationalSpec.root(4, 3)


def test_count_examples(phi):
    assert counting.count_dist_le(phi, 5, Fraction(1, 4)) == 3
    assert counting.count_dist_le(phi, 9, Fraction(1, 2)) == 9
    assert counting.count_dist_le(phi, 3, Fraction(1, 10)) == 0


def test_count_validation(phi):
    with pytest.raises(DiosumError):
        counting.count_dist_le(phi, 0, Fraction(1, 4))
    with pytest.raises(DiosumError):
        counting.count_dist_le(phi, 5, Fraction(0))
    with pytest.raises(DiosumError):
        counting.count_fast(phi, 5, Fraction(1, 4), "weird")


@settings(max_examples=120, deadline=None)
@given(
    pick=st.integers(0, 4),
    N=st.integers(1, 600),
    k=st.integers(2, 200),
    variant=st.sampled_from(["dist", "frac", "complement"]),
)
def test_count_fast_equals_brute(pick, N, k, variant):
    spec = [
        IrrationalSpec.phi(),
        IrrationalSpec.sqrt2(),
        IrrationalSpec.e(),
        IrrationalSpec.uniform(1),
        IrrationalSpec.uniform(2),
    ][pick]
    t = Fraction(1, k)
    assert counting.count_fast(spec, N, t, variant) == counting.count_dist_le(
        spec, N, t, variant
    )


@settings(max_examples=90, deadline=None)
@given(
    pick=st.integers(0, 2),
    N=st.integers(1, 300),
    k=st.integers(2, 60),
    bn=st.integers(-7, 7),
    bd=st.integers(1, 9),
    variant=st.sampled_from(["dist", "frac", "complement"]),
)
def test_count_fast_with_shift(pick, N, k, bn, bd, variant):
    spec = [IrrationalSpec.sqrt2(), IrrationalSpec.e(), IrrationalSpec.uniform(3)][pick]
    t, beta = Fraction(1, k), Fraction(bn, bd)
    assert counting.count_fast(spec, N, t, variant, beta) == counting.count_dist_le(
        spec, N, t, variant, beta
    )


def test_count_threshold_near_one(phi):
    # ceil(t * 2**128) lands exactly on 2**128; must not wrap in the kernel
    t = Fraction(2**128 - 1, 2**128)
    assert counting.count_dist_le(phi, 50, t, "frac") == 50
    assert counting.count_fast(phi, 50, t, "frac") == 50
    t2 = Fraction(10**40 - 1, 10**40)
    assert counting.count_dist_le(phi, 50, t2, "complement") == counting.count_fast(
        phi, 50, t2, "complement"
    )


def test_count_fast_spec_instances(phi, sqrt2):
    assert counting.count_fast(phi, 10**4, Fraction(1, 97)) == counting.count_dist_le(
        phi, 10**4, Fraction(1, 97)
    )
    assert counting.count_fast(sqrt2, 2000, Fraction(3, 1000)) == counting.count_dist_le(
        sqrt2, 2000, Fraction(3, 1000)
    )
    assert counting.count_fast(phi, 12345, Fraction(1, 2)) == 12345
    # a_3 = 10^40 after q_2 = 3: every multiple of 3 is a flagged membership
    huge = IrrationalSpec.parse(f"digits:0,1,2,{10**40},1,3,2,2,1,3,1*200")
    for variant in ("dist", "frac", "complement"):
        for beta in (Fraction(0), Fraction(2, 7)):
            assert counting.count_fast(huge, 5 * 10**4, Fraction(1, 7), variant, beta) == \
                counting.count_dist_le(huge, 5 * 10**4, Fraction(1, 7), variant, beta)


def test_count_fast_deep_descent(sqrt2):
    # hundreds of reflections in the descent; for irrational alpha and
    # t < 1/2 the dist count splits into the two one-sided counts
    N, t = 3 * 10**400, Fraction(1, 7)
    assert counting.count_fast(sqrt2, N, t) == counting.count_fast(
        sqrt2, N, t, "frac"
    ) + counting.count_fast(sqrt2, N, t, "complement")


# sha256 of the decimal count_fast(spec, N, t, variant, 2/7) for dist, frac
# and complement, at the sizes the benchmark counts at; recorded from the
# Fraction-state descent this one replaced
PINNED_HUGE_COUNTS = [
    ("e", 8 * 10**800 + 364680, Fraction(1, 10), (
        "89722e22f00cedb1bcbcb1ff7aef1a103b07408b67ae5f5c78bdb29a4e8a821e",
        "e4b816828cbf6d7f518d37bf5efe8d166f5975fbde3d9541d3b5bb4327166ab6",
        "f0a76283bc0aa940d28f764dbed834763019236251ec044d17956450fee3cf59")),
    ("phi", 2 * 10**400 + 271828, Fraction(1, 7), (
        "82c7bc5020080c9c7941c3c52e2a815a4c9de6faaab90b2b8a8ec6cc7ebac662",
        "4b800a41376607209c8476a43f8c4db281d92fe27cf2f7baca611851787d2789",
        "8e8c36e106ffd293abdfee5c0944d76d2a1dff667345874a3913e02fd7b03cc1")),
    ("cbrt2", 2 * 10**400 + 141421, Fraction(1, 13), (
        "8aec693a15295b8e5852078e04f0f40edfce752dd51ecb3c3cc3fb64f365c315",
        "d9fde927037d6a7667478d4ac435f68c3c076aa35d721c1cc63605c974e58c16",
        "baa366fe0891878096ad5f19d2c2bca9ba0104098c84e985c7dd9a9746611db9")),
    ("sqrt2", 8 * 10**300 + 577215, Fraction(1, 3), (
        "218c945e55d72495a819dc8c4e5dfccece424438717832886312bed2268e9d2d",
        "d41b0813f2ce9a9a8b4d80f6dab644d1609735f2a6c398f45017604f21840ded",
        "cbd2d5fd5df360a4e6f9f1de878fc8d9d8c8aa417ccd1a561cf3bcccd11dc1ea")),
    ("uniform:12345", 10**200 + 31415, Fraction(2, 9), (
        "56462ae11e9200221aaaa57854486578cd08dc58c2fb6592f3c1a5dec14cb2bf",
        "3f0058eec599b337e102b81d37fa1066d365cd6a7d77057c572f736844ca8e06",
        "20ab09c6fae3063b9d33379c9ecf4b3bc854e26916fae505f00804f22b412adb")),
]


@pytest.mark.parametrize("name, N, t, digests", PINNED_HUGE_COUNTS,
                         ids=[case[0] for case in PINNED_HUGE_COUNTS])
def test_count_fast_pinned_at_huge_N(name, N, t, digests):
    spec = IrrationalSpec.parse(name)
    for variant, want in zip(("dist", "frac", "complement"), digests):
        got = counting.count_fast(spec, N, t, variant, Fraction(2, 7))
        assert hashlib.sha256(str(got).encode()).hexdigest() == want, variant


def _reference_gsum_brute(ctx, N, y, U, V, D, w, e):
    total = 0
    pending = range(1, N + 1)
    while True:
        retry = []
        for n in pending:
            f = counting._floor(n * D + V, U, D, y, e)
            if f is None:
                retry.append(n)
            else:
                total += f
        if not retry:
            return total
        pending = retry
        w, e = counting._refine(ctx, w, y)


def _reference_gsum(ctx, N, y, u, v):
    """The descent with every floor taken at every step, on the exact
    enclosure at full width."""
    D = math.lcm(u.denominator, v.denominator)
    U = u.numerator * (D // u.denominator)
    V = v.numerator * (D // v.denominator)
    w = min(ctx.cap, 2 * (N.bit_length() + max(map(abs, y)).bit_length()) + 64)
    e = counting._enclose(ctx, w, y)
    total = 0
    sign = 1
    while True:
        if N <= 0:
            return total
        nl, dl, nh, dh = e
        if not (dl > 0 < dh or dl < 0 > dh):
            w, e = counting._refine(ctx, w, y)
            continue
        if N < counting._BRUTE_CUTOFF:
            return total + sign * _reference_gsum_brute(ctx, N, y, U, V, D, w, e)
        a, b, c, d = y
        fy = counting._floor(1, 0, 1, y, e)
        fz = counting._floor(V, U, D, y, e)
        if fy is None or fz is None:
            w, e = counting._refine(ctx, w, y)
            continue
        if fy or fz:
            total += sign * (fy * (N * (N + 1) // 2) + fz * N)
            y = (a - fy * c, b - fy * d, c, d)
            e = (nl - fy * dl, dl, nh - fy * dh, dh)
            U += V * fy - fz * D
            continue
        two_y = counting._floor(2, 0, 1, y, e)
        if two_y is None:
            w, e = counting._refine(ctx, w, y)
            continue
        if two_y:
            y = (c - a, d - b, c, d)
            e = (dl - nl, dl, dh - nh, dh)
            U = -(U + V)
            corr = 0
            if V % D == 0 and U % D == 0:
                n_hit = -V // D
                if 1 <= n_hit <= N:
                    corr = 1
            total += sign * (N * (N + 1) // 2 - N + corr)
            sign = -sign
            continue
        M = counting._floor(V + N * D, U, D, y, e)
        if M is None:
            w, e = counting._refine(ctx, w, y)
            continue
        if M <= 0:
            return total
        total += sign * (N * M + M)
        y = (-c, -d, a, b)
        e = (-dl, nl, -dh, nh)
        U, V = V, -U
        N = M


def _count_outcome(*args):
    try:
        return counting.count_fast(*args)
    except PrecisionExhausted as exc:
        return type(exc), str(exc), exc.index, exc.bits


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["phi", "e", "cbrt2", "root:5,4", "uniform:1", "uniform:20261017"]),
    N=st.integers(20, 300).flatmap(lambda k: st.integers(10**(k - 1), 10**k)),
    t=st.fractions(Fraction(1, 10**6), Fraction(1, 2)),
    beta=st.fractions(-3, 3, max_denominator=10**12),
    variant=st.sampled_from(["dist", "frac", "complement"]),
    cap=st.one_of(st.none(), st.sampled_from([128, 200, 256, 512])),
)
def test_count_fast_matches_reference_descent(name, N, t, beta, variant, cap):
    # the skipped floors and the rounded enclosure change no count, no
    # escalation and no PrecisionExhausted (message and bits included)
    spec = IrrationalSpec.parse(name)
    with pytest.MonkeyPatch.context() as m:
        if cap is not None:
            m.setenv("DIOSUM_MAX_PRECISION_BITS", str(cap))
        got = _count_outcome(spec, N, t, variant, beta)
        m.setattr(counting, "_gsum", _reference_gsum)
        want = _count_outcome(spec, N, t, variant, beta)
    assert got == want


@st.composite
def _unit_pair(draw):
    """n/d in [0, 1) with d of up to 1200 bits."""
    d = draw(st.integers(1, 2**draw(st.integers(1, 1200))))
    return draw(st.integers(0, d - 1)), d


@settings(max_examples=300, deadline=None)
@given(ends=st.lists(_unit_pair(), min_size=2, max_size=2,
                     unique_by=lambda p: Fraction(*p)),
       bits=st.integers(8, 1000), negate=st.booleans())
def test_round_out_encloses_exact_pair(ends, bits, negate):
    # a rounding one unit inward would leave the result tests passing under
    # the 64-bit margin, so check the enclosure itself, in both orientations
    lower, upper = sorted(ends, key=lambda p: Fraction(*p))
    for rising in (True, False):
        e = (*lower, *upper) if rising else (*upper, *lower)
        if negate:  # the same values over negative denominators
            e = tuple(-x for x in e)
        nl, dl, nh, dh = counting._round_out(e, bits, rising)
        out = [(nl, dl), (nh, dh)] if rising else [(nh, dh), (nl, dl)]
        (n0, d0), (n1, d1) = out
        assert d0 > 0 and d1 > 0
        assert Fraction(n0, d0) <= Fraction(*lower) and Fraction(*upper) <= Fraction(n1, d1)
        for (n, d), (rn, rd) in zip((lower, upper), out):
            if d.bit_length() > bits:  # cut to about `bits` bits
                assert rd.bit_length() <= bits + 1
                assert abs(Fraction(rn, rd) - Fraction(n, d)) <= Fraction(4, 2**bits)
            else:
                assert (rn, rd) == (n, d)


def test_count_fast_precision_cap(phi, monkeypatch):
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "512")
    with pytest.raises(PrecisionExhausted):
        counting.count_fast(phi, 10**200, Fraction(1, 7))


def test_count_monotone_in_t(phi):
    prev = 0
    for k in range(200, 1, -13):
        cur = counting.count_fast(phi, 500, Fraction(1, k))
        assert cur >= prev
        prev = cur


def test_pigeonhole_examples(phi, sqrt2):
    assert counting.pigeonhole_bound(sqrt2, 12, Fraction(1, 29)) == 5
    bound = counting.pigeonhole_bound(phi, 10, Fraction(1, 10))
    assert bound == Fraction(4 * 13, 10) + 1
    assert counting.count_dist_le(phi, 10, Fraction(1, 10)) <= bound


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 1500), k=st.integers(2, 150), pick=st.integers(0, 2))
def test_pigeonhole_property(N, k, pick):
    spec = [IrrationalSpec.phi(), IrrationalSpec.sqrt2(), IrrationalSpec.e()][pick]
    t = Fraction(1, k)
    assert counting.count_dist_le(spec, N, t) <= counting.pigeonhole_bound(spec, N, t)


def _oracle_discrepancy(spec, N):
    """Independent brute force over all critical intervals, with exact
    rational endpoints (midpoints of very tight enclosures)."""
    xs = []
    for n in range(1, N + 1):
        frac, _ = reals.frac_part(spec, n, rel_bits=100)
        xs.append(frac.mid)
    xs.sort()
    best = Fraction(0)
    for i in range(N):  # 0-based; point rank is i + 1
        for j in range(i, N):
            closed = (j - i + 1) - N * (xs[j] - xs[i])
            opened = N * (xs[j] - xs[i]) - max(j - i - 1, 0)
            best = max(best, closed, opened)
    for j in range(N):
        best = max(best, N * xs[j] - j)  # [0, x_{j+1}) holds j points
    for i in range(N):
        best = max(best, N * (1 - xs[i]) - (N - i - 1))  # (x_{i+1}, 1]
    return best


def test_discrepancy_single_point(phi, sqrt2):
    for spec in (phi, sqrt2):
        ball = counting.discrepancy(spec, 1)
        assert abs(float(ball.mid) - 1.0) <= float(ball.rad) + 1e-12


def test_discrepancy_matches_brute(phi, sqrt2, e_const):
    for spec in (phi, sqrt2, e_const):
        for N in (1, 2, 3, 5, 8, 13):
            ball = counting.discrepancy(spec, N)
            oracle = _oracle_discrepancy(spec, N)
            assert abs(ball.mid - oracle) <= ball.rad + Fraction(1, 10**6)


def test_discrepancy_dominates_mesh_deviations(phi, e_const):
    # second, formula-free oracle: D_N must dominate the deviation of every
    # interval on a fine mesh (sup lower-bound consistency)
    for spec, N in ((phi, 23), (e_const, 37)):
        ball = counting.discrepancy(spec, N)
        xs = sorted(
            reals.frac_part(spec, n, rel_bits=80)[0].mid for n in range(1, N + 1)
        )
        mesh = [Fraction(i, 97) for i in range(98)]
        worst = Fraction(0)
        for i, lo in enumerate(mesh):
            for hi in mesh[i + 1 :]:
                inside = sum(1 for x in xs if lo <= x <= hi)
                worst = max(worst, abs(inside - (hi - lo) * N))
        assert ball.hi + Fraction(1, 10**6) >= worst


def test_discrepancy_bounds(phi):
    data = expand_data(phi, 12)
    for N in (5, 21, 100):
        ball = counting.discrepancy(phi, N)
        assert float(ball.hi) <= N
    ball5 = counting.discrepancy(phi, 5)
    # K = 4 block: 2 (s_4 + 5/q_4) = 2 (4 + 1) = 10
    assert float(ball5.hi) <= 10


def test_discrepancy_profile_agrees(phi):
    prof, slack = counting.discrepancy_profile(phi, 40)
    for N in (1, 7, 25, 40):
        single = counting.discrepancy(phi, N)
        assert abs(prof[N - 1] - float(single.mid)) <= 1e-9


@pytest.mark.parametrize("name", ["phi", "e", "sqrt2", "uniform:5", "digits:0,1*10,10000,1*300"])
def test_discrepancy_profile_bit_identical_across_backends(monkeypatch, name):
    spec = IrrationalSpec.parse(name)
    sizes = (1, 2, 3, 257, 3000)
    runs = {}
    for backend in kernel.available_backends():
        monkeypatch.setattr(kernel, "_BACKEND", backend)
        assert kernel.backend() == backend
        runs[backend] = [counting.discrepancy_profile(spec, N_max) for N_max in sizes]
    ref_out, ref_slack = runs[kernel.available_backends()[0]][-1]
    for backend, profiles in runs.items():
        for N_max, (out, slack) in zip(sizes, profiles):
            assert out.dtype == slack.dtype == np.float64
            # the first N points, and so their D_N, do not depend on N_max
            assert out.tobytes() + slack.tobytes() == (
                ref_out[:N_max].tobytes() + ref_slack[:N_max].tobytes()), (backend, N_max)
    for N in (1, 2, 3, 50, 257, 3000):
        assert Fraction(ref_out[N - 1]) == counting.discrepancy(spec, N).mid


def test_local_disc_extrema_example(phi):
    mx, mn = counting.local_disc_extrema(phi, 1, Fraction(7, 10))
    assert mx == Fraction(3, 10)
    # N ranges over {1} only: the minimum equals the maximum
    assert mn == Fraction(3, 10)


def test_local_disc_extrema_tiny_t(phi):
    mx, mn = counting.local_disc_extrema(phi, 3, Fraction(1, 1000))
    assert abs(mx) <= 1 and abs(mn) <= 1


def test_local_disc_batch_matches_single(sqrt2):
    ts = [Fraction(j, 64) for j in (1, 9, 32, 63)]
    batch = counting.local_disc_extrema_batch(sqrt2, 4, ts)
    for K in (1, 2, 3, 4):
        for t in ts:
            assert batch[(K, t)] == counting.local_disc_extrema(sqrt2, K, t)


def test_local_disc_batch_validates_like_single(phi):
    # the batch used to return values for t outside (0, 1) and {} for K < 1
    for bad_t in (Fraction(3, 2), Fraction(0), Fraction(-1, 3), Fraction(1)):
        with pytest.raises(DiosumError, match=r"t must be in \(0, 1\)"):
            counting.local_disc_extrema(phi, 3, bad_t)
        with pytest.raises(DiosumError, match=r"t must be in \(0, 1\)"):
            counting.local_disc_extrema_batch(phi, 3, [Fraction(1, 2), bad_t])
    for bad_K in (0, -2):
        with pytest.raises(DiosumError, match="K must be >= 1"):
            counting.local_disc_extrema(phi, bad_K, Fraction(1, 2))
        with pytest.raises(DiosumError, match="K must be >= 1"):
            counting.local_disc_extrema_batch(phi, bad_K, [Fraction(1, 2)])


def test_schoissengeier_exact_values(sqrt2, phi):
    data = expand_data(sqrt2, 5)
    mx, mn = counting.schoissengeier_prediction(data, 3, Fraction(3, 10))
    assert isinstance(mx, Fraction) and isinstance(mn, Fraction)
    # degenerate t = 1 has {q_k t} = 0 throughout
    z_mx, z_mn = counting.schoissengeier_prediction(data, 3, Fraction(1))
    assert z_mx == 0 and z_mn == 0
    # phi, K = 1, t = 7/10: no even k <= 1, so the max formula is empty
    pdata = expand_data(phi, 3)
    p_mx, _ = counting.schoissengeier_prediction(pdata, 1, Fraction(7, 10))
    assert p_mx == 0


def test_schoissengeier_near_measured(phi, sqrt2):
    # spot check the O(1) gap on a small grid
    for spec, K in ((phi, 6), (sqrt2, 5)):
        data = expand_data(spec, K + 1)
        for t in (Fraction(7, 64), Fraction(31, 64)):
            mx, mn = counting.local_disc_extrema(spec, K, t)
            fx, fn = counting.schoissengeier_prediction(data, K, t)
            assert abs(float(mx - fx)) <= 4
            assert abs(float(mn - fn)) <= 4


def _brute_count_multidim(specs, N, t):
    d = len(specs)
    total = 0

    def rec(vec):
        nonlocal total
        if len(vec) == d:
            if any(vec):
                if counting._resolve_members(specs, [tuple(vec)], Fraction(0), 0, t)[0]:
                    total += 1
            return
        for c in range(-N, N + 1):
            rec(vec + [c])

    rec([])
    return total


def test_count_multidim_examples():
    assert counting.count_multidim((CBRT2, CBRT4), 2, Fraction(1, 2)) == 24
    got = counting.count_multidim((CBRT2, CBRT4), 4, Fraction(1, 8))
    assert got == _brute_count_multidim((CBRT2, CBRT4), 4, Fraction(1, 8))


def test_count_multidim_d1_symmetry(phi):
    for t in (Fraction(1, 5), Fraction(1, 17)):
        assert counting.count_multidim((phi,), 10, t) == 2 * counting.count_dist_le(
            phi, 10, t
        )


def test_count_multidim_validation(phi):
    with pytest.raises(DiosumError):
        counting.count_multidim((phi,), 4, Fraction(3, 4))
