"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Calibrated constants are frozen here with the measurement that produced
them noted inline; envelopes themselves stay constant-free in the library.
Criteria 3b and 5b encode requirements the measured mathematics cannot
meet; they are implemented as stated and marked strict-xfail with the
measured values printed, rather than weakened to pass.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

from diosum import counting, predict, reals, sums
from diosum.cf import IrrationalSpec, expand_data
from exact_surd import Surd

PHI = IrrationalSpec.phi()
SQRT2 = IrrationalSpec.sqrt2()
E = IrrationalSpec.e()
CBRT2 = IrrationalSpec.root(2, 3)
CBRT4 = IrrationalSpec.root(4, 3)

# digits [0; 1 x10, 10^4, 1, 1, ...]: q_10 = 89, a_11 = 10^4, q_11 = 890055
BIG_DIGIT_SPEC = IrrationalSpec.from_digits([0] + [1] * 10 + [10**4] + [1] * 300)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Oracle equivalence of the fast and brute-force counts


def test_criterion_1_count_oracle_equivalence():
    t0 = time.time()
    specs = [PHI, SQRT2, E, IrrationalSpec.uniform(1), IrrationalSpec.uniform(2)]
    mismatches = 0
    checked = 0
    for spec in specs:  # exhaustive N <= 128
        for N in range(1, 129):
            for k in range(2, 201):
                t = Fraction(1, k)
                checked += 1
                if counting.count_fast(spec, N, t) != counting.count_dist_le(spec, N, t):
                    mismatches += 1
    rng = random.Random(20260810)
    for _ in range(5000):  # sampled triples up to N = 2000
        spec = specs[rng.randrange(5)]
        N = rng.randint(1, 2000)
        t = Fraction(1, rng.randint(2, 200))
        checked += 1
        if counting.count_fast(spec, N, t) != counting.count_dist_le(spec, N, t):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0
    _report(1, ok, f"{checked} triples, {mismatches} mismatches, {elapsed:.0f}s "
                   f"(target < 120s)")
    assert ok
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. Badly approximable asymptotics for phi

# Calibrated on the brute-force oracle at N = 10^3 (residuals +2.093 and
# +3.357) and frozen as the enclosing integers; both are <= the spec's
# expected bound 5.
BAND_DIST = 3.0
BAND_HARMONIC = 4.0


def test_criterion_2_badly_approximable_bands():
    t0 = time.time()
    worst1 = worst2 = 0.0
    for N in (10**3, 10**4, 10**5, 10**6):
        s1 = sums.sum_shifted(PHI, 0, N, "full", "1").value  # c -> 0 via full sum
        s2 = sums.sum_harmonic_dist(PHI, N).value
        r1 = (s1 - 2 * N * math.log(N)) / N
        r2 = (s2 - math.log(N) ** 2) / math.log(N)
        worst1 = max(worst1, abs(r1))
        worst2 = max(worst2, abs(r2))
    elapsed = time.time() - t0
    ok = worst1 <= BAND_DIST and worst2 <= BAND_HARMONIC
    _report(2, ok, f"max|res1|/N = {worst1:.3f} <= {BAND_DIST}, "
                   f"max|res2|/logN = {worst2:.3f} <= {BAND_HARMONIC}, "
                   f"{elapsed:.0f}s (target < 600s)")
    assert ok
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 3. Itemized second-order terms on the constructed big-digit spec


def test_criterion_3a_itemized_normalized_residuals():
    data = expand_data(BIG_DIGIT_SPEC, 12)
    worst = 0.0
    N = data.q[10]
    while N < data.q[11]:
        rep = predict.predict_sum_harmonic(data, N)
        measured = sums.sum_harmonic_dist(BIG_DIGIT_SPEC, N).value
        worst = max(worst, abs(rep.with_measured(measured).normalized_residual))
        N *= 2
    ok = worst <= 10.0
    _report("3a", ok, f"max |normalized residual| over the K=10 block = {worst:.3f} "
                      f"<= 10 (multiplier 10 is calibration)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: dropping the a_(K+1) Basel term shifts the "
    "residual by about a_(K+1) * 1.64 = 1.6e4 while the envelope already "
    "contains sqrt(a_(K+1)) log a_(K+1) ~ 921, capping the normalized shift "
    "near 1.64 sqrt(a)/log a = 17.8 < 100 for a = 10^4 at any N in the block "
    "(measured 16.1 at N = q_K sqrt(a_(K+1)), the N this test uses)",
)
def test_criterion_3b_omitted_term_dominance():
    data = expand_data(BIG_DIGIT_SPEC, 12)
    N = data.q[10] * 100  # q_K * sqrt(a_{K+1})
    rep = predict.predict_sum_harmonic(data, N)
    measured = sums.sum_harmonic_dist(BIG_DIGIT_SPEC, N).value
    without_basel = measured - rep.main - rep.second_order[0].value
    shifted_nr = abs(without_basel / rep.envelope)
    _report("3b", shifted_nr > 100,
            f"|normalized residual| without the a_(K+1) term = {shifted_nr:.1f} "
            f"(criterion demands > 100)")
    assert shifted_nr > 100


# ---------------------------------------------------------------------------
# 4. Lower-bound branch of the cutoff sum

LOWER_BRANCH_C = 2.0  # calibrated: the measured sum clears the bound at C = 0


def test_criterion_4_lower_bound_branch():
    data = expand_data(BIG_DIGIT_SPEC, 12)
    c = Fraction(1, 2)
    target_sq = 16 * c * data.digits[11] * data.q[10] ** 2
    N = math.isqrt(int(target_sq))
    if N * N < target_sq:
        N += 1
    rep = predict.predict_sum_dist(data, N, c)
    assert rep.lower_branch is True
    measured = sums.sum_dist(BIG_DIGIT_SPEC, N, c).value
    bound = 2 * N * math.log(N) + data.q[11] - LOWER_BRANCH_C * math.log(data.s[11]) * N
    ok = measured >= bound
    _report(4, ok, f"measured {measured:.4g} >= 2NlogN + q_11 - {LOWER_BRANCH_C} "
                   f"log(s_11) N = {bound:.4g} at N = {N}")
    assert ok


# ---------------------------------------------------------------------------
# 5. Almost-everywhere asymptotics, 200 uniform samples at N = 10^6


def _mc_ratios(samples=200, N=10**6):
    c = Fraction(1, 2)
    denom1 = 2.0 * N * predict.clog(N)
    denom2 = predict.clog(N) ** 2

    def one(seed):
        spec = IrrationalSpec.uniform(seed)
        return (
            sums.sum_dist(spec, N, c).value / denom1,
            sums.sum_harmonic_dist(spec, N).value / denom2,
        )

    # serial, as `diosum mc` runs: each sum spreads its blocks over the
    # worker threads, so an outer pool would multiply them
    pairs = [one(s) for s in range(1, samples + 1)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@pytest.fixture(scope="module")
def mc_ratios():
    t0 = time.time()
    r1, r2 = _mc_ratios()
    elapsed = time.time() - t0
    print(f"[criterion 5 setup] 200 samples at N=1e6 in {elapsed:.0f}s "
          f"(target < 1800s)")
    assert elapsed < 1800
    return r1, r2


def test_criterion_5a_erdos_cutoff_sum(mc_ratios):
    r1, _ = mc_ratios
    med = statistics.median(r1)
    frac_in = sum(0.7 <= x <= 1.3 for x in r1) / len(r1)
    ok = 0.85 <= med <= 1.15 and frac_in >= 0.9
    _report("5a", ok, f"S1/(2N log N): median {med:.4f} in [0.85, 1.15], "
                      f"{frac_in:.0%} of samples in [0.7, 1.3] (>= 90% needed)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: at N = 10^6 the second-order terms "
    "(pi^2/6) s_K + a_(K+1) sum j^-2 of the harmonic expansion contribute "
    "a systematic +35-50% of (log N)^2 for almost every sample (the "
    "criterion's 0.2 (log N)^2 error estimate omits their constants), so "
    "the S2 median sits near 1.5; the terms are itemized in "
    "predict.predict_sum_harmonic's second_order",
)
def test_criterion_5b_erdos_harmonic_sum(mc_ratios):
    _, r2 = mc_ratios
    med = statistics.median(r2)
    frac_in = sum(0.7 <= x <= 1.3 for x in r2) / len(r2)
    ok = 0.85 <= med <= 1.15 and frac_in >= 0.9
    _report("5b", ok, f"S2/(log N)^2: median {med:.4f} (band [0.85, 1.15]), "
                      f"{frac_in:.0%} in [0.7, 1.3] (>= 90% needed)")
    assert ok


# ---------------------------------------------------------------------------
# 6. Metric constants over 100 samples at K = 10^4


def test_criterion_6_metric_constants():
    t0 = time.time()
    res = predict.metric_stats(range(1, 101), 10**4)
    kl = res["aggregate"]["log_qK_over_K"]["median"]
    dv = res["aggregate"]["trimmed_over_KlogK"]["median"]
    kl_dev = abs(kl / predict.KHINCHIN_LEVY - 1)
    dv_dev = abs(dv / predict.DIAMOND_VAALER - 1)
    ok = kl_dev <= 0.02 and dv_dev <= 0.15 and res["skipped"] == 0
    _report(6, ok, f"median log(q_K)/K = {kl:.6f} ({kl_dev:.2%} from "
                   f"{predict.KHINCHIN_LEVY:.6f}); median trimmed/(K log K) = "
                   f"{dv:.6f} ({dv_dev:.2%} from {predict.DIAMOND_VAALER:.6f}); "
                   f"{time.time()-t0:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 7. Discrepancy inequality for every N <= 5000


def test_criterion_7_discrepancy_inequality():
    t0 = time.time()
    checked = 0
    for spec in (PHI, SQRT2, E):
        data = expand_data(spec, 30)
        prof, slack = counting.discrepancy_profile(spec, 5000)
        for N in range(1, 5001):
            for k in range(len(data.q)):
                if data.q[k] > N:
                    break
                checked += 1
                assert prof[N - 1] + slack[N - 1] <= 2 * (data.s[k] + N / data.q[k]), (
                    spec.label(), N, k,
                )
    _report(7, True, f"D_N <= 2(s_K + N/q_K) at {checked} (spec, N, K) points, "
                     f"{time.time()-t0:.0f}s")


# ---------------------------------------------------------------------------
# 8. Local discrepancy extrema against the even/odd index formulas

SCHOISSENGEIER_C = 2.0  # calibrated: measured global max gap 0.953


def test_criterion_8_local_discrepancy_formula():
    t0 = time.time()
    worst = 0.0
    ts = [Fraction(j, 64) for j in range(1, 64)]
    for spec in (PHI, SQRT2):
        data = expand_data(spec, 14)
        batch = counting.local_disc_extrema_batch(spec, 12, ts)
        for K in range(1, 13):
            formulas = {t: counting.schoissengeier_prediction(data, K, t) for t in ts}
            for t in ts:
                mx, mn = batch[(K, t)]
                fx, fn = formulas[t]
                worst = max(worst, abs(float(mx - fx)), abs(float(mn - fn)))
    ok = worst <= SCHOISSENGEIER_C
    _report(8, ok, f"global max |measured extremum - formula| = {worst:.3f} <= "
                   f"{SCHOISSENGEIER_C} (calibrated; expected <= 4), "
                   f"{time.time()-t0:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 9. Fractional-part parity structure

PARITY_BAND = 0.5  # calibrated: measured |normalized residual| <= 0.192


def test_criterion_9_parity_residuals_and_partition():
    data = expand_data(PHI, 40)
    worst = 0.0
    for N in (100, 1000, 10**4, 10**5):
        rf = predict.predict_frac(data, N, "frac", "1/n")
        rc = predict.predict_frac(data, N, "complement", "1/n")
        # exact partition of (pi^2/6) s_K between the parity classes
        assert rf.second_order[0].coefficient + rc.second_order[0].coefficient == \
            data.s[rf.K]
        assert (rf.second_order[1].coefficient > 0) != (
            rc.second_order[1].coefficient > 0
        )
        for rep, variant in ((rf, "frac"), (rc, "complement")):
            measured = sums.sum_frac(PHI, N, None, variant, "1/n").value
            worst = max(worst, abs(rep.with_measured(measured).normalized_residual))
    ok = worst <= PARITY_BAND
    _report(9, ok, f"max |normalized residual| = {worst:.3f} <= {PARITY_BAND} "
                   f"(calibrated band); parity coefficients partition s_K exactly")
    assert ok


# ---------------------------------------------------------------------------
# 10. Two-dimensional counting and full lattice sum

MULTIDIM_COUNT_C = 3.0  # calibrated: measured max 1.786


def test_criterion_10_multidim():
    t0 = time.time()
    specs = (CBRT2, CBRT4)
    worst = 0.0
    for N in (16, 32, 64):
        for t in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)):
            cnt = counting.count_multidim(specs, N, t)
            dev = abs(cnt - 8 * float(t) * N * N)
            worst = max(worst, dev / (float(t) ** (2 / 3) * N ** (4 / 3)))
    ratios = []
    for N in (64, 128, 256):
        value = sums.sum_multidim(specs, N, "1").value
        ratios.append(value / (2 * 8 * N * N * math.log(N)))
    in_band = all(0.6 <= r <= 1.4 for r in ratios)
    trend = all(
        abs(ratios[i + 1] - 1) <= abs(ratios[i] - 1) + 0.02
        for i in range(len(ratios) - 1)
    )
    elapsed = time.time() - t0
    ok = worst <= MULTIDIM_COUNT_C and in_band and trend
    _report(10, ok, f"count dev/envelope max = {worst:.3f} <= {MULTIDIM_COUNT_C}; "
                    f"sum ratios {[round(r, 4) for r in ratios]} in [0.6, 1.4] "
                    f"approaching 1; {elapsed:.0f}s (target < 600s)")
    assert ok
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 11. Enclosure soundness of the ball engine


def test_criterion_11_enclosure_soundness():
    rng = random.Random(11)
    checked = 0
    for _ in range(1000):
        d = rng.randint(2, 400)
        if math.isqrt(d) ** 2 == d:
            d += 1
            if math.isqrt(d) ** 2 == d:
                continue
        spec = IrrationalSpec.quadratic_surd(rng.randint(-20, 20), d, rng.randint(1, 12))
        n = rng.randint(1, 10**6)
        ball = reals.dist_nearest(spec, n)
        exact = Surd.from_spec(spec, n).dist_nearest()
        assert exact.cmp(ball.lo) > 0 and exact.cmp(ball.hi) < 0, (spec, n)
        refined = reals.dist_nearest(spec, n, start_bits=256)
        assert refined.rad < ball.rad, (spec, n)
        checked += 1
    _report(11, True, f"{checked} random surd values inside their balls; "
                      f"doubling the precision shrank every radius")
