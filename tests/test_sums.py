import math
import os
from fractions import Fraction

import pytest

from diosum import cf, counting, kernel, reals, sums
from diosum.cf import IrrationalSpec
from diosum.errors import DiosumError, PrecisionExhausted, RationalDependence
from exact_surd import Surd

CBRT2 = IrrationalSpec.root(2, 3)
CBRT4 = IrrationalSpec.root(4, 3)


def oracle_dist_sum(spec, N, c=None, weight_harmonic=False, variant="dist",
                    beta=Fraction(0), exclude=0):
    """Exact-rational brute force over the surd oracle (independent route)."""
    lo_total, hi_total = Fraction(0), Fraction(0)
    for n in range(1, N + 1):
        if n == exclude:
            continue
        value = Surd.from_spec(spec, n, beta)
        if variant == "dist":
            value = value.dist_nearest()
        elif variant == "frac":
            value = value.frac()
        else:
            value = value.frac().one_minus()
        if c is not None:
            cutoff = Fraction(c) / N
            if value.cmp(cutoff) < 0:
                continue
        lo, hi = value.reciprocal_bounds()
        if weight_harmonic:
            lo, hi = lo / n, hi / n
        lo_total += lo
        hi_total += hi
    return lo_total, hi_total


def assert_matches_oracle(result, oracle):
    lo, hi = oracle
    assert result.enclosure.lo <= hi and lo <= result.enclosure.hi
    mid = (lo + hi) / 2
    assert abs(result.enclosure.mid - mid) <= result.enclosure.rad + (hi - lo)


def test_sum_dist_examples(phi, sqrt2):
    r = sums.sum_dist(phi, 3, Fraction(3, 10))
    assert_matches_oracle(r, oracle_dist_sum(phi, 3, Fraction(3, 10)))
    assert abs(r.value - 13.7082039325) < 1e-8
    # cutoff c/N = 1 excludes everything
    r0 = sums.sum_dist(phi, 3, 3)
    assert r0.terms_included == 0 and r0.value == 0.0
    r2 = sums.sum_dist(sqrt2, 2, Fraction(1, 10))
    assert abs(r2.value - 8.2426406871) < 1e-8


def test_sum_harmonic_examples(phi, e_const):
    r = sums.sum_harmonic_dist(phi, 3)
    assert_matches_oracle(r, oracle_dist_sum(phi, 3, weight_harmonic=True))
    assert abs(r.value - 7.0207686329) < 1e-8
    r1 = sums.sum_harmonic_dist(phi, 1)
    assert abs(r1.value - 2.6180339887) < 1e-9
    # e at N=10: check against the 256-bit recomputation (independent bits)
    r10 = sums.sum_harmonic_dist(e_const, 10)
    alt = sums._sum_range(e_const, Fraction(0), 10, 0, 1, None, 0, 256)[0]
    assert r10.enclosure.overlaps(alt)


def test_sum_frac_examples(phi):
    r = sums.sum_frac(phi, 2, Fraction(2, 10), "frac", "1")
    assert_matches_oracle(r, oracle_dist_sum(phi, 2, Fraction(2, 10), variant="frac"))
    assert abs(r.value - 5.8541019662) < 1e-8
    # complement at (phi, 1, c=1/2): 1 - {phi} = 0.381966 < 1/2, so the
    # cutoff excludes the only term
    r0 = sums.sum_frac(phi, 1, Fraction(1, 2), "complement", "1")
    assert r0.terms_included == 0
    # without an effective cutoff the term is 1/(1 - {phi})
    r1 = sums.sum_frac(phi, 1, Fraction(1, 10**9), "complement", "1")
    assert abs(r1.value - 2.6180339887) < 1e-9
    # weight 1/n at N=1 equals weight 1 at N=1
    a = sums.sum_frac(phi, 1, Fraction(1, 10), "frac", "1")
    b = sums.sum_frac(phi, 1, Fraction(1, 10), "frac", "1/n")
    assert a.enclosure == b.enclosure


def test_sum_frac_validation(phi):
    with pytest.raises(DiosumError):
        sums.sum_frac(phi, 5, None, "frac", "1")
    with pytest.raises(DiosumError):
        sums.sum_frac(phi, 5, Fraction(1, 2), "nope", "1")


def test_sums_reject_N_past_the_kernel_index_range(phi):
    # every term is added, one per 64-bit kernel index
    sums._check_N(sums.N_LIMIT - 1)
    N = sums.N_LIMIT
    for call in (lambda: sums.sum_dist(phi, N, Fraction(1, 2)),
                 lambda: sums.sum_harmonic_dist(phi, N),
                 lambda: sums.sum_frac(phi, N, Fraction(1, 2)),
                 lambda: sums.sum_shifted(phi, Fraction(1, 3), N),
                 lambda: sums.find_min_index(phi, 0, N),
                 lambda: sums.sum_multidim((phi, phi), N)):
        with pytest.raises(DiosumError, match=r"below 2\*\*64"):
            call()


def test_find_min_index_examples(phi):
    assert sums.find_min_index(phi, 0, 5) == 5
    assert sums.find_min_index(phi, 0, 3) == 3
    assert sums.find_min_index(phi, Fraction(2, 7), 1) == 1


def test_sum_shifted_examples(phi):
    r = sums.sum_shifted(phi, 0, 5, "exclude_min", "1")
    assert r.excluded_index == 5
    assert_matches_oracle(r, oracle_dist_sum(phi, 5, exclude=5))
    assert abs(r.value - 15.8262379212) < 1e-8
    # beta = 0, full mode agrees with the cutoff-free dist sum
    full = sums.sum_shifted(phi, 0, 7, "full", "1")
    tiny_c = sums.sum_dist(phi, 7, Fraction(1, 10**12))
    assert full.enclosure == tiny_c.enclosure
    r12 = sums.sum_shifted(phi, Fraction(1, 2), 1, "full", "1")
    assert abs(r12.value - 8.4721359550) < 1e-8


def test_sum_shifted_variants(phi):
    r = sums.sum_shifted(phi, Fraction(1, 3), 20, "exclude_min", "1", variant="frac")
    oracle_min = min(
        range(1, 21), key=lambda n: float(Surd.from_spec(phi, n, Fraction(1, 3)).frac())
    )
    assert r.excluded_index == oracle_min
    assert_matches_oracle(
        r, oracle_dist_sum(phi, 20, variant="frac", beta=Fraction(1, 3),
                           exclude=oracle_min)
    )


def test_monotone_in_N_cutoff_free(phi):
    prev = None
    for N in (1, 2, 5, 9, 20, 50):
        cur = sums.sum_harmonic_dist(phi, N).enclosure
        if prev is not None:
            assert cur.lo >= prev.lo and cur.hi >= prev.hi
        prev = cur


def test_variant_coherence(phi):
    # 1/||x|| = max(1/{x}, 1/(1-{x})) termwise, so on the same index set the
    # dist sum is bounded by the frac+complement total
    N = 50
    dist = sums.sum_harmonic_dist(phi, N)
    frac = sums.sum_frac(phi, N, None, "frac", "1/n")
    comp = sums.sum_frac(phi, N, None, "complement", "1/n")
    assert dist.enclosure.hi <= frac.enclosure.hi + comp.enclosure.hi
    tiny = Fraction(1, 10**12)
    d1 = sums.sum_dist(phi, N, tiny)
    f1 = sums.sum_frac(phi, N, tiny, "frac", "1")
    c1 = sums.sum_frac(phi, N, tiny, "complement", "1")
    assert d1.enclosure.hi <= f1.enclosure.hi + c1.enclosure.hi


def test_enclosure_soundness_double_precision(phi, e_const):
    for spec, N in ((phi, 300), (e_const, 200)):
        base = sums._sum_range(spec, Fraction(0), N, 0, 1, None, 0, 128)[0]
        refined = sums._sum_range(spec, Fraction(0), N, 0, 1, None, 0, 256)[0]
        assert base.overlaps(refined)
        assert refined.rad <= base.rad


def test_multidim_d1_matches_symmetric_double(phi):
    full = sums.sum_multidim((phi,), 3, "1")
    one_sided = sums.sum_dist(phi, 3, Fraction(1, 10**12))
    assert abs(full.value - 2 * one_sided.value) < 1e-7
    assert full.terms_included == 6


def _term_bounds(specs, vector, wd=1):
    """Certified (lo, hi) of 1 / (wd * ||vector . alpha||) from the exact resolver."""
    return sums._resolve_terms(specs, [(vector, vector, wd)], Fraction(0), 0, None)[0]


def test_multidim_d2_example():
    r = sums.sum_multidim((CBRT2, CBRT4), 1, "1")
    assert r.terms_included == 8
    # brute oracle over all 8 lattice points via the ball engine
    total = 0.0
    for v1, v2 in [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)]:
        lo, hi = _term_bounds((CBRT2, CBRT4), (v1, v2))
        total += (lo + hi) / 2
    assert abs(r.value - total) < 1e-6
    assert abs(r.value - 31.7487) < 1e-2


def test_multidim_half_lattice_equals_full_brute():
    # full-lattice brute force from per-point certified bounds must land
    # inside the half-lattice result's enclosure (doubling is exact)
    for N in (1, 2):
        r = sums.sum_multidim((CBRT2, CBRT4), N, "1")
        lo_total = hi_total = 0.0
        for v1 in range(-N, N + 1):
            for v2 in range(-N, N + 1):
                if (v1, v2) == (0, 0):
                    continue
                lo, hi = _term_bounds((CBRT2, CBRT4), (v1, v2))
                lo_total += lo
                hi_total += hi
        assert float(r.enclosure.lo) <= hi_total and lo_total <= float(r.enclosure.hi)
    for N in (1, 2, 4):
        r = sums.sum_multidim((CBRT2, CBRT4), N, "1")
        assert r.terms_included == (2 * N + 1) ** 2 - 1
        # mirrored points have exactly equal certified term intervals
        for v in [(1, 2), (2, -1), (0, 1), (1, 0)]:
            if max(abs(v[0]), abs(v[1])) > N:
                continue
            plus = _term_bounds((CBRT2, CBRT4), v)
            minus = _term_bounds((CBRT2, CBRT4), (-v[0], -v[1]))
            assert plus == minus


def test_multidim_linf_weight():
    r1 = sums.sum_multidim((IrrationalSpec.phi(),), 1, "linf")
    r2 = sums.sum_multidim((IrrationalSpec.phi(),), 1, "1")
    assert r1.enclosure == r2.enclosure
    # d = 2: oracle via per-point resolution with the shell weight
    r = sums.sum_multidim((CBRT2, CBRT4), 2, "linf")
    total = 0.0
    for v1 in range(-2, 3):
        for v2 in range(-2, 3):
            if (v1, v2) == (0, 0):
                continue
            wd = max(abs(v1), abs(v2)) ** 2
            lo, hi = _term_bounds((CBRT2, CBRT4), (v1, v2), wd)
            total += (lo + hi) / 2
    assert abs(r.value - total) < 1e-6


def test_multidim_rational_dependence(phi):
    with pytest.raises(RationalDependence):
        sums.sum_multidim((phi, phi), 1, "1")


def test_multidim_validation(phi):
    with pytest.raises(DiosumError):
        sums.sum_multidim((), 3)
    with pytest.raises(DiosumError):
        sums.sum_multidim((phi,), 3, "l2")


def test_small_dist_indices_examples(phi):
    assert sums.small_dist_indices(phi, 12) == [1, 2, 3, 5, 8]
    assert sums.small_dist_indices(phi, 4) == [1, 2, 3]
    with pytest.raises(DiosumError):
        sums.small_dist_indices(phi, 0)


def test_small_dist_matches_brute(monkeypatch, e_const, phi):
    huge = IrrationalSpec.parse(f"digits:0,1,2,{10**40},1,3,2,2,1,3,1*200")
    big_digits = IrrationalSpec.parse("digits:0,1*10,10000,1*300")
    for spec in (e_const, phi, big_digits, huge):
        brute = []
        for n in range(1, 2001):
            val = reals.dist_nearest(spec, n)
            if val.hi < Fraction(1, 2 * n):
                brute.append(n)
            else:
                assert val.lo > Fraction(1, 2 * n)
        for backend in kernel.available_backends():
            monkeypatch.setattr(kernel, "_BACKEND", backend)
            assert kernel.backend() == backend
            assert sums.small_dist_indices(spec, 2000) == brute


def test_small_dist_structure_at_scale(phi, sqrt2):
    # the convergent-multiple structure is verified internally on every
    # call; run it at the 10^5 scale for the badly approximable specs
    for spec in (phi, sqrt2):
        out = sums.small_dist_indices(spec, 10**5)
        assert out[0] == 1 and out[-1] <= 10**5
        assert all(a < b for a, b in zip(out, out[1:]))


def test_relative_tolerance_met(phi):
    for N in (10, 1000, 30000):
        r = sums.sum_dist(phi, N, Fraction(1, 2))
        assert r.enclosure.width <= Fraction(1, 10**9) * r.enclosure.mid


def test_precision_exhaustion_reports_index(monkeypatch, phi):
    # a dyadic shift aligned to the 512-bit grid keeps the n = 5 interval
    # pinned at 0 for every precision up to the cap
    from diosum.reals import frac_scaled

    a = frac_scaled(phi, 512)
    beta = -Fraction((5 * a) % (1 << 512), 1 << 512)
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "512")
    with pytest.raises(PrecisionExhausted):
        sums.sum_shifted(phi, beta, 6, "full", "1")


# ---------------------------------------------------------------------------
# Batched exact resolution and the kernel-driven argmin

# a_3 = 10^40 after q_2 = 3: the 128-bit kernel flags every multiple of 3
HUGE = IrrationalSpec.parse(f"digits:0,1,2,{10**40},1,3,2,2,1,3,1*200")
# alpha just below 1/3: with beta = 1/3 every n = 2 mod 3 sits next to an integer
THIRD = IrrationalSpec.parse(f"digits:0,3,{10**40},2,1*200")
BIG_DIGITS = IrrationalSpec.parse("digits:0,1*10,10000,1*300")


def _brute_argmins(spec, beta, variant, N):
    """{prefix length: certified argmin} from one ball per index."""
    best, best_ball, out = None, None, {}
    for n in range(1, N + 1):
        if variant == "dist":
            ball = reals.dist_nearest(spec, n, beta)
        else:
            frac, comp = reals.frac_part(spec, n, beta)
            ball = frac if variant == "frac" else comp
        if best is None or ball.hi < best_ball.lo:
            best, best_ball = n, ball
        else:
            assert ball.lo > best_ball.hi, (n, best)  # separated, so certified
        out[n] = best
    return out


@pytest.mark.parametrize("alpha", ["phi", "e", "uniform:271828", "digits:0,1*10,10000,1*300"])
def test_argmin_matches_brute_force(monkeypatch, alpha):
    # with a nonzero beta the big-digit spec has no value below 4/N at
    # N = 2000, so the candidate threshold has to grow
    spec = IrrationalSpec.parse(alpha)
    Ns = (1, 2, 13, 89, 400, 2000)
    for beta in (Fraction(0), Fraction(1, 3), Fraction(-2, 7), Fraction(7, 5)):
        for variant in ("dist", "frac", "complement"):
            brute = _brute_argmins(spec, beta, variant, max(Ns))
            for backend in kernel.available_backends():
                monkeypatch.setattr(kernel, "_BACKEND", backend)
                assert kernel.backend() == backend
                for N in Ns:
                    assert sums._argmin_variant(spec, beta, N, variant) == brute[N]
                if variant == "dist":
                    assert sums.find_min_index(spec, beta, max(Ns)) == brute[max(Ns)]
                res = sums.sum_shifted(spec, beta, max(Ns), "exclude_min", "1", variant)
                assert res.excluded_index == brute[max(Ns)]


# exact (mid, rad, terms) recorded before the batched resolver replaced the
# one-term-at-a-time one; thousands of terms go through it in each
PINNED = [
    (lambda: sums.sum_harmonic_dist(HUGE, 12000),  # 4000 resolved
     "16446840980956220445507713281959636500480", "298700182584562961857227259904",
     12000),
    (lambda: sums.sum_dist(HUGE, 12000, Fraction(1, 2)),  # 4000 cut off
     "13194139533312001/549755813888", "239627/549755813888", 8000),
    (lambda: sums.sum_shifted(THIRD, Fraction(1, 3), 6000, "full", "1", "frac"),
     "11000", "99087/549755813888", 6000),
    (lambda: sums.sum_shifted(THIRD, Fraction(1, 3), 6000, "full", "1/n", "complement"),
     "30633754510323261748033327474023092715520", "501938746749076345562956038144",
     6000),
    (lambda: sums.sum_frac(HUGE, 6000, Fraction(1, 3), "frac", "1"),
     "9000", "81071/549755813888", 4000),
    (lambda: sums.sum_multidim((HUGE,), 3000, "1"),  # 1000 resolved, from segments
     "449128251633020740191538212855157618638848", "6960163128377139923085963558912",
     6000),
    (lambda: sums.sum_multidim((HUGE, CBRT2), 40, "linf"),
     "7995447802096253184970677317159144652800", "116896477664726760733626335232",
     6560),
]


@pytest.mark.parametrize("case", range(len(PINNED)))
def test_flagged_term_enclosures_pinned(case):
    fn, mid, rad, terms = PINNED[case]
    res = fn()
    assert (res.enclosure.mid, res.enclosure.rad) == (Fraction(mid), Fraction(rad))
    assert res.terms_included == terms


def test_resolver_and_argmin_raise_at_the_cap(monkeypatch):
    # ||3 alpha|| is about 2**-334 here: 256 bits cannot separate it from 0
    deep = IrrationalSpec.parse(f"digits:0,1,2,{10**100},1*200")
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "256")
    with pytest.raises(PrecisionExhausted, match="n=3:"):
        sums.sum_harmonic_dist(deep, 30)
    with pytest.raises(RationalDependence, match=r"n=\(3,\):"):
        sums.sum_multidim((deep,), 30, "1")
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "128")
    with pytest.raises(PrecisionExhausted, match="argmin tie"):
        sums.find_min_index(HUGE, 0, 100)
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "256")
    with pytest.raises(PrecisionExhausted, match="membership vs t=1/7 not separated below 256"):
        counting.count_dist_le(deep, 30, Fraction(1, 7))
    with pytest.raises(PrecisionExhausted, match="membership vs t=1/7 not separated below 256"):
        counting.count_multidim((deep,), 30, Fraction(1, 7))
    # still tried at 256 bits with the cap below it, as before batching:
    # ||3 alpha|| is about 2**-135 for HUGE, so 256 bits decide it
    for cap in ("128", "256"):
        monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", cap)
        with pytest.raises(PrecisionExhausted, match=r"\|\|3 alpha\|\| vs 1/\(2n\)") as err:
            sums.small_dist_indices(deep, 100)
        assert (err.value.index, err.value.bits) == (3, int(cap))
        assert sums.small_dist_indices(HUGE, 100) == [1] + list(range(3, 101, 3))
    # 128 bits miss the 1e-9 tolerance here and 200 meet it: the next pass
    # runs at the cap, not at 256
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "200")
    wide = IrrationalSpec.parse(f"digits:0,1,2,{10**32},1,3,1*200")
    assert sums.sum_harmonic_dist(wide, 50).precision_bits == 200
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "256")
    with pytest.raises(PrecisionExhausted, match="digit a_78 of uniform:5 below 256") as err:
        cf.expand(IrrationalSpec.uniform(5), 200)
    assert (err.value.index, err.value.bits) == (78, 256)
    monkeypatch.delenv("DIOSUM_MAX_PRECISION_BITS")
    assert sums.sum_harmonic_dist(deep, 30).terms_included == 30
    assert sums.find_min_index(HUGE, 0, 100) == 3
    assert counting.count_dist_le(deep, 30, Fraction(1, 7)) == counting.count_fast(
        deep, 30, Fraction(1, 7))
    assert counting.count_multidim((deep,), 30, Fraction(1, 7)) == 2 * counting.count_fast(
        deep, 30, Fraction(1, 7))
    assert 3 in sums.small_dist_indices(deep, 100)


def test_argmin_tie_message_is_bounded(monkeypatch):
    # ||3 alpha|| is about 2**-334: at 256 bits every wrapped interval reads
    # as (0, 1), so all 300 indices stay candidates
    deep = IrrationalSpec.parse(f"digits:0,1,2,{10**100},1*6000")
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "256")
    with pytest.raises(PrecisionExhausted, match=r"^argmin tie among 300 candidates ") as err:
        sums.sum_shifted(deep, Fraction(1, 3), 300, "exclude_min")
    assert len(str(err.value)) < 300
    assert "at 256 bits" in str(err.value) and err.value.bits == 256


def test_workers_bounded_and_validated(monkeypatch):
    monkeypatch.setenv("DIOSUM_WORKERS", "100000")
    assert sums._workers() == (os.cpu_count() or 1)
    monkeypatch.setenv("DIOSUM_WORKERS", "1")
    assert sums._workers() == 1
    for raw in ("abc", "0", "-3", "2.5"):
        monkeypatch.setenv("DIOSUM_WORKERS", raw)
        with pytest.raises(DiosumError, match="DIOSUM_WORKERS"):
            sums._workers()
