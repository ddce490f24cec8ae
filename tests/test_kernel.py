"""Backend equivalence: the compiled kernel must be bit-identical to the
pure-Python fallback at 128 working bits."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diosum import _pykernel, kernel, sums
from diosum.cf import IrrationalSpec
from diosum.reals import beta_scaled, frac_scaled

HAVE_C = "c" in kernel.available_backends()
ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(not HAVE_C, reason="compiled kernel not built")


def _cases():
    specs = [
        IrrationalSpec.phi(),
        IrrationalSpec.sqrt2(),
        IrrationalSpec.e(),
        IrrationalSpec.uniform(3),
        IrrationalSpec.root(2, 3),
    ]
    for spec in specs:
        a = frac_scaled(spec, 128)
        for beta in (Fraction(0), Fraction(1, 3), Fraction(-5, 7)):
            b, wb = beta_scaled(beta, 128)
            b %= 1 << 128
            yield spec, a, b, wb


@pytest.mark.parametrize("variant", [0, 1, 2])
@pytest.mark.parametrize("weight", [0, 1])
def test_sum_block_bit_identical(variant, weight):
    for spec, a, b, wb in _cases():
        for cut in (None, (1 << 118, (1 << 118) + 1)):
            got_c = kernel.sum_block(a, 1, b, wb, 1, 3000, variant, weight, cut, 0, 128)
            got_py = _pykernel.block(
                a, 1, b, wb, 1, 3000, variant, weight,
                cut[0] if cut else None, cut[1] if cut else None, 0, False, 128,
            )
            assert got_c == got_py


def test_count_block_bit_identical():
    for spec, a, b, wb in _cases():
        for t in (Fraction(1, 7), Fraction(1, 97), Fraction(3, 250)):
            t_lo = (t.numerator << 128) // t.denominator
            band = (t_lo, t_lo + 1)
            got_c = kernel.count_block(a, 1, b, wb, 1, 2500, 0, band[0], band[1], 128)
            got_py = _pykernel.block(
                a, 1, b, wb, 1, 2500, 0, 0, band[0], band[1], 0, True, 128)[2:]
            assert got_c == got_py


def test_exclude_index():
    spec = IrrationalSpec.phi()
    a = frac_scaled(spec, 128)
    full = kernel.sum_block(a, 1, 0, 0, 1, 100, 0, 0, None, 0, 128)
    excl = kernel.sum_block(a, 1, 0, 0, 1, 100, 0, 0, None, 50, 128)
    assert excl[2] == full[2] - 1
    assert excl[0] < full[0]


def test_flagged_terms_match_and_resolve(phi):
    # choose a dyadic shift that puts n = 5 exactly at the interval start 0
    a = frac_scaled(phi, 128)
    beta = -Fraction((5 * a) % (1 << 128), 1 << 128)
    b, wb = beta_scaled(beta, 128)
    b %= 1 << 128
    got_c = kernel.sum_block(a, 1, b, wb, 1, 40, 0, 0, None, 0, 128)
    got_py = _pykernel.block(a, 1, b, wb, 1, 40, 0, 0, None, None, 0, False, 128)
    assert got_c == got_py
    assert 5 in got_c[3]
    # the full driver resolves the flag exactly and still meets tolerance
    res = sums.sum_shifted(phi, beta, 40, "full", "1")
    assert res.terms_included == 40
    assert res.enclosure.rad <= Fraction(1, 10**9) * res.enclosure.mid


def test_worker_count_invariance(monkeypatch, phi):
    results = []
    for workers in ("1", "4"):
        monkeypatch.setenv("DIOSUM_WORKERS", workers)
        results.append(sums.sum_dist(phi, 50000, Fraction(1, 2)).enclosure)
    assert results[0] == results[1]


def test_concurrent_uniform_streams_consistent():
    # lazy-uniform bit streams are append-only; concurrent sums over many
    # seeds must equal their serial counterparts exactly
    from concurrent.futures import ThreadPoolExecutor

    from diosum.cf import IrrationalSpec

    def one(seed):
        return sums.sum_harmonic_dist(IrrationalSpec.uniform(seed), 5000).enclosure

    serial = [one(s) for s in range(1, 9)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(one, range(1, 9)))
    assert serial == threaded


def test_backend_forcing_env(phi):
    # DIOSUM_KERNEL is read once, when diosum.kernel is imported
    ref = sums.sum_harmonic_dist(phi, 4000).enclosure
    code = ("from diosum import kernel, sums; from diosum.cf import IrrationalSpec; "
            "e = sums.sum_harmonic_dist(IrrationalSpec.phi(), 4000).enclosure; "
            "print(kernel.backend(), e.mid, e.rad)")
    for forced in kernel.available_backends():
        env = dict(os.environ, DIOSUM_KERNEL=forced)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        assert out == [forced, str(ref.mid), str(ref.rad)]


def test_block_flagging_more_than_buffer_matches():
    # a_3 = 10^40 after q_2 = 3: every multiple of 3 is flagged, about 5,400
    # in one block, so the compiled loop flushes its flag buffer many times
    spec = IrrationalSpec.parse(f"digits:0,1,2,{10**40},1,3,1*200")
    a = frac_scaled(spec, 128)
    for variant in (0, 1, 2):
        got_c = kernel.sum_block(a, 1, 0, 0, 1, 16384, variant, 1, None, 0, 128)
        got_py = _pykernel.block(a, 1, 0, 0, 1, 16384, variant, 1, None, None, 0, False, 128)
        assert got_c == got_py
        assert len(got_c[3]) > 256
    t_lo = (1 << 128) // 7
    got_c = kernel.count_block(a, 1, 0, 0, 1, 16384, 0, t_lo, t_lo + 1, 128)
    got_py = _pykernel.block(a, 1, 0, 0, 1, 16384, 0, 0, t_lo, t_lo + 1, 0, True, 128)[2:]
    assert got_c == got_py


@pytest.mark.parametrize(
    "n0, n1, aw",
    [
        (2**64 - 5, 2**64 + 5, 1),  # n1 beyond u64
        (1, 3000, 2**60),  # n * aw beyond u64
        (2**64 - 5, 2**64 - 1, 1),  # last u64 index: the compiled loop must stop
    ],
)
def test_blocks_near_u64_limit_match(n0, n1, aw):
    a = frac_scaled(IrrationalSpec.phi(), 128)
    for variant in (0, 1, 2):
        got = kernel.sum_block(a, aw, 0, 0, n0, n1, variant, 1, None, n0 + 2, 128)
        assert got == _pykernel.block(
            a, aw, 0, 0, n0, n1, variant, 1, None, None, n0 + 2, False, 128
        )
    t_lo = (1 << 128) // 7
    got = kernel.count_block(a, aw, 0, 0, n0, n1, 0, t_lo, t_lo + 1, 128)
    assert got == _pykernel.block(a, aw, 0, 0, n0, n1, 0, 0, t_lo, t_lo + 1, 0, True, 128)[2:]
