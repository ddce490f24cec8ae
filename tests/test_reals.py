import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diosum import cf, reals
from diosum.cf import IrrationalSpec
from diosum.errors import DiosumError, PrecisionExhausted
from exact_surd import Surd

PHI_LITERAL = Fraction("1.6180339887498948482045868343656381177203091798057")
SQRT2_LITERAL = Fraction("1.4142135623730950488016887242096980785696718753769")
E_LITERAL = Fraction("2.7182818284590452353602874713526624977572470936999")


@pytest.mark.parametrize(
    "name,value,prec",
    [("phi", PHI_LITERAL, 64), ("sqrt2", SQRT2_LITERAL, 64), ("e", E_LITERAL, 128)],
)
def test_eval_alpha_known_values(name, value, prec):
    lo, hi = cf.spec_interval(IrrationalSpec.parse(name), prec)
    mid, rad = (lo + hi) / 2, (hi - lo) / 2
    # the literal is a 50-digit truncation; allow its own error on top of rad
    assert abs(mid - value) <= rad + Fraction(1, 10**48)
    assert rad <= Fraction(2) ** (1 - prec)


def test_dist_nearest_examples(phi, sqrt2):
    assert abs(float(reals.dist_nearest(phi, 1)) - 0.3819660113) < 1e-9
    assert abs(float(reals.dist_nearest(sqrt2, 1)) - 0.4142135624) < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(-9, 9),
    d=st.integers(2, 150),
    q=st.integers(1, 9),
    n=st.integers(1, 50000),
    bn=st.integers(-6, 6),
    bd=st.integers(1, 6),
)
def test_dist_nearest_contains_exact_surd_value(p, d, q, n, bn, bd):
    if math.isqrt(d) ** 2 == d:
        return
    spec = IrrationalSpec.quadratic_surd(p, d, q)
    beta = Fraction(bn, bd)
    ball = reals.dist_nearest(spec, n, beta)
    exact = Surd.from_spec(spec, n, beta).dist_nearest()
    # exact value lies strictly inside the ball
    assert exact.cmp(ball.lo) > 0 and exact.cmp(ball.hi) < 0


def test_frac_part_examples(phi):
    frac, comp = reals.frac_part(phi, 1)
    assert abs(float(frac) - 0.6180339887) < 1e-9
    assert abs(float(comp) - 0.3819660113) < 1e-9
    frac2, _ = reals.frac_part(phi, 2)
    assert abs(float(frac2) - 0.2360679775) < 1e-9


def test_shift_coherence(phi, sqrt2, e_const):
    for spec in (phi, sqrt2, e_const):
        for n in (1, 2, 3, 10, 57):
            for beta in (Fraction(0), Fraction(1, 3), Fraction(-2, 7)):
                ball = reals.dist_nearest(spec, n, beta)
                frac, comp = reals.frac_part(spec, n, beta)
                expected = min(frac.mid, comp.mid)
                assert abs(ball.mid - expected) <= ball.rad + frac.rad + comp.rad


def test_beta_zero_matches_unshifted(phi):
    for n in (1, 5, 12, 99):
        assert reals.dist_nearest(phi, n) == reals.dist_nearest(phi, n, Fraction(0))


def test_monotone_refinement(phi, e_const):
    for spec in (phi, e_const):
        for n in (1, 7, 123):
            small = reals.dist_nearest(spec, n, rel_bits=20)
            big = reals.dist_nearest(spec, n, rel_bits=20, start_bits=512)
            assert big.rad <= small.rad


def test_determinism(phi):
    a = reals.dist_nearest(phi, 37, Fraction(1, 3))
    b = reals.dist_nearest(phi, 37, Fraction(1, 3))
    assert a == b


def test_precision_cap_env(monkeypatch, phi):
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "256")
    assert reals.precision_cap() == 256
    # ||8 phi|| is about 2**-5: a relative width of 2**-300 needs more than 256 bits
    with pytest.raises(PrecisionExhausted) as err:
        reals.dist_nearest(phi, 8, rel_bits=300)
    assert (err.value.index, err.value.bits) == (8, 256)
    monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", "bogus")
    with pytest.raises(DiosumError):
        reals.precision_cap()


def test_ball_basics():
    ball = reals.BallReal.from_endpoints(Fraction(1, 4), Fraction(1, 2), 64)
    assert ball.lo == Fraction(1, 4) and ball.hi == Fraction(1, 2)
    assert ball.contains(Fraction(1, 3))
    assert not ball.contains(Fraction(2, 3))
    assert ball.overlaps(reals.BallReal.from_endpoints(Fraction(1, 2), 1, 64))
    with pytest.raises(DiosumError):
        reals.BallReal.from_endpoints(1, 0, 64)


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(0, 2**128 - 1),
    w=st.integers(0, 2**70),
    variant=st.integers(0, 2),
    num=st.integers(0, 999),
)
def test_map_variant_encloses_pointwise_image(r, w, variant, num):
    """The mapped integer interval must contain the variant image of every
    point of [r, r+w]; sampled at both endpoints and an interior point."""
    modulus = 1 << 128
    mapped = reals.map_variant(r, w, modulus, variant)
    if mapped is None:
        assert r + w >= modulus  # only wrapping intervals are refused
        return
    d_lo, d_hi = mapped
    assert 0 <= d_lo <= d_hi <= modulus
    for point in (r, r + w, r + (w * num) // 1000):
        x = Fraction(point, modulus)
        if variant == reals.VARIANT_FRAC:
            img = x
        elif variant == reals.VARIANT_COMPLEMENT:
            img = 1 - x
        else:
            img = min(x, 1 - x)
        assert Fraction(d_lo, modulus) <= img <= Fraction(d_hi, modulus)
