import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diosum import cf
from diosum.cf import ContinuedFractionData, IrrationalSpec
from diosum.errors import DigitsExhausted, DiosumError, PrecisionExhausted


def test_phi_digits():
    assert cf.expand(IrrationalSpec.phi(), 5) == [1, 1, 1, 1, 1, 1]


def test_e_digit_pattern():
    assert cf.expand(IrrationalSpec.e(), 9) == [2, 1, 2, 1, 1, 4, 1, 1, 6, 1]


def test_sqrt2_digits():
    assert cf.expand(IrrationalSpec.sqrt2(), 4) == [1, 2, 2, 2, 2]


def test_surd_canonicalization():
    # (1 + sqrt(2)) / 3 has Q not dividing D - P^2; must still expand correctly
    spec = IrrationalSpec.quadratic_surd(1, 2, 3)
    digits = cf.expand(spec, 6)
    # value ~ 0.8047...: [0; 1, 4, 8, 2, ...] checked against direct evaluation
    x = (1 + math.sqrt(2)) / 3
    expected = []
    for _ in range(7):
        a = math.floor(x)
        expected.append(a)
        x = 1 / (x - a)
    assert digits == expected


def test_surd_rejects_squares_and_zero_q():
    with pytest.raises(DiosumError):
        IrrationalSpec.quadratic_surd(0, 4, 1)
    with pytest.raises(DiosumError):
        IrrationalSpec.quadratic_surd(1, 5, 0)


def test_phi_convergents_fibonacci():
    conv = cf.convergents([1, 1, 1, 1, 1, 1])
    assert [p for p, _ in conv] == [1, 2, 3, 5, 8, 13]
    assert [q for _, q in conv] == [1, 1, 2, 3, 5, 8]


def test_determinant_identity_phi():
    conv = cf.convergents([1, 1, 1, 1, 1, 1])
    for k in range(1, len(conv)):
        p1, q1 = conv[k - 1]
        p2, q2 = conv[k]
        assert q2 * p1 - q1 * p2 == (-1) ** k
    # the spec's worked instance: k = 3 gives 3*3 - 2*5 = -1
    assert conv[2][1] * conv[2][0] - 0 or True
    p2, q2 = conv[2]
    p3, q3 = conv[3]
    assert q3 * p2 - q2 * p3 == -1


def test_e_convergents():
    conv = cf.convergents([2, 1, 2, 1, 1, 4])
    assert conv == [(2, 1), (3, 1), (8, 3), (11, 4), (19, 7), (87, 32)]


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(-20, 20),
    d=st.integers(2, 300),
    q=st.integers(-15, 15).filter(lambda x: x != 0),
    K=st.integers(1, 25),
)
def test_determinant_and_growth_properties(p, d, q, K):
    if math.isqrt(d) ** 2 == d:
        d += 1
        if math.isqrt(d) ** 2 == d:
            return
    spec = IrrationalSpec.quadratic_surd(p, d, q)
    data = cf.expand_data(spec, K)
    conv = cf.convergents(data.digits)
    assert tuple(qk for _, qk in conv) == data.q
    for k in range(1, K + 1):
        (p0, q0), (p1, q1) = conv[k - 1], conv[k]
        assert q1 * p0 - q0 * p1 == (-1) ** k
        assert data.s[k] <= data.q[k]
    for k in range(2, K + 1):
        assert data.q[k] > data.q[k - 1]


def test_stats_examples():
    phi_digits = cf.expand(IrrationalSpec.phi(), 10)
    assert cf.stats(phi_digits) == (10, 1, 9)
    e5 = cf.expand(IrrationalSpec.e(), 5)
    s, mx, trimmed = cf.stats(e5)
    assert s == 9 and mx == 4 and trimmed == 5


@pytest.mark.parametrize("name", ["phi", "e", "uniform:470823", "digits:3,1,4,1,5,9,2,6"])
def test_last_denominator_matches_recurrence(name):
    spec = IrrationalSpec.parse(name)
    for K in (0, 1, 2, 3, 7, 64, 1000):
        try:
            data = cf.expand_data(spec, K)
        except DigitsExhausted:
            continue
        assert cf.last_denominator(data.digits) == data.q[K], K


def test_e_digit_sum_growth():
    # the every-third-digit pattern makes s_K = K^2/9 + O(K)
    for K in (300, 1000, 3000):
        s, _, _ = cf.stats(cf.expand(IrrationalSpec.e(), K))
        assert abs(s - K * K / 9) <= 2 * K


def test_locate_block_examples(phi, sqrt2):
    assert cf.locate_block(phi, 10) == 5  # q_5 = 8 <= 10 < 13
    assert cf.locate_block(phi, 1) == 1  # duplicated q_0 = q_1 = 1: largest K
    assert cf.locate_block(sqrt2, 12) == 3  # q: 1, 2, 5, 12, 29


def test_block_data_bounds(phi):
    data = cf.expand_data(phi, 10)
    K = data.block_index(10)
    assert data.q[K] <= 10 < data.q[K + 1]
    with pytest.raises(DiosumError):
        data.block_index(0)


def test_best_approx_error_values(phi):
    b1 = cf.best_approx_error(phi, 1)
    assert abs(float(b1.mid) - 0.3819660113) < 1e-9
    b5 = cf.best_approx_error(phi, 5)
    assert abs(float(b5.mid) - 0.0557280900) < 1e-9


@pytest.mark.parametrize("name", ["phi", "sqrt2", "e", "uniform:9"])
def test_best_approx_bracket(name):
    # For k >= 1, ||q_k alpha|| is the convergent distance and sits strictly
    # inside (1/(q_{k+1}+q_k), 1/q_{k+1}).  At k = 0 with a_1 = 1 the nearest
    # integer to alpha is not p_0, the block locator never selects K = 0
    # there, and only the upper bound applies.
    spec = IrrationalSpec.parse(name)
    data = cf.expand_data(spec, 13)
    assert float(cf.best_approx_error(spec, 0).hi) < 1.0 / data.q[1]
    for k in range(1, 12):
        ball = cf.best_approx_error(spec, k)
        lo_bound = Fraction(1, data.q[k + 1] + data.q[k])
        hi_bound = Fraction(1, data.q[k + 1])
        assert lo_bound < ball.lo and ball.hi < hi_bound
        assert ball.lo > Fraction(1, 2 * data.q[k + 1])


def test_ostrowski_examples(phi, sqrt2):
    # 4 = 3 + 1 (Zeckendorf), digits land on q_3 = 3 and q_1 = 1
    coeffs = cf.ostrowski(phi, 4)
    assert cf.ostrowski_value(phi, coeffs) == 4
    data = cf.expand_data(phi, len(coeffs))
    used = [data.q[k] for k, b in enumerate(coeffs) if b]
    assert used == [1, 3]
    # 8 = q_5 alone
    coeffs8 = cf.ostrowski(phi, 8)
    assert [b for b in coeffs8[:-1]] == [0] * (len(coeffs8) - 1) and coeffs8[-1] == 1
    # sqrt2: 7 = 5 + 2 = q_2 + q_1
    c7 = cf.ostrowski(sqrt2, 7)
    assert cf.ostrowski_value(sqrt2, c7) == 7
    d2 = cf.expand_data(sqrt2, len(c7))
    assert [d2.q[k] for k, b in enumerate(c7) if b] == [2, 5]


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 100000), pick=st.integers(0, 2))
def test_ostrowski_roundtrip_and_admissibility(n, pick):
    spec = [IrrationalSpec.phi(), IrrationalSpec.sqrt2(), IrrationalSpec.e()][pick]
    coeffs = cf.ostrowski(spec, n)
    assert cf.ostrowski_value(spec, coeffs) == n
    data = cf.expand_data(spec, len(coeffs))
    for k in range(1, len(coeffs)):
        assert 0 <= coeffs[k] <= data.digits[k + 1]
        if coeffs[k] == data.digits[k + 1]:
            assert coeffs[k - 1] == 0
    assert 0 <= coeffs[0] < data.digits[1] or coeffs[0] == 0


def test_ostrowski_roundtrip_exhaustive_phi():
    spec = IrrationalSpec.phi()
    data = cf.expand_data(spec, 25)
    for n in range(1, 5001):
        coeffs = cf.ostrowski(spec, n)
        assert sum(b * q for b, q in zip(coeffs, data.q)) == n


def test_expand_deterministic_uniform():
    a = cf.expand(IrrationalSpec.uniform(123), 40)
    b = cf.expand(IrrationalSpec.uniform(123), 40)
    assert a == b
    # a longer request extends the shorter one without rewriting it
    c = cf.expand(IrrationalSpec.uniform(123), 60)
    assert c[:41] == a


def test_uniform_digits_consistent_with_bitstream():
    spec = IrrationalSpec.uniform(7)
    digits = cf.expand(spec, 12)
    assert digits[0] == 0 and all(a >= 1 for a in digits[1:])
    conv = cf.convergents(digits)
    lo, hi = cf.spec_interval(spec, 256)
    # alpha must lie between the last two convergents
    p1, q1 = conv[-2]
    p2, q2 = conv[-1]
    lo_c, hi_c = sorted([Fraction(p1, q1), Fraction(p2, q2)])
    assert lo_c < lo < hi < hi_c or lo_c <= lo and hi <= hi_c


def test_cbrt2_digits_match_published_expansion():
    # 2**(1/3) = [1; 3, 1, 5, 1, 1, 4, 1, 1, 8, ...]
    spec = IrrationalSpec.root(2, 3)
    assert cf.expand(spec, 9) == [1, 3, 1, 5, 1, 1, 4, 1, 1, 8]


def test_root_rejects_perfect_powers():
    with pytest.raises(DiosumError):
        IrrationalSpec.root(8, 3)


def test_explicit_digits_exhaustion():
    spec = IrrationalSpec.from_digits([0, 1, 1, 1])
    assert cf.expand(spec, 3) == [0, 1, 1, 1]
    with pytest.raises(DigitsExhausted):
        cf.expand(spec, 4)
    with pytest.raises(DigitsExhausted):
        cf.locate_block(spec, 10**6)


def test_digit_validation():
    with pytest.raises(DiosumError):
        IrrationalSpec.from_digits([1, 0, 2])
    with pytest.raises(DiosumError):
        IrrationalSpec.from_digits([])


def test_parse_round_trip():
    for text in ["phi", "sqrt2", "e", "surd:3,7,2", "digits:0,1*3,5", "uniform:77",
                 "root:5,4", "cbrt2", "cbrt4"]:
        spec = IrrationalSpec.parse(text)
        assert isinstance(spec, IrrationalSpec)
    assert IrrationalSpec.parse("surd:1,5,2") == IrrationalSpec.phi()
    assert IrrationalSpec.parse("digits:0,1*3,5") == IrrationalSpec.from_digits(
        [0, 1, 1, 1, 5]
    )
    with pytest.raises(DiosumError):
        IrrationalSpec.parse("pi")


# ---------------------------------------------------------------------------
# Interval digit extraction against the two-expansion reference


def _rational_cf(num: int, den: int) -> list:
    """Canonical continued fraction of num/den (last digit >= 2 when possible)."""
    digits = []
    while den:
        a, rem = divmod(num, den)
        digits.append(a)
        num, den = den, rem
    if len(digits) > 1 and digits[-1] == 1:
        digits.pop()
        digits[-1] += 1
    return digits


def _reference_interval_digits(lo: Fraction, hi: Fraction):
    """Common canonical prefix of both full expansions, less one digit."""
    common = []
    for x, y in zip(_rational_cf(lo.numerator, lo.denominator),
                    _rational_cf(hi.numerator, hi.denominator)):
        if x != y:
            break
        common.append(x)
    return common[:-1] if common else []


def _cf_value(digits) -> Fraction:
    value = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        value = a + 1 / value
    return value


@st.composite
def _rational_intervals(draw):
    # a rational with a drawn expansion: small digits, and digits too wide
    # for half a window; a trailing 1 is folded into the digit before it
    digits = [draw(st.integers(-3, 3))] + draw(st.lists(
        st.one_of(st.integers(1, 6), st.integers(1, 2**80)), min_size=0, max_size=150))
    if len(digits) > 1 and draw(st.booleans()):
        digits.append(1)
    x = _cf_value(digits)
    shape = draw(st.sampled_from(["equal", "exact", "dyadic"]))
    if shape == "equal":
        return x, x
    w = draw(st.integers(8, 4000))
    if shape == "dyadic":  # a long expansion, as spec_interval gives
        b = w + draw(st.integers(0, 64))
        x = Fraction(math.floor(x * 2**b), 2**b)
    # otherwise lo's expansion ends at the drawn digits, often while the
    # other endpoint's terms are still wider than a window
    return x, x + Fraction(draw(st.integers(2**15, 2**16)), 2 ** (w + 16))


@settings(max_examples=400, deadline=None)
@given(_rational_intervals())
def test_interval_digits_match_reference(interval):
    lo, hi = interval
    assert cf._interval_digits(lo, hi) == _reference_interval_digits(lo, hi)
    assert cf._interval_digits(hi, lo) == _reference_interval_digits(hi, lo)


def test_interval_digits_edge_cases():
    for lo, hi in [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(3)),
                   (Fraction(-7, 2), Fraction(-7, 2)), (Fraction(0), Fraction(1, 2**300)),
                   (Fraction(5, 3), Fraction(5, 3) + Fraction(1, 2**500)),
                   (_cf_value([0, 2, 3, 1]), _cf_value([0, 2, 4])),
                   (Fraction(2**400 - 1, 2**401), Fraction(2**400 + 1, 2**401))]:
        assert cf._interval_digits(lo, hi) == _reference_interval_digits(lo, hi)


def _outcome(fn):
    try:
        return fn()
    except PrecisionExhausted as exc:
        return type(exc), str(exc), exc.index, exc.bits


@pytest.mark.parametrize("name", ["uniform:1", "uniform:20261017", "root:2,3", "root:5,4"])
def test_expand_matches_reference_extraction(monkeypatch, name):
    spec = IrrationalSpec.parse(name)

    def both(K):
        got = _outcome(lambda: cf.expand(spec, K))
        with monkeypatch.context() as m:
            m.setattr(cf, "_interval_digits", _reference_interval_digits)
            want = _outcome(lambda: cf.expand(spec, K))
        return got, want

    for K in (0, 1, 50, 1000, 10000):
        got, want = both(K)
        assert got == want and len(got) == K + 1
    for cap in (128, 256, 512, 200):
        monkeypatch.setenv("DIOSUM_MAX_PRECISION_BITS", str(cap))
        for K in (1, 20, 50, 120, 300):
            got, want = both(K)
            assert got == want, (cap, K)


def _reference_spec_interval(spec, bits):
    """Consecutive convergents bracketing alpha, the product formed at
    every digit."""
    pm1, qm1 = 1, 0
    k = 0
    while True:
        try:
            a = cf._digit_at(spec, k)
        except DigitsExhausted:
            raise DigitsExhausted(
                f"{spec.label()} has too few digits for {bits}-bit enclosure", bits=bits)
        if k == 0:
            p0, q0 = a, 1
        else:
            p0, pm1 = a * p0 + pm1, p0
            q0, qm1 = a * q0 + qm1, q0
        if k >= 1 and q0 * qm1 > (1 << bits):
            return tuple(sorted((Fraction(pm1, qm1), Fraction(p0, q0))))
        k += 1


@pytest.mark.parametrize("name", ["e", "digits:0,1*40", "digits:1,2,3,1000,1*30",
                                  "digits:0,2,7", "digits:5"])
def test_spec_interval_matches_reference(name):
    spec = IrrationalSpec.parse(name)
    for bits in [*range(0, 130), 255, 256, 257, 1000, 8200]:
        try:
            got = cf.spec_interval(spec, bits)
        except DigitsExhausted as exc:
            got = str(exc), exc.bits
        try:
            want = _reference_spec_interval(spec, bits)
        except DigitsExhausted as exc:
            want = str(exc), exc.bits
        assert got == want, bits
