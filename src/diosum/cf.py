"""Exact continued-fraction engine.

Expands the supported irrational specs to partial quotients a_0..a_K,
builds convergents (p_k, q_k) by the standard recurrence in exact integer
arithmetic, and derives digit statistics (prefix sums, max, trimmed sum).
Quadratic surds use the periodic surd algorithm with no rounding; Euler's
number uses the closed digit pattern; seeded uniform samples and integer
roots fall back to certified digit extraction from dyadic enclosures: the
two endpoints are expanded in lockstep, Lehmer-style, reading 128-bit
windows of their terms and applying each window's digits to the full-size
integers as one 2x2 matrix.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DigitsExhausted, DiosumError, PrecisionExhausted

__all__ = [
    "IrrationalSpec",
    "ContinuedFractionData",
    "expand",
    "expand_data",
    "convergents",
    "last_denominator",
    "stats",
    "locate_block",
    "best_approx_error",
    "ostrowski",
    "ostrowski_value",
]


# ---------------------------------------------------------------------------
# Spec type


@dataclass(frozen=True)
class IrrationalSpec:
    """Constructive description of an irrational number.

    kind:
      "surd"    -- (P + sqrt(D)) / Q with integer P, Q != 0 and D > 0 non-square
      "e"       -- Euler's number, digits from the closed pattern
      "digits"  -- explicit partial quotients a_0, a_1, ... (a_k >= 1 for k >= 1)
      "uniform" -- uniform (0,1) sample with a deterministic seeded bit stream
      "root"    -- radicand ** (1/index) for integer radicand >= 2, index >= 2
    """

    kind: str
    p: int = 0
    d: int = 0
    q: int = 1
    digits: tuple = ()
    seed: int = 0
    radicand: int = 0
    index: int = 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def quadratic_surd(p: int, d: int, q: int) -> "IrrationalSpec":
        if q == 0:
            raise DiosumError("surd denominator Q must be nonzero")
        if d <= 0 or math.isqrt(d) ** 2 == d:
            raise DiosumError("surd radicand D must be a positive non-square")
        # Canonical form: Q must divide D - P^2 so the periodic algorithm
        # stays in integer arithmetic.  Rescale by |Q| when it does not.
        if (d - p * p) % q != 0:
            p, d, q = p * abs(q), d * q * q, q * abs(q)
        return IrrationalSpec(kind="surd", p=p, d=d, q=q)

    @staticmethod
    def phi() -> "IrrationalSpec":
        return IrrationalSpec.quadratic_surd(1, 5, 2)

    @staticmethod
    def sqrt2() -> "IrrationalSpec":
        return IrrationalSpec.quadratic_surd(0, 2, 1)

    @staticmethod
    def e() -> "IrrationalSpec":
        return IrrationalSpec(kind="e")

    @staticmethod
    def from_digits(digits) -> "IrrationalSpec":
        digits = tuple(int(a) for a in digits)
        if not digits:
            raise DiosumError("explicit-digits spec needs at least a_0")
        if any(a < 1 for a in digits[1:]):
            raise DiosumError("partial quotients a_k must be >= 1 for k >= 1")
        return IrrationalSpec(kind="digits", digits=digits)

    @staticmethod
    def uniform(seed: int) -> "IrrationalSpec":
        return IrrationalSpec(kind="uniform", seed=int(seed) & 0xFFFFFFFFFFFFFFFF)

    @staticmethod
    def root(radicand: int, index: int) -> "IrrationalSpec":
        if index < 2 or radicand < 2:
            raise DiosumError("root spec needs radicand >= 2 and index >= 2")
        r = _iroot(radicand, index)
        if r**index == radicand:
            raise DiosumError("root spec must be irrational (radicand is a perfect power)")
        return IrrationalSpec(kind="root", radicand=radicand, index=index)

    @staticmethod
    def parse(text: str) -> "IrrationalSpec":
        """Parse the CLI spec syntax.

        phi | sqrt2 | e | cbrt2 | cbrt4 | surd:P,D,Q | digits:a0,a1,...
        | root:M,R | uniform:SEED.  Digit lists accept "a*r" repetition.
        """
        text = text.strip()
        named = {
            "phi": IrrationalSpec.phi,
            "sqrt2": IrrationalSpec.sqrt2,
            "e": IrrationalSpec.e,
            "cbrt2": lambda: IrrationalSpec.root(2, 3),
            "cbrt4": lambda: IrrationalSpec.root(4, 3),
        }
        if text in named:
            return named[text]()
        if ":" not in text:
            raise DiosumError(f"unknown irrational spec {text!r}")
        head, _, rest = text.partition(":")
        try:
            if head == "surd":
                p, d, q = (int(x) for x in rest.split(","))
                return IrrationalSpec.quadratic_surd(p, d, q)
            if head == "digits":
                digits = []
                for token in rest.split(","):
                    if "*" in token:
                        a, _, r = token.partition("*")
                        digits.extend([int(a)] * int(r))
                    else:
                        digits.append(int(token))
                return IrrationalSpec.from_digits(digits)
            if head == "root":
                m, r = (int(x) for x in rest.split(","))
                return IrrationalSpec.root(m, r)
            if head == "uniform":
                return IrrationalSpec.uniform(int(rest))
        except ValueError as exc:
            raise DiosumError(f"cannot parse spec {text!r}: {exc}") from exc
        raise DiosumError(f"unknown irrational spec {text!r}")

    def label(self) -> str:
        if self.kind == "surd":
            if (self.p, self.d, self.q) == (1, 5, 2):
                return "phi"
            if (self.p, self.d, self.q) == (0, 2, 1):
                return "sqrt2"
            return f"surd:{self.p},{self.d},{self.q}"
        if self.kind == "e":
            return "e"
        if self.kind == "digits":
            return "digits:" + ",".join(str(a) for a in self.digits[:8]) + (
                ",..." if len(self.digits) > 8 else ""
            )
        if self.kind == "uniform":
            return f"uniform:{self.seed}"
        return f"root:{self.radicand},{self.index}"


# ---------------------------------------------------------------------------
# Integer helpers


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def _floor_open_ratio(v: int, q: int) -> int:
    """floor(x/q) for any x in the open interval (v, v+1), integer v, q != 0.

    The open unit interval between consecutive integers contains no integer,
    so the floor is constant on it.
    """
    if q > 0:
        return v // q
    fl = v // q
    if v % q == 0:
        fl -= 1
    return fl


def surd_floor_scaled(p: int, d: int, q: int, bits: int) -> int:
    """Exact floor of ((p + sqrt(d)) / q) * 2**bits, no rounding anywhere."""
    v = (p << bits) + math.isqrt(d << (2 * bits))
    return _floor_open_ratio(v, q)


@functools.lru_cache(maxsize=None)
def _uniform_chunks(seed: int, nchunks: int) -> int:
    """First 64*nchunks bits of the seeded uniform sample, as one integer.

    Generated in fixed 64-bit chunks so any longer request extends the
    shorter one: the bit stream is an append-only function of the seed.
    """
    rng = random.Random(seed)
    acc = 0
    for _ in range(nchunks):
        acc = (acc << 64) | rng.getrandbits(64)
    return acc


def uniform_bits(seed: int, bits: int) -> int:
    nchunks = (bits + 63) // 64
    acc = _uniform_chunks(seed, nchunks)
    return acc >> (64 * nchunks - bits)


# ---------------------------------------------------------------------------
# Certified dyadic enclosures of alpha (used by digit extraction and by the
# real engine; exact for surds, convergent-bracketed otherwise).


def spec_interval(spec: IrrationalSpec, bits: int):
    """Return exact rationals (lo, hi) with lo < alpha < hi and hi-lo <= 2**-bits."""
    if spec.kind == "surd":
        v = surd_floor_scaled(spec.p, spec.d, spec.q, bits + 2)
        return (
            Fraction(v, 1 << (bits + 2)),
            Fraction(v + 1, 1 << (bits + 2)),
        )
    if spec.kind == "root":
        n = spec.radicand << (spec.index * (bits + 2))
        r = _iroot(n, spec.index)
        return (
            Fraction(r, 1 << (bits + 2)),
            Fraction(r + 1, 1 << (bits + 2)),
        )
    if spec.kind == "uniform":
        a = uniform_bits(spec.seed, bits + 2)
        return (
            Fraction(a, 1 << (bits + 2)),
            Fraction(a + 1, 1 << (bits + 2)),
        )
    # e-constant and explicit digits: bracket by consecutive convergents,
    # whose gap is 1/(q_k q_{k+1}).  The product is below 2**bits while the
    # bit lengths sum to at most bits, so it is only formed past that.
    pm1, qm1 = 1, 0
    p0, q0 = None, None
    k = 0
    while True:
        try:
            a = _digit_at(spec, k)
        except DigitsExhausted:
            raise DigitsExhausted(
                f"{spec.label()} has too few digits for {bits}-bit enclosure",
                bits=bits,
            )
        if k == 0:
            p0, q0 = a, 1
        else:
            p0, pm1 = a * p0 + pm1, p0
            q0, qm1 = a * q0 + qm1, q0
        if k >= 1 and q0.bit_length() + qm1.bit_length() > bits and q0 * qm1 > (1 << bits):
            lo = Fraction(pm1, qm1)
            hi = Fraction(p0, q0)
            if lo > hi:
                lo, hi = hi, lo
            return lo, hi
        k += 1


def _digit_at(spec: IrrationalSpec, k: int) -> int:
    if spec.kind == "e":
        if k == 0:
            return 2
        return 2 * (k + 1) // 3 if k % 3 == 2 else 1
    if spec.kind == "digits":
        if k >= len(spec.digits):
            raise DigitsExhausted(
                f"explicit digit list ends at index {len(spec.digits) - 1}, "
                f"digit {k} requested",
                index=k,
            )
        return spec.digits[k]
    raise DiosumError(f"no closed digit form for kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Digit expansion


def _surd_digits(p: int, d: int, q: int, count: int) -> list:
    digits = []
    s = math.isqrt(d)
    for _ in range(count):
        a = _floor_open_ratio(p + s, q)
        digits.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return digits


_WINDOW = 128  # bits of each endpoint that one Lehmer step reads


def _interval_digits(lo: Fraction, hi: Fraction):
    """Digits certified for every irrational in (lo, hi): the common prefix
    of the endpoints' Euclidean expansions, with one safety digit dropped.

    The two expansions run in lockstep and stop at their first difference.
    While both denominators are wider than _WINDOW bits, one step reads only
    their top bits: each endpoint n/d lies strictly inside the rational
    window (n'/(d' + 1), (n' + 1)/d') of its shifted terms n', d', so the
    common prefix of the hull's two ends, less its last digit, is shared by
    both endpoints (Knuth, TAOCP vol. 2, 4.5.2, Algorithm L).  Those digits
    reach the full-size pairs as one 2x2 matrix.  Otherwise the step is an
    exact division.  (A Euclidean expansion never ends in the digit 1 past
    a_0, so these expansions are already the canonical ones.)
    """
    n1, d1, n2, d2 = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    digits = []
    while d1 and d2:
        s = min(d1.bit_length(), d2.bit_length()) - _WINDOW
        if digits and s > 0:  # after a_0 every term is non-negative
            a1, b1, a2, b2 = n1 >> s, d1 >> s, n2 >> s, d2 >> s
            u0, v0 = (a1, b1 + 1) if a1 * (b2 + 1) <= a2 * (b1 + 1) else (a2, b2 + 1)
            u1, v1 = (a1 + 1, b1) if (a1 + 1) * b2 >= (a2 + 1) * b1 else (a2 + 1, b2)
            # p/q, pp/qq: the last two convergents of the window digits
            p, pp, q, qq = 1, 0, 0, 1
            k = len(digits)
            while v0 and v1:
                c = u0 // v0
                r1 = u1 - c * v1
                if not 0 <= r1 < v1:
                    break
                digits.append(c)
                u0, v0, u1, v1 = v0, u0 - c * v0, v1, r1
                p, pp, q, qq = c * p + pp, p, c * q + qq, q
            k = len(digits) - k
            if k >= 2:
                c = digits.pop()
                p, pp, q, qq = pp, p - c * pp, qq, q - c * qq
                # (n, d) = [[p, pp], [q, qq]] (n', d'), determinant (-1)**(k - 1)
                if k % 2:
                    n1, d1 = qq * n1 - pp * d1, p * d1 - q * n1
                    n2, d2 = qq * n2 - pp * d2, p * d2 - q * n2
                else:
                    n1, d1 = pp * d1 - qq * n1, q * n1 - p * d1
                    n2, d2 = pp * d2 - qq * n2, q * n2 - p * d2
                continue
            del digits[len(digits) - k:]
        a, r1 = divmod(n1, d1)
        b, r2 = divmod(n2, d2)
        if a != b:
            break
        digits.append(a)
        n1, d1, n2, d2 = d1, r1, d2, r2
    return digits[:-1]


def expand(spec: IrrationalSpec, K: int) -> list:
    """Partial quotients a_0..a_K, exact.

    Surds run the periodic integer algorithm; e and explicit digits come
    from their closed patterns; uniform samples and roots extract certified
    digits from dyadic enclosures at escalating precision.
    """
    if K < 0:
        raise DiosumError("K must be >= 0")
    if spec.kind == "surd":
        return _surd_digits(spec.p, spec.d, spec.q, K + 1)
    if spec.kind in ("e", "digits"):
        return [_digit_at(spec, k) for k in range(K + 1)]
    # uniform / root: escalate precision until K+1 digits are certified.
    # A.e. samples need about 3.5 bits per digit; start there to avoid
    # rescanning for deep requests.
    from .reals import escalate, precision_cap

    cap = precision_cap()
    bits = min(max(128, 64 * ((7 * (K + 1) // 2 + 256) // 64)), cap)
    while True:
        lo, hi = spec_interval(spec, bits)
        digits = _interval_digits(lo, hi)
        if len(digits) >= K + 1:
            return digits[: K + 1]
        bits = escalate(bits, cap, PrecisionExhausted(
            f"could not certify digit a_{len(digits)} of {spec.label()} below {cap} bits",
            index=len(digits),
            bits=cap,
        ))


# ---------------------------------------------------------------------------
# Convergents and statistics


@dataclass(frozen=True)
class ContinuedFractionData:
    """Digits a_0..a_K with convergent denominators and digit statistics,
    all exact."""

    digits: tuple
    q: tuple
    s: tuple  # s[k] = a_1 + ... + a_k, s[0] = 0

    @property
    def K(self) -> int:
        return len(self.digits) - 1

    @property
    def max_quotient(self) -> int:
        return max(self.digits[1:]) if len(self.digits) > 1 else 0

    @property
    def trimmed_sum(self) -> int:
        return self.s[-1] - self.max_quotient

    def block_index(self, N: int) -> int:
        """Largest K with q_K <= N < q_{K+1}; raises if the table is too short."""
        if N < 1:
            raise DiosumError("N must be >= 1")
        for k in range(len(self.q) - 1, -1, -1):
            if self.q[k] <= N:
                if k + 1 >= len(self.q):
                    raise DigitsExhausted(
                        f"need q_{k + 1} to place N={N}; expand further", index=k + 1
                    )
                return k
        raise DiosumError("q_0 = 1 should always satisfy q_0 <= N")


def convergents(digits) -> list:
    """(p_k, q_k) for each digit, via the standard recurrence."""
    if not digits:
        raise DiosumError("empty digit list")
    out = []
    pm1, qm1 = 1, 0
    p, q = None, None
    for k, a in enumerate(digits):
        if k == 0:
            p, q = a, 1
        else:
            p, pm1 = a * p + pm1, p
            q, qm1 = a * q + qm1, q
        out.append((p, q))
    return out


def last_denominator(digits) -> int:
    """q_K for the digits a_0..a_K: the top-left entry of the product of the
    matrices [[a_k, 1], [1, 0]] over k >= 1, multiplied as a balanced tree
    so that the big products pair operands of similar size."""
    mats = [(a, 1, 1, 0) for a in digits[1:]]
    if not mats:
        return 1
    while len(mats) > 1:
        pairs = []
        for (p, q, r, s), (P, Q, R, S) in zip(mats[::2], mats[1::2]):
            pairs.append((p * P + q * R, p * Q + q * S, r * P + s * R, r * Q + s * S))
        if len(mats) % 2:
            pairs.append(mats[-1])
        mats = pairs
    return mats[0][0]


def stats(digits):
    """(s_K, max a_k, trimmed sum) over k >= 1."""
    if len(digits) < 2:
        raise DiosumError("need K >= 1 for digit statistics")
    body = digits[1:]
    s = sum(body)
    m = max(body)
    return s, m, s - m


def expand_data(spec: IrrationalSpec, K: int) -> ContinuedFractionData:
    digits = expand(spec, K)
    q, s = [0, 1], [0]  # q_{-1}, q_0
    for a in digits[1:]:
        q.append(a * q[-1] + q[-2])
        s.append(s[-1] + a)
    return ContinuedFractionData(digits=tuple(digits), q=tuple(q[1:]), s=tuple(s))


def locate_block(spec: IrrationalSpec, N: int) -> int:
    """K with q_K <= N < q_{K+1}, the largest such K."""
    if N < 1:
        raise DiosumError("N must be >= 1")
    guess = 8
    while True:
        data = expand_data(spec, guess)
        if data.q[-1] > N:
            return data.block_index(N)
        guess *= 2


def best_approx_error(spec: IrrationalSpec, k: int):
    """Ball enclosing ||q_k alpha||."""
    from .reals import dist_nearest

    if k < 0:
        raise DiosumError("k must be >= 0")
    data = expand_data(spec, k)
    return dist_nearest(spec, data.q[k])


# ---------------------------------------------------------------------------
# Ostrowski numeration


def ostrowski(spec: IrrationalSpec, n: int) -> list:
    """Greedy digits b_0..b_K with n = sum b_k q_k.

    Satisfies 0 <= b_k <= a_{k+1} and b_k = a_{k+1} => b_{k-1} = 0.  Ties at
    q_0 = q_1 = 1 go to the larger index.
    """
    if n < 1:
        raise DiosumError("n must be >= 1")
    K = locate_block(spec, n)
    data = expand_data(spec, K + 1)
    rem = n
    coeffs = [0] * (K + 1)
    for k in range(K, -1, -1):
        coeffs[k], rem = divmod(rem, data.q[k])
        if k == 1:
            # q_0 = 1 divides anything; the greedy pass above already
            # consumed everything at k = 1, keeping b_0 = 0.
            break
    if rem:
        coeffs[0] = rem
    for k in range(K, 0, -1):
        assert coeffs[k] <= data.digits[k + 1] if k + 1 <= K + 1 else True
        if coeffs[k] == data.digits[k + 1]:
            assert coeffs[k - 1] == 0, "greedy representation not admissible"
    return coeffs


def ostrowski_value(spec: IrrationalSpec, coeffs) -> int:
    data = expand_data(spec, len(coeffs) - 1)
    return sum(b * q for b, q in zip(coeffs, data.q))
