"""Certified evaluation of {n*alpha + beta}, ||n*alpha + beta|| and threshold tests.

Everything is driven by one primitive: a certified integer A with
frac(alpha) * 2**bits strictly inside (A, A+1).  From it, n*alpha + beta mod 1
lives in an exact integer interval [r, r+w] / 2**bits, and the fractional-part,
complement and distance-to-nearest maps are exact integer transformations of
that interval.  resolve_forms applies this to whole batches of linear forms
sum(c_i alpha_i) + beta.  Precision escalates by doubling until a decision is
certified or the cap is hit, in which case PrecisionExhausted (or, for
resolve_forms, the caller's error) is raised: never a silent guess.  escalate
is that schedule, for every doubling loop in diosum.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import cf
from .errors import DiosumError, PrecisionExhausted

__all__ = [
    "BallReal",
    "precision_cap",
    "escalate",
    "DEFAULT_START_BITS",
    "frac_scaled",
    "int_part",
    "dist_nearest",
    "frac_part",
    "map_variant",
    "VARIANT_DIST",
    "VARIANT_FRAC",
    "VARIANT_COMPLEMENT",
    "VARIANT_IDS",
]

DEFAULT_START_BITS = 128
_DEFAULT_CAP = 65536

VARIANT_DIST = 0
VARIANT_FRAC = 1
VARIANT_COMPLEMENT = 2
VARIANT_IDS = {"dist": VARIANT_DIST, "frac": VARIANT_FRAC, "complement": VARIANT_COMPLEMENT}


def precision_cap() -> int:
    """Precision cap in bits; override with DIOSUM_MAX_PRECISION_BITS."""
    raw = os.environ.get("DIOSUM_MAX_PRECISION_BITS")
    if raw is None:
        return _DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DiosumError(f"bad DIOSUM_MAX_PRECISION_BITS={raw!r}") from exc
    if cap <= 0:
        raise DiosumError("DIOSUM_MAX_PRECISION_BITS must be positive")
    return cap


def escalate(bits: int, cap: int, error: Exception) -> int:
    """The working precision after `bits`: twice it, clamped to `cap`.

    Raises `error` when `bits` has already reached the cap.
    """
    if bits >= cap:
        raise error
    return min(2 * bits, cap)


@dataclass(frozen=True)
class BallReal:
    """Midpoint-radius enclosure of a real, with exact dyadic fields."""

    mid: Fraction
    rad: Fraction
    precision: int

    @staticmethod
    def from_endpoints(lo, hi, precision: int) -> "BallReal":
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise DiosumError("ball endpoints out of order")
        return BallReal(mid=(lo + hi) / 2, rad=(hi - lo) / 2, precision=precision)

    @property
    def lo(self) -> Fraction:
        return self.mid - self.rad

    @property
    def hi(self) -> Fraction:
        return self.mid + self.rad

    @property
    def width(self) -> Fraction:
        return 2 * self.rad

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def overlaps(self, other: "BallReal") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __float__(self) -> float:
        return float(self.mid)


# ---------------------------------------------------------------------------
# Scaled fractional part of alpha


@functools.lru_cache(maxsize=None)
def int_part(spec: cf.IrrationalSpec) -> int:
    """floor(alpha), exact."""
    if spec.kind == "surd":
        return cf.surd_floor_scaled(spec.p, spec.d, spec.q, 0)
    bits = 16
    cap = precision_cap()
    while True:
        lo, hi = cf.spec_interval(spec, bits)
        if math.floor(lo) == math.floor(hi):
            return math.floor(lo)
        bits = escalate(bits, cap, PrecisionExhausted("cannot certify floor(alpha)", bits=cap))


@functools.lru_cache(maxsize=None)
def frac_scaled(spec: cf.IrrationalSpec, bits: int) -> int:
    """Certified A with frac(alpha) * 2**bits strictly in (A, A+1)."""
    if spec.kind == "surd":
        a0 = cf.surd_floor_scaled(spec.p, spec.d, spec.q, 0)
        return cf.surd_floor_scaled(spec.p, spec.d, spec.q, bits) - (a0 << bits)
    a0 = int_part(spec)
    guard = bits + 8
    cap = max(precision_cap(), bits + 8)
    while True:
        lo, hi = cf.spec_interval(spec, guard)
        fl_lo = (lo.numerator << bits) // lo.denominator
        fl_hi = (hi.numerator << bits) // hi.denominator
        if fl_lo == fl_hi:
            return fl_lo - (a0 << bits)
        guard = escalate(
            guard, cap, PrecisionExhausted(f"cannot certify alpha to {bits} bits", bits=cap)
        )


def beta_scaled(beta: Fraction, bits: int):
    """(B, w) with beta * 2**bits in [B, B+w], w in {0, 1}, exact."""
    beta = Fraction(beta)
    num = beta.numerator << bits
    b, rem = divmod(num, beta.denominator)
    return b, (0 if rem == 0 else 1)


# ---------------------------------------------------------------------------
# Circle-interval maps (shared, exact; the compiled kernel mirrors these)


def map_variant(r: int, w: int, modulus: int, variant: int):
    """Image of the circle interval [r, r+w]/modulus under the variant map.

    Returns exact integers (d_lo, d_hi) in units of 1/modulus, or None when
    the interval wraps through 0 and the image is not representable
    (callers must refine).  d_lo == 0 likewise signals a needed refinement
    for reciprocal and threshold uses.
    """
    top = r + w
    if top >= modulus:
        return None
    if variant == VARIANT_FRAC:
        return r, top
    if variant == VARIANT_COMPLEMENT:
        return modulus - top, modulus - r
    half = modulus >> 1
    if top <= half:
        return r, top
    if r >= half:
        return modulus - top, modulus - r
    return min(r, modulus - top), half


OPEN = object()  # a decide() verdict: not separated at this precision


def form_interval(form, scaled):
    """(r, w) with sum(c * alpha_i) * 2**bits in [r, r + w], exact, from
    scaled[i] = frac_scaled(alpha_i, bits): c * alpha_i * 2**bits lies in
    [c*a, c*a + c] for c >= 0 and in [c*(a+1), c*a] otherwise.
    resolve_forms repeats these lines inline: it runs them once per form and
    level, and the call would cost it a few percent."""
    r = w = 0
    for c, a in zip(form, scaled):
        r += c * a if c >= 0 else c * (a + 1)
        w += abs(c)
    return r, w


def resolve_forms(specs, forms, beta, variant, decide, fail, start_bits):
    """One certified verdict per linear form, by precision doubling.

    A form is a tuple of integer coefficients c_i and stands for the variant
    value of x = sum(c_i * alpha_i) + beta, alpha_i = specs[i].  Every form is
    tried at start_bits, those still open at twice that, and so on up to the
    cap.  At each level the image of x's circle interval is passed on as
    decide(i, d_lo, d_hi, bits), exact integers in units of 2**-bits; it
    returns the verdict for form i or OPEN.  A wrapped interval, whose image
    is not representable, stays open without a call.  If forms are still
    open at the cap, the exception fail(i, box) returns for the first of
    them is raised, box being its last image or None.  start_bits is tried
    even when the cap lies below it.
    """
    out = [None] * len(forms)
    pending = range(len(forms))
    cap = precision_cap()
    bits = start_bits
    while pending:
        modulus = 1 << bits
        scaled = [frac_scaled(s, bits) for s in specs]
        b, wb = beta_scaled(beta, bits)
        still_open = []
        for i in pending:
            r, w = b, wb  # form_interval, inline
            for c, a in zip(forms[i], scaled):
                r += c * a if c >= 0 else c * (a + 1)
                w += abs(c)
            box = map_variant(r % modulus, w, modulus, variant)
            if box is not None:
                verdict = decide(i, box[0], box[1], bits)
                if verdict is not OPEN:
                    out[i] = verdict
                    continue
            still_open.append((i, box))
        if still_open:
            bits = escalate(bits, cap, fail(*still_open[0]))
        pending = [i for i, _ in still_open]
    return out


def _refine_many(spec, ns, beta, variant, rel_bits, start_bits):
    """(d_lo, d_hi, bits) per n: the variant value of n*alpha + beta lies in
    [d_lo, d_hi] / 2**bits, with d_lo > 0 and a relative width of at most
    2**-rel_bits (or one unit)."""

    def decide(i, d_lo, d_hi, bits):
        if d_lo > 0 and d_hi - d_lo <= max(1, d_lo >> rel_bits):
            return d_lo, d_hi, bits
        return OPEN

    def fail(i, box):
        cap = precision_cap()
        return PrecisionExhausted(
            f"cannot certify variant {variant} at n={ns[i]} below {cap} bits",
            index=ns[i],
            bits=cap,
        )

    return resolve_forms((spec,), [(n,) for n in ns], beta, variant, decide, fail, start_bits)


def dist_nearest(
    spec: cf.IrrationalSpec,
    n: int,
    beta=Fraction(0),
    rel_bits: int = 64,
    start_bits: int = DEFAULT_START_BITS,
) -> BallReal:
    """Certified enclosure of ||n*alpha + beta||, beta rational."""
    if n < 1:
        raise DiosumError("n must be >= 1")
    d_lo, d_hi, bits = _refine_many(spec, [n], beta, VARIANT_DIST, rel_bits, start_bits)[0]
    modulus = 1 << bits
    return BallReal.from_endpoints(
        Fraction(d_lo, modulus), Fraction(d_hi, modulus), bits
    )


def frac_part(
    spec: cf.IrrationalSpec,
    n: int,
    beta=Fraction(0),
    rel_bits: int = 64,
    start_bits: int = DEFAULT_START_BITS,
):
    """Balls for {n*alpha + beta} and its complement 1 - {n*alpha + beta}."""
    if n < 1:
        raise DiosumError("n must be >= 1")
    d_lo, d_hi, bits = _refine_many(spec, [n], beta, VARIANT_FRAC, rel_bits, start_bits)[0]
    modulus = 1 << bits
    frac = BallReal.from_endpoints(Fraction(d_lo, modulus), Fraction(d_hi, modulus), bits)
    comp = BallReal.from_endpoints(
        Fraction(modulus - d_hi, modulus), Fraction(modulus - d_lo, modulus), bits
    )
    return frac, comp
