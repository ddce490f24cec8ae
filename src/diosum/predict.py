"""Asymptotic predictions: main terms, explicit second-order terms, envelopes.

Every theorem family gets a PredictionReport carrying the itemized
prediction and a constant-free envelope magnitude; measured values join a
report to produce residuals and normalized residuals.  All logarithms are
natural, and every log factor is clamped below by 1 (log x means
log max{e, x} throughout), so envelopes never vanish.

Evaluation is IEEE double: every acceptance tolerance is >= 1e-9 relative,
seven orders above double rounding.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

from .cf import (
    ContinuedFractionData,
    IrrationalSpec,
    expand,
    last_denominator,
    stats,
)
from .errors import BlockMismatch, DigitsExhausted, DiosumError, PrecisionExhausted

__all__ = [
    "PredictionReport",
    "SecondOrderTerm",
    "clog",
    "predict_sum_dist",
    "predict_sum_harmonic",
    "predict_badly",
    "predict_frac",
    "predict_shifted",
    "predict_multidim",
    "ae_envelope",
    "metric_stats",
    "MetricSample",
    "KHINCHIN_LEVY",
    "DIAMOND_VAALER",
]

PI_SQ_OVER_6 = math.pi * math.pi / 6.0
KHINCHIN_LEVY = math.pi * math.pi / (12.0 * math.log(2.0))  # ~1.186569
DIAMOND_VAALER = 1.0 / math.log(2.0)  # ~1.442695


def clog(x) -> float:
    """Natural log clamped below by 1: log max{e, x}."""
    x = float(x)
    return 1.0 if x <= math.e else math.log(x)


def int_log(n: int) -> float:
    """Natural log of a (possibly huge) positive integer."""
    if n <= 0:
        raise DiosumError("int_log needs a positive integer")
    bl = n.bit_length()
    if bl <= 512:
        return math.log(n)
    sh = bl - 64
    return math.log(n >> sh) + sh * math.log(2.0)


def _basel_partial(m: int) -> float:
    """sum_{j=1}^{m} 1/j^2 over the integer-truncated range."""
    total = 0.0
    for j in range(m, 0, -1):  # ascending magnitude improves accumulation
        total += 1.0 / (j * j)
    return total


@dataclass(frozen=True)
class SecondOrderTerm:
    name: str
    value: float
    coefficient: object = None  # exact integer content, when there is one


@dataclass(frozen=True)
class PredictionReport:
    theorem: str
    N: int
    K: int | None
    main: float
    second_order: tuple
    envelope: float
    measured: float | None = None
    lower_branch: bool | None = None
    lower_extra_term: float | None = None
    lower_envelope: float | None = None

    @property
    def second_order_total(self) -> float:
        return math.fsum(t.value for t in self.second_order)

    @property
    def prediction(self) -> float:
        return self.main + self.second_order_total

    @property
    def residual(self) -> float | None:
        if self.measured is None:
            return None
        return self.measured - self.prediction

    @property
    def normalized_residual(self) -> float | None:
        if self.measured is None:
            return None
        return self.residual / self.envelope

    def with_measured(self, value: float) -> "PredictionReport":
        return replace(self, measured=float(value))


def _block_of(data: ContinuedFractionData, N: int, K: int | None):
    """Resolve and validate the block index for N against the table."""
    if K is None:
        try:
            K = data.block_index(N)
        except DigitsExhausted as exc:
            raise BlockMismatch(str(exc)) from exc
    if K + 1 > data.K:
        raise BlockMismatch(f"table has digits through a_{data.K}, need a_{K + 1}")
    if not (data.q[K] <= N < data.q[K + 1]):
        raise BlockMismatch(
            f"N={N} outside [q_{K}, q_{K + 1}) = [{data.q[K]}, {data.q[K + 1]})"
        )
    return K


def predict_sum_dist(data: ContinuedFractionData, N: int, c, K: int | None = None
                     ) -> PredictionReport:
    """Distance sum with cutoff c/N: main 2 N log N, envelope
    (a_{K+1}^(1/2) + log s_{K+1}) N; flags the lower-bound branch
    4 (c a_{K+1})^(1/2) q_K <= N with extra term q_{K+1}."""
    c = Fraction(c)
    if c <= 0:
        raise DiosumError("c must be a positive rational")
    K = _block_of(data, N, K)
    a_next = data.digits[K + 1]
    s_next = data.s[K + 1]
    main = 2.0 * N * clog(N)
    envelope = (math.sqrt(a_next) + clog(s_next)) * N
    branch = 16 * c * a_next * data.q[K] ** 2 <= N * N  # exact rational test
    return PredictionReport(
        theorem="thm2.1",
        N=N,
        K=K,
        main=main,
        second_order=(),
        envelope=envelope,
        lower_branch=bool(branch),
        lower_extra_term=float(data.q[K + 1]) if branch else None,
        lower_envelope=clog(s_next) * N if branch else None,
    )


def predict_sum_harmonic(data: ContinuedFractionData, N: int, K: int | None = None
                         ) -> PredictionReport:
    """Harmonic distance sum: main (log N)^2, itemized second-order
    (pi^2/6) s_K + a_{K+1} sum_{j <= N/q_K} j^-2."""
    K = _block_of(data, N, K)
    a_next = data.digits[K + 1]
    s_K = data.s[K]
    m = N // data.q[K]
    terms = (
        SecondOrderTerm("pi2_over_6_sK", PI_SQ_OVER_6 * s_K, coefficient=s_K),
        SecondOrderTerm(
            "aK1_partial_basel", a_next * _basel_partial(m), coefficient=a_next
        ),
    )
    envelope = (
        sum(math.sqrt(a) * clog(a) for a in data.digits[1 : K + 2])
        + clog(data.s[K + 1]) * clog(N)
    )
    return PredictionReport(
        theorem="thm2.2", N=N, K=K, main=clog(N) ** 2,
        second_order=terms, envelope=envelope,
    )


def predict_badly(N: int):
    """Badly-approximable asymptotics: (2 N log N, O(N)) and ((log N)^2, O(log N))."""
    if N < 1:
        raise DiosumError("N must be >= 1")
    dist = PredictionReport(
        theorem="thm1.1-dist", N=N, K=None, main=2.0 * N * clog(N),
        second_order=(), envelope=float(N),
    )
    harmonic = PredictionReport(
        theorem="thm1.1-harmonic", N=N, K=None, main=clog(N) ** 2,
        second_order=(), envelope=clog(N),
    )
    return dist, harmonic


def predict_frac(data: ContinuedFractionData, N: int, variant: str = "frac",
                 weight: str = "1/n", K: int | None = None) -> PredictionReport:
    """Fractional-part sums with parity-indexed second-order terms.

    The frac variant draws on odd digit indices, the complement on even
    ones; the a_{K+1} term is gated by the parity of K+1.
    """
    if variant not in ("frac", "complement"):
        raise DiosumError("variant must be 'frac' or 'complement'")
    if weight not in ("1", "1/n"):
        raise DiosumError("weight must be '1' or '1/n'")
    K = _block_of(data, N, K)
    want = 1 if variant == "frac" else 0  # parity of contributing indices
    a_next = data.digits[K + 1]
    s_next = data.s[K + 1]
    gate = 1 if (K + 1) % 2 == want else 0
    if weight == "1":
        main = N * clog(N)
        envelope = (gate * math.sqrt(a_next) + clog(s_next)) * N
        terms = ()
    else:
        main = 0.5 * clog(N) ** 2
        parity_coeff = sum(a for k, a in enumerate(data.digits[1 : K + 1], start=1)
                           if k % 2 == want)
        m = N // data.q[K]
        terms = (
            SecondOrderTerm(
                f"pi2_over_6_{variant}_parity",
                PI_SQ_OVER_6 * parity_coeff,
                coefficient=parity_coeff,
            ),
            SecondOrderTerm(
                "aK1_partial_basel_gated",
                gate * a_next * _basel_partial(m),
                coefficient=gate * a_next,
            ),
        )
        envelope = (
            sum(
                math.sqrt(a) * clog(a)
                for k, a in enumerate(data.digits[1 : K + 2], start=1)
                if k % 2 == want
            )
            + clog(s_next) * clog(N)
        )
        envelope = max(envelope, 1.0)  # parity sum can be empty at tiny K
    return PredictionReport(
        theorem=f"thm3.1-{variant}", N=N, K=K, main=main,
        second_order=terms, envelope=envelope,
    )


def predict_shifted(N: int, weight: str = "1") -> PredictionReport:
    """Shifted sums: main 2 N log N with envelope N log log N (weight 1),
    or (log N)^2 with envelope log N log log N (weight 1/n)."""
    if N < 1:
        raise DiosumError("N must be >= 1")
    if weight == "1":
        return PredictionReport(
            theorem="thm3.2", N=N, K=None, main=2.0 * N * clog(N),
            second_order=(), envelope=N * clog(clog(N)),
        )
    if weight == "1/n":
        return PredictionReport(
            theorem="thm3.2", N=N, K=None, main=clog(N) ** 2,
            second_order=(), envelope=clog(N) * clog(clog(N)),
        )
    raise DiosumError("weight must be '1' or '1/n'")


def predict_multidim(d: int, N: int, t=None) -> dict:
    """Lattice sum, weighted sum, and (optionally) counting predictions."""
    if d < 1 or N < 1:
        raise DiosumError("need d >= 1 and N >= 1")
    out = {
        "sum": PredictionReport(
            theorem="thm3.3-sum", N=N, K=None,
            main=d * 2.0 ** (d + 1) * N**d * clog(N),
            second_order=(), envelope=float(N**d),
        ),
        "weighted": PredictionReport(
            theorem="thm3.3-weighted", N=N, K=None,
            main=d * d * 2.0**d * clog(N) ** 2,
            second_order=(), envelope=clog(N),
        ),
    }
    if t is not None:
        t = float(Fraction(t))
        out["count"] = PredictionReport(
            theorem="thm3.3-count", N=N, K=None,
            main=2.0 ** (d + 1) * t * N**d,
            second_order=(),
            envelope=t ** (d / (d + 1)) * N ** (d * d / (d + 1)),
        )
    return out


# ---------------------------------------------------------------------------
# Almost-everywhere envelopes


def _phi_function(phi):
    """Normalize the growth-function argument.

    phi is either ('k', None), ('k^2', None), ('k log^{1+eps}', eps), or a
    monotone table [(x, value), ...].  Returns (callable, branch) where
    branch says whether sum 1/phi(k) converges ('convergent'/'divergent'),
    or None for tables.
    """
    if isinstance(phi, (list, tuple)) and phi and isinstance(phi[0], (list, tuple)):
        pts = [(float(x), float(y)) for x, y in phi]
        if any(pts[i][0] >= pts[i + 1][0] for i in range(len(pts) - 1)):
            raise DiosumError("table abscissas must increase")
        if any(pts[i][1] > pts[i + 1][1] for i in range(len(pts) - 1)):
            raise DiosumError("non-monotone growth function rejected")

        def table_fn(x):
            x = float(x)
            if x <= pts[0][0]:
                return pts[0][1]
            if x >= pts[-1][0]:
                return pts[-1][1]
            for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
                if x0 <= x <= x1:
                    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            raise AssertionError

        return table_fn, None
    name, eps = phi
    if name == "k":
        return (lambda x: float(x)), "divergent"
    if name == "k^2":
        return (lambda x: float(x) ** 2), "convergent"
    if name == "k*log^{1+eps}":
        eps = float(eps)
        branch = "convergent" if eps > 0 else "divergent"
        return (lambda x: float(x) * clog(x) ** (1.0 + eps)), branch
    raise DiosumError(f"unknown growth function {name!r}")


def ae_envelope(phi, N: int) -> dict:
    """Envelope magnitudes N phi(log N)^(1/2) and phi(log N) + log N log log N."""
    if N < 1:
        raise DiosumError("N must be >= 1")
    fn, branch = _phi_function(phi)
    x = clog(N)
    val = fn(x)
    if val <= 0:
        raise DiosumError("growth function must be positive")
    return {
        "phi_at_logN": val,
        "envelope_sum": N * math.sqrt(val),
        "envelope_harmonic": val + x * clog(x),
        "branch": branch,
    }


# ---------------------------------------------------------------------------
# Metric (almost-everywhere) statistics over seeded samples


@dataclass(frozen=True)
class MetricSample:
    seed: int
    K: int
    log_qK_over_K: float
    trimmed_over_KlogK: float
    max_quotient: int
    exceedances: int | None
    skipped: str | None = None


def metric_stats(seeds, K: int, phi=None) -> dict:
    """Khinchin-Levy and trimmed-sum statistics over seeded uniform samples.

    Per sample: log(q_K)/K (target pi^2/(12 log 2)) and
    (s_K - max a_k)/(K log K) (target 1/log 2), plus exceedance counts
    |{k <= K : a_k >= phi(k)}| when a growth function is supplied.
    Samples hitting the precision cap are skipped and reported.
    """
    if K < 10:
        raise DiosumError("K must be >= 10")
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise DiosumError("seeds must be distinct")
    phi_fn = _phi_function(phi)[0] if phi is not None else None
    samples = []
    for seed in seeds:
        try:
            digits = expand(IrrationalSpec.uniform(seed), K)
        except PrecisionExhausted as exc:
            samples.append(
                MetricSample(seed, K, math.nan, math.nan, 0, None, skipped=str(exc))
            )
            continue
        exceed = None
        if phi_fn is not None:
            exceed = sum(
                1 for k, a in enumerate(digits[1:], start=1) if a >= phi_fn(k)
            )
        _, max_quotient, trimmed = stats(digits)
        samples.append(
            MetricSample(
                seed=seed,
                K=K,
                log_qK_over_K=int_log(last_denominator(digits)) / K,
                trimmed_over_KlogK=trimmed / (K * math.log(K)),
                max_quotient=max_quotient,
                exceedances=exceed,
            )
        )
    good = [s for s in samples if s.skipped is None]
    agg = {}
    for field in ("log_qK_over_K", "trimmed_over_KlogK"):
        vals = [getattr(s, field) for s in good]
        agg[field] = {
            "mean": statistics.fmean(vals) if vals else math.nan,
            "median": statistics.median(vals) if vals else math.nan,
        }
    return {"samples": samples, "aggregate": agg, "skipped": len(samples) - len(good)}
