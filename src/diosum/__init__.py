"""Certified Diophantine sums: reciprocals of fractional parts at desk scale.

Library layout:
  cf        exact continued fractions, convergents, Ostrowski numeration
  reals     ball arithmetic for {n*alpha + beta} and certified comparisons
  kernel    compiled/pure term kernel (selected at import)
  sums      certified brute-force evaluation of every sum family
  counting  counting functions, discrepancy, local discrepancy formulas
  predict   asymptotic main terms, second-order terms, envelopes, residuals
  cli       `diosum` command-line front end
"""

from .cf import (
    ContinuedFractionData,
    IrrationalSpec,
    best_approx_error,
    convergents,
    expand,
    expand_data,
    locate_block,
    ostrowski,
    stats,
)
from .errors import (
    BlockMismatch,
    DigitsExhausted,
    DiosumError,
    PrecisionExhausted,
    RationalDependence,
)
from .reals import BallReal, dist_nearest, frac_part

__version__ = "0.1.0"

__all__ = [
    "IrrationalSpec",
    "ContinuedFractionData",
    "BallReal",
    "expand",
    "expand_data",
    "convergents",
    "stats",
    "locate_block",
    "best_approx_error",
    "ostrowski",
    "dist_nearest",
    "frac_part",
    "DiosumError",
    "PrecisionExhausted",
    "DigitsExhausted",
    "BlockMismatch",
    "RationalDependence",
    "__version__",
]
