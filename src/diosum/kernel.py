"""Backend selection for the term kernel.

Sums and counts are one kernel loop per backend, and _block is the one
place that picks the backend for a block.  The compiled extension
(_ckernel.c) handles the default 128-bit working representation whenever
the indices, the interval widths n*aw + bw and the cut or threshold band
fit its 64- and 128-bit integers; the pure-Python module handles every
other block, any precision, and is the fallback when the extension is
unavailable.  Both produce bit-identical results at 128 bits.
DIOSUM_KERNEL (auto, c or py; read once, at import) forces a backend: py
is used by the benchmark and the equivalence tests.

The discrepancy profile dispatches the same way: the extension's loop and
the numpy loop in _pykernel give bit-identical floats.
"""

import os

from . import _pykernel
from .errors import DiosumError

_U64 = 1 << 64
_U128 = 1 << 128

try:
    from . import _ckernel
except ImportError:  # extension not built; pure Python throughout
    _ckernel = None


def available_backends():
    return ("c", "py") if _ckernel is not None else ("py",)


def _choose(forced):
    """(backend, None) for a usable DIOSUM_KERNEL value, else (None, why)."""
    if forced not in ("auto", "c", "py"):
        return None, f"DIOSUM_KERNEL must be auto, c or py, not {forced!r}"
    if forced == "c" and _ckernel is None:
        return None, "DIOSUM_KERNEL=c but the extension is not built"
    return ("py" if forced == "py" or _ckernel is None else "c"), None


# a bad value is raised by the first kernel use, not here: an import error
# would reach the CLI's user as a traceback
_BACKEND, _BAD_BACKEND = _choose(os.environ.get("DIOSUM_KERNEL") or "auto")


def backend() -> str:
    if _BACKEND is None:
        raise DiosumError(_BAD_BACKEND)
    return _BACKEND


def _use_c(bits, aw, bw, n0, n1, band) -> bool:
    """Whether the compiled kernel can run this block exactly."""
    if _BACKEND != "c":
        backend()  # raises for a bad DIOSUM_KERNEL
        return False
    return (
        bits == 128
        and 0 <= n0
        and 0 <= aw
        and 0 <= bw
        and 0 <= n1 < _U64
        and n1 * aw + bw < _U64
        and (band is None or 0 <= band[0] <= band[1] < _U128)
    )


def _block(a, aw, b, bw, n0, n1, variant, weight, band, exclude, counting, bits):
    """One block on the backend that can run it: (s_lo, s_hi, hits, flagged)."""
    band_lo, band_hi = band if band is not None else (None, None)
    if _use_c(bits, aw, bw, n0, n1, band):
        return _ckernel.block_128(
            a, aw, b, bw, n0, n1, variant, weight, band_lo, band_hi, exclude, counting
        )
    return _pykernel.block(
        a, aw, b, bw, n0, n1, variant, weight, band_lo, band_hi, exclude, counting, bits
    )


def sum_block(a, aw, b, bw, n0, n1, variant, weight, cut, exclude, bits):
    """(s_lo, s_hi, included, flagged); `cut` is None or an exact pair (lo, hi)."""
    return _block(a, aw, b, bw, n0, n1, variant, weight, cut, exclude, False, bits)


def count_block(a, aw, b, bw, n0, n1, variant, t_lo, t_hi, bits):
    """(count, flagged) for the threshold band [t_lo, t_hi]."""
    return _block(a, aw, b, bw, n0, n1, variant, 0, (t_lo, t_hi), 0, True, bits)[2:]


def discrepancy_profile(xs):
    """out[N-1] = D_N of the float64 sample points xs[:N], every N."""
    if _BACKEND != "c":
        backend()  # raises for a bad DIOSUM_KERNEL
        return _pykernel.disc_profile(xs)
    import numpy as np

    xs = np.ascontiguousarray(xs, dtype=np.float64)
    out = np.empty_like(xs)
    _ckernel.disc_profile(xs, out)
    return out
