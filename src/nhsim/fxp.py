"""16-bit fixed-point formats with 32-bit accumulation.

Raw values are numpy integer arrays holding the two's-complement bit
pattern; the position of the binary point is carried separately as a
:class:`QFormat`.  A raw value ``r`` with ``frac_bits=f`` represents the
real number ``r / 2**f``.

Rounding is round-to-nearest-even everywhere, and arithmetic saturates
instead of wrapping.  The product of two 16-bit values accumulates into a
32-bit register whose fractional length is the sum of the operand
fractional lengths.  The scalar forms of these rules are test oracles in
``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I16_MIN = -(1 << 15)
I16_MAX = (1 << 15) - 1
I32_MIN = -(1 << 31)
I32_MAX = (1 << 31) - 1
MAX_FRAC = 15  # fractional bits a 16-bit signed value can hold


@dataclass(frozen=True)
class QFormat:
    """Binary point position for a 16-bit signed value."""

    frac_bits: int

    def __post_init__(self):
        if not 0 <= self.frac_bits <= MAX_FRAC:
            raise ValueError(f"frac_bits must be in [0, {MAX_FRAC}], got {self.frac_bits}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits


def requantize_array(acc: np.ndarray, in_frac: int, out_q: QFormat) -> np.ndarray:
    """Renormalize int64 accumulators to 16-bit values in ``out_q``.

    Arithmetic shift by ``in_frac - out_q.frac_bits``; right shifts round
    to nearest even, left shifts are exact; the result saturates to 16 bits.
    A right shift by s rounds in one int64 buffer: adding 2**(s-1) - 1 and
    the floor quotient's low bit carries into the quotient exactly when the
    remainder is above half, or is half and the quotient odd.  The sum must
    fit in int64, which holds for the 32-bit accumulators both callers clamp.
    """
    acc = np.asarray(acc, dtype=np.int64)
    shift = in_frac - out_q.frac_bits
    if shift > 0:
        v = acc >> shift
        v &= 1
        v += acc
        v += (1 << (shift - 1)) - 1
        v >>= shift
    elif shift < 0:
        v = acc << (-shift)
    else:
        v = acc
    out = np.empty(v.shape, dtype=np.int16)
    return np.clip(v, I16_MIN, I16_MAX, out=out, casting="unsafe")
