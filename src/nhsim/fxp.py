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
    """
    acc = np.asarray(acc, dtype=np.int64)
    shift = in_frac - out_q.frac_bits
    if shift > 0:
        half = np.int64(1) << (shift - 1)
        mask = (np.int64(1) << shift) - 1
        q = acc >> shift
        r = acc & mask
        q = q + ((r > half) | ((r == half) & ((q & 1) == 1)))
        v = q
    elif shift < 0:
        v = acc << (-shift)
    else:
        v = acc
    return np.clip(v, I16_MIN, I16_MAX).astype(np.int16)

