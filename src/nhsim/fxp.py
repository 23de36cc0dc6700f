"""16-bit fixed-point arithmetic with 32-bit accumulation.

All values are plain integers (or numpy integer arrays) holding the raw
two's-complement bit pattern; the position of the binary point is carried
separately as a :class:`QFormat`.  A raw value ``r`` with ``frac_bits=f``
represents the real number ``r / 2**f``.

Rounding is round-to-nearest-even everywhere, and arithmetic saturates
instead of wrapping.  The product of two 16-bit values accumulates into a
32-bit register whose fractional length is the sum of the operand
fractional lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

I16_MIN = -(1 << 15)
I16_MAX = (1 << 15) - 1
I32_MIN = -(1 << 31)
I32_MAX = (1 << 31) - 1


@dataclass(frozen=True)
class QFormat:
    """Binary point position for a 16-bit signed value."""

    frac_bits: int

    def __post_init__(self):
        if not 0 <= self.frac_bits <= 15:
            raise ValueError(f"frac_bits must be in [0, 15], got {self.frac_bits}")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits


def saturate16(raw: int) -> int:
    return I16_MIN if raw < I16_MIN else I16_MAX if raw > I16_MAX else raw


def saturate32(raw: int) -> int:
    return I32_MIN if raw < I32_MIN else I32_MAX if raw > I32_MAX else raw


def quantize(x: float, q: QFormat) -> int:
    """Quantize a real number to a raw 16-bit value under ``q``.

    Round-to-nearest-even, saturating.  Non-finite input is rejected as
    invalid source data.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    scaled = x * q.scale
    # round() is round-half-to-even on floats
    return saturate16(round(scaled))


def quantize_array(x: np.ndarray, q: QFormat) -> np.ndarray:
    """Vectorized :func:`quantize`; returns an int16 array."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    scaled = np.rint(x * q.scale)  # np.rint rounds half to even
    return np.clip(scaled, I16_MIN, I16_MAX).astype(np.int16)


def mac(acc: int, a: int, b: int) -> int:
    """One multiply-accumulate step: ``acc + a*b`` saturated to 32 bits.

    The result's fractional length is ``a.frac + b.frac``; operands must
    already share the accumulator's format, which is the caller's job.
    """
    return saturate32(acc + a * b)


def _rshift_round_even(v: int, s: int) -> int:
    # v = (v >> s) * 2**s + (v & mask) with a non-negative remainder, so the
    # same tie-to-even test works for negative values.
    half = 1 << (s - 1)
    r = v & ((1 << s) - 1)
    q = v >> s
    if r > half or (r == half and (q & 1)):
        q += 1
    return q


def requantize(acc: int, in_frac: int, out_q: QFormat) -> int:
    """Renormalize a 32-bit accumulator to a 16-bit value in ``out_q``.

    Arithmetic shift by ``in_frac - out_q.frac_bits``; right shifts round
    to nearest even, left shifts are exact; the result saturates to 16 bits.
    """
    shift = in_frac - out_q.frac_bits
    if shift > 0:
        v = _rshift_round_even(acc, shift)
    elif shift < 0:
        v = acc << (-shift)
    else:
        v = acc
    return saturate16(v)


def requantize_array(acc: np.ndarray, in_frac: int, out_q: QFormat) -> np.ndarray:
    """Vectorized :func:`requantize` for int64 accumulator arrays."""
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


def relu16(x: int) -> int:
    """max(0, x) on a raw 16-bit value; format unchanged."""
    return x if x > 0 else 0
