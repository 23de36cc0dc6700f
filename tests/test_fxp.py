import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    quantize,
    quantize_array,
    relu16,
    requantize,
    saturate16,
    saturate32,
)
from nhsim import fxp, netmodel
from nhsim.fxp import (
    I16_MAX,
    I16_MIN,
    I32_MAX,
    I32_MIN,
    MAX_FRAC,
    QFormat,
    requantize_array,
)


class TestQuantize:
    def test_zero(self):
        assert quantize(0.0, QFormat(8)) == 0

    def test_one_at_frac8(self):
        assert quantize(1.0, QFormat(8)) == 256

    def test_saturates_high(self):
        # 200 * 2^8 = 51200 exceeds the i16 maximum
        assert quantize(200.0, QFormat(8)) == I16_MAX

    def test_saturates_low(self):
        assert quantize(-200.0, QFormat(8)) == I16_MIN

    def test_rounds_half_to_even(self):
        assert quantize(2.5, QFormat(0)) == 2
        assert quantize(3.5, QFormat(0)) == 4
        assert quantize(-2.5, QFormat(0)) == -2

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                quantize(bad, QFormat(8))

    def test_qformat_range(self):
        QFormat(0)
        QFormat(15)
        with pytest.raises(ValueError):
            QFormat(16)
        with pytest.raises(ValueError):
            QFormat(-1)

    def test_one_fraction_range(self):
        # QFormat, the descriptor checks and the file header checks share it
        QFormat(MAX_FRAC)
        with pytest.raises(ValueError, match=rf"\[0, {MAX_FRAC}\]"):
            QFormat(MAX_FRAC + 1)
        assert netmodel.MAX_FRAC is fxp.MAX_FRAC

    @settings(max_examples=200)
    @given(
        st.floats(min_value=-1000, max_value=1000),
        st.floats(min_value=-1000, max_value=1000),
        st.integers(min_value=0, max_value=15),
    )
    def test_monotone(self, a, b, frac):
        lo, hi = sorted((a, b))
        q = QFormat(frac)
        assert quantize(lo, q) <= quantize(hi, q)

    @given(
        st.lists(st.floats(min_value=-500, max_value=500), min_size=1, max_size=32),
        st.integers(min_value=0, max_value=15),
    )
    def test_array_matches_scalar(self, xs, frac):
        q = QFormat(frac)
        arr = quantize_array(np.array(xs), q)
        assert arr.tolist() == [quantize(x, q) for x in xs]


class TestRequantize:
    def test_zero(self):
        assert requantize(0, 16, QFormat(8)) == 0

    def test_identity_shift(self):
        assert requantize(256, 8, QFormat(8)) == 256

    def test_exact_halving(self):
        assert requantize(384, 9, QFormat(8)) == 192

    def test_round_to_even_on_ties(self):
        assert requantize(1, 1, QFormat(0)) == 0  # 0.5 -> 0
        assert requantize(3, 1, QFormat(0)) == 2  # 1.5 -> 2
        assert requantize(5, 1, QFormat(0)) == 2  # 2.5 -> 2
        assert requantize(-1, 1, QFormat(0)) == 0  # -0.5 -> 0
        assert requantize(-3, 1, QFormat(0)) == -2  # -1.5 -> -2

    def test_left_shift_saturates(self):
        assert requantize(300, 8, QFormat(15)) == I16_MAX
        assert requantize(-300, 8, QFormat(15)) == I16_MIN

    @settings(max_examples=200)
    @given(
        st.integers(min_value=I16_MIN, max_value=I16_MAX),
        st.integers(min_value=0, max_value=15),
    )
    def test_idempotent_matching_formats(self, v, f):
        q = QFormat(f)
        once = requantize(v, f, q)
        assert requantize(once, f, q) == once

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=1, max_size=16),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=15),
    )
    def test_array_matches_scalar(self, accs, in_frac, out_f):
        q = QFormat(out_f)
        arr = requantize_array(np.array(accs, dtype=np.int64), in_frac, q)
        assert arr.tolist() == [requantize(a, in_frac, q) for a in accs]

    @pytest.mark.parametrize("shift", range(-15, 31))
    def test_array_matches_scalar_grid(self, shift):
        # the int32 ends, zero, +-1, and for right shifts the ties
        # +-(2j+1) * 2**(s-1) and their neighbours, up to the largest in range
        accs = [I32_MIN, I32_MAX, 0, 1, -1]
        if shift > 0:
            top = ((I32_MAX >> (shift - 1)) - 1) // 2  # the largest j in range
            for j in (*range(4), *range(max(0, top - 3), top + 1)):
                tie = (2 * j + 1) << (shift - 1)
                accs += [a for a in (tie - 1, tie, tie + 1) for a in (a, -a)]
        accs = np.array([a for a in accs if I32_MIN <= a <= I32_MAX], dtype=np.int64)
        for out_f in {max(0, -shift), MAX_FRAC}:
            q = QFormat(out_f)
            arr = requantize_array(accs, shift + out_f, q)
            assert arr.dtype == np.int16
            assert arr.tolist() == [requantize(int(a), shift + out_f, q) for a in accs]


class TestRelu:
    def test_examples(self):
        assert relu16(-5) == 0
        assert relu16(0) == 0
        assert relu16(123) == 123

    @given(st.integers(min_value=I16_MIN, max_value=I16_MAX))
    def test_never_negative(self, v):
        assert relu16(v) >= 0


def test_saturate_bounds():
    assert saturate16(I16_MAX + 1) == I16_MAX
    assert saturate16(I16_MIN - 1) == I16_MIN
    assert saturate32(I32_MAX + 1) == I32_MAX
    assert saturate32(I32_MIN - 1) == I32_MIN
