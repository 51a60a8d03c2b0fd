"""Unit and property tests for the fixed-point arithmetic substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.fixedpoint import (
    QFormat,
    calibrate_format,
    dequantize,
    fixed_add,
    fixed_mul,
    fixed_point_error,
    quantize,
    quantize_to_ints,
    requantize,
)
from repro.fixedpoint.calibrate import (
    calibrate_network_formats,
    integer_bits_for,
    merge_formats,
)
from repro.fixedpoint.format import DEFAULT_DATA_FORMAT, DEFAULT_WEIGHT_FORMAT
from repro.fixedpoint.ops import check_exact, fixed_dot, float_gemm_exact


class TestQFormat:
    def test_total_bits_counts_sign(self):
        assert QFormat(7, 8).total_bits == 16

    def test_scale(self):
        assert QFormat(7, 8).scale == pytest.approx(1 / 256)

    def test_range_q7_8(self):
        fmt = QFormat(7, 8)
        assert fmt.max_int == 32767
        assert fmt.min_int == -32768
        assert fmt.max_value == pytest.approx(127.99609375)
        assert fmt.min_value == pytest.approx(-128.0)

    def test_rejects_negative_fields(self):
        with pytest.raises(QuantizationError):
            QFormat(-1, 8)

    def test_rejects_too_narrow(self):
        with pytest.raises(QuantizationError):
            QFormat(0, 0)

    def test_rejects_too_wide(self):
        with pytest.raises(QuantizationError):
            QFormat(40, 40)

    def test_representable(self):
        fmt = QFormat(3, 4)
        assert fmt.representable(7.9375)
        assert not fmt.representable(8.0)
        assert fmt.representable(-8.0)
        assert not fmt.representable(-8.1)

    def test_widen(self):
        fmt = QFormat(3, 4).widen(extra_integer=2, extra_fraction=1)
        assert fmt == QFormat(5, 5)

    def test_accumulator_growth(self):
        data = QFormat(3, 4)
        weight = QFormat(1, 6)
        acc = data.accumulator_for(terms=16, weight_format=weight)
        assert acc.fraction_bits == 10
        assert acc.integer_bits >= 3 + 1 + 4  # log2(16) growth

    def test_accumulator_rejects_zero_terms(self):
        with pytest.raises(QuantizationError):
            QFormat(3, 4).accumulator_for(0, QFormat(3, 4))

    def test_str(self):
        assert str(QFormat(7, 8)) == "Q7.8"

    def test_defaults_are_16_bit(self):
        assert DEFAULT_DATA_FORMAT.total_bits == 16
        assert DEFAULT_WEIGHT_FORMAT.total_bits == 16

    @pytest.mark.parametrize("total_bits, dtype", [
        (2, np.int8), (8, np.int8), (9, np.int16), (16, np.int16),
        (17, np.int32), (32, np.int32), (33, np.int64), (64, np.int64),
    ])
    def test_storage_dtype_is_the_narrowest_that_holds_the_format(
            self, total_bits, dtype):
        fmt = QFormat(total_bits - 1, 0)
        assert fmt.storage_dtype is dtype
        info = np.iinfo(fmt.storage_dtype)
        assert info.min <= fmt.min_int and fmt.max_int <= info.max

    def test_default_weight_storage_is_int16(self):
        assert DEFAULT_WEIGHT_FORMAT.storage_dtype is np.int16


class TestQuantize:
    def test_exact_values_roundtrip(self):
        fmt = QFormat(3, 4)
        values = np.array([0.0, 0.25, -1.5, 3.0625])
        assert np.array_equal(quantize(values, fmt), values)

    def test_saturation_high(self):
        fmt = QFormat(3, 4)
        assert quantize(np.array([100.0]), fmt)[0] == fmt.max_value

    def test_saturation_low(self):
        fmt = QFormat(3, 4)
        assert quantize(np.array([-100.0]), fmt)[0] == fmt.min_value

    def test_rounding_to_nearest(self):
        fmt = QFormat(3, 2)  # resolution 0.25
        assert quantize(np.array([0.13]), fmt)[0] == pytest.approx(0.25)
        assert quantize(np.array([0.12]), fmt)[0] == pytest.approx(0.0)

    def test_quantize_to_ints_dtype(self):
        raw = quantize_to_ints(np.array([1.0]), QFormat(3, 4))
        assert raw.dtype == np.int64
        assert raw[0] == 16

    def test_dequantize_inverts_ints(self):
        fmt = QFormat(3, 4)
        raw = np.array([16, -8, 0])
        assert np.allclose(dequantize(raw, fmt), [1.0, -0.5, 0.0])

    def test_error_bounded_by_half_lsb(self):
        fmt = QFormat(3, 8)
        values = np.linspace(-7, 7, 1001)
        assert fixed_point_error(values, fmt) <= fmt.scale / 2 + 1e-12

    def test_error_empty_array(self):
        assert fixed_point_error(np.array([]), QFormat(3, 4)) == 0.0


class TestRequantize:
    def test_narrowing_rounds(self):
        src, dst = QFormat(3, 8), QFormat(3, 4)
        # 0.09375 in Q3.8 is raw 24 -> in Q3.4 rounds to raw 2 (0.125)
        assert requantize(np.array([24]), src, dst)[0] == 2

    def test_widening_shifts(self):
        src, dst = QFormat(3, 4), QFormat(3, 8)
        assert requantize(np.array([3]), src, dst)[0] == 48

    def test_same_format_identity(self):
        fmt = QFormat(3, 4)
        raw = np.array([5, -7])
        assert np.array_equal(requantize(raw, fmt, fmt), raw)

    def test_narrowing_saturates(self):
        src, dst = QFormat(10, 4), QFormat(3, 4)
        assert requantize(np.array([src.max_int]), src, dst)[0] == dst.max_int


class TestArithmetic:
    def test_fixed_mul_exact(self):
        a_fmt = b_fmt = QFormat(3, 4)
        a = quantize_to_ints(np.array([1.5]), a_fmt)
        b = quantize_to_ints(np.array([2.25]), b_fmt)
        product, out_fmt = fixed_mul(a, a_fmt, b, b_fmt)
        assert dequantize(product, out_fmt)[0] == pytest.approx(3.375)

    def test_fixed_add_saturates(self):
        fmt = QFormat(3, 4)
        result = fixed_add(np.array([fmt.max_int]), np.array([10]), fmt)
        assert result[0] == fmt.max_int

    def test_fixed_dot_matches_float(self):
        data_fmt = QFormat(3, 8)
        weight_fmt = QFormat(1, 10)
        out_fmt = QFormat(7, 8)
        rng = np.random.default_rng(1)
        data = rng.uniform(-2, 2, (4, 8))
        weight = rng.uniform(-0.9, 0.9, (8, 3))
        data_q = quantize(data, data_fmt)
        weight_q = quantize(weight, weight_fmt)
        expected = data_q @ weight_q
        raw = fixed_dot(
            quantize_to_ints(data, data_fmt), data_fmt,
            quantize_to_ints(weight, weight_fmt), weight_fmt,
            out_fmt,
        )
        assert np.allclose(dequantize(raw, out_fmt), expected, atol=out_fmt.scale)

    def test_check_exact_accepts(self):
        check_exact(0.5, QFormat(3, 4))

    def test_check_exact_rejects(self):
        with pytest.raises(QuantizationError):
            check_exact(0.3, QFormat(3, 4))


class TestFloatGemmBound:
    """The 2^53 bound at its edge, on the worst-case operands."""

    #: 24-bit words: |min_int| = 2^23, so one product reaches 2^46 and
    #: the bound admits at most 127 terms.
    FMT = QFormat(7, 16)

    def largest_admitted(self):
        k = 1
        while float_gemm_exact(k + 1, self.FMT, self.FMT):
            k += 1
        return k

    def test_largest_admitted_length_is_exact(self):
        k = self.largest_admitted()
        assert k == 127
        assert not float_gemm_exact(k + 1, self.FMT, self.FMT)
        # Every operand at min_int: every product and partial sum is as
        # large as the bound allows.
        data = np.full((3, k), self.FMT.min_int, dtype=np.int64)
        weight = np.full((k, 2), self.FMT.min_int, dtype=np.int64)
        exact = data @ weight
        assert exact[0, 0] == k << 46
        floated = data.astype(np.float64) @ weight.astype(np.float64)
        np.testing.assert_array_equal(floated.astype(np.int64), exact)

    def test_float_sum_rounds_past_the_bound(self):
        """Two terms past the bound, the sum 2^53 + 1 has no float64."""
        k = self.largest_admitted() + 2
        data = np.full(k, self.FMT.min_int, dtype=np.int64)
        weight = np.full(k, self.FMT.min_int, dtype=np.int64)
        data[-1] = weight[-1] = 1
        assert data @ weight == (1 << 53) + 1
        floated = data.astype(np.float64) @ weight.astype(np.float64)
        assert int(floated) != (1 << 53) + 1

    @pytest.mark.parametrize("fmt", [QFormat(3, 12), QFormat(5, 10)])
    def test_sixteen_bit_formats_admit_large_reductions(self, fmt):
        # 2^15 * 2^15 = 2^30 per product: up to 2^23 - 1 terms.
        assert float_gemm_exact((1 << 23) - 1, fmt, QFormat(3, 12))
        assert not float_gemm_exact(1 << 23, fmt, QFormat(3, 12))

    def test_q15_16_admits_nothing(self):
        wide = QFormat(15, 16)
        assert not float_gemm_exact(1, wide, wide)


class TestCalibrate:
    def test_integer_bits_for(self):
        assert integer_bits_for(0.0) == 0
        assert integer_bits_for(0.9) == 0
        assert integer_bits_for(1.0) == 1
        assert integer_bits_for(127.5) == 7
        assert integer_bits_for(128.0) == 8

    def test_calibrated_format_covers_samples(self):
        samples = np.array([-3.7, 2.1, 0.5])
        fmt = calibrate_format(samples, total_bits=16)
        assert fmt.representable(samples.max())
        assert fmt.representable(samples.min())
        assert fmt.total_bits == 16

    def test_calibrate_rejects_empty(self):
        with pytest.raises(QuantizationError):
            calibrate_format(np.array([]))

    def test_calibrate_rejects_nan(self):
        with pytest.raises(QuantizationError):
            calibrate_format(np.array([1.0, np.nan]))

    def test_calibrate_rejects_huge_range_in_narrow_word(self):
        with pytest.raises(QuantizationError):
            calibrate_format(np.array([1e9]), total_bits=8)

    def test_calibrate_network_formats(self):
        formats = calibrate_network_formats(
            {"a": np.array([0.5]), "b": np.array([100.0])}, total_bits=16
        )
        assert formats["a"].fraction_bits > formats["b"].fraction_bits

    def test_merge_formats(self):
        merged = merge_formats([QFormat(3, 12), QFormat(7, 8)])
        assert merged.integer_bits == 7
        assert merged.total_bits == 16

    def test_merge_rejects_empty(self):
        with pytest.raises(QuantizationError):
            merge_formats([])


@st.composite
def qformats(draw):
    integer = draw(st.integers(min_value=0, max_value=15))
    fraction = draw(st.integers(min_value=max(0, 1 - integer), max_value=16))
    return QFormat(integer, fraction)


class TestProperties:
    @given(qformats(), st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=32))
    @settings(max_examples=200)
    def test_quantize_idempotent(self, fmt, values):
        arr = np.array(values)
        once = quantize(arr, fmt)
        assert np.array_equal(quantize(once, fmt), once)

    @given(qformats(), st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=32))
    @settings(max_examples=200)
    def test_quantized_values_in_range(self, fmt, values):
        out = quantize(np.array(values), fmt)
        assert np.all(out <= fmt.max_value)
        assert np.all(out >= fmt.min_value)

    @given(qformats(), st.lists(st.floats(-100, 100), min_size=1, max_size=32))
    @settings(max_examples=200)
    def test_error_at_most_half_lsb_inside_range(self, fmt, values):
        arr = np.array(values)
        inside = arr[(arr >= fmt.min_value) & (arr <= fmt.max_value)]
        if inside.size:
            assert fixed_point_error(inside, fmt) <= fmt.scale / 2 + 1e-9

    @given(qformats(), st.integers(-1000, 1000))
    @settings(max_examples=200)
    def test_requantize_roundtrip_widening(self, fmt, raw):
        raw_arr = np.array([max(fmt.min_int, min(fmt.max_int, raw))])
        wide = fmt.widen(extra_integer=2, extra_fraction=3)
        there = requantize(raw_arr, fmt, wide)
        back = requantize(there, wide, fmt)
        assert np.array_equal(back, raw_arr)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=64),
           st.integers(8, 24))
    @settings(max_examples=100)
    def test_calibrated_format_never_saturates_samples(self, values, bits):
        arr = np.array(values)
        fmt = calibrate_format(arr, total_bits=bits, headroom=1.0)
        assert np.all(np.abs(quantize(arr, fmt) - arr) <= fmt.scale / 2 + 1e-9)
