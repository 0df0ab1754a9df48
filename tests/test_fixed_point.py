"""Unit and property-based tests for repro.quant.fixed_point."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import FixedPointFormat
from repro.quant.fixed_point import round_to_code


class TestFormatProperties:
    def test_default_format(self):
        fmt = FixedPointFormat()
        assert fmt.total_bits == 16
        assert fmt.frac_bits == 12
        assert fmt.scale == 2.0**-12

    def test_ranges(self):
        fmt = FixedPointFormat(8, 4)
        assert fmt.min_code == -128
        assert fmt.max_code == 127
        assert fmt.min_value == -8.0
        assert fmt.max_value == pytest.approx(127 / 16)

    def test_word_mask(self):
        assert FixedPointFormat(8, 4).word_mask == 0xFF
        assert FixedPointFormat(16, 12).word_mask == 0xFFFF

    @pytest.mark.parametrize("total,frac", [(1, 0), (65, 10), (8, 8), (8, -1)])
    def test_invalid_parameters(self, total, frac):
        with pytest.raises(ValueError):
            FixedPointFormat(total, frac)

    def test_describe(self):
        assert FixedPointFormat(16, 12).describe() == "Q3.12 (16-bit)"

    def test_for_range_picks_max_resolution(self):
        fmt = FixedPointFormat.for_range(3.5, total_bits=16)
        assert fmt.frac_bits == 13
        assert fmt.max_value >= 3.5
        fmt = FixedPointFormat.for_range(0.9, total_bits=16)
        assert fmt.frac_bits == 15

    def test_for_range_invalid(self):
        with pytest.raises(ValueError):
            FixedPointFormat.for_range(0.0)


class TestQuantization:
    def test_exact_grid_values_are_preserved(self):
        fmt = FixedPointFormat(16, 8)
        values = np.array([0.0, 1.0, -1.0, 0.5, 127.99609375])
        np.testing.assert_allclose(fmt.quantize(values), values)

    def test_rounding_to_nearest(self):
        fmt = FixedPointFormat(16, 2)  # LSB = 0.25
        np.testing.assert_allclose(fmt.quantize(np.array([0.1, 0.13, 0.3])), [0.0, 0.25, 0.25])

    def test_saturation(self):
        fmt = FixedPointFormat(8, 4)
        np.testing.assert_allclose(
            fmt.quantize(np.array([100.0, -100.0])), [fmt.max_value, fmt.min_value]
        )

    def test_quantization_error_bound(self):
        fmt = FixedPointFormat(16, 10)
        values = np.linspace(-10, 10, 1001)
        in_range = values[(values > fmt.min_value) & (values < fmt.max_value)]
        errors = fmt.quantization_error(in_range)
        assert np.all(np.abs(errors) <= fmt.scale / 2 + 1e-12)

    def test_quantize_to_code_type_and_range(self):
        fmt = FixedPointFormat(12, 6)
        codes = fmt.quantize_to_code(np.array([0.5, -0.5, 1000.0]))
        assert codes.dtype == np.int64
        assert codes.max() <= fmt.max_code and codes.min() >= fmt.min_code

    @pytest.mark.parametrize(
        "make", [float, np.float64, np.array], ids=["float", "numpy-scalar", "0-d-array"]
    )
    @pytest.mark.parametrize(
        "total, frac, value, code, quantized",
        [
            (16, 12, 0.3, 1229, 0.300048828125),
            (16, 12, -0.0, 0, 0.0),
            (16, 12, 7.99999, 32767, 7.999755859375),
            (16, 12, -8.5, -32768, -8.0),
            (16, 12, np.inf, 32767, 7.999755859375),
            (64, 3, 1e30, 2**63 - 1, 2.0**60),
            (64, 3, -1e30, -(2**63), -(2.0**60)),
        ],
    )
    def test_scalar_inputs(self, make, total, frac, value, code, quantized):
        """A scalar quantizes to a 0-d int64 code array and a float64 scalar."""
        fmt = FixedPointFormat(total, frac)
        codes = fmt.quantize_to_code(make(value))
        assert type(codes) is np.ndarray and codes.shape == () and codes.dtype == np.int64
        assert int(codes) == code
        result = fmt.quantize(make(value))
        assert type(result) is np.float64
        assert result == quantized and np.signbit(result) == np.signbit(quantized)

    def test_nan_is_rejected_before_the_int64_cast(self):
        # the cast gives INT64_MIN on x86 and 0 on AArch64; neither may escape
        with pytest.raises(ValueError, match="out of range"):
            round_to_code(np.array([np.nan]), -8, 7)
        with pytest.raises(ValueError, match="out of range"):
            round_to_code(np.array([1.0, np.inf, np.nan]), -(2**63), 2**63 - 1)
        with pytest.raises(ValueError, match="out of range"):
            FixedPointFormat(16, 12).quantize_to_code(np.nan)


class TestBitPacking:
    def test_word_roundtrip_signed(self):
        fmt = FixedPointFormat(16, 12)
        codes = np.array([-1, 0, 1, fmt.min_code, fmt.max_code])
        np.testing.assert_array_equal(fmt.word_to_code(fmt.code_to_word(codes)), codes)

    def test_negative_one_is_all_ones(self):
        fmt = FixedPointFormat(8, 0)
        assert fmt.code_to_word(np.array([-1]))[0] == 0xFF

    def test_out_of_range_code_raises(self):
        fmt = FixedPointFormat(8, 0)
        with pytest.raises(ValueError):
            fmt.code_to_word(np.array([200]))

    def test_bits_roundtrip(self):
        fmt = FixedPointFormat(16, 12)
        words = np.array([0x0000, 0xFFFF, 0x8001, 0x1234], dtype=np.uint64)
        bits = fmt.word_to_bits(words)
        assert bits.shape == (4, 16)
        np.testing.assert_array_equal(fmt.bits_to_word(bits), words)

    def test_bit_order_lsb_first(self):
        fmt = FixedPointFormat(8, 0)
        bits = fmt.word_to_bits(np.array([0b00000010], dtype=np.uint64))
        assert bits[0, 1] == 1
        assert bits[0, 0] == 0

    def test_bits_to_word_wrong_width(self):
        fmt = FixedPointFormat(8, 0)
        with pytest.raises(ValueError):
            fmt.bits_to_word(np.zeros((2, 7), dtype=np.uint64))

    def test_float_word_roundtrip(self):
        fmt = FixedPointFormat(16, 13)
        values = np.array([0.125, -2.5, 3.99987793])
        decoded = fmt.word_to_float(fmt.float_to_word(values))
        np.testing.assert_allclose(decoded, values, atol=fmt.scale / 2)


class TestWideFormats:
    """Regression tests for formats wider than float64's 53-bit mantissa.

    Clipping in the float domain silently corrupted codes at 64 bits:
    ``float(max_code)`` rounds up to ``2**63``, and casting that back to
    int64 overflows to the *minimum* code.
    """

    def test_64bit_saturation_is_exact(self):
        fmt = FixedPointFormat(total_bits=64, frac_bits=0)
        codes = fmt.quantize_to_code(np.array([1e30, -1e30]))
        assert codes.dtype == np.int64
        assert codes[0] == fmt.max_code == 2**63 - 1
        assert codes[1] == fmt.min_code == -(2**63)

    def test_64bit_in_range_values_unclipped(self):
        fmt = FixedPointFormat(total_bits=64, frac_bits=0)
        # the largest float64 below 2**63 is exactly representable in int64
        below = float(np.nextafter(2.0**63, 0.0))
        codes = fmt.quantize_to_code(np.array([below, -below, 12345.0]))
        assert codes[0] == int(below)
        assert codes[1] == -int(below)
        assert codes[2] == 12345

    def test_64bit_word_roundtrip(self):
        fmt = FixedPointFormat(total_bits=64, frac_bits=0)
        codes = np.array([fmt.min_code, -1, 0, 1, fmt.max_code], dtype=np.int64)
        words = fmt.code_to_word(codes)
        assert words.dtype == np.uint64
        assert int(words[0]) == 2**63
        assert int(words[1]) == 2**64 - 1
        np.testing.assert_array_equal(fmt.word_to_code(words), codes)

    def test_64bit_bit_packing_roundtrip(self):
        fmt = FixedPointFormat(total_bits=64, frac_bits=0)
        words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        bits = fmt.word_to_bits(words)
        assert bits.shape == (4, 64)
        np.testing.assert_array_equal(fmt.bits_to_word(bits), words)

    @pytest.mark.parametrize("total_bits", [54, 60, 63, 64])
    def test_wide_saturation_never_wraps(self, total_bits):
        fmt = FixedPointFormat(total_bits=total_bits, frac_bits=0)
        huge = np.array([1e300, -1e300, float(2**total_bits)])
        codes = fmt.quantize_to_code(huge)
        assert codes[0] == fmt.max_code
        assert codes[1] == fmt.min_code
        assert codes[2] == fmt.max_code

    def test_narrow_formats_unchanged(self):
        fmt = FixedPointFormat(16, 12)
        values = np.array([-10.0, -1.0, -0.25, 0.0, 0.25, 1.0, 10.0])
        codes = fmt.quantize_to_code(values)
        expected = np.clip(
            np.sign(values / fmt.scale) * np.floor(np.abs(values / fmt.scale) + 0.5),
            fmt.min_code,
            fmt.max_code,
        ).astype(np.int64)
        np.testing.assert_array_equal(codes, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        total_bits=st.integers(2, 64),
        values=st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.integers(-(2**64), 2**64).map(float),
                st.integers(-(2**53), 2**53).map(lambda k: k + 0.5),
            ),
            min_size=1,
            max_size=16,
        ),
    )
    def test_round_to_code_matches_integer_reference(self, total_bits, values):
        """Round ``floor(|x| + 0.5)`` in float, then saturate on Python ints."""
        min_code, max_code = -(2 ** (total_bits - 1)), 2 ** (total_bits - 1) - 1

        def reference(x: float) -> int:
            if np.isinf(x):
                return max_code if x > 0 else min_code
            magnitude = int(np.floor(abs(x) + 0.5))
            return min(max(-magnitude if x < 0 else magnitude, min_code), max_code)

        codes = round_to_code(np.array(values), min_code, max_code)
        assert codes.dtype == np.int64
        assert codes.tolist() == [reference(x) for x in values]


class TestHypothesisProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(4, 24),
        values=st.lists(st.floats(-1000, 1000), min_size=1, max_size=32),
    )
    def test_quantize_is_idempotent(self, total, values):
        fmt = FixedPointFormat(total, total // 2)
        once = fmt.quantize(np.array(values))
        twice = fmt.quantize(once)
        np.testing.assert_allclose(once, twice)

    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(4, 24),
        frac_fraction=st.floats(0.0, 0.99),
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=32),
    )
    def test_word_roundtrip_preserves_quantized_value(self, total, frac_fraction, values):
        frac = int(frac_fraction * total)
        fmt = FixedPointFormat(total, frac)
        arr = np.array(values)
        quantized = fmt.quantize(arr)
        roundtrip = fmt.word_to_float(fmt.float_to_word(arr))
        np.testing.assert_allclose(roundtrip, quantized)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-8, 8), min_size=1, max_size=64))
    def test_quantization_error_below_one_lsb(self, values):
        fmt = FixedPointFormat(16, 12)
        arr = np.clip(np.array(values), fmt.min_value, fmt.max_value)
        errors = np.abs(arr - fmt.quantize(arr))
        assert np.all(errors <= fmt.scale)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_word_code_word_identity(self, word):
        fmt = FixedPointFormat(16, 12)
        words = np.array([word], dtype=np.uint64)
        assert fmt.code_to_word(fmt.word_to_code(words))[0] == word

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1000, 1000), min_size=1, max_size=16))
    def test_quantize_is_monotone(self, values):
        fmt = FixedPointFormat(12, 6)
        arr = np.sort(np.array(values))
        quantized = fmt.quantize(arr)
        assert np.all(np.diff(quantized) >= -1e-12)
