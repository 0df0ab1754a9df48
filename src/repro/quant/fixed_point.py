"""Fixed-point number formats.

SNNAC's processing elements operate on 8–22 bit fixed-point operands and the
weight SRAMs store weights as two's-complement words.  The
:class:`FixedPointFormat` describes one such word layout and provides
vectorized conversion between float values, integer codes, and raw bit
patterns (the representation the SRAM fault masks operate on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPointFormat", "round_to_code"]


def round_to_code(scaled: np.ndarray, min_code: int, max_code: int) -> np.ndarray:
    """Round LSB-unit values half away from zero and saturate to ``int64`` codes.

    ``scaled`` is ``values / scale``.  The clip happens before the ``int64``
    cast, against bounds the cast can take: float64 cannot represent every
    code of formats wider than 53 bits, and ``float(max_code)`` rounds up to
    ``2**(total_bits-1)``, which is out of range (and overflows ``int64`` at
    64 bits).  A NaN input has no code: it raises ``ValueError`` before the
    cast, whose result for NaN depends on the CPU.
    """
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    ceiling = float(max_code)
    if ceiling > max_code:
        # clip to the float just below, then saturate what reached the top
        ceiling = float(np.nextafter(ceiling, 0.0))
    clipped = np.minimum(np.maximum(rounded, float(min_code)), ceiling)
    # clipped values are finite, so their sum is NaN exactly when one is NaN
    if np.isnan(np.add.reduce(clipped, axis=None)):
        raise ValueError("code out of range for this format: the value is NaN")
    codes = np.asarray(clipped.astype(np.int64))
    if ceiling < max_code:
        codes = np.where(rounded >= float(max_code), max_code, codes)
    return codes


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement fixed-point format.

    Parameters
    ----------
    total_bits:
        Word length in bits (the SRAM word length), including the sign bit.
        SNNAC supports 8–22 bit operands; 16 is the default used by the
        reproduction's benchmark models.
    frac_bits:
        Number of fractional bits.  The representable range is
        ``[-2**(total_bits-1-frac_bits), 2**(total_bits-1-frac_bits) - lsb]``
        with ``lsb = 2**-frac_bits``.
    """

    total_bits: int = 16
    frac_bits: int = 12

    def __post_init__(self) -> None:
        if not 2 <= self.total_bits <= 64:
            raise ValueError("total_bits must be in [2, 64]")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError("frac_bits must be in [0, total_bits)")

    # ------------------------------------------------------------ ranges

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.frac_bits)

    @property
    def min_code(self) -> int:
        """Most negative integer code."""
        return -(1 << (self.total_bits - 1))

    @property
    def max_code(self) -> int:
        """Most positive integer code."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        """Most negative representable value."""
        return self.min_code * self.scale

    @property
    def max_value(self) -> float:
        """Most positive representable value."""
        return self.max_code * self.scale

    @property
    def word_mask(self) -> int:
        """Bit mask covering the full word (``total_bits`` ones)."""
        return (1 << self.total_bits) - 1

    # -------------------------------------------------------- conversions

    def quantize_to_code(self, values: np.ndarray) -> np.ndarray:
        """Quantize float values to integer codes with saturation.

        Rounding is round-half-away-from-zero to match typical hardware
        quantizers; results are ``int64`` (see :func:`round_to_code`).
        """
        values = np.asarray(values, dtype=float)
        return round_to_code(values / self.scale, self.min_code, self.max_code)

    def dequantize_code(self, codes: np.ndarray) -> np.ndarray:
        """Convert integer codes back to float values."""
        return np.asarray(codes, dtype=np.int64).astype(float) * self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize float values onto the representable grid (returns floats)."""
        return self.dequantize_code(self.quantize_to_code(values))

    def quantization_error(self, values: np.ndarray) -> np.ndarray:
        """Fractional quantization error ``values − Q(values)``.

        This is the ``ε_q`` term of the paper's memory-adaptive weight-update
        rule: preserving it across iterations lets small gradient updates
        accumulate instead of being rounded away.
        """
        values = np.asarray(values, dtype=float)
        return values - self.quantize(values)

    # --------------------------------------------------------- bit packing

    def code_to_word(self, codes: np.ndarray) -> np.ndarray:
        """Convert signed integer codes to unsigned two's-complement words."""
        codes = np.asarray(codes, dtype=np.int64)
        if np.any(codes < self.min_code) or np.any(codes > self.max_code):
            raise ValueError("code out of range for this format")
        # mask in the uint64 domain: `int64 & word_mask` overflows for a
        # 64-bit word_mask (2**64 - 1 does not fit in int64)
        return codes.astype(np.uint64) & np.uint64(self.word_mask)

    def word_to_code(self, words: np.ndarray) -> np.ndarray:
        """Convert unsigned two's-complement words back to signed codes."""
        words = np.asarray(words, dtype=np.uint64) & np.uint64(self.word_mask)
        sign_bit = np.uint64(1) << np.uint64(self.total_bits - 1)
        negative = (words & sign_bit) != 0
        # sign-extend in the uint64 domain, then reinterpret the bit pattern
        # as int64 — subtracting 2**total_bits would overflow at 64 bits
        extension = np.uint64(np.uint64(0xFFFFFFFFFFFFFFFF) ^ np.uint64(self.word_mask))
        extended = np.where(negative, words | extension, words)
        return np.ascontiguousarray(extended, dtype=np.uint64).view(np.int64)

    def float_to_word(self, values: np.ndarray) -> np.ndarray:
        """Quantize floats directly to two's-complement SRAM words."""
        return self.code_to_word(self.quantize_to_code(values))

    def word_to_float(self, words: np.ndarray) -> np.ndarray:
        """Decode two's-complement SRAM words back to float values."""
        return self.dequantize_code(self.word_to_code(words))

    def word_to_bits(self, words: np.ndarray) -> np.ndarray:
        """Expand words to a bit matrix of shape ``(*words.shape, total_bits)``.

        Bit index 0 is the least-significant bit — the same convention the
        SRAM fault maps use for bit positions within a word.
        """
        words = np.asarray(words, dtype=np.uint64)
        shifts = np.arange(self.total_bits, dtype=np.uint64)
        return ((words[..., None] >> shifts) & np.uint64(1)).astype(np.uint8)

    def bits_to_word(self, bits: np.ndarray) -> np.ndarray:
        """Pack a bit matrix (LSB first) back into unsigned words."""
        bits = np.asarray(bits, dtype=np.uint64)
        if bits.shape[-1] != self.total_bits:
            raise ValueError(
                f"last dimension must be {self.total_bits}, got {bits.shape[-1]}"
            )
        shifts = np.arange(self.total_bits, dtype=np.uint64)
        return np.sum(bits << shifts, axis=-1).astype(np.uint64)

    # ------------------------------------------------------------- helpers

    def describe(self) -> str:
        """Human-readable Qm.n description, e.g. ``Q3.12 (16-bit)``."""
        int_bits = self.total_bits - 1 - self.frac_bits
        return f"Q{int_bits}.{self.frac_bits} ({self.total_bits}-bit)"

    @classmethod
    def for_range(
        cls, max_abs_value: float, total_bits: int = 16
    ) -> "FixedPointFormat":
        """Choose the fraction width that fits ``[-max_abs_value, max_abs_value]``.

        Picks the largest ``frac_bits`` such that ``max_abs_value`` is still
        representable, which maximizes resolution for the given word length.
        """
        if max_abs_value <= 0:
            raise ValueError("max_abs_value must be positive")
        if not 2 <= total_bits <= 64:
            raise ValueError("total_bits must be in [2, 64]")
        # integer bits needed to represent max_abs_value (excluding sign)
        int_bits = max(int(np.ceil(np.log2(max_abs_value + 1e-12))), 0)
        frac_bits = max(total_bits - 1 - int_bits, 0)
        return cls(total_bits=total_bits, frac_bits=frac_bits)
