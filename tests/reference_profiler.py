"""Reference SRAM profiling: the bit-matrix ``profile_bank`` the word domain replaced.

A verbatim copy of :meth:`repro.sram.profiler.SramProfiler.profile_bank` as
it was before it compared and recorded in the word domain: every read is
unpacked into a ``(num_words, word_bits)`` bit matrix, errors are counted
by summing the mismatching bits, and the stuck and stuck-value matrices are
built with ``np.copyto(..., where=)``.  :class:`ReferenceProfiler` runs it
with the patterns and settings of the profiler it subclasses, so the
differential tests compare the two procedures on equal configurations.
"""

from __future__ import annotations

import numpy as np

from repro.sram import calibration
from repro.sram.array import SramBank
from repro.sram.bitops import unpack_words
from repro.sram.fault_map import FaultMap
from repro.sram.profiler import ProfileReport, SramProfiler


class ReferenceProfiler(SramProfiler):
    """:class:`SramProfiler` with the bit-matrix measured procedure."""

    def profile_bank(
        self,
        bank: SramBank,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> ProfileReport:
        """Run the read-after-write / read-after-read procedure on one bank."""
        if voltage <= 0:
            raise ValueError("voltage must be positive")
        saved = bank.stored_words() if self.restore_contents else None
        addresses = np.arange(bank.num_words)
        stuck = np.zeros((bank.num_words, bank.word_bits), dtype=bool)
        stuck_values = np.zeros((bank.num_words, bank.word_bits), dtype=np.uint8)
        raw_errors = 0
        rar_errors = 0
        pattern_errors: dict[str, int] = {}

        for pattern_name, pattern in self.patterns_for(bank).items():
            expected = np.full(bank.num_words, pattern, dtype=np.uint64)
            # Write the background at nominal voltage, then read twice at the
            # target voltage: the first read exposes read-disturb flips
            # (read-after-write), the second confirms the flipped cells stay
            # stable at their preferred state (read-after-read).
            bank.write(addresses, expected)
            first_read = bank.read(addresses, voltage=voltage, temperature=temperature)
            second_read = bank.read(addresses, voltage=voltage, temperature=temperature)

            first_diff = self._bit_errors(expected, first_read, bank.word_bits)
            second_diff = self._bit_errors(expected, second_read, bank.word_bits)
            raw_errors += int(first_diff.sum())
            rar_errors += int(second_diff.sum())
            pattern_errors[pattern_name] = int(second_diff.sum())

            # Record every erroneous bit with the polarity it reads as.  Using
            # the second read means only stable (trainable-around) failures
            # enter the map, matching the paper's observation that disturbed
            # cells provide stable read outputs.  Later patterns override
            # earlier ones, matching the per-fault insertion order semantics.
            observed_bits = self._words_to_bits(second_read, bank.word_bits)
            np.copyto(stuck_values, observed_bits, where=second_diff)
            stuck |= second_diff

        fault_map = FaultMap.from_arrays(stuck, stuck_values)
        if saved is not None:
            bank.write(addresses, saved)

        return ProfileReport(
            bank_name=bank.name,
            voltage=float(voltage),
            temperature=float(temperature),
            fault_map=fault_map,
            read_after_write_errors=raw_errors,
            read_after_read_errors=rar_errors,
            pattern_errors=pattern_errors,
        )

    @staticmethod
    def _words_to_bits(words: np.ndarray, word_bits: int) -> np.ndarray:
        return unpack_words(words, word_bits)

    @classmethod
    def _bit_errors(
        cls, expected: np.ndarray, observed: np.ndarray, word_bits: int
    ) -> np.ndarray:
        return cls._words_to_bits(expected, word_bits) != cls._words_to_bits(
            observed, word_bits
        )
