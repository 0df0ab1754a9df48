"""Post-silicon SRAM profiling.

The paper's compile-time profiling step performs a read-after-write and a
read-after-read on every SRAM address at the target operating voltage, and
records the word address, bit index, and error polarity of every failing
bit-cell (Section III-A).  :class:`SramProfiler` reproduces that procedure on
the behavioural SRAM model: it is intentionally written against the *public
access interface* of :class:`~repro.sram.array.SramBank` (write/read only)
rather than the model's ground-truth state, so the profiling flow is the same
one that would run against real hardware through a debug interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import calibration
from .array import SramBank, WeightMemorySystem
from .bitops import unpack_words
from .fault_map import FaultMap

__all__ = ["ProfileReport", "SramProfiler"]


@dataclass
class ProfileReport:
    """Result of profiling one SRAM bank at one operating point."""

    bank_name: str
    voltage: float
    temperature: float
    fault_map: FaultMap
    #: number of bit errors seen on the read-after-write pass
    read_after_write_errors: int = 0
    #: number of bit errors seen on the read-after-read pass
    read_after_read_errors: int = 0
    #: per-pattern error counts, keyed by pattern name
    pattern_errors: dict = field(default_factory=dict)

    @property
    def fault_rate(self) -> float:
        return self.fault_map.fault_rate


class SramProfiler:
    """Profile read-stability failures of weight SRAM banks.

    Parameters
    ----------
    test_patterns:
        Data backgrounds written before reading.  The defaults (all-zeros and
        all-ones) expose every stuck cell regardless of its preferred state:
        a cell preferring 1 only corrupts data when a 0 is stored in it, and
        vice versa.
    restore_contents:
        When True (default), the profiler saves the bank's pre-profiling
        contents and rewrites them afterwards, so profiling does not clobber
        deployed weights.
    """

    def __init__(
        self,
        test_patterns: dict[str, int] | None = None,
        restore_contents: bool = True,
    ) -> None:
        self.test_patterns = dict(test_patterns) if test_patterns else {}
        self.restore_contents = bool(restore_contents)

    def patterns_for(self, bank: SramBank) -> dict[str, int]:
        """The data backgrounds this profiler writes into ``bank``.

        Public API: fault-map cache keys
        (:meth:`repro.matic.flow.MaticFlow.profile_chip`) fold the resolved
        patterns in through this method, so a subclass that derives its
        backgrounds differently (e.g. geometry-dependent checkerboards) keys
        its artifacts correctly by overriding it — rather than silently
        sharing cache entries because a private helper was bypassed.
        Configured patterns are masked to the bank's word length; without
        configuration the defaults are all-zeros and all-ones, which together
        expose every stuck cell regardless of its preferred state.
        """
        if self.test_patterns:
            return {
                name: value & bank.word_mask for name, value in self.test_patterns.items()
            }
        return {"zeros": 0, "ones": bank.word_mask}

    def describe(self) -> dict:
        """Content description of the measurement procedure, for cache keys.

        Subclasses that parameterize their procedure (extra read passes,
        different recording rules, ...) MUST extend this with every attribute
        that can change the profiled map, or differently-configured instances
        will share memoized artifacts.
        """
        return {
            "class": f"{type(self).__module__}.{type(self).__qualname__}",
            "test_patterns": {
                str(name): int(value) for name, value in self.test_patterns.items()
            },
            "restore_contents": bool(self.restore_contents),
        }

    # ------------------------------------------------------------------

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

    def profile_bank_sweep(
        self,
        bank: SramBank,
        voltages,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> list[ProfileReport]:
        """Profile one bank at every voltage of an axis in a single pass.

        A cell corrupts a read at voltage ``v`` iff its effective
        V_min,read exceeds ``v``, and the read-after-read procedure records
        it iff at least one test pattern stores the opposite of its
        preferred state in that cell (the second read always returns the
        preferred state).  Both facts are voltage-independent except for the
        single threshold comparison, so the whole axis reduces to one
        vectorized comparison of the bank's effective V_min population
        against the voltage vector plus a per-pattern detectability mask —
        no writes, no reads, no restore round trips.

        The derivation is asserted bit-identical to per-voltage
        :meth:`profile_bank` by the equivalence oracle in
        ``tests/test_adaptive_sweep.py`` and ``benchmarks/bench_adaptive.py``.
        It is only valid for *this class's* measurement procedure under
        ``restore_contents=True``: a subclass that overrides
        :meth:`profile_bank` (different procedure) or a profiler configured
        with ``restore_contents=False`` (profiling side effects are part of
        the contract) falls back to the measured per-voltage loop, whose
        behaviour is definitionally correct.

        Returns one :class:`ProfileReport` per entry of ``voltages``, in
        input order.
        """
        voltage_axis = [float(v) for v in voltages]
        for v in voltage_axis:
            if v <= 0:
                raise ValueError("voltage must be positive")
        if (
            type(self).profile_bank is not SramProfiler.profile_bank
            or not self.restore_contents
        ):
            return [self.profile_bank(bank, v, temperature) for v in voltage_axis]

        vmin = bank.effective_vmin(temperature)
        preferred = np.asarray(bank.cells.preferred_state, dtype=np.uint8)
        # which cells each pattern can expose: the background bit must differ
        # from the preferred state the cell flips to
        pattern_exposes = {
            name: self._words_to_bits(
                np.full(bank.num_words, pattern, dtype=np.uint64), bank.word_bits
            )
            != preferred
            for name, pattern in self.patterns_for(bank).items()
        }
        detectable = np.zeros((bank.num_words, bank.word_bits), dtype=bool)
        for exposes in pattern_exposes.values():
            detectable |= exposes

        reports = []
        for v in voltage_axis:
            disturbed = vmin > v
            pattern_errors = {
                name: int(np.count_nonzero(disturbed & exposes))
                for name, exposes in pattern_exposes.items()
            }
            # the first read flips disturbed cells to their preferred state in
            # storage and the second confirms them there, so both passes see
            # exactly the pattern-exposed disturbed cells
            errors = sum(pattern_errors.values())
            reports.append(
                ProfileReport(
                    bank_name=bank.name,
                    voltage=v,
                    temperature=float(temperature),
                    fault_map=FaultMap.from_arrays(disturbed & detectable, preferred),
                    read_after_write_errors=errors,
                    read_after_read_errors=errors,
                    pattern_errors=pattern_errors,
                )
            )
        return reports

    def profile_memory_system(
        self,
        memory: WeightMemorySystem,
        voltage: float,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> list[ProfileReport]:
        """Profile every weight bank of an accelerator memory system."""
        return [self.profile_bank(bank, voltage, temperature) for bank in memory]

    def failure_rate_curve(
        self,
        bank: SramBank,
        voltages: np.ndarray,
        temperature: float = calibration.NOMINAL_TEMPERATURE,
    ) -> np.ndarray:
        """Measured bit-level failure rate at each voltage (Fig. 9a's curve)."""
        voltages = np.asarray(voltages, dtype=float)
        rates = np.empty_like(voltages)
        for index, voltage in enumerate(voltages):
            report = self.profile_bank(bank, float(voltage), temperature)
            rates[index] = report.fault_rate
        return rates

    # ------------------------------------------------------------ helpers

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
