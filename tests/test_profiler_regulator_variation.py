"""Unit tests for the SRAM profiler, voltage regulator, and variation models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_profiler import ReferenceProfiler

from repro.sram import (
    FAST_CORNER,
    SLOW_CORNER,
    TYPICAL_CORNER,
    EnvironmentalConditions,
    ProcessCorner,
    SramBank,
    SramProfiler,
    TemperatureChamber,
    VoltageRegulator,
    WeightMemorySystem,
)


class TestSramProfiler:
    def test_no_faults_at_nominal(self):
        bank = SramBank(64, 16, seed=1)
        report = SramProfiler().profile_bank(bank, 0.9)
        assert report.fault_map.num_faults == 0
        assert report.fault_rate == 0.0

    def test_profiled_map_matches_ground_truth(self):
        bank = SramBank(128, 16, seed=2)
        report = SramProfiler().profile_bank(bank, 0.47)
        assert report.fault_map == bank.fault_map_at(0.47)

    def test_profile_restores_contents(self):
        bank = SramBank(64, 16, seed=3)
        deployed = np.arange(64, dtype=np.uint64) * 7 % 65536
        bank.write_all(deployed)
        SramProfiler().profile_bank(bank, 0.45)
        np.testing.assert_array_equal(bank.stored_words(), deployed)

    def test_profile_without_restore(self):
        bank = SramBank(64, 16, seed=3)
        deployed = np.full(64, 0x1234, dtype=np.uint64)
        bank.write_all(deployed)
        SramProfiler(restore_contents=False).profile_bank(bank, 0.45)
        assert not np.array_equal(bank.stored_words(), deployed)

    def test_read_after_read_errors_reported(self):
        bank = SramBank(128, 16, seed=4)
        report = SramProfiler().profile_bank(bank, 0.46)
        assert report.read_after_read_errors > 0
        assert report.read_after_write_errors > 0
        assert set(report.pattern_errors) == {"zeros", "ones"}

    def test_custom_patterns(self):
        bank = SramBank(32, 16, seed=5)
        profiler = SramProfiler(test_patterns={"checker": 0xAAAA})
        report = profiler.profile_bank(bank, 0.9)
        assert list(report.pattern_errors) == ["checker"]

    @pytest.mark.parametrize("voltage", [0.40, 0.44, 0.46, 0.48, 0.50, 0.53, 0.90])
    def test_vectorized_profile_matches_ground_truth_across_voltages(self, voltage):
        """The vectorized recording path recovers exactly the map the
        behavioural model would inflict, from near-total failure to none."""
        bank = SramBank(256, 16, seed=7)
        report = SramProfiler().profile_bank(bank, voltage)
        truth = bank.fault_map_at(voltage)
        assert report.fault_map == truth
        assert report.fault_map.num_faults == truth.num_faults

    def test_profile_excludes_cell_with_vmin_at_rail(self):
        """A cell whose V_min,read equals the supply exactly is safe (strict
        inequality) and must not be profiled as stuck; a cell just above the
        rail must be."""
        voltage = 0.5
        bank = SramBank(16, 8, seed=3)
        bank.cells.vmin_read[:] = 0.30
        bank.cells.vmin_read[4, 2] = voltage
        bank.cells.vmin_read[4, 3] = voltage + 0.01
        bank.cells.preferred_state[:] = 1
        report = SramProfiler().profile_bank(bank, voltage)
        positions = {(f.address, f.bit) for f in report.fault_map.faults}
        assert (4, 2) not in positions
        assert (4, 3) in positions
        assert report.fault_map == bank.fault_map_at(voltage)

    def test_invalid_voltage(self):
        bank = SramBank(16, 16, seed=0)
        with pytest.raises(ValueError):
            SramProfiler().profile_bank(bank, 0.0)

    def test_memory_system_profiling(self):
        memory = WeightMemorySystem.build(3, 64, 16, seed=6)
        reports = SramProfiler().profile_memory_system(memory, 0.46)
        assert len(reports) == 3
        assert all(r.voltage == 0.46 for r in reports)

    def test_failure_rate_curve_monotone(self):
        bank = SramBank(256, 16, seed=7)
        profiler = SramProfiler()
        rates = [
            profiler.profile_bank(bank, voltage).fault_rate
            for voltage in (0.42, 0.46, 0.50, 0.54)
        ]
        assert np.all(np.diff(rates) <= 0)

    def test_temperature_dependence(self):
        bank = SramBank(256, 16, seed=8)
        profiler = SramProfiler()
        cold = profiler.profile_bank(bank, 0.47, temperature=-15.0).fault_rate
        hot = profiler.profile_bank(bank, 0.47, temperature=90.0).fault_rate
        assert cold >= hot


@st.composite
def profiling_setups(draw):
    """A bank configuration, its prior contents and a profiler configuration.

    Patterns and prior contents are drawn over the full 64 bits, so they
    also carry bits above the word length, which the bank and the profiler
    must mask off.  Pattern values lean toward all-zeros, all-ones and
    alternating bits, so configured patterns often expose the same cells,
    and later patterns override earlier ones.
    """
    word_bits = draw(st.integers(min_value=1, max_value=64))
    num_words = draw(st.integers(min_value=1, max_value=40))
    limit = (1 << word_bits) - 1
    word = st.one_of(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.sampled_from([0, limit, 0xAAAA_AAAA_AAAA_AAAA & limit, 0x5555_5555_5555_5555]),
    )
    patterns = draw(
        st.none()
        | st.dictionaries(
            st.sampled_from(["zeros", "ones", "checker", "inverse", "random"]),
            word,
            min_size=1,
            max_size=4,
        )
    )
    return {
        "num_words": num_words,
        "word_bits": word_bits,
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "vmin_offset": draw(st.sampled_from([0.0, -0.04, 0.03])),
        # a seed for the bank's prior contents (None: a fresh, all-zero bank)
        "prior": draw(st.none() | st.integers(min_value=0, max_value=2**32)),
        "patterns": patterns,
        "restore_contents": draw(st.booleans()),
        "temperature": draw(st.sampled_from([-15.0, 25.0, 60.0, 90.0])),
        "voltages": draw(
            st.lists(st.floats(min_value=0.38, max_value=0.60), min_size=1, max_size=3)
        ),
    }


class _UnmaskedPatterns:
    """Writes the configured backgrounds as given, bits above the word
    length included (``patterns_for`` is public API a subclass may
    override)."""

    def patterns_for(self, bank):
        return dict(self.test_patterns) or super().patterns_for(bank)


class TestWordDomainProfileMatchesReference:
    """The word-domain ``profile_bank`` against the bit-matrix procedure it
    replaced (``tests/reference_profiler.py``): equal reports, and equal
    side effects on the bank it profiles."""

    PROFILERS = {
        False: (SramProfiler, ReferenceProfiler),
        True: (
            type("UnmaskedProfiler", (_UnmaskedPatterns, SramProfiler), {}),
            type("UnmaskedReferenceProfiler", (_UnmaskedPatterns, ReferenceProfiler), {}),
        ),
    }

    @staticmethod
    def _bank(setup):
        bank = SramBank(setup["num_words"], setup["word_bits"], seed=setup["seed"])
        bank.vmin_offset = setup["vmin_offset"]
        if setup["prior"] is not None:
            rng = np.random.default_rng(setup["prior"])
            bank.write_all(rng.integers(0, 2**64, size=bank.num_words, dtype=np.uint64))
        return bank

    @given(profiling_setups(), st.booleans())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_reports_and_bank_state_match(self, setup, unmasked):
        profiler, reference = (
            cls(setup["patterns"], setup["restore_contents"])
            for cls in self.PROFILERS[unmasked]
        )
        bank, reference_bank = self._bank(setup), self._bank(setup)
        for voltage in setup["voltages"]:
            got = profiler.profile_bank(bank, voltage, setup["temperature"])
            want = reference.profile_bank(reference_bank, voltage, setup["temperature"])
            assert got.fault_map == want.fault_map
            for got_mask, want_mask in zip(got.fault_map.masks(), want.fault_map.masks()):
                np.testing.assert_array_equal(got_mask, want_mask)
            assert got.read_after_write_errors == want.read_after_write_errors
            assert got.read_after_read_errors == want.read_after_read_errors
            assert list(got.pattern_errors.items()) == list(want.pattern_errors.items())
            assert got == want
            np.testing.assert_array_equal(bank.stored_words(), reference_bank.stored_words())
            assert (bank.read_count, bank.write_count, bank.content_epoch) == (
                reference_bank.read_count,
                reference_bank.write_count,
                reference_bank.content_epoch,
            )


class TestVoltageRegulator:
    def test_initial_quantization(self):
        regulator = VoltageRegulator(initial_voltage=0.907, step=0.01)
        assert regulator.voltage == pytest.approx(0.91)

    def test_set_voltage_clamps_to_range(self):
        regulator = VoltageRegulator(min_voltage=0.4, max_voltage=1.0)
        assert regulator.set_voltage(2.0) == pytest.approx(1.0)
        assert regulator.set_voltage(0.1) == pytest.approx(0.4)

    def test_step_up_down(self):
        regulator = VoltageRegulator(initial_voltage=0.5, step=0.01)
        assert regulator.step_down() == pytest.approx(0.49)
        assert regulator.step_up() == pytest.approx(0.5)

    def test_adjust(self):
        regulator = VoltageRegulator(initial_voltage=0.5, step=0.005)
        assert regulator.adjust(-0.02) == pytest.approx(0.48)

    def test_history_recorded(self):
        regulator = VoltageRegulator(initial_voltage=0.9)
        regulator.set_voltage(0.6)
        regulator.set_voltage(0.55)
        assert regulator.history == pytest.approx([0.9, 0.6, 0.55])
        regulator.reset_history()
        assert regulator.history == pytest.approx([0.55])

    def test_quantizes_to_step(self):
        regulator = VoltageRegulator(step=0.025)
        assert regulator.set_voltage(0.513) == pytest.approx(0.525)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            VoltageRegulator(step=0.0)
        with pytest.raises(ValueError):
            VoltageRegulator(min_voltage=1.0, max_voltage=0.5)


class TestVariationModels:
    def test_environmental_conditions_with_temperature(self):
        conditions = EnvironmentalConditions(temperature=25.0, supply_noise=0.01)
        hot = conditions.with_temperature(85.0)
        assert hot.temperature == 85.0
        assert hot.supply_noise == 0.01

    def test_process_corners(self):
        assert TYPICAL_CORNER.vmin_shift == 0.0
        assert SLOW_CORNER.vmin_shift > 0.0
        assert FAST_CORNER.vmin_shift < 0.0
        with pytest.raises(ValueError):
            ProcessCorner("bad", leakage_scale=0.0)

    def test_chamber_schedule_shape(self):
        chamber = TemperatureChamber(start=25.0, low=-15.0, high=90.0, step=15.0)
        schedule = chamber.schedule()
        # starts at the nominal temperature, dips to the low point, ends high
        assert schedule[0] == 25.0
        assert schedule.min() == -15.0
        assert schedule[-1] == 90.0
        # no immediate duplicates
        assert all(abs(a - b) > 1e-9 for a, b in zip(schedule, schedule[1:]))

    def test_chamber_conditions(self):
        chamber = TemperatureChamber()
        conditions = chamber.conditions()
        assert len(conditions) == len(chamber.schedule())
        assert all(isinstance(c, EnvironmentalConditions) for c in conditions)

    def test_chamber_validation(self):
        with pytest.raises(ValueError):
            TemperatureChamber(step=0.0)
        with pytest.raises(ValueError):
            TemperatureChamber(start=100.0, low=-15.0, high=90.0)
