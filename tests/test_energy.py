"""Unit tests for the calibrated energy/frequency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    NOMINAL_OPERATING_POINT,
    PAPER_LOGIC_ANCHORS,
    PAPER_SRAM_ANCHORS,
    FrequencyModel,
    LogicEnergyModel,
    OperatingPoint,
    SnnacEnergyModel,
    SramEnergyModel,
)


class TestOperatingPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingPoint(0.0, 0.9, 1e6)
        with pytest.raises(ValueError):
            OperatingPoint(0.9, 0.9, 0.0)

    def test_nominal_constants(self):
        assert NOMINAL_OPERATING_POINT.logic_voltage == 0.9
        assert NOMINAL_OPERATING_POINT.frequency == 250e6


class TestFrequencyModel:
    def test_calibration_hits_anchors(self):
        model = FrequencyModel.calibrate((0.9, 250e6), (0.55, 17.8e6))
        assert float(model.fmax(0.9)) == pytest.approx(250e6, rel=1e-3)
        assert float(model.fmax(0.55)) == pytest.approx(17.8e6, rel=1e-3)

    def test_fmax_monotone_in_voltage(self):
        model = FrequencyModel.calibrate((0.9, 250e6), (0.55, 17.8e6))
        voltages = np.linspace(0.5, 1.1, 30)
        freqs = model.fmax(voltages)
        assert np.all(np.diff(freqs) > 0)

    def test_fmax_zero_below_threshold(self):
        model = FrequencyModel.calibrate((0.9, 250e6), (0.55, 17.8e6))
        assert float(model.fmax(model.threshold - 0.01)) == 0.0

    def test_min_voltage_for_inverts_fmax(self):
        model = FrequencyModel.calibrate((0.9, 250e6), (0.55, 17.8e6))
        voltage = model.min_voltage_for(100e6)
        assert float(model.fmax(voltage)) >= 100e6
        assert float(model.fmax(voltage - 0.01)) < 100e6

    def test_min_voltage_unreachable(self):
        model = FrequencyModel.calibrate((0.9, 250e6), (0.55, 17.8e6))
        with pytest.raises(ValueError):
            model.min_voltage_for(1e12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrequencyModel(scale=-1.0, threshold=0.4)
        with pytest.raises(ValueError):
            FrequencyModel.calibrate((0.9, 250e6), (0.9, 17.8e6))


class TestLogicEnergyModel:
    def test_calibration_reproduces_anchors(self):
        model = LogicEnergyModel.calibrate()
        for voltage, frequency, picojoules in PAPER_LOGIC_ANCHORS:
            energy = float(model.energy_per_cycle(voltage, frequency)) * 1e12
            assert energy == pytest.approx(picojoules, rel=0.01)

    def test_dynamic_scales_with_v_squared(self):
        model = LogicEnergyModel.calibrate()
        ratio = float(model.dynamic_energy(0.45) / model.dynamic_energy(0.9))
        assert ratio == pytest.approx(0.25, rel=1e-6)

    def test_leakage_energy_grows_at_low_frequency(self):
        model = LogicEnergyModel.calibrate()
        slow = float(model.leakage_energy(0.9, 1e6))
        fast = float(model.leakage_energy(0.9, 250e6))
        assert slow > fast

    def test_calibration_requires_two_anchors(self):
        with pytest.raises(ValueError):
            LogicEnergyModel.calibrate(anchors=((0.9, 250e6, 30.0),))

    def test_invalid_capacitance(self):
        with pytest.raises(ValueError):
            LogicEnergyModel(effective_capacitance=0.0)


class TestSramEnergyModel:
    def test_reproduces_anchors(self):
        model = SramEnergyModel()
        for voltage, frequency, picojoules in PAPER_SRAM_ANCHORS:
            energy = float(model.energy_per_cycle(voltage, frequency)) * 1e12
            assert energy == pytest.approx(picojoules, rel=0.01)

    def test_monotone_in_voltage(self):
        model = SramEnergyModel()
        voltages = np.linspace(0.45, 0.95, 40)
        energies = model.dynamic_energy(voltages)
        assert np.all(np.diff(energies) > 0)

    def test_extrapolation_is_finite_and_positive(self):
        model = SramEnergyModel()
        assert float(model.dynamic_energy(0.40)) > 0
        assert float(model.dynamic_energy(1.1)) > float(model.dynamic_energy(0.9))

    def test_requires_two_anchors(self):
        with pytest.raises(ValueError):
            SramEnergyModel(anchors=((0.9, 250e6, 36.5),))


class TestSnnacEnergyModel:
    def test_nominal_breakdown_matches_chip(self):
        model = SnnacEnergyModel()
        breakdown = model.breakdown(NOMINAL_OPERATING_POINT)
        assert breakdown.total == pytest.approx(67.08, abs=0.5)
        assert breakdown.logic_total == pytest.approx(30.58, abs=0.3)
        assert breakdown.sram_total == pytest.approx(36.50, abs=0.3)

    def test_nominal_power_matches_datasheet(self):
        model = SnnacEnergyModel()
        # 67 pJ/cycle at 250 MHz is the chip's 16.8 mW figure
        assert model.power(NOMINAL_OPERATING_POINT) == pytest.approx(16.8e-3, rel=0.02)

    def test_table2_scenario_energies(self):
        model = SnnacEnergyModel()
        highperf = model.energy_per_cycle(OperatingPoint(0.9, 0.65, 250e6))
        split = model.energy_per_cycle(OperatingPoint(0.55, 0.50, 17.8e6))
        joint = model.energy_per_cycle(OperatingPoint(0.55, 0.55, 17.8e6))
        assert highperf == pytest.approx(48.96, abs=0.6)
        assert split == pytest.approx(19.98, abs=0.6)
        assert joint == pytest.approx(20.60, abs=0.6)

    def test_feasibility_checks(self):
        model = SnnacEnergyModel()
        nominal = NOMINAL_OPERATING_POINT
        assert model.logic_frequency.fmax(nominal.logic_voltage) >= nominal.frequency
        assert model.sram_frequency.fmax(nominal.sram_voltage) >= nominal.frequency
        assert model.sram_frequency.fmax(0.65) >= 250e6
        # logic cannot run 250 MHz at 0.55 V
        assert model.logic_frequency.fmax(0.55) < 250e6
        # SRAM periphery cannot run 250 MHz at 0.5 V
        assert model.sram_frequency.fmax(0.50) < 250e6

    def test_logic_mep_near_paper_value(self):
        model = SnnacEnergyModel()
        voltage, frequency = model.logic_minimum_energy_point()
        assert 0.50 <= voltage <= 0.60
        assert 5e6 <= frequency <= 40e6

    def test_joint_mep_respects_accuracy_floor(self):
        model = SnnacEnergyModel()
        voltage, _ = model.joint_minimum_energy_point(min_sram_voltage=0.50)
        assert voltage >= 0.50
        higher_floor_voltage, _ = model.joint_minimum_energy_point(min_sram_voltage=0.70)
        assert higher_floor_voltage >= 0.70

    def test_breakdown_totals_are_consistent(self):
        model = SnnacEnergyModel()
        breakdown = model.breakdown(OperatingPoint(0.7, 0.6, 50e6))
        assert breakdown.total == pytest.approx(
            breakdown.logic_dynamic
            + breakdown.logic_leakage
            + breakdown.sram_dynamic
            + breakdown.sram_leakage
        )
        assert breakdown.leakage_total + breakdown.dynamic_total == pytest.approx(breakdown.total)
