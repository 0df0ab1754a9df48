"""Unit tests for repro.sram.bitcell and calibration constants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sram import (
    BitcellVariationModel,
    EmpiricalVminModel,
    GaussianVminModel,
    calibration,
)


class TestCalibrationConstants:
    def test_anchor_rates_strictly_decreasing_with_voltage(self):
        anchors = sorted(calibration.FIG9A_ANCHORS)
        rates = [rate for _, rate in anchors]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_anchor_range_covers_paper_voltages(self):
        voltages = [v for v, _ in calibration.FIG9A_ANCHORS]
        assert min(voltages) <= calibration.ALL_FAIL_VOLTAGE
        assert max(voltages) >= calibration.FIRST_FAILURE_VOLTAGE

    def test_temperature_coefficient_is_negative(self):
        # below temperature inversion: hotter -> lower Vmin
        assert calibration.TEMPERATURE_COEFFICIENT < 0


class TestGaussianModel:
    def test_sample_shapes_and_types(self):
        model = GaussianVminModel()
        population = model.sample(32, 16, np.random.default_rng(0))
        assert population.vmin_read.shape == (32, 16)
        assert population.preferred_state.shape == (32, 16)
        assert set(np.unique(population.preferred_state)).issubset({0, 1})

    def test_sample_statistics_match_parameters(self):
        model = GaussianVminModel(mean=0.46, sigma=0.02)
        population = model.sample(200, 16, np.random.default_rng(1))
        assert np.mean(population.vmin_read) == pytest.approx(0.46, abs=0.005)
        assert np.std(population.vmin_read) == pytest.approx(0.02, rel=0.15)

    def test_failure_probability_monotone_decreasing(self):
        model = GaussianVminModel()
        voltages = np.linspace(0.3, 0.9, 20)
        probabilities = model.failure_probability(voltages)
        assert np.all(np.diff(probabilities) <= 0)

    def test_failure_probability_limits(self):
        model = GaussianVminModel(mean=0.46, sigma=0.02)
        assert model.failure_probability(0.9) < 1e-6
        assert model.failure_probability(0.3) > 0.999

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GaussianVminModel(sigma=0.0)
        with pytest.raises(ValueError):
            GaussianVminModel(preferred_one_probability=1.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            GaussianVminModel().sample(0, 16, np.random.default_rng(0))


class TestEmpiricalModel:
    def test_failure_probability_matches_anchors(self):
        model = EmpiricalVminModel()
        for voltage, rate in calibration.FIG9A_ANCHORS:
            assert float(model.failure_probability(voltage)) == pytest.approx(rate, rel=1e-6)

    def test_sampled_population_reproduces_curve(self):
        model = EmpiricalVminModel()
        population = model.sample(4096, 16, np.random.default_rng(2))
        for voltage, rate in [(0.50, 0.0215), (0.46, 0.06), (0.42, 0.60)]:
            empirical = float(np.mean(population.vmin_read > voltage))
            assert empirical == pytest.approx(rate, rel=0.25, abs=0.01)

    def test_clamps_outside_anchor_range(self):
        model = EmpiricalVminModel()
        assert float(model.failure_probability(0.30)) == pytest.approx(
            max(r for _, r in calibration.FIG9A_ANCHORS)
        )
        assert float(model.failure_probability(0.80)) == pytest.approx(
            min(r for _, r in calibration.FIG9A_ANCHORS)
        )

    def test_rejects_non_monotone_anchors(self):
        with pytest.raises(ValueError):
            EmpiricalVminModel(anchors=((0.4, 0.5), (0.5, 0.6)))

    def test_rejects_invalid_rates(self):
        with pytest.raises(ValueError):
            EmpiricalVminModel(anchors=((0.4, 1.5), (0.5, 0.5)))

    def test_needs_two_anchors(self):
        with pytest.raises(ValueError):
            EmpiricalVminModel(anchors=((0.5, 0.5),))


class TestTemperatureShift:
    def test_hotter_lowers_vmin(self):
        vmin = np.array([0.50])
        hot = BitcellVariationModel.effective_vmin(vmin, 90.0)
        cold = BitcellVariationModel.effective_vmin(vmin, -15.0)
        assert hot[0] < vmin[0] < cold[0]

    def test_reference_temperature_is_identity(self):
        vmin = np.array([0.47, 0.51])
        np.testing.assert_allclose(
            BitcellVariationModel.effective_vmin(vmin, calibration.NOMINAL_TEMPERATURE), vmin
        )

    def test_shift_magnitude(self):
        vmin = np.array([0.50])
        shifted = BitcellVariationModel.effective_vmin(vmin, 125.0)
        expected = 0.50 + calibration.TEMPERATURE_COEFFICIENT * 100.0
        assert shifted[0] == pytest.approx(expected)
