"""Unit tests for the SNNAC SoC wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    CHIP_CHARACTERISTICS,
    NOMINAL_OPERATING_POINT,
    OperatingPoint,
    Snnac,
    SnnacConfig,
)
from repro.nn import Network
from repro.quant import WeightQuantizer
from repro.sram import EnvironmentalConditions


@pytest.fixture()
def chip():
    return Snnac(SnnacConfig(num_pes=4, words_per_bank=64, seed=3))


@pytest.fixture()
def deployed_chip(chip):
    network = Network("10-8-2", seed=1)
    chip.deploy(network, WeightQuantizer(16, 13))
    return chip, network


class TestConstruction:
    def test_default_configuration_matches_paper(self):
        chip = Snnac()
        assert len(chip.memory) == 8
        assert chip.memory.word_bits == 16
        assert chip.logic_regulator.voltage == pytest.approx(0.9)
        assert chip.frequency == pytest.approx(250e6)

    def test_chip_characteristics_constants(self):
        assert CHIP_CHARACTERISTICS["num_pes"] == 8
        assert CHIP_CHARACTERISTICS["nominal_power_w"] == pytest.approx(16.8e-3)

    def test_different_seeds_give_different_dies(self):
        a = Snnac(SnnacConfig(num_pes=2, words_per_bank=32, seed=1))
        b = Snnac(SnnacConfig(num_pes=2, words_per_bank=32, seed=2))
        assert not np.allclose(a.memory[0].cells.vmin_read, b.memory[0].cells.vmin_read)


class TestDeploymentAndInference:
    def test_deploy_and_predict(self, deployed_chip):
        chip, network = deployed_chip
        x = np.random.default_rng(0).random((6, 10))
        outputs = chip.predict(x)
        assert outputs.shape == (6, 2)
        np.testing.assert_allclose(outputs, network.predict(x), atol=0.03)

    def test_operating_point_roundtrip(self, chip):
        chip.logic_regulator.set_voltage(0.55)
        chip.sram_regulator.set_voltage(0.5)
        chip.frequency = 17.8e6
        assert chip.operating_point.logic_voltage == pytest.approx(0.55)
        assert chip.operating_point.sram_voltage == pytest.approx(0.5)
        assert chip.frequency == pytest.approx(17.8e6)

    def test_environment_affects_effective_voltage(self, chip):
        chip.sram_regulator.set_voltage(0.5)
        chip.set_environment(EnvironmentalConditions(temperature=25.0, supply_noise=-0.02))
        assert chip.effective_sram_voltage == pytest.approx(0.48)

    def test_low_voltage_inference_differs_and_refresh_recovers(self, deployed_chip):
        chip, _ = deployed_chip
        x = np.random.default_rng(1).random((8, 10))
        nominal = chip.predict(x)
        chip.sram_regulator.set_voltage(0.42)
        corrupted = chip.predict(x)
        assert not np.allclose(nominal, corrupted)
        chip.refresh_weights()
        chip.sram_regulator.set_voltage(0.9)
        np.testing.assert_allclose(chip.predict(x), nominal)


class TestRunVoltageSweep:
    def test_sweep_matches_sequential_regulated_inference(self, deployed_chip):
        """run_voltage_sweep must equal set_voltage + refresh + run_inference
        per point — regulator quantization and clamping included (0.523 V
        programs as 0.525 V; 0.2 V clamps to the regulator minimum)."""
        chip, network = deployed_chip
        voltages = [0.9, 0.523, 0.46, 0.2]
        x = np.random.default_rng(4).random((6, 10))

        twin = Snnac(SnnacConfig(num_pes=4, words_per_bank=64, seed=3))
        twin.deploy(network, WeightQuantizer(16, 13))
        expected = []
        for voltage in voltages:
            twin.refresh_weights()
            twin.sram_regulator.set_voltage(voltage)
            expected.append(twin.run_inference(x)[0])

        swept = chip.run_voltage_sweep(x, voltages)
        for reference, (outputs, _) in zip(expected, swept):
            np.testing.assert_array_equal(reference, outputs)
        # regulator left programmed at the (quantized) last requested point
        assert chip.sram_regulator.voltage == pytest.approx(
            twin.sram_regulator.voltage
        )

    def test_sweep_records_inferences(self, deployed_chip):
        chip, _ = deployed_chip
        results = chip.run_voltage_sweep(np.zeros((3, 10)), [0.9, 0.5])
        assert [stats.batch_size for _, stats in results] == [3, 3]


class TestEnergyReporting:
    def test_energy_per_inference_requires_deploy(self, chip):
        with pytest.raises(RuntimeError):
            chip.energy_per_inference()

    def test_energy_per_inference_scales_with_cycles(self, deployed_chip):
        chip, _ = deployed_chip
        cycles = chip.npu.program.total_cycles_per_inference
        energy = chip.energy_per_inference(NOMINAL_OPERATING_POINT)
        per_cycle = chip.energy_model.energy_per_cycle(NOMINAL_OPERATING_POINT)
        assert energy == pytest.approx(cycles * per_cycle)

    def test_efficiency_improves_at_low_voltage_point(self, deployed_chip):
        chip, _ = deployed_chip
        nominal = chip.efficiency_gops_per_watt(NOMINAL_OPERATING_POINT)
        scaled = chip.efficiency_gops_per_watt(OperatingPoint(0.55, 0.5, 17.8e6))
        assert scaled > 2.0 * nominal

    def test_throughput_scales_with_frequency(self, deployed_chip):
        chip, _ = deployed_chip
        fast = chip.throughput_gops(NOMINAL_OPERATING_POINT)
        slow = chip.throughput_gops(OperatingPoint(0.55, 0.5, 17.8e6))
        assert fast / slow == pytest.approx(250.0 / 17.8, rel=1e-6)
