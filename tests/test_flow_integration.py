"""Integration tests for the end-to-end MATIC flow on the accelerator model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import Snnac, SnnacConfig
from repro.matic import MaticFlow, TrainingConfig
from repro.nn import Trainer


FAST_TRAINING = TrainingConfig(epochs=30, learning_rate=0.15, lr_decay=0.95, seed=0)


@pytest.fixture(scope="module")
def digits_flow_setup(digits_small):
    """A trained baseline plus a flow configuration shared by the module."""
    spec, train, test = digits_small
    baseline = spec.build_network(seed=3)
    Trainer(baseline, learning_rate=0.2, epochs=50, seed=4).fit(train)
    flow = MaticFlow(word_bits=16, frac_bits=None, training=FAST_TRAINING)
    return spec, train, test, baseline, flow


def fresh_chip():
    return Snnac(SnnacConfig(seed=77))


class TestNaiveDeployment:
    def test_nominal_voltage_matches_software(self, digits_flow_setup):
        spec, train, test, baseline, flow = digits_flow_setup
        chip = fresh_chip()
        deployment = flow.deploy_naive(
            chip, spec.topology, train, target_voltage=0.9,
            loss=spec.loss, initial_network=baseline,
        )
        assert deployment.fault_maps == []  # the baseline is never profiled
        hardware_error = spec.error(deployment.run_at(test.inputs, 0.9), test)
        software_error = spec.error(baseline.predict(test.inputs), test)
        assert abs(hardware_error - software_error) < 0.05

    def test_overscaling_degrades_naive_deployment(self, digits_flow_setup):
        spec, train, test, baseline, flow = digits_flow_setup
        chip = fresh_chip()
        deployment = flow.deploy_naive(
            chip, spec.topology, train, target_voltage=0.46,
            loss=spec.loss, initial_network=baseline,
        )
        nominal_error = spec.error(deployment.run_at(test.inputs, 0.9), test)
        overscaled_error = spec.error(deployment.run_at(test.inputs, 0.46), test)
        assert overscaled_error > nominal_error + 0.10


class TestAdaptiveDeployment:
    def test_full_flow_recovers_accuracy(self, digits_flow_setup):
        spec, train, test, baseline, flow = digits_flow_setup
        voltage = 0.50

        naive_chip = fresh_chip()
        naive = flow.deploy_naive(
            naive_chip, spec.topology, train, target_voltage=voltage,
            loss=spec.loss, initial_network=baseline,
        )
        naive_error = spec.error(naive.run_at(test.inputs), test)

        adaptive_chip = fresh_chip()
        adaptive = flow.deploy_adaptive(
            adaptive_chip, spec.topology, train, target_voltage=voltage,
            loss=spec.loss, initial_network=baseline, select_canaries=False,
        )
        adaptive_error = spec.error(adaptive.run_at(test.inputs), test)

        assert adaptive_error < naive_error
        assert adaptive_error < naive_error - 0.05

    def test_deployment_artifacts_are_consistent(self, digits_flow_setup):
        spec, train, test, baseline, flow = digits_flow_setup
        chip = fresh_chip()
        deployment = flow.deploy_adaptive(
            chip, spec.topology, train, target_voltage=0.50,
            loss=spec.loss, initial_network=baseline, select_canaries=True,
        )
        # fault maps: one per PE bank, geometry matching the banks
        assert len(deployment.fault_maps) == len(chip.memory)
        for fault_map, bank in zip(deployment.fault_maps, chip.memory):
            assert fault_map.num_words == bank.num_words
        # mask set matches network depth and word length
        assert len(deployment.mask_set) == len(deployment.network.layers)
        assert deployment.mask_set.word_bits == 16
        # canaries were selected from every bank, inside the used region
        assert len(deployment.canaries) == 8 * len(chip.memory)
        for canary in deployment.canaries:
            assert canary.address < deployment.program.placement.words_used_per_pe[canary.bank]
        assert deployment.controller is not None
        # chip left at the target operating voltage
        assert chip.sram_regulator.voltage == pytest.approx(0.50)

    def test_on_chip_error_matches_software_prediction_of_masked_model(
        self, digits_flow_setup
    ):
        """The injection masks must describe the hardware exactly: the MAT
        model evaluated in software with masks installed and on the chip at
        the profiled voltage must agree."""
        spec, train, test, baseline, flow = digits_flow_setup
        chip = fresh_chip()
        deployment = flow.deploy_adaptive(
            chip, spec.topology, train, target_voltage=0.50,
            loss=spec.loss, initial_network=baseline, select_canaries=False,
        )
        software = deployment.network.predict(test.inputs)  # masked effective view
        hardware = deployment.run_at(test.inputs, 0.50)
        software_error = spec.error(software, test)
        hardware_error = spec.error(hardware, test)
        assert abs(software_error - hardware_error) < 0.05

    def test_canary_regulation_keeps_accuracy(self, digits_flow_setup):
        spec, train, test, baseline, flow = digits_flow_setup
        chip = fresh_chip()
        deployment = flow.deploy_adaptive(
            chip, spec.topology, train, target_voltage=0.50,
            loss=spec.loss, initial_network=baseline, select_canaries=True,
        )
        target_error = spec.error(deployment.run_at(test.inputs), test)
        trace = deployment.controller.regulate(safe_voltage=0.60)
        outputs, _ = chip.run_inference(test.inputs)
        regulated_error = spec.error(outputs, test)
        assert 0.44 <= trace.final_voltage <= 0.56
        assert regulated_error <= target_error + 0.08

    def test_regression_benchmark_flow(self):
        """End-to-end flow on a regression benchmark (inversek2j, 2-16-2)."""
        from repro.datasets import get_benchmark

        spec = get_benchmark("inversek2j")
        dataset = spec.generate(num_samples=600, seed=1)
        train, test = spec.split(dataset, seed=2)
        baseline = spec.build_network(seed=3)
        Trainer(baseline, learning_rate=0.3, epochs=40, seed=4).fit(train)
        flow = MaticFlow(word_bits=16, frac_bits=None, training=FAST_TRAINING)

        chip = fresh_chip()
        naive = flow.deploy_naive(
            chip, spec.topology, train, target_voltage=0.47,
            loss=spec.loss, initial_network=baseline,
        )
        naive_mse = spec.error(naive.run_at(test.inputs), test)

        chip = fresh_chip()
        adaptive = flow.deploy_adaptive(
            chip, spec.topology, train, target_voltage=0.47,
            loss=spec.loss, initial_network=baseline, select_canaries=False,
        )
        adaptive_mse = spec.error(adaptive.run_at(test.inputs), test)
        assert adaptive_mse < naive_mse
