"""Geometry-parametric accelerator tests: placement spill, capacity planning,
geometry-invariant execution, and the scaled energy/characteristics models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    CHIP_CHARACTERISTICS,
    NOMINAL_OPERATING_POINT,
    MicrocodeCompiler,
    Npu,
    OperatingPoint,
    Snnac,
    SnnacConfig,
    SnnacEnergyModel,
    WeightPlacement,
    chip_characteristics,
    plan_capacity,
)
from repro.nn import Network
from repro.quant import WeightQuantizer
from repro.sram import BitFault, FaultMap, WeightMemorySystem

#: (num_pes, words_per_bank) points covering the satellite's grid — at
#: least one forces multi-segment spill for the 20-10-3 test model.
GEOMETRIES = [(2, 128), (4, 64), (8, 32), (16, 16)]


@pytest.fixture()
def network():
    return Network("20-10-3", seed=3)


@pytest.fixture()
def quantizer():
    return WeightQuantizer(total_bits=16, frac_bits=13)


class TestSpillPlacement:
    def test_segments_cover_every_block_word_exactly_once(self):
        placement = WeightPlacement((20, 10, 3), num_pes=8, words_per_bank=32)
        assert placement.spilled_neurons > 0  # the geometry forces spill
        for layer in placement.layers:
            for neuron in layer.neurons:
                covered = sorted(
                    offset
                    for segment in neuron.segments
                    for offset in range(
                        segment.word_offset, segment.word_offset + segment.length
                    )
                )
                assert covered == list(range(neuron.fan_in + 1))

    def test_segments_are_disjoint_within_banks(self):
        placement = WeightPlacement((20, 10, 3), num_pes=8, words_per_bank=32)
        occupied = {pe: set() for pe in range(8)}
        for layer in placement.layers:
            for neuron in layer.neurons:
                for segment in neuron.segments:
                    span = set(range(segment.base_address, segment.end_address))
                    assert segment.end_address <= 32
                    assert not (occupied[segment.pe] & span)
                    occupied[segment.pe] |= span
        for pe, used in occupied.items():
            assert len(used) == placement.words_used_per_pe[pe]

    def test_single_neuron_wider_than_a_bank_spills_across_banks(self):
        # fan_in + 1 = 41 words, banks hold 16: every neuron must span >= 3
        placement = WeightPlacement((40, 2), num_pes=6, words_per_bank=16)
        for neuron in placement.layers[0].neurons:
            assert neuron.spilled
            assert len(neuron.segments) >= 3
            assert {segment.pe for segment in neuron.segments} != {neuron.pe}

    def test_locate_resolves_spilled_words(self):
        placement = WeightPlacement((40, 2), num_pes=6, words_per_bank=16)
        neuron = placement.layers[0].neuron(0)
        for word in range(neuron.fan_in + 1):
            pe, address = neuron.locate(word)
            segment = next(
                s
                for s in neuron.segments
                if s.word_offset <= word < s.word_offset + s.length
            )
            assert pe == segment.pe
            assert segment.base_address <= address < segment.end_address
        with pytest.raises(IndexError):
            neuron.locate(neuron.fan_in + 1)

    def test_total_overflow_still_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            WeightPlacement((100, 50, 10), num_pes=2, words_per_bank=64)

    def test_store_load_roundtrip_with_spill(self, network, quantizer):
        memory = WeightMemorySystem.build(8, 32, 16, seed=9)
        placement = WeightPlacement(network.widths, 8, 32)
        assert placement.spilled_neurons > 0
        quantized = quantizer.quantize_network(network)
        placement.store(memory, quantized)
        for layer_index in range(len(network.layers)):
            weight_words, bias_words = placement.load_layer_words(
                memory, layer_index, voltage=0.9
            )
            np.testing.assert_array_equal(
                weight_words, quantized.weight_words[layer_index]
            )
            np.testing.assert_array_equal(bias_words, quantized.bias_words[layer_index])

    def test_fault_masks_follow_spilled_words(self):
        placement = WeightPlacement((40, 2), num_pes=6, words_per_bank=16)
        neuron = placement.layers[0].neuron(1)
        # pick a word that lives in a spill segment (not the home bank)
        spill_segment = neuron.segments[-1]
        word_index = spill_segment.word_offset  # block word inside the spill
        assert word_index > 0  # a weight word, not the bias
        pe, address = neuron.locate(word_index)
        fault_maps = [FaultMap(16, 16) for _ in range(6)]
        fault_maps[pe].add(BitFault(address, 5, 1))
        weight_and, weight_or, bias_and, bias_or = placement.fault_masks(
            fault_maps, word_bits=16
        )[0]
        assert weight_or[word_index - 1, 1] == 1 << 5
        assert np.count_nonzero(weight_or) == 1
        assert np.all(weight_and == 0xFFFF)
        assert np.all(bias_and == 0xFFFF) and np.all(bias_or == 0)

    def test_fault_masks_reject_undersized_maps_for_spill_segments(self):
        placement = WeightPlacement((40, 2), num_pes=6, words_per_bank=16)
        small = [FaultMap(4, 16) for _ in range(6)]
        with pytest.raises(IndexError):
            placement.fault_masks(small, 16)


class TestCapacityPlanning:
    def test_plan_matches_allocated_placement(self):
        report = plan_capacity((20, 10, 3), 8, 32)
        placement = WeightPlacement((20, 10, 3), 8, 32)
        assert report.fits
        assert report.words_required == placement.total_words_used == 21 * 10 + 11 * 3
        assert report.words_used_per_pe == tuple(placement.words_used_per_pe)
        assert report.spilled_neurons == placement.spilled_neurons
        assert report.num_segments == placement.num_segments
        assert 0 < report.utilization <= 1

    def test_plan_reports_overflow_without_raising(self):
        report = plan_capacity((100, 50, 10), 2, 64)
        assert not report.fits
        assert report.words_required == 101 * 50 + 51 * 10
        assert report.total_capacity_words == 128
        assert report.utilization > 1
        assert "DOES NOT FIT" in report.to_text()

    def test_fits_iff_total_capacity_suffices(self):
        required = 21 * 10 + 11 * 3  # the 20-10-3 model
        assert plan_capacity((20, 10, 3), 1, required).fits
        assert not plan_capacity((20, 10, 3), 1, required - 1).fits

    def test_compiler_capacity_report(self, network):
        compiler = MicrocodeCompiler(num_pes=4, words_per_bank=16)
        assert not compiler.capacity_report(network).fits
        assert not compiler.capacity_report(network.widths).fits
        assert MicrocodeCompiler(num_pes=8, words_per_bank=512).capacity_report(
            network
        ).fits

    def test_plan_rejects_invalid_geometry(self):
        with pytest.raises(ValueError):
            plan_capacity((4, 2), 0, 16)


class TestGeometryInvariantExecution:
    """The same model must compute bit-identical outputs on every geometry
    that fits it, match the software reference, and keep the stats
    invariants (macs, sram_reads) at every point — spill included."""

    def _deploy(self, network, quantizer, num_pes, words_per_bank, seed=5):
        memory = WeightMemorySystem.build(num_pes, words_per_bank, 16, seed=seed)
        npu = Npu(memory)
        program = npu.deploy(network, quantizer)
        return npu, program

    def test_forward_bit_identical_across_geometries(self, network, quantizer):
        x = np.random.default_rng(1).random((9, 20))
        reference_output = None
        for num_pes, words_per_bank in GEOMETRIES:
            npu, program = self._deploy(network, quantizer, num_pes, words_per_bank)
            hardware, _ = npu.run(x, sram_voltage=0.9)
            software = npu.reference_forward(x)
            np.testing.assert_array_equal(hardware, software)
            if reference_output is None:
                reference_output = hardware
            else:
                np.testing.assert_array_equal(hardware, reference_output)

    def test_stats_invariants_hold_at_every_geometry(self, network, quantizer):
        x = np.random.default_rng(2).random((5, 20))
        expected_macs = 20 * 10 + 10 * 3
        expected_words = 21 * 10 + 11 * 3
        for num_pes, words_per_bank in GEOMETRIES:
            npu, program = self._deploy(network, quantizer, num_pes, words_per_bank)
            _, stats = npu.run(x, sram_voltage=0.9)
            assert program.total_macs_per_inference == expected_macs
            assert stats.macs == expected_macs * 5
            assert stats.sram_reads == expected_words
            assert stats.cycles == program.total_cycles_per_inference

    def test_spill_costs_extra_passes(self, network, quantizer):
        roomy = MicrocodeCompiler(num_pes=8, words_per_bank=512).compile(
            network, quantizer
        )
        tight = MicrocodeCompiler(num_pes=8, words_per_bank=32).compile(
            network, quantizer
        )
        assert tight.placement.spilled_neurons > 0
        assert sum(l.passes for l in tight.layers) > sum(l.passes for l in roomy.layers)
        assert tight.total_cycles_per_inference > roomy.total_cycles_per_inference

    def test_default_geometry_keeps_historical_cycle_formula(self, quantizer):
        network = Network("10-12-3", seed=0)
        program = MicrocodeCompiler(num_pes=4, words_per_bank=64).compile(
            network, quantizer
        )
        layer0, layer1 = program.layers
        assert layer0.cycles == 3 * (10 + 1 + 4)
        assert layer1.cycles == 1 * (12 + 1 + 4)

    def test_refresh_restores_spilled_weights_after_overscaling(
        self, network, quantizer
    ):
        npu, _ = self._deploy(network, quantizer, 8, 32)
        x = np.random.default_rng(3).random((4, 20))
        nominal = npu.predict(x, sram_voltage=0.9)
        npu.predict(x, sram_voltage=0.42)  # corrupts storage
        npu.refresh_weights()
        np.testing.assert_allclose(npu.predict(x, sram_voltage=0.9), nominal)


class TestGeometryScaledEnergy:
    def test_reference_geometry_reproduces_chip_calibration_exactly(self):
        base = SnnacEnergyModel()
        scaled = SnnacEnergyModel.for_geometry()
        for point in (
            NOMINAL_OPERATING_POINT,
            OperatingPoint(0.55, 0.50, 17.8e6),
            OperatingPoint(0.65, 0.65, 250.0e6),
        ):
            expected = base.breakdown(point)
            got = scaled.breakdown(point)
            assert got.logic_dynamic == expected.logic_dynamic
            assert got.logic_leakage == expected.logic_leakage
            assert got.sram_dynamic == expected.sram_dynamic
            assert got.sram_leakage == expected.sram_leakage

    def test_logic_energy_scales_with_pe_count(self):
        base = SnnacEnergyModel().breakdown(NOMINAL_OPERATING_POINT)
        double = SnnacEnergyModel.for_geometry(num_pes=16).breakdown(
            NOMINAL_OPERATING_POINT
        )
        assert double.logic_dynamic == pytest.approx(2 * base.logic_dynamic)
        assert double.logic_leakage == pytest.approx(2 * base.logic_leakage)
        # 16 PEs also double the number of weight banks
        assert double.sram_dynamic == pytest.approx(2 * base.sram_dynamic)

    def test_sram_energy_scales_with_bit_count(self):
        base = SnnacEnergyModel().breakdown(NOMINAL_OPERATING_POINT)
        half = SnnacEnergyModel.for_geometry(words_per_bank=256).breakdown(
            NOMINAL_OPERATING_POINT
        )
        assert half.sram_dynamic == pytest.approx(0.5 * base.sram_dynamic)
        assert half.sram_leakage == pytest.approx(0.5 * base.sram_leakage)
        assert half.logic_dynamic == base.logic_dynamic

    def test_timing_models_are_geometry_independent(self):
        base = SnnacEnergyModel()
        scaled = SnnacEnergyModel.for_geometry(num_pes=16, words_per_bank=128)
        assert scaled.logic_frequency.fmax(0.7) == base.logic_frequency.fmax(0.7)
        assert scaled.sram_frequency.fmax(0.7) == base.sram_frequency.fmax(0.7)

    def test_rejects_non_positive_geometry(self):
        with pytest.raises(ValueError):
            SnnacEnergyModel.for_geometry(num_pes=0)

    def test_snnac_auto_scales_its_energy_model(self):
        default_chip = Snnac(SnnacConfig(seed=0))
        big_chip = Snnac(SnnacConfig(num_pes=16, seed=0))
        nominal = NOMINAL_OPERATING_POINT
        assert big_chip.energy_model.breakdown(nominal).logic_dynamic == pytest.approx(
            2 * default_chip.energy_model.breakdown(nominal).logic_dynamic
        )


class TestChipCharacteristics:
    def test_default_matches_fabricated_chip(self):
        assert CHIP_CHARACTERISTICS["num_pes"] == 8
        assert CHIP_CHARACTERISTICS["sram_kb"] == pytest.approx(9.0)
        assert CHIP_CHARACTERISTICS["core_area_mm2"] == pytest.approx(1.15 * 1.2)
        assert CHIP_CHARACTERISTICS["nominal_power_w"] == pytest.approx(16.8e-3)
        assert CHIP_CHARACTERISTICS["nominal_energy_per_cycle_pj"] == pytest.approx(67.1)

    def test_characteristics_derive_from_config(self):
        characteristics = chip_characteristics(SnnacConfig(num_pes=16))
        assert characteristics["num_pes"] == 16
        assert characteristics["sram_kb"] == pytest.approx(17.0)
        assert characteristics["nominal_power_w"] > CHIP_CHARACTERISTICS["nominal_power_w"]

    def test_chip_reports_its_own_geometry(self):
        chip = Snnac(SnnacConfig(num_pes=4, words_per_bank=256, seed=2))
        characteristics = chip.characteristics()
        assert characteristics["num_pes"] == 4
        assert characteristics["words_per_bank"] == 256
        assert characteristics["sram_kb"] == pytest.approx(4 * 256 * 16 / 8192 + 1)
