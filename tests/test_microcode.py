"""Unit tests for the microcode compiler and weight placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import MicrocodeCompiler, WeightPlacement
from repro.nn import Network
from repro.quant import WeightQuantizer
from repro.sram import FaultMap, BitFault, WeightMemorySystem


@pytest.fixture()
def network():
    return Network("10-12-3", seed=0)


@pytest.fixture()
def quantizer():
    return WeightQuantizer(total_bits=16, frac_bits=13)


@pytest.fixture()
def memory():
    return WeightMemorySystem.build(4, 64, 16, seed=9)


class TestWeightPlacement:
    def test_round_robin_pe_assignment(self):
        placement = WeightPlacement((10, 12, 3), num_pes=4, words_per_bank=64)
        layer0 = placement.layers[0]
        assert [n.pe for n in layer0.neurons[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_addresses_are_contiguous_and_disjoint(self):
        placement = WeightPlacement((10, 12, 3), num_pes=4, words_per_bank=64)
        occupied = {pe: set() for pe in range(4)}
        for layer in placement.layers:
            for neuron in layer.neurons:
                span = set(range(neuron.base_address, neuron.base_address + neuron.fan_in + 1))
                assert not (occupied[neuron.pe] & span)
                occupied[neuron.pe] |= span
        for pe, used in occupied.items():
            assert len(used) == placement.words_used_per_pe[pe]

    def test_capacity_overflow_raises(self):
        with pytest.raises(ValueError, match="does not fit"):
            WeightPlacement((100, 50, 10), num_pes=2, words_per_bank=64)

    def test_weight_address_bounds(self):
        placement = WeightPlacement((4, 3), num_pes=2, words_per_bank=16)
        neuron = placement.layers[0].neuron(0)
        assert neuron.bias_address == neuron.base_address
        assert neuron.weight_address(0) == neuron.base_address + 1
        with pytest.raises(IndexError):
            neuron.weight_address(4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeightPlacement((4, 2), num_pes=0, words_per_bank=8)

    def test_store_and_load_roundtrip(self, network, quantizer, memory):
        placement = WeightPlacement(network.widths, len(memory), 64)
        quantized = quantizer.quantize_network(network)
        placement.store(memory, quantized)
        for layer_index in range(len(network.layers)):
            weight_words, bias_words = placement.load_layer_words(
                memory, layer_index, voltage=0.9
            )
            np.testing.assert_array_equal(weight_words, quantized.weight_words[layer_index])
            np.testing.assert_array_equal(bias_words, quantized.bias_words[layer_index])

    def test_store_validates_layer_count(self, network, quantizer, memory):
        placement = WeightPlacement(network.widths, len(memory), 64)
        quantized = quantizer.quantize_network(network)
        quantized.weight_words.pop()
        with pytest.raises(ValueError):
            placement.store(memory, quantized)

    def test_low_voltage_load_corrupts_words(self, network, quantizer, memory):
        placement = WeightPlacement(network.widths, len(memory), 64)
        quantized = quantizer.quantize_network(network)
        placement.store(memory, quantized)
        weight_words, _ = placement.load_layer_words(memory, 0, voltage=0.44)
        assert not np.array_equal(weight_words, quantized.weight_words[0])

    def test_layer_fault_masks_alignment(self, network, quantizer, memory):
        """A fault injected at a known placement location shows up at exactly
        the corresponding position of the layer mask."""
        placement = WeightPlacement(network.widths, len(memory), 64)
        neuron = placement.layers[0].neuron(5)
        fault_maps = [FaultMap(64, 16) for _ in range(len(memory))]
        fault_maps[neuron.pe].add(BitFault(neuron.weight_address(2), 7, 1))
        fault_maps[neuron.pe].add(BitFault(neuron.bias_address, 3, 0))
        weight_and, weight_or, bias_and, bias_or = placement.fault_masks(
            fault_maps, word_bits=16
        )[0]
        assert weight_or[2, 5] == 1 << 7
        assert bias_and[5] == 0xFFFF ^ (1 << 3)
        # everything else untouched
        assert np.count_nonzero(weight_or) == 1
        assert np.count_nonzero(bias_and != 0xFFFF) == 1

    def test_fault_masks_cover_every_layer(self, network, memory):
        """One stack of bank masks serves each layer's own words."""
        placement = WeightPlacement(network.widths, len(memory), 64)
        neuron = placement.layers[1].neuron(2)
        fault_maps = [FaultMap(64, 16) for _ in range(len(memory))]
        fault_maps[neuron.pe].add(BitFault(neuron.weight_address(4), 9, 1))
        first, second = placement.fault_masks(fault_maps, word_bits=16)
        assert second[1][4, 2] == 1 << 9 and np.count_nonzero(second[1]) == 1
        assert second[0].shape == (12, 3) and second[2].shape == (3,)
        assert not np.any(first[1]) and np.all(first[0] == 0xFFFF)

    def test_layer_fault_masks_requires_enough_maps(self, network, memory):
        placement = WeightPlacement(network.widths, len(memory), 64)
        with pytest.raises(ValueError):
            placement.fault_masks([FaultMap(64, 16)], 16)

    def test_layer_fault_masks_rejects_undersized_maps(self, network, memory):
        """A fault map that does not cover the placed address range must fail
        loudly, not silently read identity masks from padding."""
        placement = WeightPlacement(network.widths, len(memory), 64)
        small_maps = [FaultMap(4, 16) for _ in range(len(memory))]
        with pytest.raises(IndexError):
            placement.fault_masks(small_maps, 16)

    def test_layer_fault_masks_order_independent(self, network, memory):
        """Masks attach to placements by neuron index, not list position."""
        placement = WeightPlacement(network.widths, len(memory), 64)
        neuron = placement.layers[0].neuron(5)
        fault_maps = [FaultMap(64, 16) for _ in range(len(memory))]
        fault_maps[neuron.pe].add(BitFault(neuron.weight_address(2), 7, 1))
        reference = placement.fault_masks(fault_maps, word_bits=16)[0]
        placement.layers[0].neurons.reverse()
        permuted = placement.fault_masks(fault_maps, word_bits=16)[0]
        for expected, got in zip(reference, permuted):
            np.testing.assert_array_equal(expected, got)

    def test_layer_fault_masks_mixed_bank_sizes(self, network, quantizer, memory):
        """Banks of different depths gather correctly through the padded
        stacked-mask matrix."""
        placement = WeightPlacement(network.widths, len(memory), 64)
        fault_maps = [FaultMap(64 + 16 * index, 16) for index in range(len(memory))]
        neuron = placement.layers[0].neuron(2)
        fault_maps[neuron.pe].add(BitFault(neuron.weight_address(0), 1, 1))
        weight_and, weight_or, bias_and, bias_or = placement.fault_masks(
            fault_maps, word_bits=16
        )[0]
        assert weight_or[0, 2] == 0b10
        assert np.count_nonzero(weight_or) == 1
        assert np.all(weight_and == 0xFFFF)
        assert np.all(bias_and == 0xFFFF) and np.all(bias_or == 0)


class TestMicrocodeCompiler:
    def test_program_structure(self, network, quantizer):
        compiler = MicrocodeCompiler(num_pes=4, words_per_bank=64)
        program = compiler.compile(network, quantizer)
        assert program.topology == (10, 12, 3)
        assert len(program.layers) == 2
        assert program.word_bits == 16

    def test_pass_and_cycle_counts(self, network, quantizer):
        compiler = MicrocodeCompiler(num_pes=4, words_per_bank=64, pipeline_overhead=4)
        program = compiler.compile(network, quantizer)
        layer0, layer1 = program.layers
        assert layer0.passes == 3  # ceil(12 / 4)
        assert layer1.passes == 1  # ceil(3 / 4)
        assert layer0.cycles == 3 * (10 + 1 + 4)
        assert layer1.cycles == 1 * (12 + 1 + 4)
        assert program.total_cycles_per_inference == layer0.cycles + layer1.cycles

    def test_mac_counts(self, network, quantizer):
        program = MicrocodeCompiler(num_pes=4, words_per_bank=64).compile(network, quantizer)
        assert program.total_macs_per_inference == 10 * 12 + 12 * 3
        assert program.total_weight_words == (10 + 1) * 12 + (12 + 1) * 3

    def test_wide_layer_time_multiplexing(self, quantizer):
        wide = Network("8-100-2", seed=0)
        program = MicrocodeCompiler(num_pes=8, words_per_bank=256).compile(wide, quantizer)
        assert program.layers[0].passes == 13  # ceil(100 / 8)

    def test_invalid_compiler_parameters(self):
        with pytest.raises(ValueError):
            MicrocodeCompiler(num_pes=0)
        with pytest.raises(ValueError):
            MicrocodeCompiler(words_per_bank=0)
        with pytest.raises(ValueError):
            MicrocodeCompiler(pipeline_overhead=-1)

    def test_activation_recorded_per_layer(self, quantizer):
        net = Network("4-6-2", hidden_activation="tanh", output_activation="identity", seed=0)
        program = MicrocodeCompiler(num_pes=2, words_per_bank=64).compile(net, quantizer)
        assert program.layers[0].activation == "tanh"
        assert program.layers[1].activation == "identity"
