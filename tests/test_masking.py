"""Unit tests for injection masking (repro.matic.masking)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import MicrocodeCompiler
from repro.matic import FaultMaskSet, LayerMasks, apply_masks_to_values
from repro.nn import Network
from repro.quant import FixedPointFormat, WeightQuantizer
from repro.sram import BitFault, FaultMap, WeightMemorySystem


@pytest.fixture()
def network():
    return Network("6-8-3", seed=0)


@pytest.fixture()
def quantizer():
    return WeightQuantizer(total_bits=16, frac_bits=13)


class TestApplyMasksToValues:
    def test_identity_masks_equal_quantization(self):
        fmt = FixedPointFormat(16, 13)
        values = np.array([0.1, -0.7, 2.3])
        and_mask = np.full(3, 0xFFFF, dtype=np.uint64)
        or_mask = np.zeros(3, dtype=np.uint64)
        np.testing.assert_allclose(
            apply_masks_to_values(values, and_mask, or_mask, fmt), fmt.quantize(values)
        )

    def test_stuck_sign_bit_forces_negative(self):
        fmt = FixedPointFormat(16, 13)
        values = np.array([1.0])
        and_mask = np.array([0xFFFF], dtype=np.uint64)
        or_mask = np.array([1 << 15], dtype=np.uint64)
        out = apply_masks_to_values(values, and_mask, or_mask, fmt)
        assert out[0] < 0

    def test_cleared_bits_reduce_magnitude(self):
        fmt = FixedPointFormat(8, 0)
        values = np.array([127.0])
        and_mask = np.array([0x0F], dtype=np.uint64)
        or_mask = np.array([0], dtype=np.uint64)
        out = apply_masks_to_values(values, and_mask, or_mask, fmt)
        assert out[0] == 15.0


class TestLayerMasks:
    def test_identity_counts_zero_faults(self):
        masks = LayerMasks.identity((4, 3), (3,), word_bits=16)
        assert masks.num_faulty_weight_bits == 0

    def test_fault_counting(self):
        masks = LayerMasks.identity((2, 2), (2,), word_bits=8)
        masks.weight_or[0, 0] = 0b11  # two stuck-at-1 bits
        masks.weight_and[1, 1] = 0xFF ^ 0b100  # one stuck-at-0 bit
        assert masks.num_faulty_weight_bits == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LayerMasks(
                weight_and=np.zeros((2, 2), dtype=np.uint64),
                weight_or=np.zeros((2, 3), dtype=np.uint64),
                bias_and=np.zeros(2, dtype=np.uint64),
                bias_or=np.zeros(2, dtype=np.uint64),
            )


class TestFaultMaskSet:
    def test_identity_set(self, network, quantizer):
        masks = FaultMaskSet.identity(network, quantizer)
        assert len(masks) == 2
        assert masks.fault_rate() == 0.0
        masks.install(network)
        for layer in network.layers:
            np.testing.assert_allclose(
                layer.effective_weights, quantizer.format_for(layer.weights).quantize(layer.weights)
                if quantizer.frac_bits is None
                else FixedPointFormat(16, 13).quantize(layer.weights),
            )
        network.clear_effective()

    def test_random_rate_accounting(self, network, quantizer):
        masks = FaultMaskSet.random(network, quantizer, fault_rate=0.1, rng=3)
        assert masks.fault_rate() == pytest.approx(0.1, abs=0.03)
        assert masks.total_faulty_bits > 0

    def test_random_zero_rate_is_identity(self, network, quantizer):
        masks = FaultMaskSet.random(network, quantizer, 0.0, rng=0)
        assert masks.total_faulty_bits == 0

    def test_random_invalid_rate(self, network, quantizer):
        with pytest.raises(ValueError):
            FaultMaskSet.random(network, quantizer, 1.5)

    def test_install_depth_mismatch(self, network, quantizer):
        masks = FaultMaskSet.identity(network, quantizer)
        other = Network("6-8-4-3", seed=0)
        with pytest.raises(ValueError):
            masks.install(other)

    def test_install_changes_effective_only(self, network, quantizer):
        masks = FaultMaskSet.random(network, quantizer, 0.2, rng=1)
        master_before = [layer.weights.copy() for layer in network.layers]
        masks.install(network)
        for layer, before in zip(network.layers, master_before):
            np.testing.assert_array_equal(layer.weights, before)
            assert layer.effective_weights is not None
        network.clear_effective()

    def test_masked_values_respect_masks(self, network, quantizer):
        masks = FaultMaskSet.random(network, quantizer, 0.3, rng=5)
        masks.install(network)
        weights = network.layers[0].effective_weights
        fmt = masks.layer_formats[0].weight_format
        words = fmt.float_to_word(weights)
        layer_masks = masks.layer_masks[0]
        # every stuck-at-1 bit is set, every stuck-at-0 bit is cleared
        assert np.all((words & layer_masks.weight_or) == layer_masks.weight_or)
        assert np.all((words | layer_masks.weight_and) == layer_masks.weight_and)

    def test_from_fault_maps_roundtrip_with_hardware(self, network, quantizer):
        """Masks derived from fault maps predict exactly what the SRAM returns."""
        memory = WeightMemorySystem.build(4, 64, 16, seed=17)
        compiler = MicrocodeCompiler(num_pes=4, words_per_bank=64)
        program = compiler.compile(network, quantizer)
        program.placement.store(memory, quantizer.quantize_network(network))

        voltage = 0.46
        fault_maps = [bank.fault_map_at(voltage) for bank in memory]
        mask_set = FaultMaskSet.from_fault_maps(
            network, quantizer, program.placement, fault_maps
        )
        mask_set.install(network)
        predicted_weights = network.layers[0].effective_weights
        predicted_bias = network.layers[0].effective_bias

        weight_words, bias_words = program.placement.load_layer_words(
            memory, 0, voltage=voltage
        )
        fmt = mask_set.layer_formats[0]
        np.testing.assert_allclose(
            predicted_weights, fmt.weight_format.word_to_float(weight_words)
        )
        np.testing.assert_allclose(
            predicted_bias, fmt.bias_format.word_to_float(bias_words)
        )

    def test_description_carried(self, network, quantizer):
        masks = FaultMaskSet.random(network, quantizer, 0.1, rng=0, description="test masks")
        assert masks.description == "test masks"

    @settings(max_examples=20, deadline=None)
    @given(rate=st.floats(0.0, 0.6), seed=st.integers(0, 50))
    def test_masked_values_stay_in_format_range(self, rate, seed):
        network = Network("5-4-2", seed=1)
        quantizer = WeightQuantizer(total_bits=12, frac_bits=8)
        masks = FaultMaskSet.random(network, quantizer, rate, rng=seed)
        masks.install(network)
        for layer, formats in zip(network.layers, masks.layer_formats):
            weights, fmt = layer.effective_weights, formats.weight_format
            assert np.all(weights <= fmt.max_value) and np.all(weights >= fmt.min_value)


class TestVectorizedHelpers:
    """The vectorized popcount / random-mask paths must match their
    pre-vectorization per-bit reference loops exactly."""

    @staticmethod
    def _reference_popcount(a: np.ndarray) -> int:
        total = 0
        a = a.copy()
        while np.any(a):
            total += int(np.sum(a & np.uint64(1)))
            a >>= np.uint64(1)
        return total

    @staticmethod
    def _reference_random_masks(shape, word_bits, fault_rate, stuck_one_probability, rng, full):
        and_mask = np.full(shape, full, dtype=np.uint64)
        or_mask = np.zeros(shape, dtype=np.uint64)
        stuck = rng.random(shape + (word_bits,)) < fault_rate
        stuck_one = rng.random(shape + (word_bits,)) < stuck_one_probability
        for bit in range(word_bits):
            bit_mask = np.uint64(1 << bit)
            clear_here = stuck[..., bit] & ~stuck_one[..., bit]
            set_here = stuck[..., bit] & stuck_one[..., bit]
            and_mask[clear_here] &= np.uint64(full ^ bit_mask)
            or_mask[set_here] |= bit_mask
        return and_mask, or_mask

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        word_bits=st.sampled_from([1, 8, 16, 22, 63, 64]),
        size=st.integers(0, 40),
    )
    def test_popcount_matches_reference(self, seed, word_bits, size):
        from repro.sram.bitops import popcount

        rng = np.random.default_rng(seed)
        high = (1 << word_bits) - 1
        words = rng.integers(0, high, size=size, endpoint=True, dtype=np.uint64)
        assert popcount(words) == self._reference_popcount(words)

    def test_popcount_all_64_bits(self):
        from repro.sram.bitops import popcount

        assert popcount(np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)) == 64
        assert popcount(np.zeros(5, dtype=np.uint64)) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        word_bits=st.sampled_from([1, 8, 16, 24]),
        rate=st.floats(0.0, 1.0),
        stuck_one=st.floats(0.0, 1.0),
    )
    def test_random_masks_match_reference(self, seed, rows, cols, word_bits, rate, stuck_one):
        from repro.matic.masking import _random_masks

        full = np.uint64((1 << word_bits) - 1)
        shape = (rows, cols)
        vec_and, vec_or = _random_masks(
            shape, word_bits, rate, stuck_one, np.random.default_rng(seed), full
        )
        ref_and, ref_or = self._reference_random_masks(
            shape, word_bits, rate, stuck_one, np.random.default_rng(seed), full
        )
        np.testing.assert_array_equal(vec_and, ref_and)
        np.testing.assert_array_equal(vec_or, ref_or)
