"""Tests for frozen per-layer quantization formats and flow format consistency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matic import MaticFlow
from repro.nn import Network
from repro.quant import FrozenWeightQuantizer, WeightQuantizer


class TestFrozenWeightQuantizer:
    def test_freeze_returns_pinned_formats(self):
        network = Network("6-5-3", seed=0)
        base = WeightQuantizer(total_bits=16)
        formats = base.layer_formats(network)
        frozen = base.freeze(formats)
        assert isinstance(frozen, FrozenWeightQuantizer)
        assert frozen.layer_formats(network) == formats

    def test_frozen_formats_ignore_weight_changes(self):
        network = Network("6-5-3", seed=0)
        base = WeightQuantizer(total_bits=16)
        frozen = base.freeze(base.layer_formats(network))
        before = frozen.layer_formats(network)
        # grow the weights far beyond the original range
        network.layers[0].weights *= 100.0
        after = frozen.layer_formats(network)
        assert before == after
        # while a plain range-fitted quantizer would pick a wider format
        refit = base.layer_formats(network)
        assert refit[0].weight_format.frac_bits < before[0].weight_format.frac_bits

    def test_layer_count_mismatch_raises(self):
        network = Network("6-5-3", seed=0)
        other = Network("6-5-4-3", seed=0)
        base = WeightQuantizer(total_bits=16)
        frozen = base.freeze(base.layer_formats(network))
        with pytest.raises(ValueError):
            frozen.layer_formats(other)

    def test_requires_formats(self):
        with pytest.raises(ValueError):
            FrozenWeightQuantizer(16, [])

    def test_quantize_network_uses_frozen_formats(self):
        network = Network("4-3-2", seed=1)
        base = WeightQuantizer(total_bits=16)
        frozen = base.freeze(base.layer_formats(network))
        network.layers[0].weights *= 50.0  # would overflow the frozen range
        quantized = frozen.quantize_network(network)
        # values saturate at the frozen format's range instead of refitting
        fmt = quantized.layer_formats[0].weight_format
        decoded = fmt.word_to_float(quantized.weight_words[0])
        assert np.max(decoded) <= fmt.max_value
        assert np.min(decoded) >= fmt.min_value


class TestFlowFormatConsistency:
    def test_flow_quantizer_for_freezes_initial_formats(self):
        network = Network("6-5-3", seed=0)
        flow = MaticFlow(word_bits=16, frac_bits=None)
        quantizer = flow.quantizer_for(network)
        assert isinstance(quantizer, FrozenWeightQuantizer)
        reference = WeightQuantizer(16).layer_formats(network)
        assert quantizer.layer_formats(network) == reference

    def test_flow_with_explicit_frac_bits_still_freezes(self):
        network = Network("6-5-3", seed=0)
        flow = MaticFlow(word_bits=16, frac_bits=12)
        quantizer = flow.quantizer_for(network)
        formats = quantizer.layer_formats(network)
        assert all(f.weight_format.frac_bits == 12 for f in formats)

    def test_flow_word_bits_respected(self):
        network = Network("6-5-3", seed=0)
        flow = MaticFlow(word_bits=12, frac_bits=None)
        quantizer = flow.quantizer_for(network)
        formats = quantizer.layer_formats(network)
        assert all(f.weight_format.total_bits == 12 for f in formats)
