"""Unit tests for repro.quant.quantizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matic import FaultMaskSet
from repro.nn import Network
from repro.quant import FixedPointFormat, WeightQuantizer


def install_quantized(network, quantizer):
    """Install the quantized weights as the effective view (no bit errors)."""
    FaultMaskSet.identity(network, quantizer).install(network)


@pytest.fixture()
def network():
    return Network("6-5-3", seed=0)


class TestFormatSelection:
    def test_fixed_frac_bits(self, network):
        quantizer = WeightQuantizer(total_bits=16, frac_bits=10)
        for fmt in quantizer.layer_formats(network):
            assert fmt.weight_format.frac_bits == 10
            assert fmt.bias_format.frac_bits == 10

    def test_range_fitted_formats_cover_weights(self, network):
        network.layers[0].weights[0, 0] = 5.7
        quantizer = WeightQuantizer(total_bits=16)
        formats = quantizer.layer_formats(network)
        assert formats[0].weight_format.max_value >= 5.7

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WeightQuantizer(total_bits=1)
        with pytest.raises(ValueError):
            WeightQuantizer(total_bits=16, frac_bits=16)

    def test_format_for_empty_and_tiny_values(self):
        quantizer = WeightQuantizer(total_bits=16)
        fmt = quantizer.format_for(np.array([1e-9, -1e-9]))
        assert isinstance(fmt, FixedPointFormat)
        assert fmt.max_value >= 1e-6


class TestQuantizeNetwork:
    def test_word_shapes_match_layers(self, network):
        quantizer = WeightQuantizer(total_bits=16, frac_bits=12)
        quantized = quantizer.quantize_network(network)
        assert len(quantized.weight_words) == len(network.layers)
        for layer, words, bias_words in zip(
            network.layers, quantized.weight_words, quantized.bias_words
        ):
            assert words.shape == layer.weights.shape
            assert bias_words.shape == layer.bias.shape
            assert words.dtype == np.uint64

    def test_roundtrip_error_bounded_by_lsb(self, network):
        quantizer = WeightQuantizer(total_bits=16, frac_bits=12)
        quantized = quantizer.quantize_network(network)
        for words, bias_words, layer, fmt in zip(
            quantized.weight_words,
            quantized.bias_words,
            network.layers,
            quantized.layer_formats,
        ):
            weights = fmt.weight_format.word_to_float(words)
            bias = fmt.bias_format.word_to_float(bias_words)
            assert np.max(np.abs(weights - layer.weights)) <= fmt.weight_format.scale
            assert np.max(np.abs(bias - layer.bias)) <= fmt.bias_format.scale

    def test_layer_format_count_validation(self, network):
        quantizer = WeightQuantizer(total_bits=16, frac_bits=12)
        formats = quantizer.layer_formats(network)
        with pytest.raises(ValueError):
            quantizer.quantize_network(network, formats[:1])

    def test_apply_to_network_sets_effective(self, network):
        install_quantized(network, WeightQuantizer(total_bits=8, frac_bits=4))
        for layer in network.layers:
            assert layer.effective_weights is not None
            # effective weights lie on the quantization grid
            codes = layer.effective_weights / (2.0**-4)
            np.testing.assert_allclose(codes, np.round(codes), atol=1e-9)
        network.clear_effective()

    def test_apply_changes_predictions_only_slightly(self, network):
        x = np.random.default_rng(0).normal(size=(10, 6))
        before = network.predict(x)
        install_quantized(network, WeightQuantizer(total_bits=16, frac_bits=12))
        after = network.predict(x)
        assert np.max(np.abs(before - after)) < 0.01
        network.clear_effective()

    def test_coarse_quantization_changes_predictions_more(self, network):
        x = np.random.default_rng(0).normal(size=(10, 6))
        before = network.predict(x)
        install_quantized(network, WeightQuantizer(total_bits=6, frac_bits=2))
        coarse = network.predict(x)
        network.clear_effective()
        install_quantized(network, WeightQuantizer(total_bits=16, frac_bits=12))
        fine = network.predict(x)
        network.clear_effective()
        assert np.max(np.abs(before - coarse)) >= np.max(np.abs(before - fine))

    def test_snr_improves_with_word_length(self, network):
        def noise_power(total_bits):
            formats = WeightQuantizer(total_bits=total_bits).layer_formats(network)
            return sum(
                float(np.sum(fmt.weight_format.quantization_error(layer.weights) ** 2))
                for layer, fmt in zip(network.layers, formats)
            )

        signal = sum(float(np.sum(layer.weights**2)) for layer in network.layers)
        assert signal > noise_power(8) > noise_power(16) > 0
