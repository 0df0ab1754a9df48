"""Per-network weight quantization.

The weight SRAM stores one fixed-point word per synaptic weight.  The
:class:`WeightQuantizer` decides a fixed-point format per layer (or a single
shared format) and converts a network's float weights to SRAM words — the
building block both for naive deployment (quantize once, after training) and
for memory-adaptive training (quantize every iteration, inside the training
loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.network import Network
from .fixed_point import FixedPointFormat

__all__ = [
    "LayerQuantization",
    "WeightQuantizer",
    "FrozenWeightQuantizer",
    "QuantizedWeights",
]


@dataclass
class LayerQuantization:
    """Fixed-point formats chosen for one layer's weights and bias."""

    weight_format: FixedPointFormat
    bias_format: FixedPointFormat


@dataclass
class QuantizedWeights:
    """Quantized view of a network's parameters, as SRAM words.

    ``weight_words[i]`` has the same shape as layer ``i``'s weight matrix and
    holds unsigned two's-complement words; likewise for ``bias_words``.
    """

    weight_words: list[np.ndarray]
    bias_words: list[np.ndarray]
    layer_formats: list[LayerQuantization]


class WeightQuantizer:
    """Quantize a network's weights to fixed-point SRAM words.

    Parameters
    ----------
    total_bits:
        SRAM word length (8–22 for SNNAC; default 16).
    frac_bits:
        Fixed fraction width; when ``None`` (default) the fraction width is
        chosen per layer from the observed weight range, which is what the
        paper's toolchain does when compiling a model for the accelerator.
    """

    def __init__(self, total_bits: int = 16, frac_bits: int | None = None) -> None:
        if not 2 <= total_bits <= 64:
            raise ValueError("total_bits must be in [2, 64]")
        if frac_bits is not None and not 0 <= frac_bits < total_bits:
            raise ValueError("frac_bits must be in [0, total_bits)")
        self.total_bits = int(total_bits)
        self.frac_bits = frac_bits

    # ------------------------------------------------------------------

    def format_for(self, values: np.ndarray) -> FixedPointFormat:
        """Pick the fixed-point format for one parameter tensor."""
        if self.frac_bits is not None:
            return FixedPointFormat(self.total_bits, self.frac_bits)
        max_abs = float(np.max(np.abs(values))) if np.asarray(values).size else 1.0
        max_abs = max(max_abs, 1e-6)
        return FixedPointFormat.for_range(max_abs, total_bits=self.total_bits)

    def layer_formats(self, network: Network) -> list[LayerQuantization]:
        """Choose formats for every layer of ``network``."""
        formats = []
        for layer in network.layers:
            formats.append(
                LayerQuantization(
                    weight_format=self.format_for(layer.weights),
                    bias_format=self.format_for(layer.bias),
                )
            )
        return formats

    def quantize_network(
        self,
        network: Network,
        layer_formats: list[LayerQuantization] | None = None,
    ) -> QuantizedWeights:
        """Quantize all weights/biases of a network to SRAM words."""
        formats = layer_formats if layer_formats is not None else self.layer_formats(network)
        if len(formats) != len(network.layers):
            raise ValueError("one LayerQuantization per layer is required")
        weight_words = []
        bias_words = []
        for layer, fmt in zip(network.layers, formats):
            weight_words.append(fmt.weight_format.float_to_word(layer.weights))
            bias_words.append(fmt.bias_format.float_to_word(layer.bias))
        return QuantizedWeights(weight_words, bias_words, formats)

    def freeze(self, layer_formats: list[LayerQuantization]) -> "FrozenWeightQuantizer":
        """Return a quantizer pinned to the given per-layer formats.

        The MATIC flow computes formats once (from the pre-trained baseline)
        and freezes them so that injection masking during training and the
        final deployment to SRAM use *identical* word layouts — otherwise the
        profiled fault masks would not describe the deployed words.
        """
        return FrozenWeightQuantizer(self.total_bits, layer_formats)


class FrozenWeightQuantizer(WeightQuantizer):
    """A :class:`WeightQuantizer` pinned to a fixed list of per-layer formats.

    ``layer_formats`` ignores the network's current weight values and always
    returns the stored formats (after checking the layer count), so repeated
    quantization of an evolving model keeps using the word layout the fault
    masks were built for.
    """

    def __init__(self, total_bits: int, layer_formats: list[LayerQuantization]) -> None:
        super().__init__(total_bits=total_bits, frac_bits=None)
        if not layer_formats:
            raise ValueError("at least one layer format is required")
        self._frozen_formats = list(layer_formats)

    def layer_formats(self, network: Network) -> list[LayerQuantization]:
        if len(network.layers) != len(self._frozen_formats):
            raise ValueError(
                f"frozen quantizer has {len(self._frozen_formats)} layer formats, "
                f"network has {len(network.layers)} layers"
            )
        return list(self._frozen_formats)
