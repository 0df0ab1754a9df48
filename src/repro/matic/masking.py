"""Injection masking: applying SRAM fault maps to DNN weights.

This is the mechanism of Fig. 4 in the paper: profiled bit-cell failures are
expressed as per-word AND masks (cells stuck at 0) and OR masks (cells stuck
at 1).  During memory-adaptive training, the masks are applied to the
quantized weights before every forward pass so backprop sees — and
compensates for — exactly the corruption the deployed SRAM will inflict.

Two construction paths are provided:

* :meth:`FaultMaskSet.from_fault_maps` — derive masks from per-bank fault
  maps through the compiled weight placement (the post-silicon flow), and
* :meth:`FaultMaskSet.random` — statically flip a random proportion of
  weight bits (the paper's pre-silicon feasibility study, Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accelerator.microcode import WeightPlacement
from ..nn.network import Network, flat_layout
from ..quant.fixed_point import round_to_code
from ..quant.quantizer import LayerQuantization, WeightQuantizer
from ..sram.bitops import pack_bits, popcount
from ..sram.fault_map import FaultMap, masks_from_words

__all__ = ["LayerMasks", "FaultMaskSet", "CompiledMasks", "apply_masks_to_values"]


def apply_masks_to_values(
    values: np.ndarray,
    and_mask: np.ndarray,
    or_mask: np.ndarray,
    fmt,
) -> np.ndarray:
    """Quantize float values, corrupt their SRAM words, and decode back.

    Implements ``dequant((Q(values) & and_mask) | or_mask)`` with the given
    fixed-point format — the value the accelerator would actually read.
    """
    words = fmt.float_to_word(values)
    corrupted = (words & and_mask.astype(np.uint64)) | or_mask.astype(np.uint64)
    return fmt.word_to_float(corrupted)


@dataclass
class LayerMasks:
    """Per-layer injection masks, aligned with the layer's parameter shapes."""

    weight_and: np.ndarray
    weight_or: np.ndarray
    bias_and: np.ndarray
    bias_or: np.ndarray
    #: SRAM word length the masks describe (bits above it are ignored)
    word_bits: int = 16

    def __post_init__(self) -> None:
        for name in ("weight_and", "weight_or", "bias_and", "bias_or"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.uint64))
        if self.weight_and.shape != self.weight_or.shape:
            raise ValueError("weight mask shapes must match")
        if self.bias_and.shape != self.bias_or.shape:
            raise ValueError("bias mask shapes must match")
        if not 1 <= int(self.word_bits) <= 64:
            raise ValueError("word_bits must be in [1, 64]")

    @property
    def num_faulty_weight_bits(self) -> int:
        """Number of weight bits pinned by the masks."""
        full = np.uint64((1 << int(self.word_bits)) - 1)
        cleared = popcount(~self.weight_and & full)
        setbits = popcount(self.weight_or & full)
        return int(cleared + setbits)

    @classmethod
    def identity(cls, weight_shape: tuple[int, ...], bias_shape: tuple[int, ...], word_bits: int) -> "LayerMasks":
        """Masks that leave every bit untouched."""
        full = np.uint64((1 << word_bits) - 1)
        return cls(
            weight_and=np.full(weight_shape, full, dtype=np.uint64),
            weight_or=np.zeros(weight_shape, dtype=np.uint64),
            bias_and=np.full(bias_shape, full, dtype=np.uint64),
            bias_or=np.zeros(bias_shape, dtype=np.uint64),
            word_bits=word_bits,
        )


class FaultMaskSet:
    """Injection masks for every layer of a network, plus the formats used.

    The mask set is the contract between the SRAM profiling step and the
    memory-adaptive trainer: it fully determines how the deployed weights
    will be corrupted at the profiled operating point.
    """

    def __init__(
        self,
        layer_masks: list[LayerMasks],
        layer_formats: list[LayerQuantization],
        word_bits: int,
        description: str = "",
    ) -> None:
        if len(layer_masks) != len(layer_formats):
            raise ValueError("one LayerMasks per LayerQuantization is required")
        self.layer_masks = list(layer_masks)
        self.layer_formats = list(layer_formats)
        self.word_bits = int(word_bits)
        self.description = description

    def __len__(self) -> int:
        return len(self.layer_masks)

    @property
    def total_faulty_bits(self) -> int:
        return sum(masks.num_faulty_weight_bits for masks in self.layer_masks)

    def fault_rate(self) -> float:
        """Fraction of weight bits pinned across the whole network."""
        total_bits = sum(m.weight_and.size * self.word_bits for m in self.layer_masks)
        if total_bits == 0:
            return 0.0
        return self.total_faulty_bits / total_bits

    # ----------------------------------------------------------- apply

    def compile(self, network: Network) -> "CompiledMasks":
        """Lay the masks out flat against ``network``'s parameters.

        Raises ``ValueError`` when the depth, any mask's shape or the word
        lengths do not fit the network.
        """
        return CompiledMasks(self, network)

    def install(self, network: Network) -> None:
        """Set every layer's effective parameters to the masked view."""
        compiled = self.compile(network)
        compiled.set_effective(network, compiled.masked(network))

    # ----------------------------------------------------- constructors

    @classmethod
    def identity(cls, network: Network, quantizer: WeightQuantizer) -> "FaultMaskSet":
        """A no-fault mask set (pure quantization, no bit errors)."""
        formats = quantizer.layer_formats(network)
        masks = [
            LayerMasks.identity(layer.weights.shape, layer.bias.shape, quantizer.total_bits)
            for layer in network.layers
        ]
        return cls(masks, formats, quantizer.total_bits, description="identity")

    @classmethod
    def from_fault_maps(
        cls,
        network: Network,
        quantizer: WeightQuantizer,
        placement: WeightPlacement,
        fault_maps: list[FaultMap],
        description: str = "",
    ) -> "FaultMaskSet":
        """Build masks from profiled per-bank fault maps via the placement."""
        formats = quantizer.layer_formats(network)
        word_bits = quantizer.total_bits
        masks = [
            LayerMasks(*layer_masks, word_bits=word_bits)
            for layer_masks in placement.fault_masks(fault_maps, word_bits)
        ]
        return cls(masks, formats, word_bits, description=description)

    @classmethod
    def random(
        cls,
        network: Network,
        quantizer: WeightQuantizer,
        fault_rate: float,
        rng: np.random.Generator | int | None = None,
        include_bias: bool = True,
        stuck_one_probability: float = 0.5,
        description: str = "",
    ) -> "FaultMaskSet":
        """Statically flip a random proportion of weight bits (Fig. 5 study)."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        formats = quantizer.layer_formats(network)
        word_bits = quantizer.total_bits
        full = np.uint64((1 << word_bits) - 1)
        masks: list[LayerMasks] = []
        for layer in network.layers:
            layer_masks = LayerMasks.identity(layer.weights.shape, layer.bias.shape, word_bits)
            layer_masks.weight_and, layer_masks.weight_or = _random_masks(
                layer.weights.shape, word_bits, fault_rate, stuck_one_probability, rng, full
            )
            if include_bias:
                layer_masks.bias_and, layer_masks.bias_or = _random_masks(
                    layer.bias.shape, word_bits, fault_rate, stuck_one_probability, rng, full
                )
            masks.append(layer_masks)
        return cls(
            masks,
            formats,
            word_bits,
            description=description or f"random fault rate {fault_rate:.3f}",
        )


class CompiledMasks:
    """A :class:`FaultMaskSet` laid out flat against one network's parameters.

    Every parameter is one element of a flat vector in
    :func:`~repro.nn.network.flat_layout` order, ``[W0 … Wn−1, b0 … bn−1]``,
    the order of the network's own parameter buffer.  Per element it holds
    the LSB ``scale``, the representable ``lower``/``upper`` values and the
    AND/OR masks as ``int64`` bit patterns.  Every layer shares one word
    length, so the code range and the sign-extension shift are scalars, and
    masking the whole network is a fixed handful of numpy calls whatever its
    depth.  Results equal :func:`apply_masks_to_values` per tensor bit for
    bit (see ``docs/performance.md``).

    It owns one flat buffer of masked parameters, :attr:`effective`, which
    :meth:`apply` overwrites on every call.  Memory-adaptive training points
    the layers' effective views at it once per fit and rewrites it every
    step; a view meant to outlive the next :meth:`apply` needs a
    :class:`CompiledMasks` of its own, as :meth:`FaultMaskSet.install` makes.
    """

    def __init__(self, mask_set: FaultMaskSet, network: Network) -> None:
        layers = network.layers
        if len(layers) != len(mask_set.layer_masks):
            raise ValueError("mask set does not match network depth")
        entries = list(enumerate(zip(mask_set.layer_masks, mask_set.layer_formats)))
        # one row per tensor, in flat_layout order: (name, AND mask, OR mask, format)
        tensors = [
            (f"layer {index} weights", masks.weight_and, masks.weight_or, fmt.weight_format)
            for index, (masks, fmt) in entries
        ] + [
            (f"layer {index} bias", masks.bias_and, masks.bias_or, fmt.bias_format)
            for index, (masks, fmt) in entries
        ]
        self._views = flat_layout(layers)
        for (name, and_mask, or_mask, _), (_, shape) in zip(tensors, self._views):
            # a mis-shaped mask would broadcast one row's faults to every row
            if np.shape(and_mask) != shape or np.shape(or_mask) != shape:
                raise ValueError(
                    f"{name}: mask shape {np.shape(and_mask)} does not match "
                    f"parameter shape {shape}"
                )
        _, and_masks, or_masks, formats = zip(*tensors)
        word_lengths = {fmt.total_bits for fmt in formats}
        if len(word_lengths) != 1:
            raise ValueError(f"layer formats mix word lengths {sorted(word_lengths)}")
        sizes = [span.stop - span.start for span, _ in self._views]
        #: number of weight elements (the prefix weight decay applies to)
        self.num_weights = self._views[len(layers) - 1][0].stop
        self.scale = np.repeat([fmt.scale for fmt in formats], sizes)
        self.lower = np.repeat([fmt.min_value for fmt in formats], sizes)
        self.upper = np.repeat([fmt.max_value for fmt in formats], sizes)
        self.and_mask = _flat([np.asarray(m, dtype=np.uint64) for m in and_masks]).view(np.int64)
        self.or_mask = _flat([np.asarray(m, dtype=np.uint64) for m in or_masks]).view(np.int64)
        self.min_code = formats[0].min_code
        self.max_code = formats[0].max_code
        self.shift = 64 - formats[0].total_bits
        #: the masked parameters, flat; :meth:`apply` writes them
        self.effective = np.empty_like(self.scale)

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Saturated codes of flat values, exactly ``quantize_to_code`` per tensor.

        A NaN value raises ``ValueError`` (see :func:`round_to_code`).
        """
        return round_to_code(values / self.scale, self.min_code, self.max_code)

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Flat values clamped to each element's representable range."""
        # np.clip's result in two ufunc passes, without its dispatch overhead
        return np.minimum(np.maximum(values, self.lower), self.upper)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        """Flat codes back to values."""
        return np.multiply(codes, self.scale)

    def apply(self, codes: np.ndarray) -> np.ndarray:
        """Flat codes through the AND/OR masks, decoded into :attr:`effective`."""
        words = (codes & self.and_mask) | self.or_mask
        # move the word's sign bit to bit 63 and shift back arithmetically:
        # the bits above the word (from the codes or the masks) drop out
        words <<= self.shift
        words >>= self.shift
        return np.multiply(words, self.scale, out=self.effective)  # dequantize in place

    def masked(self, network: Network) -> np.ndarray:
        """The masked view of the network's master parameters: :attr:`effective`."""
        return self.apply(self.quantize(network.flat_parameters()))

    def split(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(weights, bias)`` views into a flat vector."""
        views = [flat[span].reshape(shape) for span, shape in self._views]
        depth = len(views) // 2
        return list(zip(views[:depth], views[depth:]))

    def set_effective(self, network: Network, flat: np.ndarray) -> None:
        """Install views of ``flat`` as every layer's effective parameters."""
        for layer, (weights, bias) in zip(network.layers, self.split(flat)):
            layer.set_effective(weights, bias)


def _flat(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays raveled (C order) and joined end to end."""
    return np.concatenate(arrays, axis=None)


def _random_masks(
    shape: tuple[int, ...],
    word_bits: int,
    fault_rate: float,
    stuck_one_probability: float,
    rng: np.random.Generator,
    full: np.uint64,
) -> tuple[np.ndarray, np.ndarray]:
    """Random per-word AND/OR masks with the given bit-level fault rate.

    The RNG draws (two uniform matrices over ``shape + (word_bits,)``) match
    the pre-vectorized implementation exactly, so masks for a given generator
    state are bit-identical to the historical ones.
    """
    stuck = pack_bits(rng.random(shape + (word_bits,)) < fault_rate)
    stuck_one = pack_bits(rng.random(shape + (word_bits,)) < stuck_one_probability)
    return masks_from_words(stuck, stuck_one, full)
