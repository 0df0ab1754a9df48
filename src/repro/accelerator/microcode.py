"""Model compilation: mapping a DNN onto SNNAC's PEs and weight SRAMs.

SNNAC executes statically compiled microcode: each DNN layer becomes a
sequence of time-multiplexed inner-product passes over the processing
elements, and every synaptic weight is assigned a home location (PE index,
SRAM word address) in one of the per-PE weight banks.

The :class:`MicrocodeCompiler` performs that mapping for the pure-numpy
:class:`~repro.nn.network.Network` models used in this reproduction:

* output neurons of a layer are distributed round-robin across PEs (neuron
  ``k`` prefers PE ``k mod num_pes``), and
* each neuron's parameters — the bias word followed by ``fan_in`` weight
  words — occupy one or more contiguous address *segments*
  (:class:`PlacementSegment`).  In the common case a neuron is a single
  segment in its preferred PE's bank, exactly the fabricated chip's layout;
  when a bank runs out of words the allocator **spills** the remainder into
  the next bank with free space instead of failing, modelling the extra
  passes a capacity-constrained geometry needs.  A model only fails to
  compile when the *total* weight-SRAM capacity is exceeded — use
  :func:`plan_capacity` / :meth:`MicrocodeCompiler.capacity_report` to check
  without raising.

The resulting :class:`WeightPlacement` is shared by the accelerator (to load
and read weights) and by MATIC (to translate per-bank SRAM fault maps into
per-layer injection masks aligned with the weight matrices).

Cycle model
-----------
Each layer executes as *passes* over the ring: the input vector (plus the
bias slot) streams past every PE once per pass, and in one pass each PE
works through at most one segment out of its bank.  The layer's cycle count
is therefore::

    passes = max_pe(segments hosted by the PE)
    cycles = passes * (fan_in + 1 + pipeline_overhead)

which reduces to the historical ``ceil(out/num_pes)`` passes for an
unspilled round-robin placement — and makes placement spill cost whole
extra passes, because a pass is paced by the input stream, not by how many
words the busiest PE happens to host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.network import Network
from ..quant.quantizer import LayerQuantization, QuantizedWeights, WeightQuantizer
from ..sram.array import WeightMemorySystem
from ..sram.fault_map import FaultMap

__all__ = [
    "PlacementSegment",
    "NeuronPlacement",
    "LayerPlacement",
    "LayerGatherPlan",
    "WeightPlacement",
    "CapacityReport",
    "plan_capacity",
    "LayerProgram",
    "NpuProgram",
    "MicrocodeCompiler",
]


@dataclass(frozen=True)
class PlacementSegment:
    """One contiguous SRAM address range holding part of a neuron's block.

    The neuron's parameter block is ``fan_in + 1`` words (word 0 is the
    bias, word ``1 + i`` the weight from input ``i``); this segment stores
    block words ``[word_offset, word_offset + length)`` at bank addresses
    ``[base_address, base_address + length)`` of PE ``pe``.
    """

    pe: int
    base_address: int
    word_offset: int
    length: int

    @property
    def end_address(self) -> int:
        return self.base_address + self.length


@dataclass(frozen=True)
class NeuronPlacement:
    """Home location(s) of one output neuron's parameters."""

    layer: int
    neuron: int
    fan_in: int
    segments: tuple[PlacementSegment, ...]

    @property
    def pe(self) -> int:
        """The neuron's home PE — the one hosting its bias word."""
        return self.segments[0].pe

    @property
    def base_address(self) -> int:
        """Bank address of the bias word (start of the first segment)."""
        return self.segments[0].base_address

    @property
    def spilled(self) -> bool:
        """Whether the block needed more than one segment."""
        return len(self.segments) > 1

    def locate(self, word_index: int) -> tuple[int, int]:
        """Resolve block word ``word_index`` to its ``(pe, address)`` home."""
        if not 0 <= word_index <= self.fan_in:
            raise IndexError("word index out of range")
        for segment in self.segments:
            if segment.word_offset <= word_index < segment.word_offset + segment.length:
                return segment.pe, segment.base_address + (
                    word_index - segment.word_offset
                )
        raise IndexError("placement segments do not cover the block")  # pragma: no cover


@dataclass
class LayerPlacement:
    """Placement of all neurons of one layer."""

    layer: int
    in_features: int
    out_features: int
    neurons: list[NeuronPlacement] = field(default_factory=list)

    def neuron(self, index: int) -> NeuronPlacement:
        return self.neurons[index]

    def segments_on(
        self, pe: int
    ) -> list[tuple[NeuronPlacement, PlacementSegment]]:
        """This layer's segments hosted by ``pe``, in neuron order."""
        return [
            (placement, segment)
            for placement in self.neurons
            for segment in placement.segments
            if segment.pe == pe
        ]

    def passes_required(self, num_pes: int) -> int:
        """Time-multiplexed passes the layer needs on a ``num_pes`` ring.

        Each pass streams the input vector past the ring once, with every
        PE working through at most one of its segments — so the pass count
        is the maximum number of segments any single PE hosts (at least 1).
        """
        segment_counts = [0] * num_pes
        for placement in self.neurons:
            for segment in placement.segments:
                segment_counts[segment.pe] += 1
        return max(1, max(segment_counts, default=0))

    @property
    def spilled_neurons(self) -> int:
        return sum(1 for placement in self.neurons if placement.spilled)

    @property
    def num_segments(self) -> int:
        return sum(len(placement.segments) for placement in self.neurons)


@dataclass(frozen=True)
class LayerGatherPlan:
    """Compiled per-PE access plan for one layer's SRAM word image.

    The layer's parameters live in a flat ``(out_features, fan_in + 1)``
    word image (column 0 the bias, column ``1 + i`` the weight from input
    ``i``).  For every PE hosting at least one word the plan precomputes:

    * ``addresses[k]`` — the PE's hosted bank addresses, every segment
      concatenated into one vector (the read order the ring used when it
      walked segments one by one; read-disturb corruption is per-cell and
      order-independent, so order only fixes determinism, not semantics),
    * ``scatter[k]`` — the matching flat indices into the word image, and
    * ``weight_words[k]`` — how many of those words are MAC operands
      (hosted words minus the bias words, which are add-only).

    Compiled once per placement and layer, so executing a layer is one
    vectorized bank read plus one fancy-indexed scatter per hosting PE —
    no per-segment Python loop at any geometry, spilled placements included.
    """

    layer_index: int
    in_features: int
    out_features: int
    #: PEs hosting at least one of the layer's words, ascending
    pe_indices: tuple[int, ...]
    addresses: tuple[np.ndarray, ...]
    scatter: tuple[np.ndarray, ...]
    weight_words: tuple[int, ...]
    #: time-multiplexed ring passes (== LayerPlacement.passes_required for
    #: any ring at least as wide as the placement)
    passes: int

    def per_pe(self):
        """Iterate ``(pe, addresses, scatter, weight_words)`` tuples."""
        return zip(self.pe_indices, self.addresses, self.scatter, self.weight_words)


class WeightPlacement:
    """Mapping between network parameters and weight-SRAM locations."""

    def __init__(
        self,
        widths: tuple[int, ...],
        num_pes: int,
        words_per_bank: int,
    ) -> None:
        if num_pes <= 0 or words_per_bank <= 0:
            raise ValueError("num_pes and words_per_bank must be positive")
        self.widths = tuple(int(w) for w in widths)
        self.num_pes = int(num_pes)
        self.words_per_bank = int(words_per_bank)
        self.layers: list[LayerPlacement] = []
        self._gather_plans: dict[int, LayerGatherPlan] = {}
        self._allocate()

    def _allocate(self) -> None:
        next_free = [0] * self.num_pes
        for layer_index, (fan_in, fan_out) in enumerate(
            zip(self.widths[:-1], self.widths[1:])
        ):
            layer = LayerPlacement(layer_index, fan_in, fan_out)
            for neuron in range(fan_out):
                required = fan_in + 1  # bias + weights
                segments: list[PlacementSegment] = []
                word = 0
                pe = neuron % self.num_pes
                probed = 0
                while word < required:
                    free = self.words_per_bank - next_free[pe]
                    if free <= 0:
                        pe = (pe + 1) % self.num_pes
                        probed += 1
                        if probed >= self.num_pes:
                            used = sum(next_free)
                            raise ValueError(
                                f"model does not fit: needs "
                                f"{used + (required - word)}+ words, capacity is "
                                f"{self.num_pes * self.words_per_bank} "
                                f"({self.num_pes} banks x {self.words_per_bank} words)"
                            )
                        continue
                    probed = 0
                    take = min(free, required - word)
                    segments.append(
                        PlacementSegment(pe, next_free[pe], word, take)
                    )
                    next_free[pe] += take
                    word += take
                layer.neurons.append(
                    NeuronPlacement(layer_index, neuron, fan_in, tuple(segments))
                )
            self.layers.append(layer)
        self.words_used_per_pe = list(next_free)

    # ---------------------------------------------------------- capacity

    @property
    def total_words_used(self) -> int:
        return sum(self.words_used_per_pe)

    @property
    def total_capacity_words(self) -> int:
        return self.num_pes * self.words_per_bank

    @property
    def spilled_neurons(self) -> int:
        return sum(layer.spilled_neurons for layer in self.layers)

    @property
    def num_segments(self) -> int:
        return sum(layer.num_segments for layer in self.layers)

    def capacity_report(self) -> "CapacityReport":
        """Capacity accounting for this (successfully allocated) placement."""
        return CapacityReport(
            num_pes=self.num_pes,
            words_per_bank=self.words_per_bank,
            total_capacity_words=self.total_capacity_words,
            words_required=self.total_words_used,
            fits=True,
            words_used_per_pe=tuple(self.words_used_per_pe),
            per_layer_words=tuple(
                (layer.in_features + 1) * layer.out_features for layer in self.layers
            ),
            spilled_neurons=self.spilled_neurons,
            num_segments=self.num_segments,
        )

    # --------------------------------------------------------- gather plans

    def gather_plan(self, layer_index: int) -> LayerGatherPlan:
        """The compiled :class:`LayerGatherPlan` for one layer (memoized).

        A placement is immutable after allocation, so plans are compiled
        lazily on first use and cached for the placement's lifetime.
        """
        plan = self._gather_plans.get(layer_index)
        if plan is None:
            layer = self.layers[layer_index]
            width = layer.in_features + 1
            per_pe_addresses: dict[int, list[np.ndarray]] = {}
            per_pe_scatter: dict[int, list[np.ndarray]] = {}
            per_pe_weight_words: dict[int, int] = {}
            for placement in layer.neurons:
                for segment in placement.segments:
                    per_pe_addresses.setdefault(segment.pe, []).append(
                        np.arange(segment.base_address, segment.end_address, dtype=np.intp)
                    )
                    start = placement.neuron * width + segment.word_offset
                    per_pe_scatter.setdefault(segment.pe, []).append(
                        np.arange(start, start + segment.length, dtype=np.intp)
                    )
                    # the bias word (block word 0) is not a MAC operand
                    per_pe_weight_words[segment.pe] = per_pe_weight_words.get(
                        segment.pe, 0
                    ) + segment.length - (1 if segment.word_offset == 0 else 0)
            pe_indices = tuple(sorted(per_pe_addresses))
            addresses = tuple(
                np.concatenate(per_pe_addresses[pe]) for pe in pe_indices
            )
            scatter = tuple(np.concatenate(per_pe_scatter[pe]) for pe in pe_indices)
            weight_words = tuple(per_pe_weight_words[pe] for pe in pe_indices)
            for array in (*addresses, *scatter):
                array.flags.writeable = False
            # work-accounting invariant: per-PE hosted weight words sum to the
            # layer's MAC operand count, spilled placements included — so
            # crediting each PE for its hosted words reconciles exactly with
            # LayerExecutionStats.macs (in_features * out_features * batch)
            assert sum(weight_words) == layer.in_features * layer.out_features, (
                f"gather plan for layer {layer_index} hosts {sum(weight_words)} "
                f"weight words, expected {layer.in_features * layer.out_features}"
            )
            plan = LayerGatherPlan(
                layer_index=layer_index,
                in_features=layer.in_features,
                out_features=layer.out_features,
                pe_indices=pe_indices,
                addresses=addresses,
                scatter=scatter,
                weight_words=weight_words,
                passes=layer.passes_required(self.num_pes),
            )
            self._gather_plans[layer_index] = plan
        return plan

    def _layer_word_image(
        self, layer: LayerPlacement, weight_words: np.ndarray, bias_words: np.ndarray
    ) -> np.ndarray:
        """Flat ``(out * (fan_in + 1),)`` word image from quantized arrays."""
        image = np.empty((layer.out_features, layer.in_features + 1), dtype=np.uint64)
        image[:, 0] = bias_words
        image[:, 1:] = np.asarray(weight_words, dtype=np.uint64).T
        return image.reshape(-1)

    # ------------------------------------------------------------ storage

    def compile_write_plan(
        self, memory: WeightMemorySystem, quantized: QuantizedWeights
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Compile a full-model store into one ``(pe, addresses, words)`` per bank.

        The words are already masked to the bank word length, and the
        address/word arrays are frozen — callers may retain the plan and
        replay it (the NPU's ``refresh_weights`` does exactly that through
        :meth:`~repro.sram.array.SramBank.write_planned`).  :meth:`store` is
        this plan executed once; both therefore write the same addresses and
        values as the historical per-neuron, per-segment walk.
        """
        self._check_memory(memory)
        if len(quantized.weight_words) != len(self.layers):
            raise ValueError("quantized model has a different number of layers")
        per_bank_addresses: dict[int, list[np.ndarray]] = {}
        per_bank_words: dict[int, list[np.ndarray]] = {}
        for layer_index, (layer, weight_words, bias_words) in enumerate(
            zip(self.layers, quantized.weight_words, quantized.bias_words)
        ):
            if weight_words.shape != (layer.in_features, layer.out_features):
                raise ValueError("quantized weight shape does not match placement")
            flat = self._layer_word_image(layer, weight_words, bias_words)
            for pe, addresses, scatter, _ in self.gather_plan(layer_index).per_pe():
                per_bank_addresses.setdefault(pe, []).append(addresses)
                per_bank_words.setdefault(pe, []).append(flat[scatter])
        plan = []
        for pe in sorted(per_bank_addresses):
            addresses = np.concatenate(per_bank_addresses[pe])
            words = np.concatenate(per_bank_words[pe]) & np.uint64(
                memory[pe].word_mask
            )
            addresses.flags.writeable = False
            words.flags.writeable = False
            plan.append((pe, addresses, words))
        return plan

    def store(self, memory: WeightMemorySystem, quantized: QuantizedWeights) -> None:
        """Write a quantized model into the per-PE weight banks."""
        for pe, addresses, words in self.compile_write_plan(memory, quantized):
            memory[pe].write(addresses, words)

    def load_layer_words(
        self,
        memory: WeightMemorySystem,
        layer_index: int,
        voltage: float,
        temperature: float = 25.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read one layer's parameters back from SRAM at an operating point.

        Returns ``(weight_words, bias_words)`` shaped like the layer's weight
        matrix and bias vector.  Reads go through the behavioural SRAM model,
        so voltage-overscaled reads return (and persist) corrupted words.
        """
        self._check_memory(memory)
        layer = self.layers[layer_index]
        width = layer.in_features + 1
        flat = np.zeros(layer.out_features * width, dtype=np.uint64)
        for pe, addresses, scatter, _ in self.gather_plan(layer_index).per_pe():
            flat[scatter] = memory[pe].read(
                addresses, voltage=voltage, temperature=temperature
            )
        image = flat.reshape(layer.out_features, width)
        bias_words = image[:, 0].copy()
        weight_words = np.ascontiguousarray(image[:, 1:].T)
        return weight_words, bias_words

    def _check_memory(self, memory: WeightMemorySystem) -> None:
        if len(memory) < self.num_pes:
            raise ValueError(
                f"placement expects {self.num_pes} banks, memory has {len(memory)}"
            )
        for pe, used in enumerate(self.words_used_per_pe):
            if used > memory[pe].num_words:
                raise ValueError(
                    f"PE {pe} bank too small: needs {used} words, has {memory[pe].num_words}"
                )

    # -------------------------------------------------------- fault masks

    def _word_homes(self, layer: LayerPlacement) -> tuple[np.ndarray, np.ndarray]:
        """Per-word ``(pe, address)`` coordinate matrices for one layer.

        Both arrays have shape ``(fan_in + 1, out_features)``: row 0 is the
        bias word, row ``1 + i`` the weight from input ``i``, columns are
        indexed by neuron id (not list position, so the result is
        independent of ``layer.neurons`` ordering).
        """
        words = layer.in_features + 1
        pe_of = np.zeros((words, layer.out_features), dtype=np.intp)
        addr_of = np.zeros((words, layer.out_features), dtype=np.intp)
        for placement in layer.neurons:
            for segment in placement.segments:
                rows = slice(segment.word_offset, segment.word_offset + segment.length)
                pe_of[rows, placement.neuron] = segment.pe
                addr_of[rows, placement.neuron] = np.arange(
                    segment.base_address, segment.end_address
                )
        return pe_of, addr_of

    def fault_masks(
        self, fault_maps: list[FaultMap], word_bits: int
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Translate per-bank fault maps into per-layer injection masks.

        Returns one ``(weight_and, weight_or, bias_and, bias_or)`` per layer,
        where the weight masks have the layer's ``(in_features,
        out_features)`` shape and the bias masks have shape
        ``(out_features,)``.  Applying ``(word & and) | or`` reproduces
        exactly the corruption the SRAM would inflict at the profiled
        operating point.  Spilled neurons gather each word's mask from the
        bank that actually hosts it.
        """
        if len(fault_maps) < self.num_pes:
            raise ValueError(
                f"expected {self.num_pes} fault maps, got {len(fault_maps)}"
            )
        full = np.uint64((1 << word_bits) - 1)
        for placement in (neuron for layer in self.layers for neuron in layer.neurons):
            for segment in placement.segments:
                covered = fault_maps[segment.pe].num_words
                if segment.end_address > covered:
                    raise IndexError(
                        f"placement needs {segment.end_address} words in bank "
                        f"{segment.pe}, fault map covers {covered}"
                    )

        # One gather per layer resolves every word at once: stack the
        # per-bank mask arrays once into a (num_banks, max_words) matrix
        # (identity-padded where a bank is shorter) and index it with each
        # layer's per-word (pe, address) coordinates.
        max_words = max(fault_map.num_words for fault_map in fault_maps)
        bank_and = np.full((len(fault_maps), max_words), full, dtype=np.uint64)
        bank_or = np.zeros((len(fault_maps), max_words), dtype=np.uint64)
        for index, fault_map in enumerate(fault_maps):
            and_masks, or_masks = fault_map.masks()
            bank_and[index, : fault_map.num_words] = and_masks & full
            bank_or[index, : fault_map.num_words] = or_masks & full

        masks = []
        for layer in self.layers:
            pe_of, addr_of = self._word_homes(layer)
            weights, bias = (pe_of[1:], addr_of[1:]), (pe_of[0], addr_of[0])
            masks.append((bank_and[weights], bank_or[weights], bank_and[bias], bank_or[bias]))
        return masks


# ------------------------------------------------------------------ planning


@dataclass(frozen=True)
class CapacityReport:
    """Weight-SRAM capacity accounting for one (widths, geometry) pairing."""

    num_pes: int
    words_per_bank: int
    total_capacity_words: int
    words_required: int
    fits: bool
    #: per-PE occupancy after allocation; empty when the model does not fit
    words_used_per_pe: tuple[int, ...]
    per_layer_words: tuple[int, ...]
    #: neurons whose block needed more than one segment (0 when not fits)
    spilled_neurons: int
    #: total placement segments (== total neurons when nothing spills)
    num_segments: int

    @property
    def utilization(self) -> float:
        """Fraction of the weight-SRAM capacity the model occupies."""
        if self.total_capacity_words == 0:
            return float("inf")
        return self.words_required / self.total_capacity_words

    def to_text(self) -> str:
        verdict = "fits" if self.fits else "DOES NOT FIT"
        lines = [
            f"{self.num_pes} PEs x {self.words_per_bank} words: "
            f"{self.words_required}/{self.total_capacity_words} words "
            f"({self.utilization:.1%}) — {verdict}",
        ]
        if self.fits:
            lines.append(
                f"  spilled neurons: {self.spilled_neurons}, "
                f"segments: {self.num_segments}, "
                f"per-PE occupancy: {list(self.words_used_per_pe)}"
            )
        return "\n".join(lines)


def plan_capacity(
    widths: tuple[int, ...] | list[int],
    num_pes: int,
    words_per_bank: int,
) -> CapacityReport:
    """Capacity planner: does a topology fit a geometry, and how tightly?

    Never raises on overflow — the ``fits`` flag reports it instead.  Because
    the allocator can split a block at any word boundary, a model fits
    exactly when its total word requirement is within the total capacity.
    """
    if num_pes <= 0 or words_per_bank <= 0:
        raise ValueError("num_pes and words_per_bank must be positive")
    widths = tuple(int(w) for w in widths)
    per_layer = tuple(
        (fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:])
    )
    required = sum(per_layer)
    capacity = num_pes * words_per_bank
    if required > capacity:
        return CapacityReport(
            num_pes=num_pes,
            words_per_bank=words_per_bank,
            total_capacity_words=capacity,
            words_required=required,
            fits=False,
            words_used_per_pe=(),
            per_layer_words=per_layer,
            spilled_neurons=0,
            num_segments=0,
        )
    return WeightPlacement(widths, num_pes, words_per_bank).capacity_report()


# ------------------------------------------------------------------ programs


@dataclass
class LayerProgram:
    """Executable description of one layer on the NPU."""

    layer_index: int
    in_features: int
    out_features: int
    activation: str
    quantization: LayerQuantization
    #: number of time-multiplexed passes over the PE ring
    passes: int
    #: estimated cycles to execute the layer once (see MicrocodeCompiler)
    cycles: int
    #: multiply-accumulate operations in the layer
    macs: int


@dataclass
class NpuProgram:
    """A compiled model: placement plus the per-layer execution schedule."""

    topology: tuple[int, ...]
    placement: WeightPlacement
    layers: list[LayerProgram]
    word_bits: int

    @property
    def total_cycles_per_inference(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_macs_per_inference(self) -> int:
        return sum(layer.macs for layer in self.layers)


class MicrocodeCompiler:
    """Compile a :class:`~repro.nn.network.Network` into an NPU program.

    Parameters
    ----------
    num_pes:
        Number of processing elements in the systolic ring (8 for SNNAC).
    words_per_bank:
        Capacity of each PE's weight SRAM, in words.
    pipeline_overhead:
        Fixed per-pass cycle overhead (weight fetch setup, accumulator
        drain, AFU latency).
    """

    def __init__(
        self,
        num_pes: int = 8,
        words_per_bank: int = 512,
        pipeline_overhead: int = 4,
    ) -> None:
        if num_pes <= 0:
            raise ValueError("num_pes must be positive")
        if words_per_bank <= 0:
            raise ValueError("words_per_bank must be positive")
        if pipeline_overhead < 0:
            raise ValueError("pipeline_overhead must be non-negative")
        self.num_pes = int(num_pes)
        self.words_per_bank = int(words_per_bank)
        self.pipeline_overhead = int(pipeline_overhead)

    def capacity_report(self, network: Network | tuple[int, ...]) -> CapacityReport:
        """Plan whether ``network`` fits this compiler's geometry (no raise)."""
        widths = network.widths if isinstance(network, Network) else tuple(network)
        return plan_capacity(widths, self.num_pes, self.words_per_bank)

    def compile(self, network: Network, quantizer: WeightQuantizer) -> NpuProgram:
        """Produce placement, per-layer formats, and the execution schedule."""
        placement = WeightPlacement(network.widths, self.num_pes, self.words_per_bank)
        formats = quantizer.layer_formats(network)
        layers: list[LayerProgram] = []
        for index, (layer, fmt) in enumerate(zip(network.layers, formats)):
            in_features = layer.in_features
            out_features = layer.out_features
            # each pass streams the full input vector past the ring with at
            # most one segment active per PE; spilled layers therefore cost
            # whole extra passes exactly where the geometry forced extra
            # address ranges
            passes = placement.layers[index].passes_required(self.num_pes)
            cycles = passes * (in_features + 1 + self.pipeline_overhead)
            macs = in_features * out_features
            layers.append(
                LayerProgram(
                    layer_index=index,
                    in_features=in_features,
                    out_features=out_features,
                    activation=layer.activation.name,
                    quantization=fmt,
                    passes=passes,
                    cycles=cycles,
                    macs=macs,
                )
            )
        return NpuProgram(
            topology=network.widths,
            placement=placement,
            layers=layers,
            word_bits=quantizer.total_bits,
        )
