"""1-D systolic ring of processing elements.

SNNAC's PEs form a one-dimensional systolic ring: input activations stream
past the PEs, each PE accumulating inner products for the output neurons
whose weights live in its bank.  Layers wider than the ring are
time-multiplexed over multiple passes, with partial results collected by an
accumulator; a *spilled* neuron (its parameter block split across several
address segments by a capacity-constrained placement) contributes one
partial inner product per segment, accumulated exactly like an extra pass.

The model executes the same arithmetic pass structure (and counts the same
work) without simulating individual pipeline registers; accuracy-relevant
behaviour — which SRAM words are read, with what fixed-point semantics —
matches the real dataflow.  The layer's MAC reduction is performed once over
the assembled full weight matrix, so the computed floats are **independent
of the chip geometry**: any ``(num_pes, words_per_bank)`` that fits the
model produces bit-identical outputs from the same stored words (see
:func:`evaluate_layer_words`, which the NPU's software reference path shares).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..quant.fixed_point import FixedPointFormat
from ..sram.array import WeightMemorySystem
from .microcode import LayerProgram, WeightPlacement
from .pe import ProcessingElement

__all__ = [
    "LayerExecutionStats",
    "SystolicRing",
    "decode_layer_words",
    "evaluate_decoded",
    "evaluate_layer_words",
]


@dataclass
class LayerExecutionStats:
    """Work performed while executing one layer on one input batch."""

    layer_index: int
    batch_size: int
    passes: int
    cycles: int
    macs: int
    sram_reads: int


def decode_layer_words(
    word_matrix: np.ndarray, program: LayerProgram
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a layer's raw SRAM word image into float ``(biases, weights)``.

    ``word_matrix`` has shape ``(out_features, fan_in + 1)`` — column 0 is
    the bias word, column ``1 + i`` the weight word from input ``i``.  The
    decode is the ``word_to_float`` cost the NPU memoizes per content epoch
    (:class:`~repro.accelerator.npu.Npu`), so it lives in its own function
    the memo can wrap.
    """
    biases = program.quantization.bias_format.word_to_float(word_matrix[:, 0])
    weights = program.quantization.weight_format.word_to_float(word_matrix[:, 1:])
    return biases, weights


def evaluate_decoded(
    inputs: np.ndarray,
    biases: np.ndarray,
    weights: np.ndarray,
    data_format: FixedPointFormat,
    inputs_quantized: bool = False,
) -> np.ndarray:
    """Pre-activation outputs from an already-decoded float weight image.

    ``inputs_quantized=True`` promises the inputs already sit on the data
    format's grid (quantization is idempotent, so this only skips a
    redundant re-quantization — the NPU quantizes activations at the layer
    boundaries already).
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(1, -1)
    if inputs.shape[1] != weights.shape[1]:
        raise ValueError(
            f"layer expects {weights.shape[1]} inputs, got {inputs.shape[1]}"
        )
    quantized_inputs = inputs if inputs_quantized else data_format.quantize(inputs)
    return quantized_inputs @ weights.T + biases


def evaluate_layer_words(
    inputs: np.ndarray,
    word_matrix: np.ndarray,
    program: LayerProgram,
    data_format: FixedPointFormat,
) -> np.ndarray:
    """Pre-activation outputs of one layer from its raw SRAM word image.

    This is the single arithmetic path shared by the hardware ring (which
    fills the matrix from per-PE SRAM reads) and the NPU's software reference
    (which fills it from the pristine quantized words), so the two are
    bit-identical by construction whenever the words agree.  Composed of
    :func:`decode_layer_words` and :func:`evaluate_decoded` so the NPU can
    memoize the decode while keeping this oracle intact.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(1, -1)
    if inputs.shape[1] != program.in_features:
        raise ValueError(
            f"layer expects {program.in_features} inputs, got {inputs.shape[1]}"
        )
    biases, weights = decode_layer_words(word_matrix, program)
    return evaluate_decoded(inputs, biases, weights, data_format)


class SystolicRing:
    """The PE ring plus its accumulator.

    Parameters
    ----------
    memory:
        Per-PE weight banks (one bank per PE).
    data_format:
        Fixed-point format of the activation datapath.
    pipeline_overhead:
        Per-pass overhead cycles (must match the compiler's assumption for
        the cycle accounting to line up).
    """

    def __init__(
        self,
        memory: WeightMemorySystem,
        data_format: FixedPointFormat | None = None,
        pipeline_overhead: int = 4,
    ) -> None:
        self.memory = memory
        self.data_format = data_format or FixedPointFormat(16, 12)
        self.pipeline_overhead = int(pipeline_overhead)
        self.pes = [ProcessingElement(index, bank) for index, bank in enumerate(memory)]

    @property
    def num_pes(self) -> int:
        return len(self.pes)

    # ------------------------------------------------------------------

    def compute_layer(
        self,
        inputs: np.ndarray,
        program: LayerProgram,
        placement: WeightPlacement,
        voltage: float,
        temperature: float = 25.0,
        decoder=None,
        inputs_quantized: bool = False,
    ) -> tuple[np.ndarray, LayerExecutionStats]:
        """Execute one layer on a batch of inputs.

        Returns the pre-activation outputs, shape ``(batch, out_features)``,
        plus execution statistics.  Weight words are fetched from the per-PE
        SRAM banks at the requested operating point, so voltage overscaling
        corrupts exactly the weights the fault map predicts.

        ``decoder`` optionally replaces the raw ``word_to_float`` decode: a
        callable ``decoder(program, word_matrix, epochs) -> (biases,
        weights)`` where ``epochs`` are the hosting banks' content epochs
        *after* the fetch (the NPU passes its memoizing decoder here; the
        default decodes unconditionally).
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim == 1:
            inputs = inputs.reshape(1, -1)
        if inputs.shape[1] != program.in_features:
            raise ValueError(
                f"layer expects {program.in_features} inputs, got {inputs.shape[1]}"
            )
        batch = inputs.shape[0]
        reads_before = sum(bank.read_count for bank in self.memory)

        # Plan-compiled fetch: one vectorized SRAM read plus one fancy-indexed
        # scatter per hosting PE (read-disturb corruption is per-cell and
        # order-independent, so the fetched words — and the persisted
        # corruption — are bit-identical to walking the ring segment by
        # segment).  The scatter fills the layer's full (out, fan_in + 1)
        # word image, which is reduced once, so the float outputs do not
        # depend on which PE hosts which words.
        plan = placement.gather_plan(program.layer_index)
        flat = np.zeros(
            program.out_features * (program.in_features + 1), dtype=np.uint64
        )
        for pe_index, addresses, scatter, weight_words in plan.per_pe():
            pe = self.pes[pe_index]
            flat[scatter] = pe.weight_bank.read_planned(
                addresses, voltage, temperature
            )
            pe.mac_count += batch * weight_words
        word_matrix = flat.reshape(program.out_features, program.in_features + 1)

        epochs = tuple(
            self.pes[pe_index].weight_bank.content_epoch
            for pe_index in plan.pe_indices
        )
        if decoder is not None:
            biases, weights = decoder(program, word_matrix, epochs)
        else:
            biases, weights = decode_layer_words(word_matrix, program)
        outputs = evaluate_decoded(
            inputs, biases, weights, self.data_format, inputs_quantized=inputs_quantized
        )

        passes = plan.passes
        sram_reads = sum(bank.read_count for bank in self.memory) - reads_before
        cycles = passes * (program.in_features + 1 + self.pipeline_overhead)
        stats = LayerExecutionStats(
            layer_index=program.layer_index,
            batch_size=batch,
            passes=passes,
            cycles=cycles,
            macs=program.in_features * program.out_features * batch,
            sram_reads=sram_reads,
        )
        return outputs, stats
