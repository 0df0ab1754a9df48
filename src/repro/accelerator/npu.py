"""The Neural Processing Unit: compiled-model execution on the PE ring.

The NPU owns a compiled :class:`~repro.accelerator.microcode.NpuProgram`,
the per-PE weight memory system, the systolic ring, and the activation
function unit.  Its :meth:`run` method performs end-to-end inference at a
requested SRAM operating point, which is the accelerator-side primitive every
application-error experiment in the paper is built from.

Decode memoization
------------------
Decoding a layer's SRAM words into float weights (``word_to_float``) is pure
in the words, and across a voltage sweep the words barely change: a bank's
:attr:`~repro.sram.array.SramBank.content_epoch` bumps only when a write or a
corrupting read actually changes stored words.  The NPU therefore memoizes
the decoded ``(biases, weights)`` per layer, keyed first on the hosting
banks' content epochs (the no-change fast path — no hashing at all) and then
on a digest of the word image (so re-reads at an operating point whose
corruption masks are identical reuse the decode even across weight
refreshes).  :meth:`Npu.run_sweep` builds on this: it groups the requested
voltages by their banks' cached corruption-mask digests and runs
identical-mask points back to back, so a fig10-style multi-voltage sweep
decodes each distinct corruption pattern once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..nn.network import Network
from ..quant.fixed_point import FixedPointFormat
from ..quant.quantizer import QuantizedWeights, WeightQuantizer
from ..sram.array import WeightMemorySystem
from .afu import ActivationFunctionUnit
from .microcode import LayerProgram, MicrocodeCompiler, NpuProgram
from .systolic import (
    LayerExecutionStats,
    SystolicRing,
    decode_layer_words,
    evaluate_layer_words,
)

__all__ = ["InferenceStats", "Npu"]

#: Decoded weight images retained per layer (distinct corruption patterns
#: seen across a sweep; FIFO eviction beyond this).
_DECODE_CACHE_LIMIT = 32


class _LayerDecodeMemo:
    """Per-layer memo of decoded float weights (epoch fast path + digests)."""

    __slots__ = ("epochs", "decoded", "by_digest")

    def __init__(self) -> None:
        self.epochs: tuple[int, ...] | None = None
        self.decoded: tuple[np.ndarray, np.ndarray] | None = None
        self.by_digest: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}


@dataclass
class InferenceStats:
    """Aggregate execution statistics for one :meth:`Npu.run` call."""

    batch_size: int = 0
    cycles: int = 0
    macs: int = 0
    sram_reads: int = 0
    layer_stats: list[LayerExecutionStats] = field(default_factory=list)

    @property
    def cycles_per_inference(self) -> float:
        return self.cycles / self.batch_size if self.batch_size else 0.0


class Npu:
    """SNNAC's neural processing unit.

    Parameters
    ----------
    memory:
        Per-PE weight SRAM banks.
    afu:
        Activation function unit (piecewise-linear approximations).
    data_format:
        Fixed-point format of the activation datapath.
    pipeline_overhead:
        Per-pass cycle overhead, forwarded to the compiler and the ring.
    """

    def __init__(
        self,
        memory: WeightMemorySystem,
        afu: ActivationFunctionUnit | None = None,
        data_format: FixedPointFormat | None = None,
        pipeline_overhead: int = 4,
    ) -> None:
        self.memory = memory
        self.afu = afu or ActivationFunctionUnit()
        self.data_format = data_format or FixedPointFormat(16, 12)
        self.pipeline_overhead = int(pipeline_overhead)
        self.ring = SystolicRing(
            memory, data_format=self.data_format, pipeline_overhead=self.pipeline_overhead
        )
        self.program: NpuProgram | None = None
        self._stored_words: QuantizedWeights | None = None
        self._decode_memo: dict[int, _LayerDecodeMemo] = {}
        # compiled per-bank (addresses, words) write plan for refresh_weights
        self._refresh_plan: list[tuple[int, np.ndarray, np.ndarray]] = []

    # --------------------------------------------------------- deployment

    def deploy(self, network: Network, quantizer: WeightQuantizer) -> NpuProgram:
        """Compile ``network`` and load its quantized weights into SRAM."""
        compiler = MicrocodeCompiler(
            num_pes=len(self.memory),
            words_per_bank=min(bank.num_words for bank in self.memory),
            pipeline_overhead=self.pipeline_overhead,
        )
        program = compiler.compile(network, quantizer)
        quantized = quantizer.quantize_network(network)
        self._store_and_plan(program, quantized)
        return program

    def deploy_quantized(self, program: NpuProgram, quantized: QuantizedWeights) -> None:
        """Load an already-compiled program and quantized weights."""
        self._store_and_plan(program, quantized)

    def _store_and_plan(self, program: NpuProgram, quantized: QuantizedWeights) -> None:
        """Write the model into SRAM and retain the write plan for refreshes.

        Compiles the placement's full-model write plan once: executing it is
        exactly ``placement.store``, and keeping it makes every subsequent
        :meth:`refresh_weights` one planned write per bank.
        """
        plan = program.placement.compile_write_plan(self.memory, quantized)
        for pe, addresses, words in plan:
            self.memory[pe].write(addresses, words)
        self.program = program
        self._stored_words = quantized
        self._decode_memo.clear()
        self._refresh_plan = plan

    def refresh_weights(self) -> None:
        """Rewrite the deployed weights into SRAM.

        Models the runtime controller restoring weight state (for instance
        after an aggressive voltage excursion disturbed cells that the
        deployed fault map did not account for).  Executes the compiled
        per-bank write plan; content-identical refreshes leave each bank's
        :attr:`~repro.sram.array.SramBank.content_epoch` untouched, so the
        decoded-weight memo survives them.
        """
        if self.program is None or self._stored_words is None:
            raise RuntimeError("no model deployed")
        for pe, addresses, words in self._refresh_plan:
            self.memory[pe].write_planned(addresses, words)

    # ------------------------------------------------- decode memoization

    def _decode_memoized(
        self,
        program: LayerProgram,
        word_matrix: np.ndarray,
        epochs: tuple[int, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode a layer's word image, reusing cached floats when possible.

        ``epochs`` are the hosting banks' content epochs after the SRAM
        fetch: equal epochs mean no stored word changed since the previous
        call, so the word image — and its decode — are identical (no hashing
        needed).  On an epoch miss the word image's digest is looked up, so
        operating points that corrupt identically (or a refresh back to
        pristine words) still reuse the decode.
        """
        memo = self._decode_memo.get(program.layer_index)
        if memo is None:
            memo = _LayerDecodeMemo()
            self._decode_memo[program.layer_index] = memo
        if memo.epochs == epochs and memo.decoded is not None:
            return memo.decoded
        digest = hashlib.blake2b(word_matrix.tobytes(), digest_size=16).digest()
        decoded = memo.by_digest.get(digest)
        if decoded is None:
            decoded = decode_layer_words(word_matrix, program)
            memo.by_digest[digest] = decoded
            while len(memo.by_digest) > _DECODE_CACHE_LIMIT:
                memo.by_digest.pop(next(iter(memo.by_digest)))
        memo.epochs = epochs
        memo.decoded = decoded
        return decoded

    # ---------------------------------------------------------- inference

    def run(
        self,
        inputs: np.ndarray,
        sram_voltage: float = 0.9,
        temperature: float = 25.0,
        collect_stats: bool = True,
    ) -> tuple[np.ndarray, InferenceStats]:
        """Run inference on a batch at the given SRAM operating point.

        Returns ``(outputs, stats)``.  The input batch is quantized to the
        data format at the NPU boundary (the paper's µC writes fixed-point
        inputs into memory-mapped buffers).
        """
        if self.program is None:
            raise RuntimeError("no model deployed; call deploy() first")
        activations = self.data_format.quantize(np.asarray(inputs, dtype=float))
        if activations.ndim == 1:
            activations = activations.reshape(1, -1)
        stats = InferenceStats(batch_size=activations.shape[0])

        for layer_program in self.program.layers:
            pre_activation, layer_stats = self.ring.compute_layer(
                activations,
                layer_program,
                self.program.placement,
                voltage=sram_voltage,
                temperature=temperature,
                decoder=self._decode_memoized,
                # activations are quantized at the NPU boundary and after
                # every AFU application, so the layer need not re-quantize
                inputs_quantized=True,
            )
            activations = self.afu.apply(layer_program.activation, pre_activation)
            activations = self.data_format.quantize(activations)
            if collect_stats:
                stats.layer_stats.append(layer_stats)
                stats.cycles += layer_stats.cycles
                stats.macs += layer_stats.macs
                stats.sram_reads += layer_stats.sram_reads

        return activations, stats

    def run_sweep(
        self,
        inputs: np.ndarray,
        voltages,
        temperature: float = 25.0,
    ) -> list[tuple[np.ndarray, InferenceStats]]:
        """Batched inference across SRAM voltages (one refreshed run each).

        For every voltage the deployed weights are rewritten first (as
        :meth:`refresh_weights` — so corruption from one operating point
        never leaks into another's measurement) and a full :meth:`run` is
        performed at that voltage.  Results are returned in the order of
        ``voltages``.

        Execution order is an internal detail the refresh makes observable
        only through performance: voltages whose cached corruption-mask
        digests (:meth:`~repro.sram.array.SramBank.mask_digest`) agree across
        every bank corrupt reads identically, so they are run back to back
        and share the memoized decoded weight images.

        *Exact-duplicate* voltage entries are provably identical runs — same
        corruption-mask signature over the same freshly-rewritten weights on
        the same inputs — so only the first occurrence executes and later
        occurrences return the memoized ``(outputs, stats)`` pair.  Duplicate
        positions alias the first occurrence's arrays rather than copying
        them; treat sweep outputs as read-only (every in-tree caller does).
        """
        if self.program is None:
            raise RuntimeError("no model deployed; call deploy() first")
        voltages = [float(v) for v in voltages]
        first_at: dict[float, int] = {}
        duplicate_of: dict[int, int] = {}
        for index, voltage in enumerate(voltages):
            canonical = first_at.setdefault(voltage, index)
            if canonical != index:
                duplicate_of[index] = canonical
        group_rank: dict[tuple[bytes, ...], int] = {}
        ranks = []
        for voltage in voltages:
            signature = tuple(
                bank.mask_digest(voltage, temperature) for bank in self.memory
            )
            ranks.append(group_rank.setdefault(signature, len(group_rank)))
        order = [index for index in range(len(voltages)) if index not in duplicate_of]
        order.sort(key=lambda index: (ranks[index], index))
        results: list[tuple[np.ndarray, InferenceStats] | None] = [None] * len(voltages)
        for index in order:
            self.refresh_weights()
            results[index] = self.run(
                inputs, sram_voltage=voltages[index], temperature=temperature
            )
        for index, canonical in duplicate_of.items():
            results[index] = results[canonical]
        return results

    def predict(
        self,
        inputs: np.ndarray,
        sram_voltage: float = 0.9,
        temperature: float = 25.0,
    ) -> np.ndarray:
        """Inference returning outputs only."""
        outputs, _ = self.run(
            inputs, sram_voltage=sram_voltage, temperature=temperature, collect_stats=False
        )
        return outputs

    def reference_forward(self, inputs: np.ndarray) -> np.ndarray:
        """Software evaluation of the deployed program from pristine words.

        Shares the arithmetic path of the hardware ring
        (:func:`~repro.accelerator.systolic.evaluate_layer_words`) but feeds
        it the stored quantized words directly instead of SRAM reads, so it
        is bit-identical to :meth:`run` under faultless SRAM — for *any*
        chip geometry, spilled placements included.  This is the oracle the
        geometry-invariance tests compare the hardware path against.
        """
        if self.program is None or self._stored_words is None:
            raise RuntimeError("no model deployed; call deploy() first")
        activations = self.data_format.quantize(np.asarray(inputs, dtype=float))
        if activations.ndim == 1:
            activations = activations.reshape(1, -1)
        for layer_program, weight_words, bias_words in zip(
            self.program.layers,
            self._stored_words.weight_words,
            self._stored_words.bias_words,
        ):
            word_matrix = np.zeros(
                (layer_program.out_features, layer_program.in_features + 1),
                dtype=np.uint64,
            )
            word_matrix[:, 0] = bias_words
            word_matrix[:, 1:] = weight_words.T
            pre_activation = evaluate_layer_words(
                activations, word_matrix, layer_program, self.data_format
            )
            activations = self.afu.apply(layer_program.activation, pre_activation)
            activations = self.data_format.quantize(activations)
        return activations
