"""Unit and integration tests for the PE, systolic ring, and NPU."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    ActivationFunctionUnit,
    MicrocodeCompiler,
    Npu,
    ProcessingElement,
    SystolicRing,
)
from repro.nn import Network
from repro.quant import WeightQuantizer
from repro.sram import SramBank, WeightMemorySystem


@pytest.fixture()
def memory():
    return WeightMemorySystem.build(4, 128, 16, seed=13)


@pytest.fixture()
def quantizer():
    return WeightQuantizer(total_bits=16, frac_bits=13)


class TestProcessingElement:
    def test_ring_mac_counts_match_hosted_weight_words(self, memory, quantizer):
        """The ring credits each PE's mac_count for the weight words it
        hosts — summed over PEs that is the layer-wise MAC total."""
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        npu.run(np.zeros((4, 10)), sram_voltage=0.9)
        total = sum(pe.mac_count for pe in npu.ring.pes)
        assert total == npu.program.total_macs_per_inference * 4

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            ProcessingElement(-1, SramBank(8, 16, seed=0))


class TestSystolicRingAndNpu:
    def test_npu_matches_software_network_at_nominal_voltage(self, memory, quantizer):
        """At nominal voltage the accelerator must agree with a software
        evaluation of the quantized network to within datapath quantization."""
        network = Network("10-12-3", hidden_activation="sigmoid",
                          output_activation="sigmoid", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        rng = np.random.default_rng(1)
        x = rng.random((20, 10))
        hardware, stats = npu.run(x, sram_voltage=0.9)
        software = network.predict(x)
        assert hardware.shape == software.shape
        assert np.max(np.abs(hardware - software)) < 0.03
        assert stats.batch_size == 20
        assert stats.cycles == npu.program.total_cycles_per_inference
        assert stats.macs == npu.program.total_macs_per_inference * 20

    def test_run_requires_deploy(self, memory):
        npu = Npu(memory)
        with pytest.raises(RuntimeError):
            npu.run(np.zeros((1, 4)))

    def test_low_voltage_changes_outputs(self, memory, quantizer):
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        x = np.random.default_rng(2).random((10, 10))
        nominal = npu.predict(x, sram_voltage=0.9)
        npu.refresh_weights()
        overscaled = npu.predict(x, sram_voltage=0.42)
        assert not np.allclose(nominal, overscaled)

    def test_refresh_weights_restores_behaviour(self, memory, quantizer):
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        x = np.random.default_rng(2).random((10, 10))
        nominal = npu.predict(x, sram_voltage=0.9)
        npu.predict(x, sram_voltage=0.42)  # corrupts storage
        npu.refresh_weights()
        restored = npu.predict(x, sram_voltage=0.9)
        np.testing.assert_allclose(nominal, restored)

    def test_refresh_requires_deploy(self, memory):
        with pytest.raises(RuntimeError):
            Npu(memory).refresh_weights()

    def test_layer_stats_structure(self, memory, quantizer):
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        _, stats = npu.run(np.zeros((4, 10)))
        assert len(stats.layer_stats) == 2
        assert stats.layer_stats[0].sram_reads > 0
        assert stats.cycles_per_inference == pytest.approx(stats.cycles / 4)

    def test_ring_rejects_wrong_input_width(self, memory, quantizer):
        network = Network("10-12-3", seed=3)
        compiler = MicrocodeCompiler(num_pes=len(memory), words_per_bank=128)
        program = compiler.compile(network, quantizer)
        program.placement.store(memory, quantizer.quantize_network(network))
        ring = SystolicRing(memory)
        with pytest.raises(ValueError):
            ring.compute_layer(np.zeros((2, 7)), program.layers[0], program.placement, 0.9)

    def test_ring_counts_passes(self, memory, quantizer):
        network = Network("6-10-2", seed=1)
        compiler = MicrocodeCompiler(num_pes=len(memory), words_per_bank=128)
        program = compiler.compile(network, quantizer)
        program.placement.store(memory, quantizer.quantize_network(network))
        ring = SystolicRing(memory)
        _, stats = ring.compute_layer(
            np.zeros((3, 6)), program.layers[0], program.placement, 0.9
        )
        assert stats.passes == int(np.ceil(10 / len(memory)))
        assert stats.batch_size == 3

    def test_deploy_quantized_reuses_program(self, memory, quantizer):
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        program = npu.deploy(network, quantizer)
        quantized = quantizer.quantize_network(network)
        other = Npu(memory)
        other.deploy_quantized(program, quantized)
        x = np.random.default_rng(0).random((5, 10))
        np.testing.assert_allclose(other.predict(x), npu.predict(x))

    def test_relu_network_on_npu(self, memory, quantizer):
        network = Network(
            "10-12-3", hidden_activation="relu", output_activation="identity", seed=5
        )
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        x = np.random.default_rng(3).random((8, 10))
        hardware = npu.predict(x, sram_voltage=0.9)
        software = network.predict(x)
        assert np.max(np.abs(hardware - software)) < 0.05


class TestMacAccounting:
    """sum(pe.mac_count) must equal stats.macs at every geometry.

    The gather plan credits each PE for the weight words it hosts (bias
    words excluded); summed over the ring that must reconcile exactly with
    ``LayerExecutionStats.macs = in_features * out_features * batch`` —
    including when capacity-constrained banks force spilled, multi-segment
    placements.
    """

    @pytest.mark.parametrize("words_per_bank", [128, 45, 43])
    def test_pe_mac_counts_reconcile_with_stats(self, quantizer, words_per_bank):
        memory = WeightMemorySystem.build(4, words_per_bank, 16, seed=13)
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        if words_per_bank < 128:
            assert npu.program.placement.spilled_neurons > 0  # spill actually forced
        for batch in (1, 4):
            before = sum(pe.mac_count for pe in npu.ring.pes)
            _, stats = npu.run(np.zeros((batch, 10)), sram_voltage=0.9)
            assert sum(pe.mac_count for pe in npu.ring.pes) - before == stats.macs
            assert stats.macs == npu.program.total_macs_per_inference * batch

    def test_plan_weight_words_cover_every_mac_operand(self, quantizer):
        memory = WeightMemorySystem.build(4, 43, 16, seed=13)
        network = Network("10-12-3", seed=3)
        npu = Npu(memory)
        npu.deploy(network, quantizer)
        placement = npu.program.placement
        for index, layer in enumerate(placement.layers):
            plan = placement.gather_plan(index)
            assert sum(plan.weight_words) == layer.in_features * layer.out_features
            hosted = sum(a.size for a in plan.addresses)
            assert hosted == (layer.in_features + 1) * layer.out_features


class TestRunSweep:
    VOLTAGES = [0.90, 0.53, 0.50, 0.46, 0.90, 0.50]  # deliberate duplicates

    def _deployed(self, quantizer, seed=13):
        memory = WeightMemorySystem.build(4, 128, 16, seed=seed)
        npu = Npu(memory)
        npu.deploy(Network("10-12-3", seed=3), quantizer)
        return npu

    def test_run_sweep_matches_sequential_refreshed_runs(self, quantizer):
        x = np.random.default_rng(1).random((16, 10))
        reference = self._deployed(quantizer)
        expected = []
        for voltage in self.VOLTAGES:
            reference.refresh_weights()
            expected.append(reference.run(x, sram_voltage=voltage))
        swept = self._deployed(quantizer).run_sweep(x, self.VOLTAGES)
        assert len(swept) == len(self.VOLTAGES)
        for (out_a, stats_a), (out_b, stats_b) in zip(expected, swept):
            np.testing.assert_array_equal(out_a, out_b)
            assert (stats_a.cycles, stats_a.macs, stats_a.sram_reads) == (
                stats_b.cycles,
                stats_b.macs,
                stats_b.sram_reads,
            )

    def test_plain_runs_keep_corruption_between_points(self, quantizer):
        """Unlike run_sweep, a plain run does not refresh the weights first."""
        x = np.random.default_rng(1).random((8, 10))
        npu = self._deployed(quantizer)
        pristine = npu.run(x, sram_voltage=0.90)[0]
        outputs = [npu.run(x, sram_voltage=v)[0] for v in (0.46, 0.90, 0.46)]
        # corruption from the 0.46 V point persisted into the 0.90 V one
        assert not np.array_equal(outputs[1], pristine)
        np.testing.assert_array_equal(outputs[0], outputs[2])

    def test_run_sweep_requires_deploy(self, memory):
        with pytest.raises(RuntimeError):
            Npu(memory).run_sweep(np.zeros((1, 4)), [0.9])

    def test_decode_memo_reuses_identical_mask_groups(self, quantizer):
        """Nominal-voltage grid points share one decoded weight image."""
        npu = self._deployed(quantizer)
        x = np.random.default_rng(2).random((4, 10))
        npu.run_sweep(x, [0.90, 0.88, 0.86])  # all fault-free, one group
        layers = len(npu.program.layers)
        assert sum(len(m.by_digest) for m in npu._decode_memo.values()) == layers

    def test_decode_memo_does_not_leak_across_deploys(self, quantizer):
        npu = self._deployed(quantizer)
        x = np.random.default_rng(2).random((4, 10))
        first = npu.predict(x, sram_voltage=0.9)
        other = Network("10-12-3", seed=9)
        npu.deploy(other, quantizer)
        redeployed = npu.predict(x, sram_voltage=0.9)
        assert not np.array_equal(first, redeployed)
        # memo rebuilt from the new words, and a fresh NPU agrees bit-for-bit
        fresh_memory = WeightMemorySystem.build(4, 128, 16, seed=13)
        fresh = Npu(fresh_memory)
        fresh.deploy(other, quantizer)
        np.testing.assert_array_equal(redeployed, fresh.predict(x, sram_voltage=0.9))

    def test_memoized_run_matches_unmemoized_ring(self, quantizer):
        """The epoch/digest memo must never change outputs — compare a full
        corrupting run against the decoder-free ring path on a twin chip."""
        from repro.accelerator.systolic import SystolicRing

        x = np.random.default_rng(5).random((6, 10))
        npu = self._deployed(quantizer)
        twin = self._deployed(quantizer)
        for voltage in (0.9, 0.47, 0.47, 0.9):
            out_memo, _ = npu.run(x, sram_voltage=voltage)
            activations = twin.data_format.quantize(np.asarray(x, dtype=float))
            ring = twin.ring
            for layer_program in twin.program.layers:
                pre, _ = ring.compute_layer(
                    activations,
                    layer_program,
                    twin.program.placement,
                    voltage=voltage,
                )
                activations = twin.afu.apply(layer_program.activation, pre)
                activations = twin.data_format.quantize(activations)
            np.testing.assert_array_equal(out_memo, activations)
