"""Unit and behavioural tests for memory-adaptive training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.matic import FaultMaskSet, MemoryAdaptiveTrainer
from repro.nn import Dataset, Network, Trainer, classification_error, one_hot
from repro.quant import WeightQuantizer


@pytest.fixture()
def quantizer():
    return WeightQuantizer(total_bits=16, frac_bits=13)


class TestUpdateRule:
    def test_unfaulted_training_matches_plain_quantized_training_closely(
        self, toy_dataset, quantizer
    ):
        """With identity masks the MAT update reduces to standard training on
        quantized forward passes; the result must be as accurate as the float
        baseline."""
        network = Network("8-12-2", loss="binary_cross_entropy", seed=2)
        masks = FaultMaskSet.identity(network, quantizer)
        MemoryAdaptiveTrainer(
            network, masks, learning_rate=0.3, epochs=30, lr_decay=1.0, seed=3
        ).fit(toy_dataset)
        error = classification_error(network.predict(toy_dataset.inputs), toy_dataset.labels)
        assert error < 0.08

    def test_masters_stay_within_format_range(self, toy_dataset, quantizer):
        network = Network("8-8-2", loss="binary_cross_entropy", seed=2)
        masks = FaultMaskSet.random(network, quantizer, 0.2, rng=4)
        trainer = MemoryAdaptiveTrainer(network, masks, learning_rate=0.3, epochs=10, seed=3)
        trainer.fit(toy_dataset)
        for layer, fmt in zip(network.layers, masks.layer_formats):
            assert np.all(layer.weights <= fmt.weight_format.max_value + 1e-9)
            assert np.all(layer.weights >= fmt.weight_format.min_value - 1e-9)

    def test_effective_view_installed_after_fit(self, toy_dataset, quantizer):
        network = Network("8-8-2", loss="binary_cross_entropy", seed=2)
        masks = FaultMaskSet.random(network, quantizer, 0.05, rng=4)
        MemoryAdaptiveTrainer(network, masks, epochs=2, seed=3).fit(toy_dataset)
        for layer in network.layers:
            assert layer.effective_weights is not None

    def test_steps_after_fit_mask_the_current_masters(self, toy_dataset, quantizer):
        """fit leaves a view of its own installed, not the buffer steps rewrite,
        and later steps bind that buffer again."""
        network = Network("8-8-2", loss="binary_cross_entropy", seed=2)
        masks = FaultMaskSet.random(network, quantizer, 0.05, rng=4)
        trainer = MemoryAdaptiveTrainer(network, masks, optimizer="sgd", epochs=2, seed=3)
        trainer.fit(toy_dataset)
        installed = [layer.effective_weights for layer in network.layers]
        kept = [weights.copy() for weights in installed]
        clone = network.copy()
        fresh = MemoryAdaptiveTrainer(
            clone, masks, optimizer="sgd", learning_rate=trainer.optimizer.learning_rate
        )
        for start in (0, 16):
            x, t = toy_dataset.inputs[start : start + 16], toy_dataset.targets[start : start + 16]
            assert trainer.train_step(x, t) == fresh.train_step(x, t)
        assert np.array_equal(network.flat_parameters(), clone.flat_parameters())
        for layer, other, weights, values in zip(network.layers, clone.layers, installed, kept):
            assert np.array_equal(layer.effective_weights, other.effective_weights)
            assert np.array_equal(weights, values)

    def test_stuck_bits_survive_training(self, toy_dataset, quantizer):
        """Whatever the trainer does, the deployed (masked) weights must still
        carry the stuck-bit pattern — MAT adapts around faults, it cannot
        remove them."""
        network = Network("8-8-2", loss="binary_cross_entropy", seed=2)
        masks = FaultMaskSet.random(network, quantizer, 0.1, rng=6)
        MemoryAdaptiveTrainer(network, masks, epochs=5, seed=3).fit(toy_dataset)
        for index, layer in enumerate(network.layers):
            fmt = masks.layer_formats[index].weight_format
            words = fmt.float_to_word(layer.effective_weights)
            layer_masks = masks.layer_masks[index]
            assert np.all((words & layer_masks.weight_or) == layer_masks.weight_or)
            assert np.all((words | layer_masks.weight_and) == layer_masks.weight_and)

    def test_depth_mismatch_rejected(self, quantizer):
        network = Network("8-8-2", seed=2)
        other = Network("8-8-8-2", seed=2)
        masks = FaultMaskSet.identity(other, quantizer)
        with pytest.raises(ValueError):
            MemoryAdaptiveTrainer(network, masks)

    def test_loss_decreases_during_adaptation(self, toy_dataset, quantizer):
        network = Network("8-12-2", loss="binary_cross_entropy", seed=2)
        Trainer(network, learning_rate=0.3, epochs=20, seed=3).fit(toy_dataset)
        masks = FaultMaskSet.random(network, quantizer, 0.05, rng=8)
        trainer = MemoryAdaptiveTrainer(
            network, masks, learning_rate=0.15, epochs=15, seed=3
        )
        history = trainer.fit(toy_dataset)
        assert history.train_loss[-1] < history.train_loss[0]


class TestRecoveryBehaviour:
    def test_adaptive_beats_naive_under_moderate_faults(self, digits_small):
        """The core claim of the paper, at a fault rate matching the 0.50 V
        operating point: MAT recovers most of the fault-induced error."""
        spec, train, test = digits_small
        quantizer = WeightQuantizer(total_bits=16, frac_bits=13)
        baseline = spec.build_network(seed=3)
        Trainer(baseline, learning_rate=0.2, epochs=50, seed=4).fit(train)
        baseline_error = spec.error(baseline.predict(test.inputs), test)

        masks = FaultMaskSet.random(baseline, quantizer, 0.02, rng=11)
        naive = baseline.copy()
        masks.install(naive)
        naive_error = spec.error(naive.predict(test.inputs), test)

        adaptive = baseline.copy()
        MemoryAdaptiveTrainer(
            adaptive, masks, learning_rate=0.15, epochs=40, seed=5
        ).fit(train)
        adaptive_error = spec.error(adaptive.predict(test.inputs), test)

        assert naive_error > baseline_error + 0.05
        assert adaptive_error < naive_error
        # MAT recovers at least half of the error increase
        assert (naive_error - adaptive_error) > 0.5 * (naive_error - baseline_error) - 0.05

    def test_adaptation_is_specific_to_the_trained_fault_pattern(self, toy_dataset):
        """A model adapted to one fault pattern is not automatically adapted
        to a different pattern of the same rate (the reason profiling is
        chip-specific)."""
        quantizer = WeightQuantizer(total_bits=16, frac_bits=13)
        network = Network("8-16-2", loss="binary_cross_entropy", seed=2)
        Trainer(network, learning_rate=0.3, epochs=30, seed=3).fit(toy_dataset)

        trained_masks = FaultMaskSet.random(network, quantizer, 0.08, rng=21)
        adaptive = network.copy()
        MemoryAdaptiveTrainer(
            adaptive, trained_masks, learning_rate=0.15, epochs=30, seed=5
        ).fit(toy_dataset)
        adaptive.clear_effective()

        trained_masks.install(adaptive)
        matched_error = classification_error(
            adaptive.predict(toy_dataset.inputs), toy_dataset.labels
        )
        other_masks = FaultMaskSet.random(adaptive, quantizer, 0.08, rng=99)
        other_masks.install(adaptive)
        mismatched_error = classification_error(
            adaptive.predict(toy_dataset.inputs), toy_dataset.labels
        )
        assert matched_error <= mismatched_error + 0.02
