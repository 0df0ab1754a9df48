"""Differential tests of the flat memory-adaptive training kernel.

The kernel (:class:`repro.matic.masking.CompiledMasks`) must reproduce the
per-tensor reference path bit for bit: the masked view against
:func:`repro.matic.apply_masks_to_values`, ε_q against
``clip − fmt.quantize(clip)``, and a whole MAT fit against a copy of the
per-layer training step kept in this file, which runs the per-layer forward
and backward passes of ``reference_passes.py``.  Both sides run in one
process, so the comparison does not depend on the BLAS build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_passes import use_reference_passes
from repro.datasets import get_benchmark
from repro.experiments.cache import cache_digest
from repro.matic import FaultMaskSet, LayerMasks, MemoryAdaptiveTrainer, apply_masks_to_values
from repro.matic.flow import MaticFlow, TrainingConfig
from repro.nn import Network
from repro.quant import FixedPointFormat, LayerQuantization, WeightQuantizer


def assert_bit_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


# --------------------------------------------------------------- kernel


@st.composite
def formats(draw):
    total_bits = draw(st.integers(2, 64))
    return tuple(
        FixedPointFormat(total_bits, draw(st.integers(0, total_bits - 1))) for _ in range(2)
    )


def parameter_values(draw, fmt: FixedPointFormat, shape: tuple[int, ...]) -> np.ndarray:
    """Values in and beyond the format's range, ±0, ±inf and half-LSB ties."""
    element = st.one_of(
        st.floats(allow_nan=False),
        st.floats(2 * fmt.min_value, 2 * fmt.max_value),
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, fmt.min_value, fmt.max_value]),
        st.integers(fmt.min_code - 2, fmt.max_code + 1).map(lambda k: (k + 0.5) * fmt.scale),
    )
    size = int(np.prod(shape))
    return np.array(draw(st.lists(element, min_size=size, max_size=size)), dtype=float).reshape(
        shape
    )


def mask_words(draw, shape: tuple[int, ...]) -> np.ndarray:
    """Arbitrary 64-bit patterns: bits above the word must be ignored."""
    size = int(np.prod(shape))
    words = draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
    return np.array(words, dtype=np.uint64).reshape(shape)


@st.composite
def one_layer_cases(draw):
    weight_format, bias_format = draw(formats())
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    network = Network([rows, cols], seed=0)
    layer = network.layers[0]
    layer.weights = parameter_values(draw, weight_format, (rows, cols))
    layer.bias = parameter_values(draw, bias_format, (cols,))
    masks = LayerMasks(
        mask_words(draw, (rows, cols)),
        mask_words(draw, (rows, cols)),
        mask_words(draw, (cols,)),
        mask_words(draw, (cols,)),
        word_bits=weight_format.total_bits,
    )
    mask_set = FaultMaskSet(
        [masks], [LayerQuantization(weight_format, bias_format)], weight_format.total_bits
    )
    return network, mask_set


class TestKernelMatchesPerTensorPath:
    @settings(max_examples=150, deadline=None)
    @given(case=one_layer_cases())
    def test_masked_view_and_quantization_error(self, case):
        network, mask_set = case
        layer, masks, fmt = network.layers[0], mask_set.layer_masks[0], mask_set.layer_formats[0]
        compiled = mask_set.compile(network)
        with np.errstate(over="ignore"):
            masters = network.flat_parameters()
            codes = compiled.quantize(masters)
            [(weights, bias)] = compiled.split(compiled.apply(codes))
            eps = compiled.clip(masters) - compiled.dequantize(codes)
            [(eps_weights, eps_bias)] = compiled.split(eps)
            for actual, values, and_mask, or_mask, tensor_format, actual_eps in (
                (weights, layer.weights, masks.weight_and, masks.weight_or, fmt.weight_format,
                 eps_weights),
                (bias, layer.bias, masks.bias_and, masks.bias_or, fmt.bias_format, eps_bias),
            ):
                expected = apply_masks_to_values(values, and_mask, or_mask, tensor_format)
                assert_bit_equal(actual, expected)
                clipped = np.clip(values, tensor_format.min_value, tensor_format.max_value)
                assert_bit_equal(actual_eps, clipped - tensor_format.quantize(clipped))

    def test_install_matches_per_tensor_path_on_a_deep_stack(self):
        network = get_benchmark("synth/mlp-d4-w16-i6-o2").build_network(seed=0)
        mask_set = FaultMaskSet.random(network, WeightQuantizer(total_bits=12), 0.2, rng=3)
        mask_set.install(network)
        for layer, masks, fmt in zip(network.layers, mask_set.layer_masks, mask_set.layer_formats):
            assert_bit_equal(
                layer.effective_weights,
                apply_masks_to_values(
                    layer.weights, masks.weight_and, masks.weight_or, fmt.weight_format
                ),
            )
            assert_bit_equal(
                layer.effective_bias,
                apply_masks_to_values(layer.bias, masks.bias_and, masks.bias_or, fmt.bias_format),
            )

    def test_nan_master_raises(self, toy_dataset):
        network = Network("8-4-2", seed=0)
        mask_set = FaultMaskSet.identity(network, WeightQuantizer(total_bits=16))
        network.layers[1].bias[0] = np.nan
        fmt = mask_set.layer_formats[1].bias_format
        masks = mask_set.layer_masks[1]
        trainer = MemoryAdaptiveTrainer(network, mask_set)
        with pytest.raises(ValueError, match="out of range"):
            apply_masks_to_values(network.layers[1].bias, masks.bias_and, masks.bias_or, fmt)
        with pytest.raises(ValueError, match="out of range"):
            mask_set.install(network)
        with pytest.raises(ValueError, match="out of range"):
            trainer.train_step(toy_dataset.inputs[:4], toy_dataset.targets[:4])


# ------------------------------------------------------------ mask shapes


@pytest.fixture()
def bscholes_case():
    spec = get_benchmark("bscholes")
    network = spec.build_network(seed=0)
    data = spec.generate(num_samples=16, seed=1)
    return network, FaultMaskSet.identity(network, WeightQuantizer(total_bits=16)), data


def _truncate(mask_set: FaultMaskSet, tensor: str) -> None:
    """Cut layer 0's masks of one tensor down to their first row/element."""
    masks = mask_set.layer_masks[0]
    for name in (f"{tensor}_and", f"{tensor}_or"):
        setattr(masks, name, getattr(masks, name)[:1])


class TestMisShapedMasksRejected:
    """A (1, n) weight mask or (1,) bias mask used to broadcast silently."""

    @pytest.mark.parametrize("tensor, name", [("weight", "weights"), ("bias", "bias")])
    def test_install(self, bscholes_case, tensor, name):
        network, mask_set, _ = bscholes_case
        _truncate(mask_set, tensor)
        with pytest.raises(ValueError, match=f"layer 0 {name}: mask shape"):
            mask_set.install(network)

    @pytest.mark.parametrize("tensor, name", [("weight", "weights"), ("bias", "bias")])
    def test_memory_adaptive_trainer(self, bscholes_case, tensor, name):
        network, mask_set, data = bscholes_case
        _truncate(mask_set, tensor)
        trainer = MemoryAdaptiveTrainer(network, mask_set, epochs=1)
        with pytest.raises(ValueError, match=f"layer 0 {name}: mask shape"):
            trainer.fit(data)

    @pytest.mark.parametrize("tensor, name", [("weight", "weights"), ("bias", "bias")])
    def test_flow_fit_adaptive(self, bscholes_case, tensor, name):
        network, mask_set, data = bscholes_case
        _truncate(mask_set, tensor)
        flow = MaticFlow(training=TrainingConfig(epochs=1))
        with pytest.raises(ValueError, match=f"layer 0 {name}: mask shape"):
            flow.fit_adaptive(network, mask_set, data, None)

    def test_mixed_word_lengths(self, bscholes_case):
        network, mask_set, _ = bscholes_case
        mask_set.layer_formats[1] = LayerQuantization(
            FixedPointFormat(12, 8), FixedPointFormat(12, 8)
        )
        with pytest.raises(ValueError, match="mix word lengths"):
            mask_set.install(network)


# ---------------------------------------------------------- training step


class PerLayerTrainer(MemoryAdaptiveTrainer):
    """The per-layer, per-tensor MAT step the flat kernel replaced.

    Its network runs the per-layer passes the flat buffer replaced.
    """

    def __init__(self, network: Network, *args, **kwargs) -> None:
        super().__init__(use_reference_passes(network), *args, **kwargs)

    def _install_masked_view(self) -> None:
        for layer, masks, fmt in zip(
            self.network.layers, self.mask_set.layer_masks, self.mask_set.layer_formats
        ):
            layer.set_effective(
                apply_masks_to_values(
                    layer.weights, masks.weight_and, masks.weight_or, fmt.weight_format
                ),
                apply_masks_to_values(layer.bias, masks.bias_and, masks.bias_or, fmt.bias_format),
            )

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        self._install_masked_view()
        predictions = self.network.forward(inputs, training=True)
        loss_value = self.network.backward(predictions, targets)
        if self.weight_decay:
            for layer in self.network.layers:
                layer.grad_weights = (
                    layer.grad_weights + self.weight_decay * layer.effective_weights
                )
        for index, layer in enumerate(self.network.layers):
            fmt = self.mask_set.layer_formats[index]
            weight_format = fmt.weight_format
            bias_format = fmt.bias_format
            masked_weights = layer.effective_weights
            masked_bias = layer.effective_bias
            clipped_weights = np.clip(
                layer.weights, weight_format.min_value, weight_format.max_value
            )
            clipped_bias = np.clip(layer.bias, bias_format.min_value, bias_format.max_value)
            eps_weights = clipped_weights - weight_format.quantize(clipped_weights)
            eps_bias = clipped_bias - bias_format.quantize(clipped_bias)
            delta_weights = self.optimizer.parameter_delta(
                f"layer{index}.weights", layer.grad_weights
            )
            delta_bias = self.optimizer.parameter_delta(f"layer{index}.bias", layer.grad_bias)
            layer.weights = np.clip(
                masked_weights - delta_weights + eps_weights,
                weight_format.min_value,
                weight_format.max_value,
            )
            layer.bias = np.clip(
                masked_bias - delta_bias + eps_bias,
                bias_format.min_value,
                bias_format.max_value,
            )
        return loss_value


TOPOLOGIES = ("mnist", "facedet", "inversek2j", "bscholes", "synth/mlp-d4-w16-i6-o2")
_DATA: dict[str, tuple] = {}


def _workload(name: str):
    if name not in _DATA:
        spec = get_benchmark(name)
        data = spec.generate(num_samples=32, seed=1)
        _DATA[name] = (spec, data.subset(np.arange(24)), data.subset(np.arange(24, 32)))
    return _DATA[name]


def _fit(trainer_class, name: str, config: TrainingConfig, start_scale: float = 1.0):
    spec, train, validation = _workload(name)
    network = spec.build_network(seed=0)
    mask_set = FaultMaskSet.random(network, WeightQuantizer(total_bits=16), 0.05, rng=1)
    for layer in network.layers:
        # > 1 starts masters beyond the formats fitted above: ε_q's clip acts
        layer.weights = layer.weights * start_scale
    trainer = trainer_class.from_config(network, mask_set, config)
    history = trainer.fit(train, validation=validation)
    key = MaticFlow(training=config)._adaptive_cache_key(
        network, mask_set, train, validation, config
    )
    return network, history, cache_digest(key)


def assert_same_fit(first, second) -> None:
    (network, history, key), (reference, reference_history, reference_key) = first, second
    for layer, expected in zip(network.layers, reference.layers):
        assert_bit_equal(layer.weights, expected.weights)
        assert_bit_equal(layer.bias, expected.bias)
        assert_bit_equal(layer.effective_weights, expected.effective_weights)
        assert_bit_equal(layer.effective_bias, expected.effective_bias)
    assert history.train_loss == reference_history.train_loss
    assert history.validation_loss == reference_history.validation_loss
    assert history.epochs_run == reference_history.epochs_run
    assert key == reference_key


@pytest.mark.parametrize("patience", [None, 1])
@pytest.mark.parametrize("weight_decay", [0.0, 2e-4])
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_fit_matches_per_layer_step(name, optimizer, weight_decay, patience):
    config = TrainingConfig(
        optimizer=optimizer,
        learning_rate=0.3 if optimizer != "adam" else 0.02,
        batch_size=8,
        epochs=3,
        patience=patience,
        weight_decay=weight_decay,
        seed=2,
    )
    assert_same_fit(
        _fit(MemoryAdaptiveTrainer, name, config), _fit(PerLayerTrainer, name, config)
    )


@pytest.mark.parametrize("name", TOPOLOGIES)
def test_fit_from_out_of_range_masters_matches_per_layer_step(name):
    config = TrainingConfig(batch_size=8, epochs=2, seed=2)
    assert_same_fit(
        _fit(MemoryAdaptiveTrainer, name, config, start_scale=4.0),
        _fit(PerLayerTrainer, name, config, start_scale=4.0),
    )
