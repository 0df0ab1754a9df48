"""Differential tests of the float training passes on the network's flat buffer.

``Trainer`` runs forward and backward on views of one parameter and one
gradient buffer, writes gradients in place and fuses the loss's value and
gradient.  Every fit here must equal, bit for bit, the same fit through the
per-layer passes kept in ``reference_passes.py``: trained weights, the
history, and the trained-weights key ``train_cached`` derives from the
result.  Both sides run in one process, so the comparison does not depend on
the BLAS build.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_passes import ReferenceTrainer, use_reference_passes
from repro.datasets import get_benchmark
from repro.experiments.cache import cache_digest
from repro.experiments.common import train_cached
from repro.matic import FaultMaskSet, MaticFlow
from repro.nn import Dataset, LeakyReLU, Network, Trainer
from repro.quant import WeightQuantizer

TOPOLOGIES = ("mnist", "facedet", "inversek2j", "bscholes", "synth/mlp-d4-w16-i6-o2")
_DATA: dict[str, tuple] = {}


def _workload(name: str):
    if name not in _DATA:
        spec = get_benchmark(name)
        data = spec.generate(num_samples=32, seed=1)
        _DATA[name] = (spec, data.subset(np.arange(24)), data.subset(np.arange(24, 32)))
    return _DATA[name]


class _KeySpy:
    """A cache that records the key ``train_cached`` asks for and serves a hit."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.digest = None

    def get(self, kind: str, key):
        self.digest = cache_digest(key)
        return self.network.get_weights()


def _trained_key(network: Network, train) -> str:
    """The trained-weights key ``train_cached`` derives for ``network``."""
    spy = _KeySpy(network)
    assert train_cached(network, train, cache=spy) is None
    return spy.digest


def _fit(trainer_class, name: str, optimizer: str, weight_decay: float, patience):
    spec, train, validation = _workload(name)
    network = spec.build_network(seed=0)
    if trainer_class is ReferenceTrainer:
        use_reference_passes(network)
    trainer = trainer_class(
        network,
        optimizer=optimizer,
        learning_rate=0.3 if optimizer != "adam" else 0.02,
        # not a power of two, so the MSE gradient's division rounds
        batch_size=6,
        epochs=3,
        patience=patience,
        weight_decay=weight_decay,
        seed=2,
    )
    history = trainer.fit(train, validation=validation)
    return network, history, _trained_key(network, train)


def assert_bit_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("patience", [None, 1])
@pytest.mark.parametrize("weight_decay", [0.0, 2e-4])
@pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
@pytest.mark.parametrize("name", TOPOLOGIES)
def test_fit_matches_per_layer_passes(name, optimizer, weight_decay, patience):
    network, history, key = _fit(Trainer, name, optimizer, weight_decay, patience)
    reference, reference_history, reference_key = _fit(
        ReferenceTrainer, name, optimizer, weight_decay, patience
    )
    for layer, expected in zip(network.layers, reference.layers):
        assert_bit_equal(layer.weights, expected.weights)
        assert_bit_equal(layer.bias, expected.bias)
    assert history.train_loss == reference_history.train_loss
    assert history.validation_loss == reference_history.validation_loss
    assert history.epochs_run == reference_history.epochs_run
    assert key == reference_key
    # the fit left the layers on the buffer, holding the last step's gradient
    parameters, gradients = network.flat_parameters(), network.flat_gradients()
    for layer in network.layers:
        assert layer.weights.base is parameters and layer.bias.base is parameters
        assert layer.grad_weights.base is gradients and layer.grad_bias.base is gradients


def test_passes_match_on_one_step_of_every_loss_and_output():
    """Softmax with cross-entropy skips the output Jacobian; identity and tanh too."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, size=6)
    for hidden, output, loss, targets in (
        ("sigmoid", "softmax", "cross_entropy", np.eye(3)[labels]),
        ("tanh", "sigmoid", "binary_cross_entropy", np.eye(3)[labels]),
        ("relu", "identity", "mse", rng.normal(size=(6, 3))),
        ("leaky_relu", "sigmoid", "mse", rng.random((6, 3))),
    ):
        networks = [
            Network("5-7-4-3", hidden_activation=hidden, output_activation=output, loss=loss,
                    seed=3)
            for _ in range(2)
        ]
        use_reference_passes(networks[1])
        losses = [net.backward(net.forward(x, training=True), targets) for net in networks]
        assert losses[0] == losses[1]
        for layer, expected in zip(*(net.layers for net in networks)):
            assert_bit_equal(layer.grad_weights, expected.grad_weights)
            assert_bit_equal(layer.grad_bias, expected.grad_bias)
            assert_bit_equal(layer._output, expected._output)


class TestTrainedWeightKeys:
    """The keys trained weights are cached under name each activation with
    its parameters, and a network without parameterized activations keeps
    the key it always had."""

    def test_leaky_slopes_key_apart(self):
        spec, train, _ = _workload("bscholes")
        steep, shallow = (
            Network(spec.topology, hidden_activation=LeakyReLU(slope),
                    output_activation="sigmoid", loss="mse", seed=0)
            for slope in (0.3, 0.01)
        )
        assert np.array_equal(steep.flat_parameters(), shallow.flat_parameters())
        assert not np.array_equal(steep.predict(train.inputs), shallow.predict(train.inputs))
        assert _trained_key(steep, train) != _trained_key(shallow, train)
        mask_set = FaultMaskSet.random(steep, WeightQuantizer(total_bits=16), 0.05, rng=1)
        adaptive_keys = {
            cache_digest(MaticFlow()._adaptive_cache_key(network, mask_set, train, None))
            for network in (steep, shallow)
        }
        assert len(adaptive_keys) == 2

    def test_sigmoid_network_digest_is_pinned(self):
        network = Network(
            "3-4-2", hidden_activation="sigmoid", output_activation="sigmoid", loss="mse",
            seed=0,
        )
        network.set_weights([
            (np.arange(12, dtype=float).reshape(3, 4) / 16 - 0.25, np.full(4, 0.125)),
            (np.arange(8, dtype=float).reshape(4, 2) / 8 - 0.5, np.array([0.5, -0.5])),
        ])
        train = Dataset(
            inputs=np.arange(18, dtype=float).reshape(6, 3) / 32,
            targets=np.tile([[0.25, 0.75]], (6, 1)),
        )
        spy = _KeySpy(network)
        assert train_cached(network, train, epochs=1, cache=spy) is None
        assert spy.digest == "3d9b4625d0b93316c3f3740266e6feea49a5f9453abb062448ab3b260ef3b085"
