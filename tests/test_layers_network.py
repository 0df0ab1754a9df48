"""Unit tests for repro.nn.layers and repro.nn.network."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.matic import FaultMaskSet, MemoryAdaptiveTrainer
from repro.nn import DenseLayer, LeakyReLU, Network, Topology, Trainer, parse_topology
from repro.nn.initializers import XavierUniform
from repro.quant import WeightQuantizer


class TestDenseLayer:
    def test_forward_shape(self):
        layer = DenseLayer(4, 3, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_forward_accepts_single_sample(self):
        layer = DenseLayer(4, 2, rng=np.random.default_rng(0))
        out = layer.forward(np.zeros(4))
        assert out.shape == (1, 2)

    def test_forward_rejects_wrong_width(self):
        layer = DenseLayer(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((3, 5)))

    def test_identity_activation_is_affine(self):
        layer = DenseLayer(3, 2, activation="identity", rng=np.random.default_rng(0))
        x = np.array([[1.0, -2.0, 0.5]])
        expected = x @ layer.weights + layer.bias
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            DenseLayer(0, 3)

    def test_backward_requires_forward(self):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_gradient_shapes(self):
        layer = DenseLayer(3, 2, rng=np.random.default_rng(0))
        layer.forward(np.ones((4, 3)), training=True)
        grad_in = layer.backward(np.ones((4, 2)))
        assert grad_in.shape == (4, 3)
        assert layer.grad_weights.shape == (3, 2)
        assert layer.grad_bias.shape == (2,)

    def test_weight_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        layer = DenseLayer(5, 4, activation="sigmoid", rng=rng)
        x = rng.normal(size=(6, 5))
        target = rng.random((6, 4))

        def loss_for(weights):
            saved = layer.weights
            layer.weights = weights
            out = layer.forward(x, training=True)
            layer.weights = saved
            return float(np.sum((out - target) ** 2))

        out = layer.forward(x, training=True)
        layer.backward(2.0 * (out - target))
        analytic = layer.grad_weights.copy()
        eps = 1e-6
        for i, j in [(0, 0), (2, 3), (4, 1)]:
            perturbed = layer.weights.copy()
            perturbed[i, j] += eps
            numeric = (loss_for(perturbed) - loss_for(layer.weights)) / eps
            assert analytic[i, j] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_effective_weights_used_for_compute(self):
        layer = DenseLayer(2, 1, activation="identity", rng=np.random.default_rng(0))
        layer.weights = np.array([[1.0], [1.0]])
        layer.bias = np.array([0.0])
        x = np.array([[1.0, 1.0]])
        assert layer.forward(x)[0, 0] == pytest.approx(2.0)
        layer.set_effective(np.array([[0.0], [0.0]]), np.array([5.0]))
        assert layer.forward(x)[0, 0] == pytest.approx(5.0)
        layer.clear_effective()
        assert layer.forward(x)[0, 0] == pytest.approx(2.0)

    def test_set_effective_shape_check(self):
        layer = DenseLayer(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.set_effective(np.zeros((3, 2)), None)

    def test_num_parameters(self):
        layer = DenseLayer(10, 4, rng=np.random.default_rng(0))
        assert layer.num_parameters == 10 * 4 + 4


class TestTopologyParsing:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("100-32-10", (100, 32, 10)),
            ("2-16-2", (2, 16, 2)),
            ([6, 16, 1], (6, 16, 1)),
            ((400, 8, 1), (400, 8, 1)),
        ],
    )
    def test_valid(self, spec, expected):
        assert parse_topology(spec) == expected

    @pytest.mark.parametrize("spec", ["", "100", "a-b", "10-0-5", [5]])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_topology(spec)

    def test_topology_counts(self):
        topology = Topology("100-32-10")
        assert topology.num_weights == 100 * 32 + 32 * 10
        assert topology.num_parameters == topology.num_weights + 32 + 10
        assert topology.name == "100-32-10"


class TestNetwork:
    def test_layer_construction(self):
        net = Network("4-8-3", seed=0)
        assert len(net.layers) == 2
        assert net.layers[0].in_features == 4
        assert net.layers[1].out_features == 3

    def test_output_activation_applied_to_last_layer_only(self):
        net = Network("4-8-3", hidden_activation="sigmoid", output_activation="identity", seed=0)
        assert net.layers[0].activation.name == "sigmoid"
        assert net.layers[1].activation.name == "identity"

    def test_forward_shape(self):
        net = Network("4-8-3", seed=0)
        assert net.predict(np.zeros((10, 4))).shape == (10, 3)

    def test_seed_reproducibility(self):
        a = Network("5-7-2", seed=99)
        b = Network("5-7-2", seed=99)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_get_set_weights_roundtrip(self):
        a = Network("5-7-2", seed=1)
        b = Network("5-7-2", seed=2)
        b.set_weights(a.get_weights())
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_allclose(a.predict(x), b.predict(x))

    def test_set_weights_shape_mismatch(self):
        net = Network("5-7-2", seed=1)
        other = Network("5-6-2", seed=1)
        with pytest.raises(ValueError):
            net.set_weights(other.get_weights())

    def test_copy_is_independent(self):
        net = Network("3-4-2", seed=1)
        clone = net.copy()
        clone.layers[0].weights += 1.0
        assert not np.allclose(net.layers[0].weights, clone.layers[0].weights)

    def test_num_parameters_matches_topology(self):
        net = Network("100-32-10", seed=0)
        assert net.num_parameters == Topology("100-32-10").num_parameters
        assert net.num_weights == Topology("100-32-10").num_weights

    def test_backward_computes_loss_and_gradients(self):
        net = Network("4-6-2", loss="mse", seed=3)
        x = np.random.default_rng(0).normal(size=(8, 4))
        t = np.random.default_rng(1).random((8, 2))
        predictions = net.forward(x, training=True)
        loss = net.backward(predictions, t)
        assert loss > 0
        for layer in net.layers:
            assert np.any(layer.grad_weights != 0.0)

    def test_full_network_gradient_finite_difference(self):
        net = Network("3-5-2", loss="mse", output_activation="sigmoid", seed=7)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        t = rng.random((4, 2))
        predictions = net.forward(x, training=True)
        net.backward(predictions, t)
        layer = net.layers[0]
        analytic = layer.grad_weights[1, 2]
        eps = 1e-6
        layer.weights[1, 2] += eps
        loss_plus = net.loss.value(net.predict(x), t)
        layer.weights[1, 2] -= 2 * eps
        loss_minus = net.loss.value(net.predict(x), t)
        layer.weights[1, 2] += eps
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_softmax_cross_entropy_fusion_gradient(self):
        net = Network("3-4-3", loss="cross_entropy", output_activation="softmax", seed=2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        t = np.eye(3)[labels]
        predictions = net.forward(x, training=True)
        net.backward(predictions, t)
        layer = net.layers[1]
        analytic = layer.grad_weights[0, 1]
        eps = 1e-6
        layer.weights[0, 1] += eps
        loss_plus = net.loss.value(net.predict(x), t)
        layer.weights[0, 1] -= 2 * eps
        loss_minus = net.loss.value(net.predict(x), t)
        layer.weights[0, 1] += eps
        assert analytic == pytest.approx((loss_plus - loss_minus) / (2 * eps), rel=1e-3)

    def test_clear_effective_propagates(self):
        net = Network("3-4-2", seed=0)
        for layer in net.layers:
            layer.set_effective(np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        net.clear_effective()
        assert all(layer.effective_weights is None for layer in net.layers)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


def _legacy_state(network: Network) -> dict:
    """The state a network pickled before it owned flat buffers.

    Its layers carry arrays of their own and no buffer attribute exists.
    """
    layers = []
    for layer in network.layers:
        own = DenseLayer.__new__(DenseLayer)
        own.__dict__.update(vars(layer))
        for name in ("weights", "bias", "grad_weights", "grad_bias"):
            setattr(own, name, getattr(layer, name).copy())
        layers.append(own)
    return {"name": network.name, "widths": network.widths, "loss": network.loss, "layers": layers}


def _pickled_as_before(network: Network, monkeypatch) -> bytes:
    """The bytes ``network`` pickled to before it owned flat buffers."""
    legacy = Network.__new__(Network)
    legacy.__dict__.update(_legacy_state(network))
    with monkeypatch.context() as patch:
        patch.delattr(Network, "__getstate__")  # back to pickling __dict__
        return pickle.dumps(legacy)


def _assert_on_own_buffers(network: Network, other: Network | None = None) -> None:
    parameters, gradients = network.flat_parameters(), network.flat_gradients()
    for layer in network.layers:
        assert layer.weights.base is parameters and layer.bias.base is parameters
        assert layer.grad_weights.base is gradients and layer.grad_bias.base is gradients
    if other is not None:
        assert not np.shares_memory(parameters, other.flat_parameters())
        assert not np.shares_memory(gradients, other.flat_gradients())


def _fit(network: Network, data, mat: bool):
    if mat:
        masks = FaultMaskSet.random(network, WeightQuantizer(total_bits=12), 0.05, rng=1)
        trainer = MemoryAdaptiveTrainer(network, masks, epochs=2, batch_size=16, seed=3,
                                        weight_decay=1e-3)
    else:
        trainer = Trainer(network, optimizer="adam", learning_rate=0.02, epochs=2,
                          batch_size=16, seed=3, weight_decay=1e-3)
    return trainer.fit(data)


class TestFlatBuffers:
    def test_layers_view_one_buffer_in_the_compiled_order(self):
        net = Network("4-6-5-3", seed=0)
        _assert_on_own_buffers(net)
        flat = np.concatenate(
            [layer.weights for layer in net.layers] + [layer.bias for layer in net.layers],
            axis=None,
        )
        assert np.array_equal(net.flat_parameters(), flat)
        net.flat_parameters()[0] = 7.0
        assert net.layers[0].weights[0, 0] == 7.0

    def test_seeded_weights_are_the_initializer_draws(self):
        rng = np.random.default_rng(5)
        expected = [DenseLayer(a, b, rng=rng).weights for a, b in ((5, 7), (7, 2))]
        for layer, weights in zip(Network("5-7-2", seed=5).layers, expected):
            assert np.array_equal(layer.weights, weights)

    def test_rebound_attribute_is_copied_back_in(self):
        net = Network("3-4-2", seed=0)
        layer = net.layers[1]
        mine = np.full((4, 2), 0.25)
        layer.weights = mine
        assert layer.weights is mine  # plain rebinding, as for a lone layer
        assert np.all(net.flat_parameters()[12:20] == 0.25)
        assert layer.weights is not mine and layer.weights.base is net.flat_parameters()
        mine[...] = 1.0  # the caller's array is not aliased afterwards
        assert np.all(layer.weights == 0.25)
        layer.grad_bias = np.ones(2)
        assert np.all(net.flat_gradients()[-2:] == 1.0)
        _assert_on_own_buffers(net)

    def test_rebound_array_of_another_shape_is_rejected(self):
        net = Network("3-4-2", seed=0)
        net.layers[0].weights = np.zeros((1, 4))
        with pytest.raises(ValueError, match="shape"):
            net.flat_parameters()

    def test_backward_overwrites_held_gradients(self):
        net = Network("3-4-2", seed=0)
        x, t = np.ones((2, 3)), np.zeros((2, 2))
        held = net.layers[0].grad_weights
        net.backward(net.forward(x, training=True), t)
        assert net.layers[0].grad_weights is held and np.any(held != 0.0)

    def test_set_weights_copies_into_the_buffer(self):
        net = Network("3-4-2", seed=0)
        pairs = Network("3-4-2", seed=1).get_weights()
        net.set_weights(pairs)
        pairs[0][0][...] = 9.0
        assert not np.any(net.layers[0].weights == 9.0)
        _assert_on_own_buffers(net)


class TestCopyAndPickle:
    def test_copy_keeps_activation_parameters(self):
        net = Network(
            "3-5-2", hidden_activation=LeakyReLU(0.3), output_activation="identity", seed=1
        )
        clone = net.copy()
        assert clone.layers[0].activation.negative_slope == 0.3
        x = np.random.default_rng(0).normal(size=(16, 3)) * 4.0
        assert np.array_equal(clone.predict(x), net.predict(x))

    def test_copy_draws_no_initializer(self, monkeypatch):
        net = Network("4-6-2", seed=0)

        def refuse(self, shape, rng):
            raise AssertionError("copy() drew initial weights")

        monkeypatch.setattr(XavierUniform, "__call__", refuse)
        clone = net.copy()
        assert np.array_equal(clone.flat_parameters(), net.flat_parameters())
        assert all(layer.effective_weights is None for layer in clone.layers)

    @pytest.mark.parametrize("mat", [False, True], ids=["float", "mat"])
    @pytest.mark.parametrize("how", ["pickle", "copy"])
    def test_restored_network_trains_like_the_original(self, toy_dataset, how, mat):
        net = Network("8-6-2", loss="binary_cross_entropy", seed=4)
        _fit(net, toy_dataset, mat=False)  # forward caches and gradients are set
        clone = pickle.loads(pickle.dumps(net)) if how == "pickle" else net.copy()
        _assert_on_own_buffers(clone, net)
        history, clone_history = _fit(net, toy_dataset, mat), _fit(clone, toy_dataset, mat)
        assert history.train_loss == clone_history.train_loss
        assert np.array_equal(_bits(clone.flat_parameters()), _bits(net.flat_parameters()))

    def test_pickle_carries_each_array_once(self, toy_dataset, monkeypatch):
        net = Network("8-6-2", seed=4)
        _fit(net, toy_dataset, mat=False)
        assert len(pickle.dumps(net)) <= len(_pickled_as_before(net, monkeypatch))

    def test_pickle_carries_no_training_batch(self, toy_dataset):
        net = Network("8-6-2", seed=4)
        fresh = len(pickle.dumps(net))
        _fit(net, toy_dataset, mat=False)
        for layer in net.layers:  # fit released the epoch's batches
            assert layer._input is None and layer._pre_activation is None
            assert layer._output is None
        Trainer(net, seed=3).train_step(toy_dataset.inputs[:16], toy_dataset.targets[:16])
        assert net.layers[0]._input is not None  # the forward pass kept its batch
        assert len(pickle.dumps(net)) <= fresh

    def test_state_pickled_before_buffers_loads_and_trains(self, toy_dataset, monkeypatch):
        net = Network("8-6-2", loss="binary_cross_entropy", seed=4)
        _fit(net, toy_dataset, mat=False)
        restored = pickle.loads(_pickled_as_before(net, monkeypatch))
        assert type(restored) is Network
        _assert_on_own_buffers(restored, net)
        assert np.array_equal(restored.flat_parameters(), net.flat_parameters())
        assert np.array_equal(restored.flat_gradients(), net.flat_gradients())
        history, restored_history = _fit(net, toy_dataset, True), _fit(restored, toy_dataset, True)
        assert history.train_loss == restored_history.train_loss
        assert np.array_equal(_bits(restored.flat_parameters()), _bits(net.flat_parameters()))
