"""Unit tests for repro.nn.optimizers and repro.nn.trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Dataset,
    MomentumSGD,
    Network,
    Trainer,
    classification_error,
    get_optimizer,
    one_hot,
)


def quadratic_network():
    """A 1-parameter linear model we can reason about analytically."""
    net = Network("1-1", hidden_activation="identity", output_activation="identity", loss="mse", seed=0)
    net.layers[0].weights = np.array([[0.0]])
    net.layers[0].bias = np.array([0.0])
    return net


class TestOptimizers:
    def test_sgd_step_direction(self):
        net = quadratic_network()
        x, t = np.array([[1.0]]), np.array([[1.0]])
        predictions = net.forward(x, training=True)
        net.backward(predictions, t)
        SGD(learning_rate=0.5).step(net)
        # gradient of (w*1 - 1)^2 at w=0 is -2, so w moves to +1.0 with lr 0.5
        assert net.layers[0].weights[0, 0] == pytest.approx(1.0)

    def test_sgd_parameter_delta(self):
        delta = SGD(learning_rate=0.1).parameter_delta("w", np.array([2.0]))
        np.testing.assert_allclose(delta, [0.2])

    def test_momentum_accumulates(self):
        opt = MomentumSGD(learning_rate=0.1, momentum=0.9)
        g = np.array([1.0])
        first = opt.parameter_delta("w", g).copy()
        second = opt.parameter_delta("w", g).copy()
        assert second[0] == pytest.approx(first[0] * 1.9)

    def test_momentum_validates_coefficient(self):
        with pytest.raises(ValueError):
            MomentumSGD(momentum=1.0)

    def test_adam_bias_correction_first_step(self):
        opt = Adam(learning_rate=0.01)
        delta = opt.parameter_delta("w", np.array([0.5]))
        # first Adam step magnitude is ~learning_rate regardless of gradient scale
        assert abs(delta[0]) == pytest.approx(0.01, rel=1e-3)

    def test_adam_per_parameter_state(self):
        opt = Adam(learning_rate=0.01)
        opt.parameter_delta("a", np.array([1.0]))
        delta_b = opt.parameter_delta("b", np.array([1.0]))
        assert abs(delta_b[0]) == pytest.approx(0.01, rel=1e-3)

    def test_learning_rate_validation(self):
        for cls in (SGD, MomentumSGD, Adam):
            with pytest.raises(ValueError):
                cls(learning_rate=0.0)

    @pytest.mark.parametrize("name,cls", [("sgd", SGD), ("momentum", MomentumSGD), ("adam", Adam)])
    def test_registry(self, name, cls):
        assert isinstance(get_optimizer(name), cls)

    def test_registry_unknown(self):
        with pytest.raises(ValueError):
            get_optimizer("rmsprop")

    @pytest.mark.parametrize("optimizer", ["sgd", "momentum", "adam"])
    def test_all_optimizers_reduce_loss(self, optimizer, toy_dataset):
        net = Network("8-8-2", loss="binary_cross_entropy", seed=1)
        lr = 0.02 if optimizer == "adam" else 0.3
        trainer = Trainer(net, optimizer=optimizer, learning_rate=lr, epochs=10, seed=2)
        history = trainer.fit(toy_dataset)
        assert history.train_loss[-1] < history.train_loss[0]


class TestTrainer:
    def test_validation_history_recorded(self, toy_dataset):
        train = toy_dataset.subset(np.arange(0, 300))
        validation = toy_dataset.subset(np.arange(300, 400))
        net = Network("8-8-2", loss="binary_cross_entropy", seed=1)
        history = Trainer(net, epochs=5, learning_rate=0.3, seed=2).fit(train, validation)
        assert len(history.validation_loss) == history.epochs_run == 5

    def test_early_stopping_restores_best_weights(self, toy_dataset):
        train = toy_dataset.subset(np.arange(0, 300))
        validation = toy_dataset.subset(np.arange(300, 400))
        net = Network("8-16-2", loss="binary_cross_entropy", seed=1)
        trainer = Trainer(net, epochs=60, learning_rate=1.0, patience=3, seed=2)
        history = trainer.fit(train, validation)
        assert history.epochs_run <= 60
        # the network's validation loss equals the best recorded value
        best = min(history.validation_loss)
        current = net.evaluate_loss(validation.inputs, validation.targets)
        assert current == pytest.approx(best, rel=1e-6)

    def test_lr_decay_applied_per_epoch(self, toy_dataset):
        net = Network("8-8-2", loss="binary_cross_entropy", seed=1)
        trainer = Trainer(net, epochs=5, learning_rate=1.0, lr_decay=0.5, seed=2)
        trainer.fit(toy_dataset)
        assert trainer.optimizer.learning_rate == pytest.approx(1.0 * 0.5**5)

    def test_invalid_hyperparameters(self):
        net = Network("2-2", seed=0)
        with pytest.raises(ValueError):
            Trainer(net, batch_size=0)
        with pytest.raises(ValueError):
            Trainer(net, epochs=0)
        with pytest.raises(ValueError):
            Trainer(net, lr_decay=0.0)

    def test_training_learns_separable_problem(self, toy_dataset):
        net = Network("8-16-2", loss="binary_cross_entropy", seed=3)
        Trainer(net, learning_rate=0.3, epochs=40, seed=4).fit(toy_dataset)
        error = classification_error(net.predict(toy_dataset.inputs), toy_dataset.labels)
        assert error < 0.08

    def test_deterministic_given_seeds(self, toy_dataset):
        def run():
            net = Network("8-8-2", loss="binary_cross_entropy", seed=5)
            Trainer(net, learning_rate=0.3, epochs=5, seed=6).fit(toy_dataset)
            return net.predict(toy_dataset.inputs[:10])

        np.testing.assert_allclose(run(), run())

    def test_regression_training(self, toy_regression_dataset):
        net = Network(
            "4-8-1", output_activation="sigmoid", loss="mse", seed=2
        )
        history = Trainer(net, learning_rate=0.5, epochs=30, seed=3).fit(toy_regression_dataset)
        assert history.train_loss[-1] < 0.01
