"""Unit tests for repro.nn.losses."""

from __future__ import annotations

import numpy as np
import pytest

from reference_passes import LOSSES
from repro.nn import (
    BinaryCrossEntropyLoss,
    CrossEntropyLoss,
    Loss,
    MeanSquaredError,
    Network,
    get_loss,
)


class TestMeanSquaredError:
    def test_zero_for_perfect_predictions(self):
        p = np.array([[0.2, 0.8], [0.5, 0.5]])
        assert MeanSquaredError().value(p, p) == 0.0

    def test_known_value(self):
        loss = MeanSquaredError()
        p = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 0.0]])
        assert loss.value(p, t) == pytest.approx(0.5)

    def test_gradient_matches_finite_difference(self):
        loss = MeanSquaredError()
        rng = np.random.default_rng(0)
        p = rng.random((4, 3))
        t = rng.random((4, 3))
        grad = loss.gradient(p, t)
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                p2 = p.copy()
                p2[i, j] += eps
                numeric = (loss.value(p2, t) - loss.value(p, t)) / eps
                assert grad[i, j] == pytest.approx(numeric, abs=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MeanSquaredError().value(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_accepts_1d_inputs(self):
        assert MeanSquaredError().value(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        loss = CrossEntropyLoss()
        p = np.array([[0.999, 0.0005, 0.0005]])
        t = np.array([[1.0, 0.0, 0.0]])
        assert loss.value(p, t) < 0.01

    def test_wrong_prediction_high_loss(self):
        loss = CrossEntropyLoss()
        p = np.array([[0.001, 0.999]])
        t = np.array([[1.0, 0.0]])
        assert loss.value(p, t) > 3.0

    def test_fused_softmax_gradient(self):
        loss = CrossEntropyLoss()
        p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(loss.gradient(p, t), (p - t) / 2.0)

    def test_fuses_with_softmax_flag(self):
        assert CrossEntropyLoss().fuses_with_softmax is True
        assert MeanSquaredError().fuses_with_softmax is False

    def test_handles_zero_probability_without_nan(self):
        loss = CrossEntropyLoss()
        value = loss.value(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert np.isfinite(value)


class TestBinaryCrossEntropy:
    def test_value_is_mean_over_batch_sum_over_outputs(self):
        loss = BinaryCrossEntropyLoss()
        p = np.array([[0.9, 0.1], [0.8, 0.2]])
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        expected = np.mean(
            [-np.log(0.9) - np.log(0.9), -np.log(0.8) - np.log(0.8)]
        )
        assert loss.value(p, t) == pytest.approx(expected)

    def test_gradient_matches_finite_difference(self):
        loss = BinaryCrossEntropyLoss()
        rng = np.random.default_rng(3)
        p = rng.uniform(0.05, 0.95, size=(5, 4))
        t = (rng.random((5, 4)) > 0.5).astype(float)
        grad = loss.gradient(p, t)
        eps = 1e-7
        for i in range(5):
            for j in range(4):
                p2 = p.copy()
                p2[i, j] += eps
                numeric = (loss.value(p2, t) - loss.value(p, t)) / eps
                assert grad[i, j] == pytest.approx(numeric, rel=1e-3)

    def test_single_output_case(self):
        loss = BinaryCrossEntropyLoss()
        p = np.array([[0.5]])
        t = np.array([[1.0]])
        assert loss.value(p, t) == pytest.approx(-np.log(0.5))

    def test_clipping_prevents_infinities(self):
        loss = BinaryCrossEntropyLoss()
        assert np.isfinite(loss.value(np.array([[0.0]]), np.array([[1.0]])))
        assert np.all(np.isfinite(loss.gradient(np.array([[0.0]]), np.array([[1.0]]))))


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("mse", MeanSquaredError),
            ("cross_entropy", CrossEntropyLoss),
            ("binary_cross_entropy", BinaryCrossEntropyLoss),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(get_loss(name), cls)

    def test_instance_passthrough(self):
        loss = MeanSquaredError()
        assert get_loss(loss) is loss

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_loss("nope")


class TestFusedValueAndGradient:
    """One ``value_and_gradient`` call equals the separate calls, bit for bit."""

    @pytest.mark.parametrize("name", sorted(LOSSES))
    @pytest.mark.parametrize("batch", [1, 5])
    def test_matches_separate_reference_calls(self, name, batch):
        rng = np.random.default_rng(batch)
        predictions = rng.random((batch, 4))
        # probabilities at and past the clip bounds, and a negative output
        predictions[0, :3] = (0.0, 1.0, 1e-14)
        predictions[-1, 3] = -0.5 if name == "mse" else 1.0 - 1e-14
        targets = np.eye(4)[rng.integers(0, 4, size=batch)]
        reference = LOSSES[name]()
        value, gradient = get_loss(name).value_and_gradient(predictions, targets)
        assert value == reference.value(predictions, targets)
        assert np.array_equal(
            gradient.view(np.uint64), reference.gradient(predictions, targets).view(np.uint64)
        )
        assert get_loss(name).value(predictions, targets) == value
        assert np.array_equal(get_loss(name).gradient(predictions, targets), gradient)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            get_loss("binary_cross_entropy").value_and_gradient(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_a_loss_with_separate_calls_still_trains(self):
        class Halved(Loss):
            def value(self, predictions, targets):
                return float(np.mean(predictions - targets) / 2)

            def gradient(self, predictions, targets):
                return np.full(np.shape(predictions), 0.125)

        network = Network("3-2", output_activation="identity", loss=Halved(), seed=0)
        x, t = np.ones((4, 3)), np.zeros((4, 2))
        assert network.backward(network.forward(x, training=True), t) == Halved().value(
            network.predict(x), t
        )
        assert np.allclose(network.layers[0].grad_bias, 0.5)

    def test_a_loss_defining_nothing_is_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Loss().value(np.zeros((1, 1)), np.zeros((1, 1)))
