"""Reference training passes: the per-layer forward/backward the flat buffer replaced.

A verbatim copy of the float passes as they were before the network owned
one flat parameter and gradient buffer: ``DenseLayer.forward`` / ``backward``
checking every layer's input and allocating fresh gradient arrays, the
sigmoid's boolean fancy-index form, and the losses' separate ``value`` and
``gradient`` calls.  :func:`use_reference_passes` installs them on one
network, so any trainer run on it trains through them; the differential
tests compare that against the same trainer on an untouched network.
:class:`ReferenceTrainer` keeps the float trainer's loop as it was too: a
fancy-indexed gather per mini-batch and a per-tensor update under per-layer
optimizer keys.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Network, Trainer, TrainingHistory
from repro.nn.activations import Activation, Sigmoid
from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss

_EPS = 1e-12


def sigmoid_forward(x: np.ndarray) -> np.ndarray:
    """The sigmoid's branch form: boolean masks and fancy indexing."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def _activation_forward(activation: Activation, z: np.ndarray) -> np.ndarray:
    if isinstance(activation, Sigmoid):
        return sigmoid_forward(z)
    return activation.forward(z)


def layer_forward(layer: DenseLayer, x: np.ndarray, training: bool = False) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.shape[1] != layer.in_features:
        raise ValueError(
            f"input has {x.shape[1]} features, layer expects {layer.in_features}"
        )
    z = x @ layer.active_weights + layer.active_bias
    y = _activation_forward(layer.activation, z)
    if training:
        layer._input = x
        layer._pre_activation = z
        layer._output = y
    return y


def layer_backward(layer: DenseLayer, grad_output: np.ndarray) -> np.ndarray:
    if layer._input is None or layer._pre_activation is None or layer._output is None:
        raise RuntimeError("backward() called before forward(training=True)")
    grad_output = np.asarray(grad_output, dtype=float)
    if grad_output.ndim == 1:
        grad_output = grad_output.reshape(1, -1)

    if layer.skip_activation_gradient:
        grad_z = grad_output
    else:
        grad_z = grad_output * layer.activation.backward(
            layer._pre_activation, layer._output
        )

    layer.grad_weights = layer._input.T @ grad_z
    layer.grad_bias = np.sum(grad_z, axis=0)
    return grad_z @ layer.active_weights.T


def _as_2d(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return a.reshape(1, -1)
    return a


class MeanSquaredError(Loss):
    name = "mse"

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        p, t = _as_2d(predictions), _as_2d(targets)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        return float(np.mean((p - t) ** 2))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        p, t = _as_2d(predictions), _as_2d(targets)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        return 2.0 * (p - t) / p.size


class CrossEntropyLoss(Loss):
    name = "cross_entropy"
    fuses_with_softmax = True

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        p, t = _as_2d(predictions), _as_2d(targets)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        p = np.clip(p, _EPS, 1.0)
        return float(-np.mean(np.sum(t * np.log(p), axis=-1)))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        p, t = _as_2d(predictions), _as_2d(targets)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        return (p - t) / p.shape[0]


class BinaryCrossEntropyLoss(Loss):
    name = "binary_cross_entropy"

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        p, t = _as_2d(predictions), _as_2d(targets)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        p = np.clip(p, _EPS, 1.0 - _EPS)
        per_sample = -np.sum(t * np.log(p) + (1.0 - t) * np.log(1.0 - p), axis=-1)
        return float(np.mean(per_sample))

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        p, t = _as_2d(predictions), _as_2d(targets)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        p = np.clip(p, _EPS, 1.0 - _EPS)
        return (p - t) / (p * (1.0 - p)) / p.shape[0]


LOSSES = {cls.name: cls for cls in (MeanSquaredError, CrossEntropyLoss, BinaryCrossEntropyLoss)}


def network_forward(network: Network, x: np.ndarray, training: bool = False) -> np.ndarray:
    out = np.asarray(x, dtype=float)
    for layer in network.layers:
        out = layer_forward(layer, out, training=training)
    return out


def network_backward(network: Network, predictions: np.ndarray, targets: np.ndarray) -> float:
    loss_value = network.loss.value(predictions, targets)
    grad = network.loss.gradient(predictions, targets)
    output_layer = network.layers[-1]
    output_layer.skip_activation_gradient = (
        network.loss.fuses_with_softmax
        and output_layer.activation.name == "softmax"
    )
    for layer in reversed(network.layers):
        grad = layer_backward(layer, grad)
    output_layer.skip_activation_gradient = False
    return loss_value


def use_reference_passes(network: Network) -> Network:
    """Route ``network``'s forward, backward and loss through the copies above.

    ``evaluate_loss`` and ``predict`` follow, since they call ``forward`` and
    ``loss.value``.  Returns ``network``.
    """
    network.forward = lambda x, training=False: network_forward(network, x, training)
    network.backward = lambda predictions, targets: network_backward(
        network, predictions, targets
    )
    network.loss = LOSSES[network.loss.name]()
    return network


def reference_minibatches(inputs, targets, batch_size, rng=None, shuffle=True):
    """``iterate_minibatches`` as it was: one fancy index per batch."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    n = len(inputs)
    if len(targets) != n:
        raise ValueError("inputs and targets must have the same length")
    indices = np.arange(n)
    if shuffle:
        rng = rng if rng is not None else np.random.default_rng()
        rng.shuffle(indices)
    for start in range(0, n, batch_size):
        batch = indices[start : start + batch_size]
        yield inputs[batch], targets[batch]


def _iter_parameters(network: Network):
    """Yield (key, parameter array, gradient array) triples for a network."""
    for index, layer in enumerate(network.layers):
        yield f"layer{index}.weights", layer.weights, layer.grad_weights
        yield f"layer{index}.bias", layer.bias, layer.grad_bias


class ReferenceTrainer(Trainer):
    """The float trainer as it was: weight decay rebinds the gradient, the
    optimizer updates tensor by tensor, and every batch is gathered alone."""

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        predictions = self.network.forward(inputs, training=True)
        loss_value = self.network.backward(predictions, targets)
        if self.weight_decay:
            for layer in self.network.layers:
                layer.grad_weights = layer.grad_weights + self.weight_decay * layer.weights
        for key, param, grad in _iter_parameters(self.network):
            param -= self.optimizer.parameter_delta(key, grad)
        return loss_value

    def fit(self, train, validation=None, verbose=False) -> TrainingHistory:
        history = TrainingHistory()
        best_validation = float("inf")
        best_weights = None
        epochs_without_improvement = 0

        for epoch in range(self.epochs):
            epoch_losses = []
            for batch_x, batch_y in reference_minibatches(
                train.inputs, train.targets, self.batch_size, rng=self.rng
            ):
                epoch_losses.append(self.train_step(batch_x, batch_y))
            history.train_loss.append(float(np.mean(epoch_losses)))
            history.epochs_run = epoch + 1
            self.optimizer.learning_rate *= self.lr_decay

            if validation is not None:
                val_loss = self.network.evaluate_loss(
                    validation.inputs, validation.targets
                )
                history.validation_loss.append(val_loss)
                if self.patience is not None:
                    if val_loss < best_validation - 1e-9:
                        best_validation = val_loss
                        best_weights = self.network.get_weights()
                        epochs_without_improvement = 0
                    else:
                        epochs_without_improvement += 1
                        if epochs_without_improvement >= self.patience:
                            break

        if best_weights is not None and self.patience is not None:
            self.network.set_weights(best_weights)
        return history
