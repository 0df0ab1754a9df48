"""Loss functions for training and evaluating fully-connected DNNs.

Every loss exposes:

``value(predictions, targets)``
    Scalar mean loss over the batch.

``gradient(predictions, targets)``
    Gradient of the mean loss with respect to the predictions (same shape as
    ``predictions``).

``value_and_gradient(predictions, targets)``
    Both at once, sharing the shape check and any clipping; the training
    path calls this once per step.

``fuses_with_softmax``
    True when the loss gradient is expressed with respect to the
    pre-activation logits of a softmax output layer (cross-entropy).  The
    :class:`repro.nn.network.Network` backward pass uses this flag to skip
    the softmax Jacobian.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Loss",
    "MeanSquaredError",
    "CrossEntropyLoss",
    "BinaryCrossEntropyLoss",
    "get_loss",
]

_EPS = 1e-12


def _as_2d(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return a.reshape(1, -1)
    return a


def _pair(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictions and targets as 2-D float arrays of one shape."""
    p, t = _as_2d(predictions), _as_2d(targets)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    return p, t


class Loss:
    """Base class for losses.

    A subclass overrides :meth:`value_and_gradient`, or both :meth:`value`
    and :meth:`gradient`; the base class derives the rest from those.
    """

    name = "base"
    #: when True the gradient is w.r.t. softmax logits, not probabilities
    fuses_with_softmax = False

    def value(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        return self.value_and_gradient(predictions, targets)[0]

    def gradient(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(predictions, targets)[1]

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """``(value, gradient)``, exactly what the two separate calls return."""
        if type(self).value is Loss.value or type(self).gradient is Loss.gradient:
            raise NotImplementedError
        return self.value(predictions, targets), self.gradient(predictions, targets)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class MeanSquaredError(Loss):
    """Mean squared error, averaged over batch and output dimensions.

    This is the error metric the paper reports for the ``inversek2j`` and
    ``bscholes`` regression benchmarks.
    """

    name = "mse"

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        p, t = _pair(predictions, targets)
        error = p - t
        return float(np.add.reduce(error * error, axis=None) / p.size), 2.0 * error / p.size


class CrossEntropyLoss(Loss):
    """Categorical cross-entropy over one-hot targets.

    Intended to follow a softmax output layer; the gradient returned is with
    respect to the softmax *logits* (``softmax(x) - target``), the standard
    fused form, which is both faster and numerically better conditioned.
    """

    name = "cross_entropy"
    fuses_with_softmax = True

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        p, t = _pair(predictions, targets)
        per_sample = np.add.reduce(t * np.log(np.minimum(np.maximum(p, _EPS), 1.0)), axis=-1)
        return float(-(np.add.reduce(per_sample) / len(p))), (p - t) / p.shape[0]


class BinaryCrossEntropyLoss(Loss):
    """Per-output (sigmoid) cross-entropy, summed over outputs, averaged over
    the batch.

    This is the FANN-style classifier loss used by the ``facedet`` (400-8-1)
    and ``mnist`` (100-32-10, independent sigmoid outputs) benchmarks.  The
    gradient is with respect to the sigmoid *outputs* (probabilities), so it
    composes with the sigmoid local derivative in the output layer; its scale
    matches :class:`CrossEntropyLoss` (per-sample, not per-element), so the
    same learning rates work for both classifier heads.
    """

    name = "binary_cross_entropy"

    def value_and_gradient(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        p, t = _pair(predictions, targets)
        p = np.minimum(np.maximum(p, _EPS), 1.0 - _EPS)
        q = 1.0 - p
        per_sample = -np.add.reduce(t * np.log(p) + (1.0 - t) * np.log(q), axis=-1)
        return float(np.add.reduce(per_sample) / len(p)), (p - t) / (p * q) / p.shape[0]


_REGISTRY = {
    cls.name: cls
    for cls in (MeanSquaredError, CrossEntropyLoss, BinaryCrossEntropyLoss)
}


def get_loss(name: str | Loss) -> Loss:
    """Resolve a loss by name (or pass an instance through)."""
    if isinstance(name, Loss):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown loss {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]()
