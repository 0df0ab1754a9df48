"""Activation functions for the fully-connected DNN framework.

Each activation is a small stateless object with a ``forward`` and a
``backward`` method.  ``backward`` receives the *pre-activation* input that
``forward`` saw (and, where cheaper, the cached output) and returns the local
derivative so layers can apply the chain rule.

The set of activations mirrors what the SNNAC accelerator's activation
function unit (AFU) supports: sigmoid, tanh, and ReLU, plus the identity and
softmax used for regression and classification output layers respectively.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Activation",
    "Identity",
    "Sigmoid",
    "Tanh",
    "ReLU",
    "LeakyReLU",
    "Softmax",
    "get_activation",
]


class Activation:
    """Base class for element-wise activation functions."""

    #: Name used by :func:`get_activation` and by the AFU lookup tables.
    name = "base"

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the activation element-wise."""
        raise NotImplementedError

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return d(activation)/dx evaluated element-wise.

        Parameters
        ----------
        x:
            The pre-activation values passed to :meth:`forward`.
        y:
            The cached output of :meth:`forward` for the same ``x``; several
            activations (sigmoid, tanh) are cheaper to differentiate from
            their output.

        The result must be a new array of ``x``'s shape: the layer scales it
        by the incoming gradient in place.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def spec_key(self) -> str | tuple[str, dict]:
        """Content key for cache digests: the name, plus any parameters.

        An activation's instance attributes are its parameters (the
        activations are otherwise stateless), so two of one kind configured
        differently, such as ``LeakyReLU(0.3)`` and ``LeakyReLU(0.01)``,
        key apart.  One without parameters keys as its bare name.
        """
        params = vars(self)
        if not params:
            return self.name
        return (self.name, {name: params[name] for name in sorted(params)})

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Linear (no-op) activation, used for regression output layers."""

    name = "identity"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


class Sigmoid(Activation):
    """Logistic sigmoid ``1 / (1 + exp(-x))``.

    The implementation is numerically stable for large-magnitude inputs: it
    is ``exp(min(x, 0)) / (1 + exp(-|x|))``, and neither exponent is
    positive, so nothing overflows.  For ``x >= 0`` the numerator is
    ``exp(0) = 1``, giving ``1 / (1 + exp(-x))``; below zero both exponents
    are ``x``, giving ``exp(x) / (1 + exp(x))``.  That is the branch form
    bit for bit on every non-NaN input, ±0 and ±inf included.  A NaN input
    gives NaN, but ``-|x|`` sets its sign bit, so the output NaN's sign bit
    may differ from the branch form's.
    """

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(np.minimum(x, 0.0)) / (np.exp(np.copysign(x, -1.0)) + 1.0)

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return y * (1.0 - y)


class Tanh(Activation):
    """Hyperbolic tangent activation."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(x, dtype=float))

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 1.0 - y * y


class ReLU(Activation):
    """Rectified linear unit ``max(0, x)``."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) > 0.0).astype(float)


class LeakyReLU(Activation):
    """ReLU with a small negative-side slope to avoid dead units."""

    name = "leaky_relu"

    def __init__(self, negative_slope: float = 0.01) -> None:
        if negative_slope < 0:
            raise ValueError("negative_slope must be non-negative")
        self.negative_slope = float(negative_slope)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, x, self.negative_slope * x)

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, 1.0, self.negative_slope)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LeakyReLU(negative_slope={self.negative_slope})"


class Softmax(Activation):
    """Row-wise softmax used for classification output layers.

    ``backward`` returns ones: the softmax layer is only meant to be paired
    with :class:`repro.nn.losses.CrossEntropyLoss`, whose gradient with
    respect to the *pre-activation* logits is ``softmax(x) - target``.  The
    loss signals this by returning the combined gradient, and the layer skips
    the local Jacobian (see :class:`repro.nn.layers.DenseLayer`).
    """

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        shifted = x - np.max(x, axis=-1, keepdims=True)
        expx = np.exp(shifted)
        return expx / np.sum(expx, axis=-1, keepdims=True)

    def backward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(x, dtype=float))


_REGISTRY = {
    cls.name: cls
    for cls in (Identity, Sigmoid, Tanh, ReLU, LeakyReLU, Softmax)
}


def get_activation(name: str | Activation) -> Activation:
    """Resolve an activation by name (or pass an instance through).

    >>> get_activation("sigmoid")
    Sigmoid()
    """
    if isinstance(name, Activation):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]()
