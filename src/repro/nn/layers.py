"""Network layers.

The paper only evaluates fully-connected (FC) DNNs — the SNNAC accelerator is
an FC-oriented design — so the framework provides a dense layer plus the
plumbing MATIC needs:

* every layer keeps *master* float weights (``weights`` / ``bias``) that the
  optimizer updates, and
* optionally carries *effective* weights (``effective_weights`` /
  ``effective_bias``) that the forward and backward passes use instead.

Memory-adaptive training binds the effective weights to a buffer that it
rewrites each iteration with the quantized, fault-masked view of the master
weights, so the gradients computed by backprop are exactly ``∂J/∂m`` from
the paper's update rule.
"""

from __future__ import annotations

import numpy as np

from .activations import Activation, get_activation
from .initializers import Initializer, XavierUniform, ZerosInitializer, get_initializer

__all__ = ["Layer", "DenseLayer"]


class Layer:
    """Base class for layers with trainable parameters."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseLayer(Layer):
    """Fully-connected layer ``y = f(x @ W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Layer width.  For SNNAC these map to a weight matrix that is
        time-multiplexed across the eight processing elements.
    activation:
        Activation name or instance (default sigmoid, matching the paper's
        benchmark models).
    weight_initializer, bias_initializer:
        Initialization schemes; Xavier uniform and zeros by default.
    rng:
        Random generator used to draw the initial weights.

    Inside a :class:`~repro.nn.network.Network`, ``weights``, ``bias``,
    ``grad_weights`` and ``grad_bias`` are views into the network's flat
    parameter and gradient buffers.  :meth:`backward` overwrites
    ``grad_weights`` and ``grad_bias`` in place, so a gradient array held
    across a backward pass changes; copy it to keep it.  Assigning any of the
    four attributes still rebinds it: the network copies a rebound array into
    its buffer, and rebinds the view, before its next flat access.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str | Activation = "sigmoid",
        weight_initializer: str | Initializer | None = None,
        bias_initializer: str | Initializer | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.activation = get_activation(activation)

        w_init = (
            get_initializer(weight_initializer)
            if weight_initializer is not None
            else XavierUniform()
        )
        b_init = (
            get_initializer(bias_initializer)
            if bias_initializer is not None
            else ZerosInitializer()
        )
        rng = rng if rng is not None else np.random.default_rng()

        #: master float weights, shape (in_features, out_features)
        self.weights = w_init((self.in_features, self.out_features), rng)
        #: master float bias, shape (out_features,)
        self.bias = b_init((self.out_features,), rng)

        #: optional fault-masked / quantized view used by forward & backward
        self.effective_weights: np.ndarray | None = None
        self.effective_bias: np.ndarray | None = None

        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

        # caches populated by forward() when training=True
        self._input: np.ndarray | None = None
        self._pre_activation: np.ndarray | None = None
        self._output: np.ndarray | None = None
        #: set by Network.backward when the loss gradient is already w.r.t.
        #: the pre-activation (softmax + cross-entropy fusion)
        self.skip_activation_gradient = False

    # ------------------------------------------------------------------ API

    @property
    def active_weights(self) -> np.ndarray:
        """Weights actually used for compute (effective if set, else master)."""
        return self.effective_weights if self.effective_weights is not None else self.weights

    @property
    def active_bias(self) -> np.ndarray:
        """Bias actually used for compute (effective if set, else master)."""
        return self.effective_bias if self.effective_bias is not None else self.bias

    def set_effective(self, weights: np.ndarray | None, bias: np.ndarray | None) -> None:
        """Install (or clear, with ``None``) the effective parameter view."""
        if weights is not None and weights.shape != self.weights.shape:
            raise ValueError(
                f"effective weight shape {weights.shape} != {self.weights.shape}"
            )
        if bias is not None and bias.shape != self.bias.shape:
            raise ValueError(
                f"effective bias shape {bias.shape} != {self.bias.shape}"
            )
        self.effective_weights = weights
        self.effective_bias = bias

    def clear_effective(self) -> None:
        """Remove any effective parameter view; compute reverts to masters."""
        self.effective_weights = None
        self.effective_bias = None

    def forget_batch(self) -> None:
        """Drop the forward caches of the last training batch (backward needs them)."""
        self._input = self._pre_activation = self._output = None

    # ------------------------------------------------------------ forward

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._forward(self._batch(x), training)

    def _batch(self, x: np.ndarray) -> np.ndarray:
        """``x`` as a 2-D float batch, checked against the layer's width."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"input has {x.shape[1]} features, layer expects {self.in_features}"
            )
        return x

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        """:meth:`forward` on a batch :meth:`_batch` already checked."""
        z = x @ self.active_weights
        z += self.active_bias
        y = self.activation.forward(z)
        if training:
            self._input = x
            self._pre_activation = z
            self._output = y
        return y

    # ----------------------------------------------------------- backward

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad_output`` (dJ/dy) through the layer.

        Writes ``grad_weights`` / ``grad_bias`` in place (gradients with
        respect to the *active* weights) and returns dJ/dx for the previous
        layer.
        """
        grad_output = np.asarray(grad_output, dtype=float)
        if grad_output.ndim == 1:
            grad_output = grad_output.reshape(1, -1)
        return self._backward(grad_output)

    def _backward(self, grad_output: np.ndarray, input_gradient: bool = True) -> np.ndarray | None:
        """:meth:`backward` on a 2-D float gradient; dJ/dx only if asked for."""
        if self._input is None or self._pre_activation is None or self._output is None:
            raise RuntimeError("backward() called before forward(training=True)")
        if self.skip_activation_gradient:
            grad_z = grad_output
        else:
            grad_z = self.activation.backward(self._pre_activation, self._output)
            grad_z *= grad_output

        np.matmul(self._input.T, grad_z, out=self.grad_weights)
        np.add.reduce(grad_z, axis=0, out=self.grad_bias)
        return grad_z @ self.active_weights.T if input_gradient else None

    # -------------------------------------------------------- bookkeeping

    @property
    def num_parameters(self) -> int:
        return self.weights.size + self.bias.size

    def _fresh_copy(self) -> "DenseLayer":
        """This layer's configuration, without an effective view or forward caches.

        The copy still names this layer's parameter and gradient arrays;
        :meth:`repro.nn.network.Network.copy` rebinds them to its new buffers.
        """
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.clear_effective()
        clone.forget_batch()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DenseLayer({self.in_features}->{self.out_features}, "
            f"activation={self.activation.name})"
        )
