"""Feed-forward fully-connected network.

A :class:`Network` is an ordered list of :class:`~repro.nn.layers.DenseLayer`
objects built from a *topology* — the paper describes its benchmark models by
topology strings such as ``100-32-10`` (mnist), ``400-8-1`` (facedet),
``2-16-2`` (inversek2j) and ``6-16-1`` (bscholes).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from .activations import Activation
from .layers import DenseLayer
from .losses import Loss, get_loss

__all__ = ["Network", "Topology", "flat_layout", "parse_topology"]


def parse_topology(topology: str | Sequence[int]) -> tuple[int, ...]:
    """Parse a topology description into a tuple of layer widths.

    Accepts either a dash-separated string (``"100-32-10"``) or a sequence of
    integers.  At least two entries (input and output widths) are required.
    """
    if isinstance(topology, str):
        try:
            widths = tuple(int(part) for part in topology.split("-"))
        except ValueError as exc:
            raise ValueError(f"invalid topology string {topology!r}") from exc
    else:
        widths = tuple(int(w) for w in topology)
    if len(widths) < 2:
        raise ValueError("topology needs at least input and output widths")
    if any(w <= 0 for w in widths):
        raise ValueError(f"topology widths must be positive, got {widths}")
    return widths


def flat_layout(layers: Sequence[DenseLayer]) -> list[tuple[slice, tuple[int, ...]]]:
    """``(span, shape)`` of every tensor of ``layers`` in one flat vector.

    The order is ``[W0 … Wn−1, b0 … bn−1]``, each tensor raveled in C order;
    weights come first, so weight decay touches a prefix.  A network's
    parameter and gradient buffers and the vectors of
    :class:`repro.matic.masking.CompiledMasks` all use it.
    """
    shapes = [(layer.in_features, layer.out_features) for layer in layers] + [
        (layer.out_features,) for layer in layers
    ]
    layout, stop = [], 0
    for shape in shapes:
        start, stop = stop, stop + math.prod(shape)
        layout.append((slice(start, stop), shape))
    return layout


class Topology:
    """A named DNN topology (layer widths plus activation choices)."""

    def __init__(
        self,
        widths: str | Sequence[int],
        hidden_activation: str | Activation = "sigmoid",
        output_activation: str | Activation = "sigmoid",
        name: str = "",
    ) -> None:
        self.widths = parse_topology(widths)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation
        self.name = name or "-".join(str(w) for w in self.widths)

    @property
    def num_weights(self) -> int:
        """Number of weight parameters (excluding biases)."""
        return sum(a * b for a, b in zip(self.widths[:-1], self.widths[1:]))

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters including biases."""
        return self.num_weights + sum(self.widths[1:])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Topology({self.name!r})"


class Network:
    """A feed-forward stack of dense layers.

    Parameters
    ----------
    topology:
        Layer widths, e.g. ``"100-32-10"`` or ``[100, 32, 10]``, or a
        :class:`Topology` instance.
    hidden_activation / output_activation:
        Activations for hidden layers and the output layer.  Classification
        benchmarks in the paper use sigmoid hidden units with softmax or
        sigmoid outputs; regression benchmarks use a linear output.
    loss:
        Loss name or instance used by :meth:`backward` and :meth:`evaluate`.
    seed:
        Seed for weight initialization (reproducibility of the baseline vs.
        memory-adaptive comparison requires identical initial weights).
    """

    def __init__(
        self,
        topology: str | Sequence[int] | Topology,
        hidden_activation: str | Activation = "sigmoid",
        output_activation: str | Activation = "sigmoid",
        loss: str | Loss = "mse",
        weight_initializer: str | None = None,
        seed: int | None = None,
    ) -> None:
        if isinstance(topology, Topology):
            widths = topology.widths
            hidden_activation = topology.hidden_activation
            output_activation = topology.output_activation
            self.name = topology.name
        else:
            widths = parse_topology(topology)
            self.name = "-".join(str(w) for w in widths)
        self.widths = widths
        self.loss = get_loss(loss)
        rng = np.random.default_rng(seed)

        self.layers: list[DenseLayer] = []
        for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            is_output = index == len(widths) - 2
            activation = output_activation if is_output else hidden_activation
            self.layers.append(
                DenseLayer(
                    fan_in,
                    fan_out,
                    activation=activation,
                    weight_initializer=weight_initializer,
                    rng=rng,
                )
            )
        self._adopt()

    # ------------------------------------------------------- flat buffers
    #
    # The network owns one parameter and one gradient buffer, both in the
    # flat_layout order.  Every layer's weights, bias, grad_weights and
    # grad_bias are views into them, so the passes and the optimizers'
    # in-place updates act on the buffers directly.  A layer attribute
    # rebound to another array is copied back in, and the view rebound,
    # before the next flat access.

    def _bind(self, parameters: np.ndarray, gradients: np.ndarray) -> None:
        """Make every layer's parameters and gradients views of the buffers."""
        self._parameters, self._gradients = parameters, gradients
        self._views = []
        layout = flat_layout(self.layers)
        depth = len(self.layers)
        for layer, (weights, shape), (bias, _) in zip(self.layers, layout[:depth], layout[depth:]):
            views = (
                parameters[weights].reshape(shape),
                parameters[bias],
                gradients[weights].reshape(shape),
                gradients[bias],
            )
            layer.weights, layer.bias, layer.grad_weights, layer.grad_bias = views
            self._views.append(views)

    def _adopt(self) -> None:
        """Gather the layers' own arrays into new buffers and bind views of them."""
        layers = self.layers
        parameters = [layer.weights for layer in layers] + [layer.bias for layer in layers]
        gradients = [layer.grad_weights for layer in layers] + [
            layer.grad_bias for layer in layers
        ]
        self._bind(*(np.concatenate(a, axis=None, dtype=float) for a in (parameters, gradients)))

    def flat_parameters(self) -> np.ndarray:
        """The master parameters as one flat vector ``[W0 … Wn−1, b0 … bn−1]``.

        This is the buffer the layers' ``weights`` and ``bias`` view, not a
        copy: writing into it writes the layers' parameters.
        """
        for layer, (weights, bias, _, _) in zip(self.layers, self._views):
            if layer.weights is not weights or layer.bias is not bias:
                layer.weights = _refill(weights, layer.weights)
                layer.bias = _refill(bias, layer.bias)
        return self._parameters

    def flat_gradients(self) -> np.ndarray:
        """The last backward pass's gradients, laid out as :meth:`flat_parameters`.

        This is the buffer the layers' ``grad_weights`` and ``grad_bias``
        view, not a copy.
        """
        for layer, (_, _, grad_weights, grad_bias) in zip(self.layers, self._views):
            if layer.grad_weights is not grad_weights or layer.grad_bias is not grad_bias:
                layer.grad_weights = _refill(grad_weights, layer.grad_weights)
                layer.grad_bias = _refill(grad_bias, layer.grad_bias)
        return self._gradients

    # ------------------------------------------------------------ compute

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the network on a batch (or single sample) of inputs."""
        out = self.layers[0]._batch(x)
        for layer in self.layers:
            out = layer._forward(out, training)
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass."""
        return self.forward(x, training=False)

    def backward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Compute the loss and backpropagate its gradient.

        Returns the scalar loss value.  Layer gradients are written, in
        place, into each layer's ``grad_weights`` / ``grad_bias``.
        """
        loss_value, grad = self.loss.value_and_gradient(predictions, targets)
        layers = self.layers
        output_layer = layers[-1]
        output_layer.skip_activation_gradient = (
            self.loss.fuses_with_softmax
            and output_layer.activation.name == "softmax"
        )
        # layer 0's input gradient would go nowhere
        for index in range(len(layers) - 1, -1, -1):
            grad = layers[index]._backward(grad, input_gradient=index > 0)
        output_layer.skip_activation_gradient = False
        return loss_value

    def evaluate_loss(self, x: np.ndarray, targets: np.ndarray) -> float:
        """Loss on a dataset without touching gradients."""
        return self.loss.value(self.predict(x), targets)

    # --------------------------------------------------------- parameters

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    @property
    def num_weights(self) -> int:
        """Number of weight parameters (the values stored in weight SRAM)."""
        return sum(layer.weights.size for layer in self.layers)

    def structure_key(self) -> dict:
        """Content key of the network's structure, for cache digests.

        Identically initialized networks can still differ in structure: the
        widths, every layer's activation with its parameters, and the loss
        keep their trained artifacts apart.
        """
        return {
            "widths": tuple(self.widths),
            "activations": tuple(layer.activation.spec_key() for layer in self.layers),
            "loss": self.loss.name,
        }

    def get_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Return copies of ``(weights, bias)`` per layer."""
        return [(layer.weights.copy(), layer.bias.copy()) for layer in self.layers]

    def set_weights(self, weights: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
        """Install per-layer ``(weights, bias)`` pairs (copied in)."""
        weights = list(weights)
        if len(weights) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} layer parameter pairs, got {len(weights)}"
            )
        for layer, (w, b), (weight_view, bias_view, _, _) in zip(
            self.layers, weights, self._views
        ):
            if w.shape != weight_view.shape or b.shape != bias_view.shape:
                raise ValueError("weight shapes do not match network topology")
            weight_view[...], bias_view[...] = w, b
            layer.weights, layer.bias = weight_view, bias_view

    def clear_effective(self) -> None:
        """Remove fault-masked parameter views from every layer."""
        for layer in self.layers:
            layer.clear_effective()

    def copy(self) -> "Network":
        """Deep copy of the network: weights, topology and activations.

        The copy shares the (stateless) activation and loss objects.  It
        carries no effective views or forward caches, and its gradients
        start at zero.
        """
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.layers = [layer._fresh_copy() for layer in self.layers]
        clone._bind(self.flat_parameters().copy(), np.zeros_like(self._gradients))
        return clone

    # ------------------------------------------------------------ pickling

    def __getstate__(self) -> dict:
        # the layers' four arrays are views of the two buffers: pickle the
        # buffers once and bind new views on load
        self.flat_parameters()  # fold any rebound layer array into the buffers
        self.flat_gradients()
        state = self.__dict__.copy()
        del state["_views"]
        state["layers"] = [_stripped(layer) for layer in self.layers]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if "_parameters" in state:
            self._bind(self._parameters, self._gradients)
        else:
            # pickled before networks owned buffers: layers carry their arrays
            self._adopt()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Network({self.name!r}, loss={self.loss.name})"


#: the layer attributes that are views of a network's buffers
_VIEWS = frozenset(("weights", "bias", "grad_weights", "grad_bias"))


def _stripped(layer: DenseLayer) -> DenseLayer:
    """A shallow copy of ``layer`` without the views of its network's buffers
    or the last training batch its forward pass kept for backward."""
    clone = type(layer).__new__(type(layer))
    clone.__dict__.update((k, v) for k, v in vars(layer).items() if k not in _VIEWS)
    clone.forget_batch()
    return clone


def _refill(view: np.ndarray, array: np.ndarray) -> np.ndarray:
    """``view``, holding ``array``'s values if ``array`` is another array."""
    if array is not view:
        if np.shape(array) != view.shape:
            raise ValueError(f"layer array of shape {np.shape(array)} != {view.shape}")
        view[...] = array
    return view
