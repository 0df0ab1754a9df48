"""Gradient-descent optimizers.

The paper trains its benchmark models with vanilla backprop (SGD); momentum
and Adam are provided because the memory-adaptive training experiments
converge noticeably faster with them on the synthetic datasets, and because a
production library would be expected to offer them.

Optimizers operate on a :class:`~repro.nn.network.Network` through its flat
gradient buffer and update its flat buffer of *master* float weights in
place, as one tensor under the key ``"parameters"``: every update is
elementwise, so this equals a per-tensor update.  Memory-adaptive training
wraps the delta with its own rule (see
:class:`repro.matic.training.MemoryAdaptiveTrainer`) but reuses the same
optimizer implementations for the raw gradient step.
"""

from __future__ import annotations

import numpy as np

from .network import Network

__all__ = ["Optimizer", "SGD", "MomentumSGD", "Adam", "get_optimizer"]


class Optimizer:
    """Base class: per-parameter update of a network's master weights."""

    name = "base"

    def __init__(self, learning_rate: float = 0.1) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    def step(self, network: Network) -> None:
        """Apply one update using the network's current flat gradients."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any internal state (momentum buffers, moment estimates)."""

    # ------------------------------------------------------------------
    # Helper used by MAT: compute the raw update delta for one parameter
    # tensor without applying it, so the caller can fold it into its own
    # weight-update rule.
    # ------------------------------------------------------------------
    def parameter_delta(self, key: str, gradient: np.ndarray) -> np.ndarray:
        """Return the update delta (to be *subtracted*) for one parameter.

        ``key`` identifies the parameter tensor (stable across iterations) so
        stateful optimizers can keep per-parameter buffers.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(lr={self.learning_rate})"


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``w ← w − α ∇J``."""

    name = "sgd"

    def step(self, network: Network) -> None:
        parameters = network.flat_parameters()
        parameters -= self.parameter_delta("parameters", network.flat_gradients())

    def parameter_delta(self, key: str, gradient: np.ndarray) -> np.ndarray:
        return self.learning_rate * gradient


class MomentumSGD(Optimizer):
    """SGD with classical momentum."""

    name = "momentum"

    def __init__(self, learning_rate: float = 0.1, momentum: float = 0.9) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}

    def reset(self) -> None:
        self._velocity.clear()

    def parameter_delta(self, key: str, gradient: np.ndarray) -> np.ndarray:
        velocity = self._velocity.get(key)
        if velocity is None:
            velocity = np.zeros_like(gradient)
        velocity = self.momentum * velocity + self.learning_rate * gradient
        self._velocity[key] = velocity
        return velocity

    def step(self, network: Network) -> None:
        parameters = network.flat_parameters()
        parameters -= self.parameter_delta("parameters", network.flat_gradients())


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    name = "adam"

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def reset(self) -> None:
        self._m.clear()
        self._v.clear()
        self._t.clear()

    def parameter_delta(self, key: str, gradient: np.ndarray) -> np.ndarray:
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None or v is None:
            m = np.zeros_like(gradient)
            v = np.zeros_like(gradient)
        t = self._t.get(key, 0) + 1
        m = self.beta1 * m + (1.0 - self.beta1) * gradient
        v = self.beta2 * v + (1.0 - self.beta2) * gradient * gradient
        self._m[key], self._v[key], self._t[key] = m, v, t
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        return self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def step(self, network: Network) -> None:
        parameters = network.flat_parameters()
        parameters -= self.parameter_delta("parameters", network.flat_gradients())


_REGISTRY = {cls.name: cls for cls in (SGD, MomentumSGD, Adam)}


def get_optimizer(name: str | Optimizer, **kwargs) -> Optimizer:
    """Resolve an optimizer by name (or pass an instance through)."""
    if isinstance(name, Optimizer):
        return name
    key = str(name).lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown optimizer {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**kwargs)
