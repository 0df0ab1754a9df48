"""Baseline (non-adaptive) training loop.

This trainer implements vanilla mini-batch backprop and is what the paper
calls the *naive baseline*: the DNN is trained at full precision with no
knowledge of SRAM faults, and only quantized when deployed to the
accelerator.  Memory-adaptive training
(:class:`repro.matic.training.MemoryAdaptiveTrainer`) subclasses the same
interface so experiments can swap one for the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, iterate_minibatches
from .network import Network
from .optimizers import Optimizer, get_optimizer

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch training statistics."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    epochs_run: int = 0

    @property
    def final_train_loss(self) -> float:
        return self.train_loss[-1] if self.train_loss else float("nan")


class Trainer:
    """Mini-batch gradient-descent trainer for :class:`Network`.

    Parameters
    ----------
    network:
        The model to train (updated in place).
    optimizer:
        Optimizer name or instance (default: SGD with momentum, which the
        synthetic benchmarks converge well with).
    batch_size:
        Mini-batch size.
    epochs:
        Maximum number of passes over the training set.
    patience:
        Early-stopping patience in epochs, measured on validation loss; use
        ``None`` to disable early stopping.
    lr_decay:
        Multiplicative learning-rate decay applied after every epoch
        (1.0 disables decay).  Decay is important for stable convergence of
        memory-adaptive training at high fault rates, where the heavily
        constrained network otherwise oscillates between mini-batches.
    weight_decay:
        L2 regularization coefficient applied to weight matrices (not
        biases).  Besides its usual generalization benefit, keeping weights
        small keeps the fixed-point weight format tight, which bounds the
        magnitude of any single SRAM bit error.
    seed:
        Seed for the mini-batch shuffling.
    """

    def __init__(
        self,
        network: Network,
        optimizer: str | Optimizer = "momentum",
        learning_rate: float = 0.1,
        batch_size: int = 16,
        epochs: int = 50,
        patience: int | None = None,
        lr_decay: float = 1.0,
        weight_decay: float = 0.0,
        seed: int | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if not 0.0 < lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be non-negative")
        self.network = network
        if isinstance(optimizer, Optimizer):
            self.optimizer = optimizer
        else:
            self.optimizer = get_optimizer(optimizer, learning_rate=learning_rate)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.patience = patience
        self.lr_decay = float(lr_decay)
        self.weight_decay = float(weight_decay)
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One forward/backward/update step on a mini-batch; returns loss."""
        network = self.network
        predictions = network.forward(inputs, training=True)
        loss_value = network.backward(predictions, targets)
        if self.weight_decay:
            weights = slice(0, network.num_weights)  # the flat layout's weight prefix
            decay = self.weight_decay * network.flat_parameters()[weights]
            network.flat_gradients()[weights] += decay
        self.optimizer.step(network)
        return loss_value

    def fit(
        self,
        train: Dataset,
        validation: Dataset | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the network; returns the per-epoch history."""
        history = TrainingHistory()
        best_validation = float("inf")
        best_weights = None
        epochs_without_improvement = 0

        for epoch in range(self.epochs):
            epoch_losses = []
            for batch_x, batch_y in iterate_minibatches(
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
                if verbose:  # pragma: no cover - logging only
                    print(
                        f"epoch {epoch + 1:3d}: train={history.train_loss[-1]:.5f} "
                        f"val={val_loss:.5f}"
                    )
                if self.patience is not None:
                    if val_loss < best_validation - 1e-9:
                        best_validation = val_loss
                        best_weights = self.network.get_weights()
                        epochs_without_improvement = 0
                    else:
                        epochs_without_improvement += 1
                        if epochs_without_improvement >= self.patience:
                            break
            elif verbose:  # pragma: no cover - logging only
                print(f"epoch {epoch + 1:3d}: train={history.train_loss[-1]:.5f}")

        if best_weights is not None and self.patience is not None:
            self.network.set_weights(best_weights)
        # the forward caches would keep a view of the epoch's shuffled copy
        for layer in self.network.layers:
            layer.forget_batch()
        return history
