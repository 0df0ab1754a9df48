"""Memory-adaptive training (MAT).

MAT augments vanilla backprop with the injection-masking process of Fig. 4:

1. master float weights ``w`` are quantized to the SRAM word format,
2. the profiled AND/OR fault masks are applied to the quantized words,
   producing the *fixed* weights ``m`` the accelerator would actually read,
3. the forward and backward passes run on ``m``, so the propagated error
   reflects the bit errors, and
4. the weight update keeps float-domain state:

   ``w[n+1] = m[n] − α · ∂J/∂m[n] + ε_q``,  with  ``ε_q = w[n] − Q(w[n])``

   i.e. the fractional quantization error is preserved so that small
   gradient updates accumulate across iterations instead of being rounded
   away (the convergence fix the paper adopts from Gupta et al.).
"""

from __future__ import annotations

import numpy as np

from ..nn.data import Dataset
from ..nn.network import Network
from ..nn.optimizers import Optimizer
from ..nn.trainer import Trainer, TrainingHistory
from .masking import CompiledMasks, FaultMaskSet

__all__ = ["MemoryAdaptiveTrainer"]


class MemoryAdaptiveTrainer(Trainer):
    """Trainer implementing the paper's memory-adaptive weight update rule.

    Parameters
    ----------
    network:
        The model to train; its master weights stay in float, its effective
        weights are replaced by the quantized/fault-masked view every step.
    mask_set:
        Injection masks (profiled or synthetic) plus per-layer fixed-point
        formats.  Use :meth:`repro.matic.masking.FaultMaskSet.identity` to
        run quantized-but-fault-free training.
    optimizer, learning_rate, batch_size, epochs, patience, seed:
        As in :class:`repro.nn.trainer.Trainer`.
    """

    def __init__(
        self,
        network: Network,
        mask_set: FaultMaskSet,
        optimizer: str | Optimizer = "momentum",
        learning_rate: float = 0.1,
        batch_size: int = 32,
        epochs: int = 50,
        patience: int | None = None,
        lr_decay: float = 0.93,
        weight_decay: float = 0.0,
        seed: int | None = None,
    ) -> None:
        super().__init__(
            network,
            optimizer=optimizer,
            learning_rate=learning_rate,
            batch_size=batch_size,
            epochs=epochs,
            patience=patience,
            lr_decay=lr_decay,
            weight_decay=weight_decay,
            seed=seed,
        )
        if len(mask_set) != len(network.layers):
            raise ValueError("mask set depth does not match the network")
        self.mask_set = mask_set
        #: the mask set compiled for this network and bound to its layers'
        #: effective views; every fit binds its own and drops it at the end
        self._compiled: CompiledMasks | None = None

    # ------------------------------------------------------------------

    def _bind_masks(self) -> CompiledMasks:
        """Compile the mask set and bind the layers' effective views to its buffer.

        Every step then rewrites that buffer in place.
        """
        masks = self._compiled = self.mask_set.compile(self.network)
        masks.set_effective(self.network, masks.masked(self.network))
        return masks

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One MAT iteration: mask, forward, backward, adapted update.

        Runs on the flat layout of :class:`~repro.matic.masking.CompiledMasks`,
        so every stage is one numpy expression over all parameters.  The
        masters and the gradient are the network's own flat buffers, and the
        masked parameters are the compiled masks' buffer, which the layers'
        effective views are bound to (by :meth:`fit`, or by the first step
        outside one).  The masters are read before the update overwrites
        them.
        """
        masks = self._compiled
        if masks is None:
            masks = self._bind_masks()
        network = self.network
        masters = network.flat_parameters()
        codes = masks.quantize(masters)
        # m[n]: the masked/quantized parameters the passes use
        masked = masks.apply(codes)
        predictions = network.forward(inputs, training=True)
        loss_value = network.backward(predictions, targets)
        gradient = network.flat_gradients()
        if self.weight_decay:
            weights = slice(0, masks.num_weights)  # the flat layout's weight prefix
            gradient[weights] += self.weight_decay * masked[weights]
        # ε_q: *fractional* (sub-LSB) quantization error of the master
        # parameters.  Masters are clamped to the representable range first;
        # otherwise a master pushed outside the range by a fault would make
        # ε_q the full clipping error and the float weights would drift
        # without bound.  Q(clip(w)) is the saturated Q(w), so the codes
        # above serve both the masked view and ε_q.
        eps = masks.clip(masters) - masks.dequantize(codes)
        # optimizer delta corresponds to α · ∂J/∂m (with momentum/Adam
        # generalizations handled by the optimizer itself); every update is
        # elementwise, so one delta over the flat gradient equals the
        # per-tensor deltas
        delta = self.optimizer.parameter_delta("parameters", gradient)
        # the new masters, clamped straight into the master buffer
        np.minimum(np.maximum(masked - delta + eps, masks.lower), masks.upper, out=masters)
        return loss_value

    def fit(
        self,
        train: Dataset,
        validation: Dataset | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train and leave the network carrying the masked deployment view.

        After training, the network's *effective* parameters hold the
        quantized, fault-masked weights (what the accelerator will compute
        with), while the master parameters hold the float training state.
        Evaluation of the deployed behaviour should therefore use the network
        as-is; call :meth:`repro.nn.network.Network.clear_effective` to get
        back the pure float model.
        """
        masks = self._bind_masks()
        history = super().fit(train, validation=validation, verbose=verbose)
        # a copy, not the scratch buffer a later step would rewrite
        masks.set_effective(self.network, masks.masked(self.network).copy())
        self._compiled = None
        return history
