"""Processing element (PE) model.

Each SNNAC PE is a fixed-point multiply-accumulate unit with a dedicated,
voltage-scalable weight SRAM bank.  The systolic ring
(:mod:`repro.accelerator.systolic`) performs every PE's work vectorized
across the whole layer: it reads through each PE's ``weight_bank`` with the
placement's compiled gather plan
(:class:`~repro.accelerator.microcode.LayerGatherPlan`), decodes the
two's-complement words with the layer's fixed-point format (so SRAM bit
errors become the exact weight perturbation the hardware would see),
quantizes input activations to the data format before the multiply, and
accumulates exactly (a wide accumulator that does not overflow for the layer
sizes the paper evaluates).  It credits :attr:`ProcessingElement.mac_count`
for the weight words each PE hosts — the per-PE counts sum to
``in_features * out_features * batch`` for every layer, spilled placements
included (the plan asserts it at compile time).
"""

from __future__ import annotations

from ..sram.array import SramBank

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """One MAC-based processing element with its local weight bank."""

    def __init__(self, index: int, weight_bank: SramBank) -> None:
        if index < 0:
            raise ValueError("index must be non-negative")
        self.index = int(index)
        self.weight_bank = weight_bank
        #: running MAC-operation count (for utilization / energy accounting)
        self.mac_count = 0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ProcessingElement({self.index}, bank={self.weight_bank.name!r})"
