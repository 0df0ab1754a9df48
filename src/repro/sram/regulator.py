"""Digitally-programmable voltage regulator model.

The test chip's SRAM supply is driven by external digitally-programmable
regulators; the in-situ canary controller (Algorithm 1) moves the SRAM rail
in fixed ``Δv`` steps through :meth:`VoltageRegulator.set_voltage`.  The model
quantizes requested voltages to the regulator's step size and clamps them to
its output range; the controller records the trajectory it visits in its own
:class:`~repro.matic.canary.RegulationTrace`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VoltageRegulator"]


class VoltageRegulator:
    """A programmable supply-rail regulator with a fixed step size.

    Parameters
    ----------
    initial_voltage:
        Output voltage at power-up, volts.
    step:
        Programming resolution (``delta-v`` in Algorithm 1), volts.
    min_voltage / max_voltage:
        Output range; requests outside the range are clamped.
    """

    def __init__(
        self,
        initial_voltage: float = 0.9,
        step: float = 0.005,
        min_voltage: float = 0.3,
        max_voltage: float = 1.2,
    ) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        if min_voltage <= 0 or max_voltage <= min_voltage:
            raise ValueError("voltage range must satisfy 0 < min < max")
        self.step = float(step)
        self.min_voltage = float(min_voltage)
        self.max_voltage = float(max_voltage)
        self._voltage = self._quantize(initial_voltage)

    # ------------------------------------------------------------------

    def _quantize(self, voltage: float) -> float:
        voltage = float(np.clip(voltage, self.min_voltage, self.max_voltage))
        steps = round(voltage / self.step)
        return float(np.clip(steps * self.step, self.min_voltage, self.max_voltage))

    @property
    def voltage(self) -> float:
        """Current output voltage."""
        return self._voltage

    def set_voltage(self, voltage: float) -> float:
        """Program a new output voltage; returns the quantized value applied."""
        self._voltage = self._quantize(voltage)
        return self._voltage

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"VoltageRegulator({self._voltage:.3f} V, step={self.step * 1e3:.1f} mV, "
            f"range=[{self.min_voltage}, {self.max_voltage}] V)"
        )
