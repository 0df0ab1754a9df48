"""Activation Function Unit (AFU) with piecewise-linear approximation.

SNNAC's AFU "minimizes energy and area footprint with piecewise-linear
approximation of activation functions (e.g. sigmoid or ReLU)".  The model
implements a segment-table PWL approximator: the input range is divided into
uniform segments, each storing a slope and intercept in a small LUT, with
saturation outside the covered range.  ReLU is exact (it is already piecewise
linear); sigmoid and tanh use the LUT.
"""

from __future__ import annotations

import numpy as np

from ..nn.activations import get_activation

__all__ = ["PiecewiseLinearFunction", "ActivationFunctionUnit"]


class PiecewiseLinearFunction:
    """A uniform-segment piecewise-linear approximation of a scalar function.

    Parameters
    ----------
    function:
        Vectorized reference function to approximate.
    input_range:
        ``(low, high)`` range covered by the segment table; inputs outside
        the range saturate to the function value at the range edge.
    num_segments:
        Number of uniform segments (LUT entries).  SNNAC-class AFUs use a
        small table; 16 segments keep the sigmoid approximation error below
        ~1e-2 which is negligible next to SRAM-fault-induced error.
    """

    def __init__(
        self,
        function,
        input_range: tuple[float, float] = (-8.0, 8.0),
        num_segments: int = 16,
    ) -> None:
        low, high = float(input_range[0]), float(input_range[1])
        if not low < high:
            raise ValueError("input_range must satisfy low < high")
        if num_segments < 1:
            raise ValueError("num_segments must be >= 1")
        self.low = low
        self.high = high
        self.num_segments = int(num_segments)
        edges = np.linspace(low, high, self.num_segments + 1)
        left_values = np.asarray(function(edges[:-1]), dtype=float)
        right_values = np.asarray(function(edges[1:]), dtype=float)
        self.edges = edges
        self.slopes = (right_values - left_values) / np.diff(edges)
        self.intercepts = left_values - self.slopes * edges[:-1]
        self.saturate_low = float(function(np.array([low]))[0])
        self.saturate_high = float(function(np.array([high]))[0])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        clipped = np.clip(x, self.low, self.high)
        segment = np.minimum(
            ((clipped - self.low) / (self.high - self.low) * self.num_segments).astype(int),
            self.num_segments - 1,
        )
        result = self.slopes[segment] * clipped + self.intercepts[segment]
        result = np.where(x < self.low, self.saturate_low, result)
        result = np.where(x > self.high, self.saturate_high, result)
        return result


class ActivationFunctionUnit:
    """The accelerator's shared activation unit.

    Supports the activations used by the paper's benchmark models (sigmoid,
    tanh, ReLU, identity).  Softmax is not a hardware activation — the paper's
    classification benchmarks read out the max-scoring output — so requests
    for softmax fall back to identity (argmax is taken downstream).
    """

    #: LUT-approximated activations and the input range each table covers
    #: (tanh saturates earlier than sigmoid, so its table spans a tighter
    #: range for the same segment count).
    _LUT_ACTIVATIONS = {"sigmoid": (-8.0, 8.0), "tanh": (-4.0, 4.0)}

    def __init__(self, num_segments: int = 16, input_range: tuple[float, float] | None = None) -> None:
        self.num_segments = int(num_segments)
        self.input_range = input_range
        self._tables: dict[str, PiecewiseLinearFunction] = {}
        for name, default_range in self._LUT_ACTIVATIONS.items():
            reference = get_activation(name)
            table_range = input_range if input_range is not None else default_range
            self._tables[name] = PiecewiseLinearFunction(
                reference.forward, input_range=table_range, num_segments=self.num_segments
            )

    def apply(self, name: str, x: np.ndarray) -> np.ndarray:
        """Apply the named activation with hardware (PWL) semantics."""
        key = str(name).lower()
        x = np.asarray(x, dtype=float)
        if key in ("identity", "softmax"):
            return x.copy()
        if key == "relu":
            return np.maximum(x, 0.0)
        if key in self._tables:
            return self._tables[key](x)
        raise ValueError(f"AFU does not implement activation {name!r}")
