"""Energy, power, and frequency models for the SNNAC test chip.

The paper reports per-cycle energy measurements from test-chip current
measurements (Fig. 11, Table II).  We model each voltage domain (logic and
weight SRAM) as a dynamic switching term plus a leakage term:

``E_cycle(V, f) = E_dyn(V) + P_leak(V) / f``

* Logic dynamic energy follows the usual ``C_eff · V²`` law; the SRAM dynamic
  energy is interpolated (log–log) through the paper's measured anchor
  points, because the measured SRAM scaling is steeper than V² at low voltage
  (bit-line swing and periphery effects the paper does not decompose).
* Leakage power follows ``P_leak(V) = P₀ · (V / V_nom) · exp((V − V_nom)/v₀)``
  — the standard DIBL-driven exponential reduction with voltage.
* Maximum operating frequency follows an alpha-power-law delay model
  calibrated to the chip's two reported (voltage, frequency) points
  (0.9 V / 250 MHz and 0.55 V / 17.8 MHz).

All model constants are calibrated from the paper's measurements (the anchor
tables below); the Table II / Fig. 11 benchmarks *recompute* the scenario
energies from this model rather than echoing the paper's numbers.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OperatingPoint",
    "EnergyBreakdown",
    "FrequencyModel",
    "LogicEnergyModel",
    "SramEnergyModel",
    "SnnacEnergyModel",
    "PAPER_LOGIC_ANCHORS",
    "PAPER_SRAM_ANCHORS",
    "NOMINAL_OPERATING_POINT",
    "REFERENCE_NUM_PES",
    "REFERENCE_WEIGHT_SRAM_BITS",
]

# --------------------------------------------------------------------------
# Paper-reported anchor measurements (voltage [V], frequency [Hz], pJ/cycle).
# --------------------------------------------------------------------------

#: Logic energy anchors from Table II.
PAPER_LOGIC_ANCHORS: tuple[tuple[float, float, float], ...] = (
    (0.90, 250.0e6, 30.58),
    (0.55, 17.8e6, 12.73),
)

#: SRAM energy anchors from Table II (HighPerf, EnOpt_split, EnOpt_joint and
#: the nominal column).
PAPER_SRAM_ANCHORS: tuple[tuple[float, float, float], ...] = (
    (0.50, 17.8e6, 7.24),
    (0.55, 17.8e6, 7.86),
    (0.65, 250.0e6, 18.37),
    (0.90, 250.0e6, 36.50),
)

#: Nominal SRAM leakage power (W) implied by the anchor decomposition.
_SRAM_LEAKAGE_NOMINAL = 5.0e-5


@dataclass(frozen=True)
class OperatingPoint:
    """A (logic voltage, SRAM voltage, clock frequency) setting."""

    logic_voltage: float
    sram_voltage: float
    frequency: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.logic_voltage <= 0 or self.sram_voltage <= 0:
            raise ValueError("voltages must be positive")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")


#: Nominal chip operating point (0.9 V unified, 250 MHz).
NOMINAL_OPERATING_POINT = OperatingPoint(0.9, 0.9, 250.0e6, name="nominal")


# --------------------------------------------------------------------------
# Fabricated reference geometry the anchors were measured at: 8 PEs, each
# with a 512x16-bit weight bank.  Geometry-parametric models scale the
# calibrated constants linearly from this point (see
# ``SnnacEnergyModel.for_geometry``).
# --------------------------------------------------------------------------

REFERENCE_NUM_PES = 8
REFERENCE_WEIGHT_SRAM_BITS = 8 * 512 * 16


@dataclass
class EnergyBreakdown:
    """Per-cycle energy decomposition, all values in picojoules."""

    logic_dynamic: float
    logic_leakage: float
    sram_dynamic: float
    sram_leakage: float

    @property
    def logic_total(self) -> float:
        return self.logic_dynamic + self.logic_leakage

    @property
    def sram_total(self) -> float:
        return self.sram_dynamic + self.sram_leakage

    @property
    def total(self) -> float:
        return self.logic_total + self.sram_total

    @property
    def leakage_total(self) -> float:
        return self.logic_leakage + self.sram_leakage

    @property
    def dynamic_total(self) -> float:
        return self.logic_dynamic + self.sram_dynamic


class FrequencyModel:
    """Alpha-power-law maximum-frequency model ``f_max ∝ (V − V_th)^α / V``."""

    def __init__(self, scale: float, threshold: float, alpha: float = 2.0) -> None:
        if scale <= 0 or alpha <= 0:
            raise ValueError("scale and alpha must be positive")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.scale = float(scale)
        self.threshold = float(threshold)
        self.alpha = float(alpha)

    def fmax(self, voltage: float | np.ndarray) -> np.ndarray:
        """Maximum clock frequency at a given supply voltage (Hz)."""
        voltage = np.asarray(voltage, dtype=float)
        overdrive = np.maximum(voltage - self.threshold, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            freq = self.scale * overdrive**self.alpha / voltage
        return np.where(overdrive > 0, freq, 0.0)

    def min_voltage_for(self, frequency: float, tolerance: float = 1e-4) -> float:
        """Smallest voltage that sustains ``frequency`` (bisection search)."""
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        low, high = self.threshold + 1e-6, 2.0
        if self.fmax(high) < frequency:
            raise ValueError("frequency unreachable within the modelled voltage range")
        while high - low > tolerance:
            mid = 0.5 * (low + high)
            if self.fmax(mid) >= frequency:
                high = mid
            else:
                low = mid
        return high

    @classmethod
    def calibrate(
        cls,
        anchor_a: tuple[float, float],
        anchor_b: tuple[float, float],
        alpha: float = 2.0,
    ) -> "FrequencyModel":
        """Fit the threshold and scale to two (voltage, frequency) anchors."""
        (v_a, f_a), (v_b, f_b) = anchor_a, anchor_b
        if v_a == v_b:
            raise ValueError("anchors must use distinct voltages")
        # Solve (v_a - t)^alpha / v_a * s = f_a and likewise for b, for t by
        # bisection on the ratio equation, then recover s.
        target = (f_b * v_b) / (f_a * v_a)

        def ratio(threshold: float) -> float:
            return ((v_b - threshold) / (v_a - threshold)) ** alpha

        low, high = 0.0, min(v_a, v_b) - 1e-6
        for _ in range(200):
            mid = 0.5 * (low + high)
            if ratio(mid) > target:
                low = mid
            else:
                high = mid
        threshold = 0.5 * (low + high)
        scale = f_a * v_a / (v_a - threshold) ** alpha
        return cls(scale=scale, threshold=threshold, alpha=alpha)


class _LeakageModel:
    """Exponential leakage-power model ``P(V) = P₀ (V/V_nom) exp((V−V_nom)/v₀)``."""

    def __init__(self, nominal_power: float, nominal_voltage: float = 0.9, v0: float = 0.25):
        if nominal_power < 0 or nominal_voltage <= 0 or v0 <= 0:
            raise ValueError("invalid leakage parameters")
        self.nominal_power = float(nominal_power)
        self.nominal_voltage = float(nominal_voltage)
        self.v0 = float(v0)

    def power(self, voltage: float | np.ndarray) -> np.ndarray:
        voltage = np.asarray(voltage, dtype=float)
        return (
            self.nominal_power
            * (voltage / self.nominal_voltage)
            * np.exp((voltage - self.nominal_voltage) / self.v0)
        )

    def energy_per_cycle(self, voltage: float | np.ndarray, frequency: float) -> np.ndarray:
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        return self.power(voltage) / float(frequency)


class LogicEnergyModel:
    """Logic-domain energy: ``C_eff V²`` dynamic term plus leakage.

    The default constants are the closed-form calibration to the two logic
    anchors in Table II (see :func:`LogicEnergyModel.calibrate`).
    """

    def __init__(
        self,
        effective_capacitance: float = 36.83e-12,
        leakage_power_nominal: float = 2.087e-4,
        leakage_v0: float = 0.25,
        nominal_voltage: float = 0.9,
    ) -> None:
        if effective_capacitance <= 0:
            raise ValueError("effective_capacitance must be positive")
        self.effective_capacitance = float(effective_capacitance)
        self.leakage = _LeakageModel(leakage_power_nominal, nominal_voltage, leakage_v0)

    def dynamic_energy(self, voltage: float | np.ndarray) -> np.ndarray:
        """Dynamic energy per cycle, joules."""
        voltage = np.asarray(voltage, dtype=float)
        return self.effective_capacitance * voltage**2

    def leakage_energy(self, voltage: float | np.ndarray, frequency: float) -> np.ndarray:
        """Leakage energy per cycle, joules."""
        return self.leakage.energy_per_cycle(voltage, frequency)

    def energy_per_cycle(self, voltage: float | np.ndarray, frequency: float) -> np.ndarray:
        return self.dynamic_energy(voltage) + self.leakage_energy(voltage, frequency)

    @classmethod
    def calibrate(
        cls,
        anchors: tuple[tuple[float, float, float], ...] = PAPER_LOGIC_ANCHORS,
        leakage_v0: float = 0.25,
        nominal_voltage: float = 0.9,
    ) -> "LogicEnergyModel":
        """Solve the two-anchor linear system for C_eff and nominal leakage."""
        if len(anchors) != 2:
            raise ValueError("logic calibration expects exactly two anchors")
        rows = []
        rhs = []
        for voltage, frequency, picojoules in anchors:
            leak_shape = (voltage / nominal_voltage) * np.exp(
                (voltage - nominal_voltage) / leakage_v0
            )
            rows.append([voltage**2, leak_shape / frequency])
            rhs.append(picojoules * 1e-12)
        solution = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
        capacitance, leakage_nominal = float(solution[0]), float(solution[1])
        if capacitance <= 0 or leakage_nominal < 0:
            raise ValueError("calibration produced non-physical constants")
        return cls(capacitance, leakage_nominal, leakage_v0, nominal_voltage)


class SramEnergyModel:
    """Weight-SRAM energy: measured-anchor interpolation plus leakage.

    Dynamic (access) energy is interpolated log–log through the paper's
    measured per-cycle energies after subtracting the modelled leakage
    contribution at each anchor's operating point, so the model reproduces
    the anchors exactly while remaining monotone in voltage.
    """

    def __init__(
        self,
        anchors: tuple[tuple[float, float, float], ...] = PAPER_SRAM_ANCHORS,
        leakage_power_nominal: float = _SRAM_LEAKAGE_NOMINAL,
        leakage_v0: float = 0.25,
        nominal_voltage: float = 0.9,
    ) -> None:
        if len(anchors) < 2:
            raise ValueError("at least two SRAM anchors are required")
        self.leakage = _LeakageModel(leakage_power_nominal, nominal_voltage, leakage_v0)
        points = []
        for voltage, frequency, picojoules in sorted(anchors):
            total = picojoules * 1e-12
            dynamic = total - float(self.leakage.energy_per_cycle(voltage, frequency))
            if dynamic <= 0:
                raise ValueError("leakage model exceeds measured anchor energy")
            points.append((float(voltage), dynamic))
        self._log_voltages = np.log(np.array([p[0] for p in points]))
        self._log_energies = np.log(np.array([p[1] for p in points]))

    def dynamic_energy(self, voltage: float | np.ndarray) -> np.ndarray:
        """Dynamic (access) energy per cycle, joules; log–log interpolation."""
        voltage = np.asarray(voltage, dtype=float)
        log_v = np.log(voltage)
        # linear interpolation in log-log space with slope-preserving
        # extrapolation beyond the anchored range
        slope_low = (self._log_energies[1] - self._log_energies[0]) / (
            self._log_voltages[1] - self._log_voltages[0]
        )
        slope_high = (self._log_energies[-1] - self._log_energies[-2]) / (
            self._log_voltages[-1] - self._log_voltages[-2]
        )
        interp = np.interp(log_v, self._log_voltages, self._log_energies)
        below = log_v < self._log_voltages[0]
        above = log_v > self._log_voltages[-1]
        interp = np.where(
            below, self._log_energies[0] + slope_low * (log_v - self._log_voltages[0]), interp
        )
        interp = np.where(
            above,
            self._log_energies[-1] + slope_high * (log_v - self._log_voltages[-1]),
            interp,
        )
        return np.exp(interp)

    def leakage_energy(self, voltage: float | np.ndarray, frequency: float) -> np.ndarray:
        return self.leakage.energy_per_cycle(voltage, frequency)

    def energy_per_cycle(self, voltage: float | np.ndarray, frequency: float) -> np.ndarray:
        return self.dynamic_energy(voltage) + self.leakage_energy(voltage, frequency)


class SnnacEnergyModel:
    """Combined chip-level energy/frequency model.

    Parameters default to the calibration against the paper's test-chip
    measurements; pass custom component models to explore other technologies
    (the voltage-savings discussion in Section V expects larger gains in more
    advanced nodes).
    """

    def __init__(
        self,
        logic: LogicEnergyModel | None = None,
        sram: SramEnergyModel | None = None,
        logic_frequency: FrequencyModel | None = None,
        sram_frequency: FrequencyModel | None = None,
    ) -> None:
        self.logic = logic or LogicEnergyModel.calibrate()
        self.sram = sram or SramEnergyModel()
        # logic timing calibrated to (0.9 V, 250 MHz) and (0.55 V, 17.8 MHz);
        # SRAM periphery timing calibrated so 0.65 V sustains 250 MHz (the
        # HighPerf scenario's "timing requirements in the SRAM periphery
        # prevent further scaling") with the same shape at low voltage.
        self.logic_frequency = logic_frequency or FrequencyModel.calibrate(
            (0.9, 250.0e6), (0.55, 17.8e6)
        )
        self.sram_frequency = sram_frequency or FrequencyModel.calibrate(
            (0.65, 250.0e6), (0.45, 17.8e6)
        )

    @classmethod
    def for_geometry(
        cls,
        num_pes: int = REFERENCE_NUM_PES,
        words_per_bank: int = 512,
        word_bits: int = 16,
        logic_frequency: FrequencyModel | None = None,
        sram_frequency: FrequencyModel | None = None,
    ) -> "SnnacEnergyModel":
        """Analytically scale the calibrated chip model to another geometry.

        First-order scaling from the fabricated 65 nm anchors: per-PE logic
        energy is geometry-invariant, so the logic effective capacitance and
        leakage scale with ``num_pes``; per-bit SRAM array energy is
        geometry-invariant, so the SRAM anchor energies and leakage scale
        with the total weight-SRAM bit count.  Timing closure is assumed
        unchanged (the critical paths — the MAC datapath and the SRAM
        periphery — do not lengthen with more parallel PEs or deeper banks
        in this first-order model), so the frequency models keep the chip
        calibration unless overridden.

        At the fabricated reference geometry (8 PEs, 512x16-bit banks) the
        scale factors are exactly 1.0 and the model reproduces the test-chip
        calibration bit-for-bit.  Away from it, treat results as analytic
        extrapolation, not measurement — see ``docs/workloads.md`` for the
        caveats.
        """
        if num_pes <= 0 or words_per_bank <= 0 or word_bits <= 0:
            raise ValueError("geometry parameters must be positive")
        pe_ratio = num_pes / REFERENCE_NUM_PES
        bit_ratio = (num_pes * words_per_bank * word_bits) / REFERENCE_WEIGHT_SRAM_BITS
        base_logic = LogicEnergyModel.calibrate()
        logic = LogicEnergyModel(
            effective_capacitance=base_logic.effective_capacitance * pe_ratio,
            leakage_power_nominal=base_logic.leakage.nominal_power * pe_ratio,
            leakage_v0=base_logic.leakage.v0,
            nominal_voltage=base_logic.leakage.nominal_voltage,
        )
        sram = SramEnergyModel(
            anchors=tuple(
                (voltage, frequency, picojoules * bit_ratio)
                for voltage, frequency, picojoules in PAPER_SRAM_ANCHORS
            ),
            leakage_power_nominal=_SRAM_LEAKAGE_NOMINAL * bit_ratio,
        )
        return cls(
            logic=logic,
            sram=sram,
            logic_frequency=logic_frequency,
            sram_frequency=sram_frequency,
        )

    def with_leakage_scale(self, scale: float) -> "SnnacEnergyModel":
        """A copy of this model with both domains' leakage power scaled.

        Realizes a :class:`~repro.sram.variation.ProcessCorner`'s
        ``leakage_scale`` without re-calibrating: the scale is applied to the
        already-decomposed ``_LeakageModel`` nominal powers on deep copies,
        so the SRAM dynamic table (anchors minus the *calibration* leakage)
        is left exactly as constructed.  ``scale == 1.0`` returns ``self``.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1.0:
            return self
        scaled = copy.deepcopy(self)
        scaled.logic.leakage.nominal_power *= float(scale)
        scaled.sram.leakage.nominal_power *= float(scale)
        return scaled

    # ------------------------------------------------------------------

    def breakdown(self, point: OperatingPoint) -> EnergyBreakdown:
        """Per-cycle energy decomposition at an operating point (picojoules)."""
        return EnergyBreakdown(
            logic_dynamic=float(self.logic.dynamic_energy(point.logic_voltage)) * 1e12,
            logic_leakage=float(
                self.logic.leakage_energy(point.logic_voltage, point.frequency)
            )
            * 1e12,
            sram_dynamic=float(self.sram.dynamic_energy(point.sram_voltage)) * 1e12,
            sram_leakage=float(
                self.sram.leakage_energy(point.sram_voltage, point.frequency)
            )
            * 1e12,
        )

    def energy_per_cycle(self, point: OperatingPoint) -> float:
        """Total energy per cycle in picojoules."""
        return self.breakdown(point).total

    def power(self, point: OperatingPoint) -> float:
        """Total power in watts at the operating point."""
        return self.energy_per_cycle(point) * 1e-12 * point.frequency

    # ---------------------------------------------------------- searches

    def logic_minimum_energy_point(
        self,
        voltages: np.ndarray | None = None,
    ) -> tuple[float, float]:
        """Logic voltage (and implied fmax) minimizing logic energy per cycle.

        The search assumes the chip runs at the maximum frequency the logic
        voltage allows (the standard minimum-energy-point condition where
        leakage per cycle balances the dynamic savings).
        """
        if voltages is None:
            voltages = np.arange(0.46, 0.91, 0.005)
        best_voltage, best_energy = None, np.inf
        for voltage in voltages:
            frequency = float(self.logic_frequency.fmax(voltage))
            if frequency <= 0:
                continue
            energy = float(self.logic.energy_per_cycle(voltage, frequency))
            if energy < best_energy:
                best_voltage, best_energy = float(voltage), energy
        if best_voltage is None:
            raise ValueError("no feasible voltage in the search range")
        return best_voltage, float(self.logic_frequency.fmax(best_voltage))

    def joint_minimum_energy_point(
        self,
        min_sram_voltage: float,
        voltages: np.ndarray | None = None,
    ) -> tuple[float, float]:
        """Unified-rail voltage minimizing total energy per cycle.

        ``min_sram_voltage`` is the accuracy-constrained floor on the SRAM
        voltage (the lowest voltage at which the deployed memory-adaptive
        model still meets its error target); the unified rail cannot go
        below it.
        """
        if voltages is None:
            voltages = np.arange(0.46, 0.91, 0.005)
        best_voltage, best_energy = None, np.inf
        for voltage in voltages:
            if voltage < min_sram_voltage:
                continue
            frequency = float(self.logic_frequency.fmax(voltage))
            if frequency <= 0:
                continue
            point = OperatingPoint(voltage, voltage, frequency)
            energy = self.energy_per_cycle(point)
            if energy < best_energy:
                best_voltage, best_energy = float(voltage), energy
        if best_voltage is None:
            raise ValueError("no feasible voltage in the search range")
        return best_voltage, float(self.logic_frequency.fmax(best_voltage))
