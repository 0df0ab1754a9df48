"""SNNAC system-on-chip model.

Ties together the subsystems the test chip integrates (Fig. 8 of the paper):
the NPU (PE ring + AFU + weight SRAMs), the supply regulators for the two
voltage domains, a behavioural stand-in for the OpenMSP430 runtime
microcontroller, the environmental conditions the chip sits in, and the
calibrated energy model.  The MATIC deployment flow and the in-situ canary
controller operate on this object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.network import Network
from ..quant.fixed_point import FixedPointFormat
from ..quant.quantizer import WeightQuantizer
from ..sram import calibration
from ..sram.array import WeightMemorySystem
from ..sram.bitcell import BitcellVariationModel
from ..sram.regulator import VoltageRegulator
from ..sram.variation import EnvironmentalConditions, VariationScenario
from .afu import ActivationFunctionUnit
from .energy import NOMINAL_OPERATING_POINT, OperatingPoint, SnnacEnergyModel
from .npu import InferenceStats, Npu

__all__ = [
    "SnnacConfig",
    "Microcontroller",
    "Snnac",
    "CHIP_CHARACTERISTICS",
    "chip_characteristics",
]


@dataclass
class SnnacConfig:
    """Configuration of the modelled accelerator instance."""

    num_pes: int = 8
    words_per_bank: int = 512
    word_bits: int = 16
    data_frac_bits: int = 12
    pipeline_overhead: int = 4
    seed: int | None = 0

    @property
    def weight_sram_bits(self) -> int:
        """Total weight-SRAM capacity in bits."""
        return self.num_pes * self.words_per_bank * self.word_bits


# --------------------------------------------------------------------------
# Fabricated test-chip anchors (Fig. 7b / Table II): measured at the default
# SnnacConfig geometry, scaled analytically away from it.
# --------------------------------------------------------------------------

#: Measured per-cycle energy split at nominal (Table II, 0.9 V): used to
#: weight the measured chip-level power/energy between the PE logic (scales
#: with PE count) and the weight SRAM (scales with bit count).
_NOMINAL_LOGIC_PJ = 30.58
_NOMINAL_SRAM_PJ = 36.50

#: SRAM capacity the fabricated chip integrates beyond the weight banks
#: (IO/activation buffers and the microcontroller memories): 9 KB total
#: minus the 8 KB of weight banks.
_NON_WEIGHT_SRAM_KB = 1.0

#: Rough die-area split between PE logic (+ periphery) and the weight SRAM
#: macros, used to scale the measured core area with the geometry.
_LOGIC_AREA_FRACTION = 0.7
_SRAM_AREA_FRACTION = 0.3


def chip_characteristics(config: SnnacConfig | None = None) -> dict:
    """Chip characteristics derived from one geometry source of truth.

    For the default :class:`SnnacConfig` this reproduces the fabricated
    test chip's reported numbers exactly (the scale factors are 1.0); for
    any other geometry the measured anchors are scaled analytically — PE
    logic with the PE count, SRAM with the weight-bank bit count — so a
    report can never mix a non-default geometry with the 8-PE silicon
    numbers.
    """
    config = config if config is not None else SnnacConfig()
    reference = SnnacConfig()
    pe_ratio = config.num_pes / reference.num_pes
    bit_ratio = config.weight_sram_bits / reference.weight_sram_bits
    energy_scale = (_NOMINAL_LOGIC_PJ * pe_ratio + _NOMINAL_SRAM_PJ * bit_ratio) / (
        _NOMINAL_LOGIC_PJ + _NOMINAL_SRAM_PJ
    )
    return {
        "technology": "TSMC GP 65 nm",
        "core_area_mm2": 1.15
        * 1.2
        * (_LOGIC_AREA_FRACTION * pe_ratio + _SRAM_AREA_FRACTION * bit_ratio),
        "sram_kb": config.weight_sram_bits / 8192 + _NON_WEIGHT_SRAM_KB,
        "nominal_voltage": 0.9,
        "nominal_frequency_hz": 250.0e6,
        "nominal_power_w": 16.8e-3 * energy_scale,
        "nominal_energy_per_cycle_pj": 67.1 * energy_scale,
        "num_pes": config.num_pes,
        "words_per_bank": config.words_per_bank,
        "word_bits": config.word_bits,
    }


#: Nominal characteristics of the fabricated SNNAC test chip (Fig. 7b),
#: used by the Table III comparison benchmark.  Derived from the default
#: :class:`SnnacConfig` so the geometry appears in exactly one place.
CHIP_CHARACTERISTICS = chip_characteristics()


@dataclass
class Microcontroller:
    """Behavioural stand-in for the on-chip OpenMSP430 runtime controller.

    The real core runs control firmware: it moves inference inputs/outputs
    through memory-mapped buffers, sleeps between inferences, and wakes
    periodically to execute the canary-based voltage-control routine.  Only
    that scheduling behaviour matters to the methodology, so the model tracks
    wake/sleep state and counts control invocations.
    """

    asleep: bool = True
    wake_count: int = 0
    control_routine_runs: int = 0
    inference_requests: int = 0

    def wake(self) -> None:
        self.asleep = False
        self.wake_count += 1

    def sleep(self) -> None:
        self.asleep = True

    def record_control_run(self) -> None:
        self.control_routine_runs += 1

    def record_inference(self, count: int = 1) -> None:
        self.inference_requests += int(count)


class Snnac:
    """The SNNAC accelerator SoC.

    Parameters
    ----------
    config:
        Geometry / datapath configuration.
    variation_model:
        Bit-cell variation model used to instantiate the weight SRAMs; each
        constructed ``Snnac`` is one "chip instance" with its own sampled
        variation (different seeds model different dies).
    energy_model:
        Calibrated chip energy model (defaults to the paper calibration).
    environment:
        Ambient conditions; mutable via :meth:`set_environment`.
    scenario:
        Optional :class:`~repro.sram.variation.VariationScenario` threading
        correlated sampling, the process corner (V_min shift + leakage
        scale), and trajectory context through the chip.  Defaults preserve
        the legacy i.i.d./typical-corner behaviour exactly.
    """

    def __init__(
        self,
        config: SnnacConfig | None = None,
        variation_model: BitcellVariationModel | None = None,
        energy_model: SnnacEnergyModel | None = None,
        environment: EnvironmentalConditions | None = None,
        scenario: VariationScenario | None = None,
    ) -> None:
        self.config = config or SnnacConfig()
        self.scenario = scenario
        self.memory = WeightMemorySystem.build(
            num_banks=self.config.num_pes,
            words_per_bank=self.config.words_per_bank,
            word_bits=self.config.word_bits,
            variation_model=variation_model,
            seed=self.config.seed,
            scenario=scenario,
        )
        data_format = FixedPointFormat(self.config.word_bits, self.config.data_frac_bits)
        self.npu = Npu(
            self.memory,
            afu=ActivationFunctionUnit(),
            data_format=data_format,
            pipeline_overhead=self.config.pipeline_overhead,
        )
        # geometry-parametric default: scaled from the calibrated 65 nm
        # anchors, bit-exact to the test-chip calibration at the default
        # SnnacConfig (scale factors 1.0)
        self.energy_model = energy_model or SnnacEnergyModel.for_geometry(
            num_pes=self.config.num_pes,
            words_per_bank=self.config.words_per_bank,
            word_bits=self.config.word_bits,
        )
        if scenario is not None:
            self.energy_model = self.energy_model.with_leakage_scale(
                scenario.corner.leakage_scale
            )
        self.environment = environment or EnvironmentalConditions()
        self._apply_vmin_offsets()
        self.logic_regulator = VoltageRegulator(initial_voltage=0.9)
        self.sram_regulator = VoltageRegulator(initial_voltage=0.9)
        self.frequency = NOMINAL_OPERATING_POINT.frequency
        self.mcu = Microcontroller()

    def characteristics(self) -> dict:
        """Reported chip characteristics for *this* instance's geometry.

        Derived from ``self.config`` through :func:`chip_characteristics`,
        so a non-default geometry can never silently report the fabricated
        8-PE chip's numbers.
        """
        return chip_characteristics(self.config)

    # --------------------------------------------------------- deployment

    def deploy(self, network: Network, quantizer: WeightQuantizer | None = None):
        """Compile and load a model into the weight SRAMs at nominal voltage."""
        quantizer = quantizer or WeightQuantizer(total_bits=self.config.word_bits)
        self.mcu.wake()
        program = self.npu.deploy(network, quantizer)
        self.mcu.sleep()
        return program

    def deploy_quantized(self, program, quantized):
        """Load pre-quantized weights against a pre-compiled program.

        Behaviourally identical to :meth:`deploy` (same MCU wake/sleep
        bracket, same storage path) for a caller that already compiled the
        program and quantized the network — the voltage-axis-batched MATIC
        flow compiles once per sweep and re-deploys each operating point's
        retrained weights through this entry point.
        """
        self.mcu.wake()
        self.npu.deploy_quantized(program, quantized)
        self.mcu.sleep()
        return program

    # -------------------------------------------------------- environment

    def set_environment(self, environment: EnvironmentalConditions) -> None:
        """Change the ambient conditions (e.g. a temperature-chamber or
        trajectory step); aging/drift ``vmin_shift`` is pushed into every
        weight bank on top of the process-corner skew."""
        self.environment = environment
        self._apply_vmin_offsets()

    def _apply_vmin_offsets(self) -> None:
        corner_shift = (
            float(self.scenario.corner.vmin_shift) if self.scenario is not None else 0.0
        )
        offset = corner_shift + float(self.environment.vmin_shift)
        for bank in self.memory:
            bank.vmin_offset = offset

    @property
    def temperature(self) -> float:
        return self.environment.temperature

    # ----------------------------------------------------- operating point

    def set_operating_point(self, point: OperatingPoint) -> None:
        """Program both supply rails and the clock to an operating point."""
        self.logic_regulator.set_voltage(point.logic_voltage)
        self.sram_regulator.set_voltage(point.sram_voltage)
        self.frequency = point.frequency

    @property
    def operating_point(self) -> OperatingPoint:
        return OperatingPoint(
            logic_voltage=self.logic_regulator.voltage,
            sram_voltage=self.sram_regulator.voltage,
            frequency=self.frequency,
        )

    @property
    def effective_sram_voltage(self) -> float:
        """SRAM rail voltage including any static supply noise/IR drop."""
        return self.sram_regulator.voltage + self.environment.supply_noise

    # ---------------------------------------------------------- inference

    def run_inference(self, inputs: np.ndarray) -> tuple[np.ndarray, InferenceStats]:
        """Run a batch of inferences at the current operating point."""
        self.mcu.wake()
        outputs, stats = self.npu.run(
            inputs,
            sram_voltage=self.effective_sram_voltage,
            temperature=self.environment.temperature,
        )
        self.mcu.record_inference(stats.batch_size)
        self.mcu.sleep()
        return outputs, stats

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        outputs, _ = self.run_inference(inputs)
        return outputs

    def run_voltage_sweep(
        self, inputs: np.ndarray, sram_voltages
    ) -> list[tuple[np.ndarray, InferenceStats]]:
        """Run one refreshed inference batch at each SRAM rail voltage.

        The batched equivalent of programming the SRAM regulator to each
        voltage in turn, refreshing the deployed weights, and calling
        :meth:`run_inference` — each requested voltage is programmed through
        the regulator (quantized to its step, clamped to its range) and each
        measurement sees exactly the corruption its own operating point
        inflicts (supply noise and ambient temperature from the current
        environment included), but the NPU is free to order the points so
        that ones with identical corruption masks share decoded weight
        images (:meth:`~repro.accelerator.npu.Npu.run_sweep`).  The
        regulator is left programmed at the last requested voltage.  Results
        are in ``sram_voltages`` order.
        """
        # program every point through the regulator so its quantization and
        # clamping apply exactly as in sequential operation; the rail ends
        # at the last requested voltage
        programmed = [
            self.sram_regulator.set_voltage(float(v)) for v in sram_voltages
        ]
        self.mcu.wake()
        noise = self.environment.supply_noise
        results = self.npu.run_sweep(
            inputs,
            [v + noise for v in programmed],
            temperature=self.environment.temperature,
        )
        for _, stats in results:
            self.mcu.record_inference(stats.batch_size)
        self.mcu.sleep()
        return results

    def refresh_weights(self) -> None:
        """Rewrite the deployed model into SRAM (used when changing operating points)."""
        self.npu.refresh_weights()

    # ------------------------------------------------------------- energy

    def energy_per_inference(self, point: OperatingPoint | None = None) -> float:
        """Energy per single inference in picojoules at an operating point."""
        if self.npu.program is None:
            raise RuntimeError("no model deployed")
        point = point or self.operating_point
        cycles = self.npu.program.total_cycles_per_inference
        return cycles * self.energy_model.energy_per_cycle(point)

    def throughput_gops(self, point: OperatingPoint | None = None) -> float:
        """Throughput in GOPS (two ops per MAC) at an operating point."""
        if self.npu.program is None:
            raise RuntimeError("no model deployed")
        point = point or self.operating_point
        program = self.npu.program
        ops_per_cycle = 2.0 * program.total_macs_per_inference / program.total_cycles_per_inference
        return ops_per_cycle * point.frequency / 1e9

    def efficiency_gops_per_watt(self, point: OperatingPoint | None = None) -> float:
        """Energy efficiency in GOPS/W at an operating point (Table III metric)."""
        point = point or self.operating_point
        power = self.energy_model.power(point)
        return self.throughput_gops(point) / power

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Snnac({self.config.num_pes} PEs, "
            f"{self.memory.total_bytes / 1024:.1f} KiB weight SRAM, "
            f"logic={self.logic_regulator.voltage:.2f} V, "
            f"sram={self.sram_regulator.voltage:.2f} V)"
        )
