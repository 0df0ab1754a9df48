"""SNNAC accelerator simulator: PEs, systolic ring, AFU, microcode compiler,
NPU, SoC wrapper, and the calibrated energy/frequency models."""

from .afu import ActivationFunctionUnit, PiecewiseLinearFunction
from .energy import (
    NOMINAL_OPERATING_POINT,
    PAPER_LOGIC_ANCHORS,
    PAPER_SRAM_ANCHORS,
    EnergyBreakdown,
    FrequencyModel,
    LogicEnergyModel,
    OperatingPoint,
    SnnacEnergyModel,
    SramEnergyModel,
)
from .microcode import (
    CapacityReport,
    LayerPlacement,
    LayerProgram,
    MicrocodeCompiler,
    NeuronPlacement,
    NpuProgram,
    PlacementSegment,
    WeightPlacement,
    plan_capacity,
)
from .npu import InferenceStats, Npu
from .pe import ProcessingElement
from .soc import (
    CHIP_CHARACTERISTICS,
    Snnac,
    SnnacConfig,
    chip_characteristics,
)
from .systolic import LayerExecutionStats, SystolicRing, evaluate_layer_words

__all__ = [
    "ActivationFunctionUnit",
    "PiecewiseLinearFunction",
    "EnergyBreakdown",
    "FrequencyModel",
    "LogicEnergyModel",
    "SramEnergyModel",
    "SnnacEnergyModel",
    "OperatingPoint",
    "NOMINAL_OPERATING_POINT",
    "PAPER_LOGIC_ANCHORS",
    "PAPER_SRAM_ANCHORS",
    "PlacementSegment",
    "NeuronPlacement",
    "LayerPlacement",
    "WeightPlacement",
    "CapacityReport",
    "plan_capacity",
    "LayerProgram",
    "NpuProgram",
    "MicrocodeCompiler",
    "InferenceStats",
    "Npu",
    "ProcessingElement",
    "SystolicRing",
    "LayerExecutionStats",
    "evaluate_layer_words",
    "Snnac",
    "SnnacConfig",
    "CHIP_CHARACTERISTICS",
    "chip_characteristics",
]
