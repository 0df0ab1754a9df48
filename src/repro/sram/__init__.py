"""Voltage-scalable SRAM substrate: bit-cell variation, arrays, fault maps,
profiling, regulators, and environmental variation models."""

from . import calibration
from .array import SramBank, WeightMemorySystem
from .bitcell import (
    BitcellPopulation,
    BitcellVariationModel,
    CorrelatedVminModel,
    EmpiricalVminModel,
    GaussianVminModel,
)
from .bitops import pack_bits, popcount, unpack_words
from .fault_map import BitFault, FaultMap, masks_from_words
from .profiler import ProfileReport, SramProfiler
from .regulator import VoltageRegulator
from .variation import (
    FAST_CORNER,
    SLOW_CORNER,
    TYPICAL_CORNER,
    CorrelationSpec,
    EnvironmentalConditions,
    EnvironmentTrajectory,
    ProcessCorner,
    TemperatureChamber,
    TrajectoryStep,
    VariationScenario,
)

__all__ = [
    "calibration",
    "SramBank",
    "WeightMemorySystem",
    "BitcellPopulation",
    "BitcellVariationModel",
    "GaussianVminModel",
    "EmpiricalVminModel",
    "CorrelatedVminModel",
    "BitFault",
    "FaultMap",
    "masks_from_words",
    "pack_bits",
    "popcount",
    "unpack_words",
    "ProfileReport",
    "SramProfiler",
    "VoltageRegulator",
    "EnvironmentalConditions",
    "EnvironmentTrajectory",
    "TrajectoryStep",
    "CorrelationSpec",
    "VariationScenario",
    "ProcessCorner",
    "TemperatureChamber",
    "TYPICAL_CORNER",
    "SLOW_CORNER",
    "FAST_CORNER",
]
