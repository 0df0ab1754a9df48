"""Benchmark datasets: the paper's four applications (Table I).

``mnist`` and ``facedet`` are procedural substitutes with the same input
widths and topologies (no network access to the original databases);
``inversek2j`` and ``bscholes`` are exact re-implementations of the AxBench
kernels.
"""

from .blackscholes import black_scholes_price, generate_blackscholes, norm_cdf
from .digits import DIGIT_GLYPHS, IMAGE_SIZE, NUM_CLASSES, generate_digits
from .faces import PATCH_SIZE, generate_faces
from .inversek2j import (
    ARM_LENGTHS,
    forward_kinematics,
    generate_inversek2j,
    inverse_kinematics,
)
from .procedural import generate_lowrank, generate_teacher
from .registry import (
    BENCHMARKS,
    PROCEDURAL_FAMILIES,
    PROCEDURAL_PREFIX,
    BenchmarkSpec,
    ProceduralSpec,
    get_benchmark,
)

__all__ = [
    "generate_digits",
    "DIGIT_GLYPHS",
    "IMAGE_SIZE",
    "NUM_CLASSES",
    "generate_faces",
    "PATCH_SIZE",
    "generate_inversek2j",
    "forward_kinematics",
    "inverse_kinematics",
    "ARM_LENGTHS",
    "generate_blackscholes",
    "black_scholes_price",
    "norm_cdf",
    "generate_teacher",
    "generate_lowrank",
    "BENCHMARKS",
    "PROCEDURAL_FAMILIES",
    "PROCEDURAL_PREFIX",
    "BenchmarkSpec",
    "ProceduralSpec",
    "get_benchmark",
]
