"""Geometry scaling — cycles/energy/error vs PE count × bank capacity × workload.

The paper evaluates one fixed design point (8 PEs, 512×16-bit banks); this
driver answers the ROADMAP's "what happens at 16 PEs, half-capacity banks,
or a 10× deeper network?" question.  The grid co-varies two axes the rest of
the suite holds constant:

* **chip geometry** — ``num_pes`` × ``words_per_bank``, building each point's
  chip from a non-default :class:`~repro.accelerator.soc.SnnacConfig` whose
  energy model is analytically scaled from the 65 nm anchors
  (:meth:`~repro.accelerator.energy.SnnacEnergyModel.for_geometry`); and
* **workload** — any catalog name, the paper's Table I benchmarks and the
  procedural ``synth/...`` specs alike (deep stacks, wide fan-in,
  autoencoders; see ``docs/workloads.md``).

Each grid point deploys the workload's pre-trained float baseline naively
(no memory-adaptive retraining — geometry, not fault response, is the
variable here), measures application error on the test split at the target
SRAM voltage, and reports the compiled program's cost model: cycles and SRAM
reads per inference (capacity-constrained geometries pay for placement
spill with extra passes), energy per inference, and efficiency at the
nominal operating point.  Geometries the workload cannot fit at all are
reported as ``fits=no`` rows rather than errors, so a sweep can chart the
capacity wall itself.

Like every driver, the grid expands into independent seeded tasks and runs
through the sweep engine — all backends, ``--stream``; a queue run is
bit-identical to a serial one (``test_queue_run_is_bit_identical`` in
``tests/test_scaling_geometry.py`` checks it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accelerator.energy import NOMINAL_OPERATING_POINT
from ..accelerator.microcode import plan_capacity
from ..matic.flow import MaticFlow
from .cache import ArtifactCache, default_cache
from .common import (
    ExperimentResult,
    PreparedBenchmark,
    default_flow,
    experiment_parser,
    fmt,
    make_chip,
    partition_quarantined,
    prepare_benchmark,
    quarantine_notes,
    run_experiment_cli,
)
from .engine import SweepRunner, SweepTask, expand_grid

__all__ = [
    "GeometryPoint",
    "ScalingGeometryResult",
    "run_scaling_geometry",
    "DEFAULT_WORKLOADS",
    "DEFAULT_NUM_PES",
    "DEFAULT_WORDS_PER_BANK",
    "main",
]

#: Default workload mix: one paper benchmark plus one spec from each
#: procedural family (deep stack, wide fan-in, autoencoder).
DEFAULT_WORKLOADS = (
    "inversek2j",
    "synth/mlp-d4-w32",
    "synth/wide-f128-h8",
    "synth/ae-i64-b8",
)

#: Default geometry axes: half/default/double the fabricated PE count...
DEFAULT_NUM_PES = (4, 8, 16)

#: ...crossed with quarter/default bank capacity.
DEFAULT_WORDS_PER_BANK = (128, 512)


@dataclass
class GeometryPoint:
    """Measurements for one (workload, num_pes, words_per_bank) grid point.

    Unmeasured fields (a workload that does not fit the geometry) are
    ``None`` rather than NaN: points round-trip through the result store's
    pickle channel, and NaN's self-inequality would make bit-identical
    comparisons spuriously fail.
    """

    workload: str
    num_pes: int
    words_per_bank: int
    fits: bool
    utilization: float
    spilled_neurons: int = 0
    num_segments: int = 0
    cycles_per_inference: int = 0
    sram_reads: int = 0
    error: float | None = None
    energy_per_inference_pj: float | None = None
    efficiency_gops_per_w: float | None = None


@dataclass
class ScalingGeometryResult:
    points: list[GeometryPoint] = field(default_factory=list)
    voltage: float = 0.9
    quarantined: list[str] = field(default_factory=list)

    def points_for(self, workload: str) -> list[GeometryPoint]:
        return [point for point in self.points if point.workload == workload]

    def to_experiment_result(self) -> ExperimentResult:
        rows = []
        for p in self.points:
            if p.fits:
                rows.append(
                    [
                        p.workload,
                        str(p.num_pes),
                        str(p.words_per_bank),
                        f"{p.utilization:.1%}",
                        str(p.spilled_neurons),
                        str(p.cycles_per_inference),
                        str(p.sram_reads),
                        fmt(p.error, 4),
                        f"{p.energy_per_inference_pj:.0f}",
                        f"{p.efficiency_gops_per_w:.1f}",
                    ]
                )
            else:
                rows.append(
                    [
                        p.workload,
                        str(p.num_pes),
                        str(p.words_per_bank),
                        f"{p.utilization:.1%}",
                        "-",
                        "does not fit",
                        "-",
                        "-",
                        "-",
                        "-",
                    ]
                )
        return ExperimentResult(
            experiment=(
                f"Geometry scaling — PE count x bank capacity x workload "
                f"(SRAM at {self.voltage:.2f} V)"
            ),
            headers=[
                "workload",
                "PEs",
                "words/bank",
                "util",
                "spill",
                "cycles/inf",
                "SRAM reads",
                "error",
                "pJ/inf",
                "GOPS/W",
            ],
            rows=rows,
            paper_reference={
                "design point": "the paper fabricates only 8 PEs x 512 words; "
                "other geometries are analytic extrapolation",
            },
            notes=(
                "Energy/efficiency use the geometry-scaled 65 nm anchor model at the "
                "nominal operating point; capacity-constrained rows pay for placement "
                "spill with extra passes (see docs/workloads.md for caveats)."
            ),
            quarantined=list(self.quarantined),
        )


def _scaling_point_worker(shared: dict, task: SweepTask) -> GeometryPoint:
    """Deploy one workload on one geometry and measure its cost/error."""
    prepared: PreparedBenchmark = shared["prepared"][task.benchmark]
    flow: MaticFlow = shared["flow"]
    num_pes = int(task.param("num_pes"))
    words_per_bank = int(task.param("words_per_bank"))
    voltage = float(shared["voltage"])

    report = plan_capacity(prepared.baseline.widths, num_pes, words_per_bank)
    if not report.fits:
        return GeometryPoint(
            workload=task.benchmark,
            num_pes=num_pes,
            words_per_bank=words_per_bank,
            fits=False,
            utilization=report.utilization,
        )

    # chip seed derives from the task's content-stable seed, so every
    # backend, and a reordered grid, samples identical per-point chips
    chip = make_chip(
        seed=shared["chip_seed"] + int(task.seed) % 1_000_003,
        words_per_bank=words_per_bank,
        num_pes=num_pes,
    )
    deployment = flow.deploy_naive(
        chip,
        prepared.spec.topology,
        prepared.train,
        target_voltage=voltage,
        loss=prepared.spec.loss,
        initial_network=prepared.baseline,
    )
    # single-point batched sweep: refreshes the deployed weights, then runs
    # at the target rail voltage through the plan-compiled read path
    outputs, stats = chip.run_voltage_sweep(prepared.test.inputs, [voltage])[0]
    program = deployment.program
    return GeometryPoint(
        workload=task.benchmark,
        num_pes=num_pes,
        words_per_bank=words_per_bank,
        fits=True,
        utilization=report.utilization,
        spilled_neurons=program.placement.spilled_neurons,
        num_segments=program.placement.num_segments,
        cycles_per_inference=program.total_cycles_per_inference,
        sram_reads=stats.sram_reads,
        error=float(prepared.spec.error(outputs, prepared.test)),
        energy_per_inference_pj=chip.energy_per_inference(NOMINAL_OPERATING_POINT),
        efficiency_gops_per_w=chip.efficiency_gops_per_watt(NOMINAL_OPERATING_POINT),
    )


def run_scaling_geometry(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    num_pes_values: tuple[int, ...] = DEFAULT_NUM_PES,
    words_per_bank_values: tuple[int, ...] = DEFAULT_WORDS_PER_BANK,
    voltage: float = 0.9,
    num_samples: int | None = None,
    epochs: int | None = None,
    seed: int = 1,
    chip_seed: int = 11,
    flow: MaticFlow | None = None,
    runner: SweepRunner | None = None,
    cache: ArtifactCache | None = None,
) -> ScalingGeometryResult:
    """Run the geometry-scaling grid for the requested workloads."""
    cache = cache if cache is not None else default_cache()
    flow = flow or default_flow(seed=seed, cache=cache)
    runner = runner or SweepRunner()

    prepared = {
        name: prepare_benchmark(
            name, num_samples=num_samples, seed=seed, epochs=epochs, cache=cache
        )
        for name in workloads
    }

    grid = [
        {"benchmark": name, "num_pes": int(pes), "words_per_bank": int(words)}
        for name in workloads
        for pes in num_pes_values
        for words in words_per_bank_values
    ]
    tasks = expand_grid(params=grid, seed=seed)
    shared = {
        "prepared": prepared,
        "flow": flow,
        "voltage": float(voltage),
        "chip_seed": int(chip_seed),
    }
    points, quarantined = partition_quarantined(
        runner.map(_scaling_point_worker, tasks, shared=shared)
    )
    return ScalingGeometryResult(
        points=list(points),
        voltage=float(voltage),
        quarantined=quarantine_notes(quarantined),
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.scaling_geometry`` — geometry scaling."""
    parser = experiment_parser(
        "python -m repro.experiments.scaling_geometry",
        "Geometry scaling — cycles/energy/error vs PE count x bank capacity "
        "x workload (paper + procedural catalog).",
    )
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument(
        "--num-pes", type=int, nargs="+", default=list(DEFAULT_NUM_PES)
    )
    parser.add_argument(
        "--words-per-bank",
        type=int,
        nargs="+",
        default=list(DEFAULT_WORDS_PER_BANK),
    )
    parser.add_argument("--voltage", type=float, default=0.9)
    parser.add_argument("--num-samples", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chip-seed", type=int, default=11)
    args = parser.parse_args(argv)
    return run_experiment_cli(
        args,
        "scaling_geometry",
        lambda runner, cache: run_scaling_geometry(
            workloads=tuple(args.workloads),
            num_pes_values=tuple(args.num_pes),
            words_per_bank_values=tuple(args.words_per_bank),
            voltage=args.voltage,
            num_samples=args.num_samples,
            epochs=args.epochs,
            seed=args.seed,
            chip_seed=args.chip_seed,
            runner=runner,
            cache=cache,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
