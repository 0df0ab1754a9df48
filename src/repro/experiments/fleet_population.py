"""Fleet population — die Vmin/yield, canary margins, and mixed-point serving.

The paper characterizes one fabricated die; shipping MATIC means shipping a
*population* of dies that all run the same deployed model at aggressive SRAM
voltages.  This driver samples ``--dies`` independent die instances through
:class:`~repro.population.fleet.ChipPopulation` (per-die
``SeedSequence.spawn`` children, optional correlated-variation scenario),
characterizes each one (die Vmin at the target fault rate, profiled fault
rate, margin-placed canary headroom), and serves a seeded synthetic stream
of ``--requests`` inference batches routed across the fleet at mixed
operating voltages.  It reports, per die and fleet-wide:

* the **die-Vmin distribution** and the **yield** at the target voltage,
* **per-die canary margins** (headroom of the most marginal oracle canary),
* **application-error percentiles per operating point** over the request
  stream (p50/p90/p99/max — the serving-quality view of voltage scaling),
* **fleet throughput** (requests per second at the nominal frequency, with
  the busiest die as makespan — dies serve concurrently).

Per-die marginal cost stays small by reusing the existing memoization
layers: fault maps recall through the flow's artifact-cache profiling path,
and each die's batch leans on :meth:`~repro.accelerator.npu.Npu.run_sweep`
grouping plus exact-duplicate-voltage aliasing, so a stream with many
requests at one operating point decodes each corrupted image once.

A die is one engine task, so the fleet splits by die index: all backends,
``--stream``; a queue run is bit-identical to a serial one, and a
warm-cache re-run profiles no die again
(``test_queue_and_warm_rerun_match_serial`` in
``tests/test_population.py`` checks both).  See
``docs/population.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..matic.flow import MaticFlow
from ..population.fleet import (
    ChipPopulation,
    DieReport,
    FleetSummary,
    simulate_die,
    summarize_fleet,
)
from ..sram.variation import CorrelationSpec, VariationScenario
from .cache import ArtifactCache, default_cache
from .common import (
    ExperimentResult,
    PreparedBenchmark,
    default_flow,
    experiment_parser,
    fmt,
    fmt_percent,
    partition_quarantined,
    prepare_benchmark,
    quarantine_notes,
    run_experiment_cli,
)
from .engine import SweepRunner, SweepTask, expand_grid

__all__ = [
    "FleetPopulationResult",
    "run_fleet_population",
    "DEFAULT_OPERATING_VOLTAGES",
    "main",
]

#: Default serving mix: the nominal rail, the energy-optimal MATIC point,
#: and the accuracy-floor point (the paper's 0.9 / 0.55 / 0.50 V ladder).
DEFAULT_OPERATING_VOLTAGES = (0.90, 0.55, 0.50)


@dataclass
class FleetPopulationResult:
    reports: list[DieReport] = field(default_factory=list)
    summary: FleetSummary | None = None
    target_voltage: float = 0.50
    voltages: tuple[float, ...] = DEFAULT_OPERATING_VOLTAGES
    num_requests: int = 0
    scenario_digest: str | None = None
    quarantined: list[str] = field(default_factory=list)

    def report_for(self, die: int) -> DieReport:
        for report in self.reports:
            if report.die == die:
                return report
        raise KeyError(f"no report for die {die}")

    def to_experiment_result(self) -> ExperimentResult:
        rows = []
        for report in self.reports:
            samples = report.error_samples()
            rows.append(
                [
                    str(report.die),
                    fmt(report.vmin),
                    fmt_percent(report.fault_rate, 2),
                    fmt(report.canary_margin),
                    str(report.requests_served),
                    fmt(float(np.quantile(samples, 0.50))) if samples else "-",
                    fmt(float(np.max(samples))) if samples else "-",
                    fmt(report.busy_seconds * 1e3, 2),
                ]
            )
        notes = (
            "Each die is an independent SeedSequence.spawn sample serving its "
            "slice of one seeded request stream at mixed operating voltages; "
            "errors are per-request application error.  See docs/population.md."
        )
        if self.summary is not None:
            s = self.summary
            rows.append(
                [
                    "fleet",
                    fmt(s.vmin_mean) + " ± " + fmt(s.vmin_std),
                    "-",
                    fmt(s.canary_margin_min),
                    str(s.total_requests),
                    "-",
                    "-",
                    fmt(s.makespan_seconds * 1e3, 2),
                ]
            )
            per_point = "; ".join(
                f"{voltage:.2f} V: p50={p['p50']:.4g} p99={p['p99']:.4g}"
                for voltage, p in s.error_percentiles.items()
            )
            notes = (
                f"Yield at {s.target_voltage:.2f} V: {s.yield_fraction:.0%} of "
                f"{s.num_dies} dies; throughput "
                f"{s.throughput_requests_per_second:.1f} req/s "
                f"(makespan {s.makespan_seconds * 1e3:.2f} ms).  "
                f"Error percentiles per operating point — {per_point}.  " + notes
            )
        return ExperimentResult(
            experiment=(
                f"Fleet population — {len(self.reports)} dies, "
                f"{self.num_requests} requests at mixed operating points "
                f"(Vmin/yield target {self.target_voltage:.2f} V)"
            ),
            headers=[
                "die",
                "Vmin (V)",
                "fault rate",
                "canary margin (V)",
                "requests",
                "err p50",
                "err max",
                "busy (ms)",
            ],
            rows=rows,
            paper_reference={
                "fleet evaluation": "the paper measures one fabricated die; "
                "population-level Vmin/yield and fleet serving are this "
                "repo's extension (ROADMAP)",
            },
            notes=notes,
            quarantined=list(self.quarantined),
        )


def _fleet_die_worker(shared: dict, task: SweepTask) -> DieReport:
    """Characterize one die and serve its slice of the request stream."""
    population: ChipPopulation = shared["population"]
    prepared: PreparedBenchmark = shared["prepared"]
    flow: MaticFlow = shared["flow"]
    return simulate_die(
        population,
        int(task.param("die")),
        flow,
        topology=prepared.spec.topology,
        train=prepared.train,
        loss=prepared.spec.loss,
        baseline=prepared.baseline,
        test_inputs=prepared.test.inputs,
        error_fn=lambda outputs: float(prepared.spec.error(outputs, prepared.test)),
        requests=shared["requests"],
        target_voltage=float(shared["target_voltage"]),
        target_fault_rate=float(shared["target_fault_rate"]),
        canaries_per_bank=int(shared["canaries_per_bank"]),
    )


def run_fleet_population(
    benchmark: str = "inversek2j",
    dies: int = 8,
    num_requests: int = 48,
    voltages: tuple[float, ...] = DEFAULT_OPERATING_VOLTAGES,
    target_voltage: float = 0.50,
    target_fault_rate: float = 0.01,
    canaries_per_bank: int = 8,
    num_pes: int = 8,
    words_per_bank: int = 512,
    shape: str = "iid",
    strength: float = 0.0,
    num_samples: int | None = None,
    seed: int = 1,
    chip_seed: int = 11,
    flow: MaticFlow | None = None,
    runner: SweepRunner | None = None,
    cache: ArtifactCache | None = None,
) -> FleetPopulationResult:
    """Simulate the chip population and serve the synthetic request stream.

    ``shape``/``strength`` select an optional correlated-variation scenario
    for the whole population (``"iid"`` keeps the legacy i.i.d. sampling).
    The request stream is generated once, up front, from the population's
    own seed tree — every host of a ``--backend queue`` fleet run sees the
    identical stream and each die worker serves exactly its slice.
    """
    cache = cache if cache is not None else default_cache()
    flow = flow or default_flow(seed=seed, cache=cache)
    runner = runner or SweepRunner()
    prepared = prepare_benchmark(
        benchmark, num_samples=num_samples, seed=seed, cache=cache
    )

    scenario = None
    if shape != "iid":
        scenario = VariationScenario(
            name=f"fleet-{shape}-{strength:.2f}-tt",
            correlation=CorrelationSpec.from_shape(shape, strength),
        )
    population = ChipPopulation(
        num_dies=int(dies),
        num_pes=int(num_pes),
        words_per_bank=int(words_per_bank),
        entropy=int(chip_seed),
        scenario=scenario,
    )
    requests = population.request_stream(
        int(num_requests), tuple(float(v) for v in voltages), seed=seed
    )

    grid = [{"benchmark": benchmark, "die": die} for die in range(int(dies))]
    tasks = expand_grid(params=grid, seed=seed)
    shared = {
        "population": population,
        "prepared": prepared,
        "flow": flow,
        "requests": requests,
        "target_voltage": float(target_voltage),
        "target_fault_rate": float(target_fault_rate),
        "canaries_per_bank": int(canaries_per_bank),
    }
    reports, quarantined = partition_quarantined(
        runner.map(_fleet_die_worker, tasks, shared=shared)
    )
    reports = sorted(reports, key=lambda report: report.die)
    return FleetPopulationResult(
        reports=reports,
        summary=summarize_fleet(reports, target_voltage) if reports else None,
        target_voltage=float(target_voltage),
        voltages=tuple(float(v) for v in voltages),
        num_requests=int(num_requests),
        scenario_digest=scenario.digest() if scenario is not None else None,
        quarantined=quarantine_notes(quarantined),
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.fleet_population`` — fleet simulator."""
    parser = experiment_parser(
        "python -m repro.experiments.fleet_population",
        "Fleet population — die Vmin/yield, canary margins, and error "
        "percentiles serving a mixed-operating-point request stream.",
    )
    parser.add_argument("--benchmark", default="inversek2j")
    parser.add_argument("--dies", type=int, default=8)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument(
        "--voltages",
        type=float,
        nargs="+",
        default=list(DEFAULT_OPERATING_VOLTAGES),
        help="operating-voltage mix the request stream draws from",
    )
    parser.add_argument("--target-voltage", type=float, default=0.50)
    parser.add_argument("--target-fault-rate", type=float, default=0.01)
    parser.add_argument("--canaries-per-bank", type=int, default=8)
    parser.add_argument("--num-pes", type=int, default=8)
    parser.add_argument("--words-per-bank", type=int, default=512)
    parser.add_argument(
        "--shape",
        default="iid",
        choices=("iid", "row", "column", "region", "mixed"),
        help="correlated-variation scenario for the whole population",
    )
    parser.add_argument("--strength", type=float, default=0.0)
    parser.add_argument("--num-samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chip-seed", type=int, default=11)
    args = parser.parse_args(argv)
    return run_experiment_cli(
        args,
        "fleet_population",
        lambda runner, cache: run_fleet_population(
            benchmark=args.benchmark,
            dies=args.dies,
            num_requests=args.requests,
            voltages=tuple(args.voltages),
            target_voltage=args.target_voltage,
            target_fault_rate=args.target_fault_rate,
            canaries_per_bank=args.canaries_per_bank,
            num_pes=args.num_pes,
            words_per_bank=args.words_per_bank,
            shape=args.shape,
            strength=args.strength,
            num_samples=args.num_samples,
            seed=args.seed,
            chip_seed=args.chip_seed,
            runner=runner,
            cache=cache,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
