"""Fig. 10 — application error versus SRAM voltage, naive vs MATIC.

For every benchmark and every SRAM voltage in the sweep the driver:

1. deploys the float-trained baseline to a chip instance and measures its
   on-chip error at that voltage (the *naive* curve), and
2. runs the full MATIC flow — profile at that voltage, memory-adaptive
   training, deploy — and measures the adaptive model's on-chip error.

Both models share the same topology and the same pre-trained starting point,
exactly as in the paper ("the baseline and memory-adaptive models use the
same DNN model topologies ... memory-adaptive training modifications are
disabled for the naive case").

The grid expands into independent
:class:`~repro.experiments.engine.SweepTask` records — every task builds its
own chip instance from the per-benchmark chip seed, so parallel and serial
execution produce identical tables.  Memory-adaptive fine-tuning, the
dominant cost, is memoized through the flow's training cache.

Both correction modes are voltage-axis-batched, one task per benchmark.  A
*naive* deployment is voltage-independent (no profiling, no retraining —
only the measurement voltage changes), so each benchmark's whole naive curve
is **one** task that runs the batched
:meth:`~repro.matic.flow.MaticDeployment.run_sweep` primitive over every
voltage: one deployment, refreshed inference per point, decoded weight
images shared between operating points whose SRAM corruption masks are
identical.  The *adaptive* column is **one chained task** per benchmark
covering every overscaled point through
:meth:`~repro.matic.flow.MaticFlow.deploy_adaptive_sweep`: fault maps for
the whole axis from one sweep-profiling pass, one shared compile, and (by
default) each operating point's memory-adaptive fine-tuning warm-started
from the neighboring voltage's converged weights.  ``--no-warm-start``
retrains every point from the pristine baseline — bit-identical to the
historical one-task-per-overscaled-grid-point flow.  Both columns stay
one task per benchmark and quarantine-safe (a poisoned task blanks its
benchmark's column, never the table).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

import numpy as np

from ..matic.flow import MaticFlow
from .cache import ArtifactCache, default_cache
from .common import (
    ExperimentResult,
    PreparedBenchmark,
    default_flow,
    experiment_parser,
    fmt,
    fmt_percent,
    make_chip,
    partition_quarantined,
    prepare_benchmark,
    quarantine_notes,
    run_experiment_cli,
)
from .engine import SweepRunner, SweepTask, expand_grid

__all__ = [
    "VoltagePoint",
    "BenchmarkSweep",
    "Fig10Result",
    "run_fig10",
    "DEFAULT_VOLTAGES",
    "main",
]

#: SRAM voltage sweep covering the paper's measured range (first failure at
#: ~0.53 V down to the 0.46 V "significant error increase" point), plus the
#: nominal 0.9 V reference.
DEFAULT_VOLTAGES = (0.90, 0.53, 0.52, 0.51, 0.50, 0.48, 0.46)

#: At and above this voltage the SRAM is fault-free, so MATIC is a no-op and
#: the adaptive measurement reuses the naive one.
NOMINAL_THRESHOLD = 0.89


@dataclass
class VoltagePoint:
    """Naive and adaptive error at one SRAM voltage.

    Errors are ``None`` when the task that would have measured them was
    quarantined in a merged sweep — the point still renders ("-" cells)
    instead of crashing the table.  The bit fault rate rides on the adaptive
    task (it comes from that task's profiling pass), so it is likewise
    ``None`` — rendered "-", not a misleading ``0.00%`` — when an overscaled
    point's adaptive measurement is missing.
    """

    voltage: float
    bit_fault_rate: float | None
    naive_error: float | None
    adaptive_error: float | None


@dataclass
class BenchmarkSweep:
    """Voltage sweep for one benchmark."""

    benchmark: str
    metric: str
    nominal_error: float
    points: list[VoltagePoint] = field(default_factory=list)

    def point_at(self, voltage: float) -> VoltagePoint:
        for point in self.points:
            if abs(point.voltage - voltage) < 1e-9:
                return point
        raise KeyError(f"no sweep point at {voltage} V")

    def average_error_increase(
        self, mode: str, exclude_nominal: bool = True
    ) -> float | None:
        """Average error increase (AEI) over the swept voltages.

        Points whose measurement is missing (quarantined task) are skipped;
        when *every* overscaled point is missing the AEI is undefined and
        ``None`` is returned so callers can render "-" instead of crashing.
        An empty overscaled grid is still a caller error.
        """
        errors = []
        missing = 0
        for point in self.points:
            if exclude_nominal and point.voltage >= NOMINAL_THRESHOLD:
                continue
            error = point.naive_error if mode == "naive" else point.adaptive_error
            if error is None:
                missing += 1
                continue
            errors.append(max(error - self.nominal_error, 0.0))
        if not errors:
            if missing:
                return None
            raise ValueError("no overscaled voltage points in the sweep")
        return float(np.mean(errors))


@dataclass
class Fig10Result:
    sweeps: list[BenchmarkSweep] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def sweep_for(self, benchmark: str) -> BenchmarkSweep:
        for sweep in self.sweeps:
            if sweep.benchmark == benchmark:
                return sweep
        raise KeyError(f"no sweep for benchmark {benchmark!r}")

    def to_experiment_result(self) -> ExperimentResult:
        rows = []
        for sweep in self.sweeps:
            for point in sweep.points:
                formatter = fmt_percent if sweep.metric == "classification" else fmt
                rows.append(
                    [
                        sweep.benchmark,
                        f"{point.voltage:.2f}",
                        fmt_percent(point.bit_fault_rate, 2),
                        formatter(point.naive_error),
                        formatter(point.adaptive_error),
                    ]
                )
        return ExperimentResult(
            experiment="Fig. 10 — application error vs SRAM voltage (naive vs MATIC)",
            headers=["benchmark", "voltage (V)", "bit fault rate", "naive", "adaptive"],
            rows=rows,
            paper_reference={
                "shape": "naive error rises sharply below ~0.53 V; MATIC holds error near "
                "nominal down to ~0.50 V and degrades gracefully below",
            },
            quarantined=list(self.quarantined),
        )


def _fig10_point_worker(shared: dict, task: SweepTask) -> dict:
    """Measure one fig10 grid task on a fresh chip.

    A ``naive`` task covers the benchmark's *entire* voltage axis in one
    deployment: the baseline is deployed once (profiling disabled, nothing
    about the deployment depends on voltage) and measured at every swept
    voltage through the batched ``run_sweep`` primitive — bit-identical to
    the historical one-fresh-chip-per-voltage measurement because each point
    refreshes the weights before reading.  An ``adaptive`` task covers the
    benchmark's *entire overscaled axis* in one chained
    :meth:`~repro.matic.flow.MaticFlow.deploy_adaptive_sweep` walk —
    memory-adaptive training stays specific to each profiled operating
    point, but profiling, compilation, and (with ``warm_start``) the
    starting weights are shared along the axis; each point's on-chip error
    is measured through the sweep's ``measure`` callback while that point's
    weights are resident.
    """
    prepared: PreparedBenchmark = shared["prepared"][task.benchmark]
    flow: MaticFlow = shared["flow"]
    chip = make_chip(
        seed=shared["chip_seed"] + shared["benchmark_index"][task.benchmark]
    )
    if task.mode == "naive":
        # the axis rides in the task params (not only the shared payload):
        # the result depends on it, so it must participate in task_digest
        voltages = [float(v) for v in task.param("voltages")]
        deployment = flow.deploy_naive(
            chip,
            prepared.spec.topology,
            prepared.train,
            target_voltage=voltages[0],
            loss=prepared.spec.loss,
            initial_network=prepared.baseline,
        )
        outputs = deployment.run_sweep(prepared.test.inputs, voltages)
        return {
            "benchmark": task.benchmark,
            "mode": "naive",
            "points": [
                {
                    "voltage": float(voltage),
                    "error": prepared.spec.error(batch, prepared.test),
                }
                for voltage, batch in zip(voltages, outputs)
            ],
        }
    else:
        points = flow.deploy_adaptive_sweep(
            chip,
            prepared.spec.topology,
            prepared.train,
            voltages=[float(v) for v in task.param("voltages")],
            loss=prepared.spec.loss,
            initial_network=prepared.baseline,
            select_canaries=False,
            warm_start=bool(task.param("warm_start", True)),
            measure=lambda deployment: prepared.spec.error(
                deployment.run_at(prepared.test.inputs), prepared.test
            ),
        )
        return {
            "benchmark": task.benchmark,
            "mode": "adaptive",
            "points": [
                {
                    "voltage": point.voltage,
                    "error": point.measurement,
                    "fault_rate": float(
                        np.mean(
                            [fm.fault_rate for fm in point.deployment.fault_maps]
                        )
                    ),
                }
                for point in points
            ],
        }


def run_fig10(
    benchmarks: tuple[str, ...] = ("mnist", "facedet", "inversek2j", "bscholes"),
    voltages: tuple[float, ...] = DEFAULT_VOLTAGES,
    num_samples: int | None = None,
    adaptive_epochs: int = 60,
    seed: int = 1,
    chip_seed: int = 11,
    flow: MaticFlow | None = None,
    prepared_benchmarks: dict[str, PreparedBenchmark] | None = None,
    runner: SweepRunner | None = None,
    cache: ArtifactCache | None = None,
    warm_start: bool = True,
) -> Fig10Result:
    """Run the full voltage sweep for the requested benchmarks.

    ``warm_start=False`` retrains every adaptive operating point from the
    pristine baseline under the flow's full training budget — bit-identical
    to the historical per-voltage adaptive flow.
    """
    cache = cache if cache is not None else default_cache()
    flow = flow or default_flow(epochs=adaptive_epochs, seed=seed, cache=cache)
    runner = runner or SweepRunner()

    prepared: dict[str, PreparedBenchmark] = {}
    for name in benchmarks:
        if prepared_benchmarks and name in prepared_benchmarks:
            prepared[name] = prepared_benchmarks[name]
        else:
            prepared[name] = prepare_benchmark(
                name, num_samples=num_samples, seed=seed, cache=cache
            )

    # one batched naive task per benchmark covers the whole voltage axis; at
    # nominal voltage MATIC is a no-op, so the adaptive task covers only the
    # overscaled points (one chained sweep task per benchmark) and the naive
    # error is reused at nominal during assembly
    voltage_axis = tuple(float(voltage) for voltage in voltages)
    overscaled = tuple(v for v in voltage_axis if v < NOMINAL_THRESHOLD)
    grid: list[dict] = []
    for name in benchmarks:
        grid.append({"benchmark": name, "mode": "naive", "voltages": voltage_axis})
        if overscaled:
            grid.append(
                {
                    "benchmark": name,
                    "mode": "adaptive",
                    "voltages": overscaled,
                    "warm_start": bool(warm_start),
                }
            )
    tasks = expand_grid(params=grid, seed=seed)
    shared = {
        "prepared": prepared,
        "flow": flow,
        "chip_seed": chip_seed,
        "benchmark_index": {name: index for index, name in enumerate(benchmarks)},
    }
    measurements, quarantined = partition_quarantined(
        runner.map(_fig10_point_worker, tasks, shared=shared)
    )

    naive_by_point: dict[tuple[str, float], float] = {}
    adaptive_by_point: dict[tuple[str, float], dict] = {}
    for measurement in measurements:
        for point in measurement["points"]:
            key = (measurement["benchmark"], round(point["voltage"], 9))
            if measurement["mode"] == "naive":
                naive_by_point[key] = point["error"]
            else:
                adaptive_by_point[key] = point
    result = Fig10Result(quarantined=quarantine_notes(quarantined))
    for name in benchmarks:
        sweep = BenchmarkSweep(
            benchmark=name,
            metric=prepared[name].spec.error_metric,
            nominal_error=prepared[name].baseline_error,
        )
        for voltage in voltages:
            key = (name, round(float(voltage), 9))
            # a quarantined naive task leaves the whole benchmark's naive
            # curve missing; a quarantined adaptive task leaves every
            # overscaled point — either way the points render with "-"
            # instead of crashing
            naive_error = naive_by_point.get(key)
            adaptive = adaptive_by_point.get(key)
            adaptive_error = adaptive["error"] if adaptive else naive_error
            if voltage < NOMINAL_THRESHOLD and adaptive is None:
                # overscaled points always have an adaptive task; its absence
                # means quarantine, not "MATIC is a no-op here"
                adaptive_error = None
            if adaptive is not None:
                bit_fault_rate = adaptive["fault_rate"]
            elif voltage < NOMINAL_THRESHOLD:
                # the fault rate rides on the quarantined adaptive task, so
                # it was never measured — "-" beats a misleading 0.00%
                bit_fault_rate = None
            else:
                bit_fault_rate = 0.0
            sweep.points.append(
                VoltagePoint(
                    voltage=float(voltage),
                    bit_fault_rate=bit_fault_rate,
                    naive_error=naive_error,
                    adaptive_error=adaptive_error,
                )
            )
        result.sweeps.append(sweep)
    return result


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.fig10_error_vs_voltage`` — Fig. 10."""
    parser = experiment_parser(
        "python -m repro.experiments.fig10_error_vs_voltage",
        "Fig. 10 — application error vs SRAM voltage, naive vs MATIC.",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=["mnist", "facedet", "inversek2j", "bscholes"],
    )
    parser.add_argument(
        "--voltages", type=float, nargs="+", default=list(DEFAULT_VOLTAGES)
    )
    parser.add_argument("--num-samples", type=int, default=None)
    parser.add_argument("--adaptive-epochs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chip-seed", type=int, default=11)
    parser.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="warm-start each adaptive operating point from the neighboring "
        "voltage's converged weights (--no-warm-start retrains every point "
        "from the pristine baseline, bit-identical to the historical flow)",
    )
    args = parser.parse_args(argv)
    return run_experiment_cli(
        args,
        "fig10",
        lambda runner, cache: run_fig10(
            benchmarks=tuple(args.benchmarks),
            voltages=tuple(args.voltages),
            num_samples=args.num_samples,
            adaptive_epochs=args.adaptive_epochs,
            seed=args.seed,
            chip_seed=args.chip_seed,
            runner=runner,
            cache=cache,
            warm_start=args.warm_start,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
