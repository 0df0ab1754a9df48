"""Fig. 9 — (a) measured SRAM read-failure rate, (b) topology selection.

Fig. 9a plots the measured bit-level read-failure rate of the compiled weight
SRAMs against supply voltage at 25 °C.  The driver profiles a modelled bank
with the same read-after-write / read-after-read procedure used post-silicon
and reports the measured rate next to the variation model's analytic
prediction.

Fig. 9b justifies the compact benchmark topologies: for each candidate hidden
width the paper trains a model and plots its error, picking the smallest
topology that does not sacrifice accuracy, "to avoid biased
over-parameterization" (an over-parameterized model would hide the impact of
SRAM faults).  The driver sweeps hidden widths for one benchmark and reports
test error and parameter count per topology.

Both sweeps run through the :class:`~repro.experiments.engine.SweepRunner`:
Fig. 9a expands the voltage axis (the bank's cell population is sampled once
per sweep and shared, read-only, with every task, which profiles its own
bank built around it, so tasks are independent and order-free), Fig. 9b
expands the hidden-width axis with each candidate's training memoized in
the artifact cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.network import Network
from ..sram import calibration
from ..sram.array import SramBank
from ..sram.bitcell import BitcellPopulation
from ..sram.profiler import SramProfiler
from .cache import ArtifactCache, default_cache
from .common import (
    ExperimentResult,
    experiment_parser,
    fmt,
    fmt_percent,
    partition_quarantined,
    prepare_benchmark,
    quarantine_notes,
    run_experiment_cli,
    train_cached,
)
from .engine import SweepRunner, SweepTask, expand_grid

__all__ = ["run_fig9a", "run_fig9b", "Fig9aPoint", "Fig9bPoint", "main"]


@dataclass
class Fig9aPoint:
    """Measured and model-predicted failure rate at one voltage."""

    voltage: float
    measured_rate: float
    predicted_rate: float
    word_rate: float


@dataclass
class Fig9aResult:
    points: list[Fig9aPoint] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def to_experiment_result(self) -> ExperimentResult:
        rows = [
            [
                f"{p.voltage:.2f}",
                f"{p.measured_rate:.2e}",
                f"{p.predicted_rate:.2e}",
                fmt_percent(p.word_rate),
            ]
            for p in self.points
        ]
        return ExperimentResult(
            experiment="Fig. 9a — SRAM read-failure rate vs voltage (25 °C)",
            headers=["voltage (V)", "measured bit rate", "model bit rate", "word rate"],
            rows=rows,
            paper_reference={
                "first failures": "~0.53 V",
                "all reads failing": "~0.40 V",
                "word-level incidence at the 0.50 V MEP": "~28%",
            },
            quarantined=list(self.quarantined),
        )


def _fig9a_point_worker(shared: dict, task: SweepTask) -> Fig9aPoint:
    """Profile a bank built around the sweep's shared population at one voltage.

    The population's arrays are read-only, so no task can change what
    another task measures; each task's bank has its own contents and
    counters.
    """
    vmin_read = shared["vmin_read"]
    bank = SramBank(
        *vmin_read.shape,
        cells=BitcellPopulation(vmin_read, shared["preferred_state"]),
    )
    voltage = float(task.voltage)
    report = SramProfiler().profile_bank(bank, voltage, shared["temperature"])
    predicted = float(bank.variation_model.failure_probability(voltage))
    # word-level incidence straight off the bank's operating-point-resident
    # corruption masks (already cached by the profiling reads); for the
    # default all-zeros/all-ones backgrounds the profiled map records
    # exactly these cells, so the two representations cannot disagree
    and_masks, or_masks = bank.corruption_masks(voltage, shared["temperature"])
    faulty_words = np.count_nonzero(
        (and_masks != np.uint64(bank.word_mask)) | (or_masks != np.uint64(0))
    )
    word_rate = int(faulty_words) / bank.num_words
    return Fig9aPoint(
        voltage=voltage,
        measured_rate=report.fault_rate,
        predicted_rate=predicted,
        word_rate=word_rate,
    )


def run_fig9a(
    voltages: np.ndarray | None = None,
    num_words: int = 4608,
    word_bits: int = 16,
    seed: int = 3,
    temperature: float = calibration.NOMINAL_TEMPERATURE,
    runner: SweepRunner | None = None,
) -> Fig9aResult:
    """Profile a weight-SRAM-sized bank across the voltage sweep of Fig. 9a.

    The default geometry (4608 × 16 bits = 9 KB) matches the paper's total
    on-chip SRAM so the measured tail statistics are comparable.  The bank's
    cell population is sampled from ``seed`` once, here, and every task
    profiles a bank built around it, so the sweep is embarrassingly parallel
    and the measured curve does not depend on profiling order.  The
    population travels in the shared payload as two read-only arrays, so the
    result store names the configuration by their content.
    """
    if voltages is None:
        voltages = np.arange(0.40, 0.561, 0.01)
    runner = runner or SweepRunner()
    tasks = expand_grid(voltages=[float(v) for v in np.asarray(voltages, dtype=float)], seed=seed)
    cells = SramBank(num_words, word_bits, seed=seed).cells
    for array in (cells.vmin_read, cells.preferred_state):
        array.flags.writeable = False
    shared = {
        "vmin_read": cells.vmin_read,
        "preferred_state": cells.preferred_state,
        "temperature": temperature,
    }
    result = Fig9aResult()
    points, quarantined = partition_quarantined(
        runner.map(_fig9a_point_worker, tasks, shared=shared)
    )
    result.points.extend(points)
    result.quarantined.extend(quarantine_notes(quarantined))
    return result


@dataclass
class Fig9bPoint:
    """Error of one candidate topology."""

    topology: str
    num_parameters: int
    test_error: float
    train_error: float


@dataclass
class Fig9bResult:
    benchmark: str
    selected_topology: str
    points: list[Fig9bPoint] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def to_experiment_result(self) -> ExperimentResult:
        rows = [
            [p.topology, str(p.num_parameters), fmt(p.test_error), fmt(p.train_error)]
            for p in self.points
        ]
        return ExperimentResult(
            experiment="Fig. 9b — topology selection (error vs model size)",
            headers=["topology", "parameters", "test error", "train error"],
            rows=rows,
            paper_reference={
                "selected topology (paper)": self.selected_topology,
                "criterion": "smallest topology that does not sacrifice accuracy",
            },
            quarantined=list(self.quarantined),
        )


def _fig9b_point_worker(shared: dict, task: SweepTask) -> Fig9bPoint:
    """Train and evaluate one candidate topology (training memoized)."""
    prepared = shared["prepared"]
    spec = prepared.spec
    hidden = task.param("hidden")
    topology = f"{shared['input_width']}-{hidden}-{shared['output_width']}"
    network = Network(
        topology,
        hidden_activation=spec.hidden_activation,
        output_activation=spec.output_activation,
        loss=spec.loss,
        seed=shared["seed"] + 2,
    )
    train_cached(
        network,
        prepared.train,
        learning_rate=0.2,
        epochs=shared["epochs"],
        batch_size=16,
        seed=shared["seed"] + 3,
        cache=shared["cache"],
    )
    test_error = spec.error(network.predict(prepared.test.inputs), prepared.test)
    train_error = spec.error(network.predict(prepared.train.inputs), prepared.train)
    return Fig9bPoint(
        topology=topology,
        num_parameters=network.num_parameters,
        test_error=test_error,
        train_error=train_error,
    )


def run_fig9b(
    benchmark: str = "mnist",
    hidden_widths: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    num_samples: int = 1600,
    epochs: int = 40,
    seed: int = 1,
    runner: SweepRunner | None = None,
    cache: ArtifactCache | None = None,
) -> Fig9bResult:
    """Sweep hidden-layer width for one benchmark (Fig. 9b)."""
    cache = cache if cache is not None else default_cache()
    prepared = prepare_benchmark(
        benchmark, num_samples=num_samples, seed=seed, epochs=1, cache=cache
    )
    spec = prepared.spec
    widths = spec.topology.split("-")
    input_width, output_width = int(widths[0]), int(widths[-1])
    runner = runner or SweepRunner()
    tasks = expand_grid(params=[{"hidden": int(h)} for h in hidden_widths], seed=seed)
    shared = {
        "prepared": prepared,
        "input_width": input_width,
        "output_width": output_width,
        "epochs": epochs,
        "seed": seed,
        "cache": cache,
    }
    result = Fig9bResult(benchmark=spec.name, selected_topology=spec.topology)
    points, quarantined = partition_quarantined(
        runner.map(_fig9b_point_worker, tasks, shared=shared)
    )
    result.points.extend(points)
    result.quarantined.extend(quarantine_notes(quarantined))
    return result


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.fig09_sram`` — regenerate Fig. 9a or 9b."""
    parser = experiment_parser(
        "python -m repro.experiments.fig09_sram",
        "Fig. 9 — (a) SRAM read-failure rate vs voltage, (b) topology selection.",
    )
    parser.add_argument(
        "--figure", choices=("a", "b"), default="a", help="which panel to regenerate"
    )
    parser.add_argument("--seed", type=int, default=None, help="default: 3 (a) / 1 (b)")
    group_a = parser.add_argument_group("figure 9a")
    group_a.add_argument("--voltages", type=float, nargs="+", default=None)
    group_a.add_argument("--num-words", type=int, default=4608)
    group_a.add_argument("--word-bits", type=int, default=16)
    group_b = parser.add_argument_group("figure 9b")
    group_b.add_argument("--benchmark", default="mnist")
    group_b.add_argument(
        "--hidden-widths", type=int, nargs="+", default=[4, 8, 16, 32, 64, 128]
    )
    group_b.add_argument("--num-samples", type=int, default=1600)
    group_b.add_argument("--epochs", type=int, default=40)
    args = parser.parse_args(argv)
    # resolve CLI-knowable defaults onto args BEFORE run_experiment_cli
    # digests them into the result-store label: a default-seed run and an
    # explicit `--seed 3` run are the same configuration and must share results
    if args.seed is None:
        args.seed = 3 if args.figure == "a" else 1
    if args.figure == "a" and args.voltages is None:
        # the exact values run_fig9a would have chosen — not rounded copies,
        # which would perturb the simulated physics at threshold voltages
        args.voltages = [float(v) for v in np.arange(0.40, 0.561, 0.01)]
    if args.figure == "a":
        return run_experiment_cli(
            args,
            "fig9a",
            lambda runner, cache: run_fig9a(
                voltages=np.asarray(args.voltages, dtype=float),
                num_words=args.num_words,
                word_bits=args.word_bits,
                seed=args.seed,
                runner=runner,
            ),
        )
    return run_experiment_cli(
        args,
        "fig9b",
        lambda runner, cache: run_fig9b(
            benchmark=args.benchmark,
            hidden_widths=tuple(args.hidden_widths),
            num_samples=args.num_samples,
            epochs=args.epochs,
            seed=args.seed,
            runner=runner,
            cache=cache,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
