"""Fig. 12 — closed-loop SRAM voltage control under temperature variation.

The paper sweeps ambient temperature from −15 °C to 90 °C in a temperature
chamber while the in-situ canary controller re-adjusts the SRAM rail between
inferences.  Because the experiments run below the 65 nm process's
temperature-inversion point, the required SRAM voltage *falls* as temperature
rises — the canary-tracked rail shows that inverse relationship, where a
conventional design would have carried a static worst-case margin.

The driver deploys the ``inversek2j`` benchmark with the full MATIC flow
(0.50 V target, as in the paper), then steps a simulated chamber through the
paper's temperature schedule; at each stabilized point the canary controller
runs Algorithm 1 and the resulting rail voltage plus the on-chip application
error are recorded.

The walk is expressed as an
:class:`~repro.sram.variation.EnvironmentTrajectory` — the chamber schedule
is lifted into a trajectory, so drift scenarios (an aging V_min shift
accumulating over the dwell times) reuse this driver unchanged via the
``trajectory`` argument or the ``--aging-rate`` / ``--dwell-hours`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..matic.flow import MaticDeployment
from ..sram.variation import (
    EnvironmentalConditions,
    EnvironmentTrajectory,
    TemperatureChamber,
)
from .cache import ArtifactCache, default_cache
from .common import (
    ExperimentResult,
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

__all__ = ["TemperatureStep", "Fig12Result", "run_fig12", "main"]


@dataclass
class TemperatureStep:
    """Controller outcome at one stabilized trajectory step."""

    temperature: float
    sram_voltage: float
    canary_failure_voltage: float | None
    application_error: float
    #: accumulated aging/drift V_min shift active at this step, volts
    vmin_shift: float = 0.0


@dataclass
class Fig12Result:
    benchmark: str
    target_voltage: float
    nominal_error: float
    steps: list[TemperatureStep] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    @property
    def voltage_temperature_correlation(self) -> float:
        """Pearson correlation between temperature and regulated voltage.

        Negative values confirm the inverse relationship of Fig. 12.
        """
        temperatures = np.array([step.temperature for step in self.steps])
        voltages = np.array([step.sram_voltage for step in self.steps])
        if len(self.steps) < 2 or np.std(voltages) == 0:
            return 0.0
        return float(np.corrcoef(temperatures, voltages)[0, 1])

    def to_experiment_result(self) -> ExperimentResult:
        rows = [
            [
                f"{step.temperature:.0f}",
                f"{step.sram_voltage:.3f}",
                "-" if step.canary_failure_voltage is None else f"{step.canary_failure_voltage:.3f}",
                fmt(step.application_error),
            ]
            for step in self.steps
        ]
        return ExperimentResult(
            experiment="Fig. 12 — canary-controlled SRAM voltage vs ambient temperature",
            headers=["temp (°C)", "SRAM voltage (V)", "canary fail V", "app. error"],
            rows=rows,
            paper_reference={
                "relationship": "inverse (below temperature inversion): hotter chip → lower "
                "canary-tracked SRAM voltage",
                "initial setting": "0.5 V at the nominal temperature on inversek2j",
            },
            notes=(
                f"temperature/voltage correlation = {self.voltage_temperature_correlation:+.2f} "
                "(negative confirms the paper's inverse tracking)"
            ),
            quarantined=list(self.quarantined),
        )


def _fig12_step_worker(shared: dict, task: SweepTask) -> TemperatureStep:
    """Execute one stabilized chamber step on the shared chip.

    The chamber schedule intentionally walks *one* chip through consecutive
    conditions (regulator state and storage corruption carry across steps,
    as in the physical experiment), so these tasks run on the engine's
    serial path and share live objects through the payload.
    """
    deployment: MaticDeployment = shared["deployment"]
    prepared = shared["prepared"]
    conditions: EnvironmentalConditions = shared["conditions"][task.index]
    chip = deployment.chip
    chip.set_environment(conditions)
    trace = deployment.controller.regulate(safe_voltage=shared["safe_voltage"])
    outputs, _ = chip.run_inference(prepared.test.inputs)
    error = prepared.spec.error(outputs, prepared.test)
    return TemperatureStep(
        temperature=conditions.temperature,
        sram_voltage=trace.final_voltage,
        canary_failure_voltage=trace.canary_failure_voltage,
        application_error=error,
        vmin_shift=conditions.vmin_shift,
    )


def run_fig12(
    benchmark: str = "inversek2j",
    target_voltage: float = 0.50,
    num_samples: int | None = None,
    adaptive_epochs: int = 50,
    seed: int = 1,
    chip_seed: int = 11,
    safe_voltage: float = 0.60,
    chamber: TemperatureChamber | None = None,
    trajectory: EnvironmentTrajectory | None = None,
    dwell_hours: float = 1.0,
    aging_vmin_shift_per_hour: float = 0.0,
    deployment: MaticDeployment | None = None,
    runner: SweepRunner | None = None,
    cache: ArtifactCache | None = None,
) -> Fig12Result:
    """Run the trajectory experiment with the canary controller.

    ``trajectory`` defaults to the paper's chamber schedule lifted into an
    :class:`~repro.sram.variation.EnvironmentTrajectory` (``chamber``,
    ``dwell_hours``, and ``aging_vmin_shift_per_hour`` parameterize the
    lift); pass a custom trajectory to run arbitrary timed condition walks
    through the same driver.

    The walk is *stateful* (regulator state and storage corruption carry
    from step to step), so any provided ``runner`` is forced onto the
    engine's in-process serial path — splitting the walk across workers or
    hosts would change the physics.
    """
    cache = cache if cache is not None else default_cache()
    prepared = prepare_benchmark(
        benchmark, num_samples=num_samples, seed=seed, cache=cache
    )
    if deployment is None:
        chip = make_chip(seed=chip_seed)
        flow = default_flow(epochs=adaptive_epochs, seed=seed, cache=cache)
        deployment = flow.deploy_adaptive(
            chip,
            prepared.spec.topology,
            prepared.train,
            target_voltage=target_voltage,
            loss=prepared.spec.loss,
            initial_network=prepared.baseline,
            select_canaries=True,
        )
    if deployment.controller is None:
        raise ValueError("the deployment has no canary controller")
    # fine-grained regulator steps make the temperature tracking visible
    # (the paper's Fig. 12 voltage steps are on the order of 10 mV)
    deployment.controller.voltage_step = 0.005

    if trajectory is None:
        trajectory = EnvironmentTrajectory.from_chamber(
            chamber or TemperatureChamber(),
            dwell_hours=dwell_hours,
            aging_vmin_shift_per_hour=aging_vmin_shift_per_hour,
        )
    conditions = trajectory.conditions()
    result = Fig12Result(
        benchmark=benchmark,
        target_voltage=target_voltage,
        nominal_error=prepared.baseline_error,
    )

    # state carries between chamber steps: force the engine's serial path
    runner = (
        SweepRunner(parallel=False)
        if runner is None
        else replace(runner, parallel=False)
    )
    tasks = expand_grid(
        params=[{"temperature": c.temperature} for c in conditions], seed=seed
    )
    shared = {
        "deployment": deployment,
        "prepared": prepared,
        "conditions": conditions,
        "safe_voltage": safe_voltage,
    }
    # the forced serial path cannot normally quarantine, but a custom runner
    # may still hand back poison sentinels — render, don't crash
    steps, quarantined = partition_quarantined(
        runner.map(_fig12_step_worker, tasks, shared=shared)
    )
    result.steps.extend(steps)
    result.quarantined.extend(quarantine_notes(quarantined))
    # leave the chamber back at nominal conditions
    deployment.chip.set_environment(EnvironmentalConditions())
    return result


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.fig12_temperature`` — Fig. 12."""
    parser = experiment_parser(
        "python -m repro.experiments.fig12_temperature",
        "Fig. 12 — canary-controlled SRAM voltage vs ambient temperature.",
    )
    parser.add_argument("--benchmark", default="inversek2j")
    parser.add_argument("--target-voltage", type=float, default=0.50)
    parser.add_argument("--num-samples", type=int, default=None)
    parser.add_argument("--adaptive-epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chip-seed", type=int, default=11)
    parser.add_argument("--safe-voltage", type=float, default=0.60)
    parser.add_argument(
        "--dwell-hours",
        type=float,
        default=1.0,
        help="hours spent stabilized at each trajectory step",
    )
    parser.add_argument(
        "--aging-rate",
        type=float,
        default=0.0,
        help="aging V_min drift in volts per hour, accumulated over the walk",
    )
    args = parser.parse_args(argv)
    return run_experiment_cli(
        args,
        "fig12",
        lambda runner, cache: run_fig12(
            benchmark=args.benchmark,
            target_voltage=args.target_voltage,
            num_samples=args.num_samples,
            adaptive_epochs=args.adaptive_epochs,
            seed=args.seed,
            chip_seed=args.chip_seed,
            safe_voltage=args.safe_voltage,
            dwell_hours=args.dwell_hours,
            aging_vmin_shift_per_hour=args.aging_rate,
            runner=runner,
            cache=cache,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
