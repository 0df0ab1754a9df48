"""Table II — energy efficiency with MATIC-enabled voltage scaling.

The paper evaluates three operating scenarios:

``HighPerf``
    Maximum frequency (250 MHz).  Logic must stay at 0.9 V for timing; with
    MATIC the SRAM rail scales down to the SRAM-periphery timing limit
    (0.65 V).  The baseline keeps SRAM at the nominal 0.9 V.
``EnOpt_split``
    Disjoint logic/SRAM rails at the energy-optimal point: logic at its
    minimum-energy voltage (≈0.55 V → 17.8 MHz), SRAM at the
    accuracy-constrained minimum (0.50 V).  The baseline scales logic but
    keeps SRAM at 0.9 V.
``EnOpt_joint``
    A single unified rail: with MATIC both domains sit at the joint
    minimum-energy voltage (≈0.55 V); the baseline cannot scale at all
    because SRAM margins pin the shared rail at 0.9 V.

The driver recomputes every row from the calibrated energy/frequency model:
operating voltages come from the model's timing and minimum-energy searches
(subject to the MATIC accuracy floor), not from hard-coded paper values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accelerator.energy import OperatingPoint, SnnacEnergyModel
from .common import (
    ExperimentResult,
    experiment_parser,
    fmt,
    partition_quarantined,
    quarantine_notes,
    run_experiment_cli,
)
from .engine import SweepRunner, SweepTask, expand_grid

__all__ = ["ScenarioResult", "Table2Result", "run_table2", "PAPER_TABLE2", "main"]


#: Paper-reported Table II rows (pJ/cycle) for side-by-side comparison.
PAPER_TABLE2 = {
    "HighPerf": {"total": 48.96, "baseline_total": 67.08, "reduction": 1.4},
    "EnOpt_split": {"total": 19.98, "baseline_total": 49.23, "reduction": 2.5},
    "EnOpt_joint": {"total": 20.60, "baseline_total": 67.08, "reduction": 3.3},
}


@dataclass
class ScenarioResult:
    """One scenario row: the MATIC-enabled point and its baseline."""

    name: str
    matic_point: OperatingPoint
    baseline_point: OperatingPoint
    matic_energy: float
    baseline_energy: float
    matic_logic_energy: float
    matic_sram_energy: float
    baseline_logic_energy: float
    baseline_sram_energy: float

    @property
    def reduction(self) -> float:
        return self.baseline_energy / self.matic_energy


@dataclass
class Table2Result:
    scenarios: list[ScenarioResult] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)

    def scenario(self, name: str) -> ScenarioResult:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"no scenario named {name!r}")

    def to_experiment_result(self) -> ExperimentResult:
        rows = []
        for scenario in self.scenarios:
            rows.append(
                [
                    scenario.name,
                    f"{scenario.matic_point.logic_voltage:.2f}",
                    f"{scenario.matic_point.sram_voltage:.2f}",
                    f"{scenario.matic_point.frequency / 1e6:.1f}",
                    fmt(scenario.matic_logic_energy, 2),
                    fmt(scenario.matic_sram_energy, 2),
                    fmt(scenario.matic_energy, 2),
                    fmt(scenario.baseline_energy, 2),
                    f"{scenario.reduction:.1f}x",
                    f"{PAPER_TABLE2[scenario.name]['reduction']}x"
                    if scenario.name in PAPER_TABLE2
                    else "-",
                ]
            )
        return ExperimentResult(
            experiment="Table II — energy efficiency with MATIC-enabled scaling",
            headers=[
                "scenario",
                "logic V",
                "SRAM V",
                "freq (MHz)",
                "logic pJ/cyc",
                "SRAM pJ/cyc",
                "total pJ/cyc",
                "baseline pJ/cyc",
                "reduction",
                "paper",
            ],
            rows=rows,
            paper_reference={
                "HighPerf (paper)": "48.96 pJ/cycle, 1.4x",
                "EnOpt_split (paper)": "19.98 pJ/cycle, 2.5x",
                "EnOpt_joint (paper)": "20.60 pJ/cycle, 3.3x",
            },
            quarantined=list(self.quarantined),
        )


def _table2_scenario_worker(shared: dict, task: SweepTask) -> ScenarioResult:
    """Recompute one operating scenario (voltage searches included)."""
    model: SnnacEnergyModel = shared["model"]
    accuracy_floor_voltage = shared["accuracy_floor_voltage"]
    sram_nominal_voltage = shared["sram_nominal_voltage"]
    max_frequency = shared["max_frequency"]
    name = task.mode

    if name == "HighPerf":
        logic_v = model.logic_frequency.min_voltage_for(max_frequency)
        sram_timing_floor = model.sram_frequency.min_voltage_for(max_frequency)
        sram_v = max(accuracy_floor_voltage, sram_timing_floor)
        matic_point = OperatingPoint(logic_v, sram_v, max_frequency, "HighPerf")
        baseline_point = OperatingPoint(
            logic_v, sram_nominal_voltage, max_frequency, "HighPerf_base"
        )
    elif name == "EnOpt_split":
        logic_mep_voltage, logic_mep_frequency = model.logic_minimum_energy_point()
        sram_v = max(
            accuracy_floor_voltage,
            model.sram_frequency.min_voltage_for(logic_mep_frequency),
        )
        matic_point = OperatingPoint(
            logic_mep_voltage, sram_v, logic_mep_frequency, "EnOpt_split"
        )
        baseline_point = OperatingPoint(
            logic_mep_voltage, sram_nominal_voltage, logic_mep_frequency, "EnOpt_split_base"
        )
    elif name == "EnOpt_joint":
        joint_voltage, joint_frequency = model.joint_minimum_energy_point(
            min_sram_voltage=accuracy_floor_voltage
        )
        matic_point = OperatingPoint(
            joint_voltage, joint_voltage, joint_frequency, "EnOpt_joint"
        )
        # a unified rail cannot scale below the SRAM's nominal requirement
        # without MATIC, so the baseline stays at nominal voltage and frequency
        baseline_point = OperatingPoint(
            sram_nominal_voltage, sram_nominal_voltage, max_frequency, "EnOpt_joint_base"
        )
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return _scenario(name, model, matic_point, baseline_point)


def run_table2(
    energy_model: SnnacEnergyModel | None = None,
    accuracy_floor_voltage: float = 0.50,
    sram_nominal_voltage: float = 0.90,
    max_frequency: float = 250.0e6,
    runner: SweepRunner | None = None,
) -> Table2Result:
    """Recompute the Table II scenarios from the calibrated chip model.

    ``accuracy_floor_voltage`` is the lowest SRAM voltage at which the
    deployed memory-adaptive models still meet their accuracy target — the
    MATIC knob that turns voltage scaling into an accuracy/energy trade-off.
    Each scenario is one engine task on the in-process path (the analytic
    model evaluations are far cheaper than worker processes).
    """
    model = energy_model or SnnacEnergyModel()
    runner = runner or SweepRunner(parallel=False)
    scenario_names = ("HighPerf", "EnOpt_split", "EnOpt_joint")
    tasks = expand_grid(modes=scenario_names)
    shared = {
        "model": model,
        "accuracy_floor_voltage": accuracy_floor_voltage,
        "sram_nominal_voltage": sram_nominal_voltage,
        "max_frequency": max_frequency,
    }
    result = Table2Result()
    scenarios, quarantined = partition_quarantined(
        runner.map(_table2_scenario_worker, tasks, shared=shared)
    )
    result.scenarios.extend(scenarios)
    result.quarantined.extend(quarantine_notes(quarantined))
    return result


def _scenario(
    name: str,
    model: SnnacEnergyModel,
    matic_point: OperatingPoint,
    baseline_point: OperatingPoint,
) -> ScenarioResult:
    matic_breakdown = model.breakdown(matic_point)
    baseline_breakdown = model.breakdown(baseline_point)
    return ScenarioResult(
        name=name,
        matic_point=matic_point,
        baseline_point=baseline_point,
        matic_energy=matic_breakdown.total,
        baseline_energy=baseline_breakdown.total,
        matic_logic_energy=matic_breakdown.logic_total,
        matic_sram_energy=matic_breakdown.sram_total,
        baseline_logic_energy=baseline_breakdown.logic_total,
        baseline_sram_energy=baseline_breakdown.sram_total,
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.table2_energy_scenarios`` — Table II."""
    parser = experiment_parser(
        "python -m repro.experiments.table2_energy_scenarios",
        "Table II — energy scenarios (HighPerf, EnOpt_split, EnOpt_joint).",
    )
    parser.add_argument("--accuracy-floor-voltage", type=float, default=0.50)
    parser.add_argument("--sram-nominal-voltage", type=float, default=0.90)
    parser.add_argument("--max-frequency", type=float, default=250.0e6)
    args = parser.parse_args(argv)
    return run_experiment_cli(
        args,
        "table2",
        lambda runner, cache: run_table2(
            accuracy_floor_voltage=args.accuracy_floor_voltage,
            sram_nominal_voltage=args.sram_nominal_voltage,
            max_frequency=args.max_frequency,
            runner=runner,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
