"""Fig. 11 — energy-per-cycle measurements (leakage / dynamic / total).

The figure decomposes the chip's per-cycle energy into logic and weight-SRAM
contributions, each split into leakage and dynamic components, at the nominal
operating point and at the MATIC-enabled energy-optimal point.  The headline
annotations are a 5.1× reduction in SRAM energy and a 2.4× reduction in logic
energy.  This driver recomputes the decomposition from the calibrated energy
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accelerator.energy import (
    NOMINAL_OPERATING_POINT,
    EnergyBreakdown,
    OperatingPoint,
    SnnacEnergyModel,
)
from .common import (
    ExperimentResult,
    experiment_parser,
    fmt,
    partition_quarantined,
    quarantine_notes,
    run_experiment_cli,
)
from .engine import SweepRunner, SweepTask, expand_grid

__all__ = ["Fig11Result", "run_fig11", "main"]

#: MATIC-enabled energy-optimal operating point (EnOpt_split in Table II).
ENERGY_OPTIMAL_POINT = OperatingPoint(0.55, 0.50, 17.8e6, name="EnOpt_split")


@dataclass
class Fig11Result:
    """Energy decomposition at the two operating points.

    Either breakdown may be ``None`` when its task was quarantined in a
    merged sweep; the table then renders the surviving rows (reductions are
    undefined and omitted) plus the marked ``QUARANTINED`` rows.
    """

    nominal: EnergyBreakdown | None
    optimized: EnergyBreakdown | None
    nominal_point: OperatingPoint = NOMINAL_OPERATING_POINT
    optimized_point: OperatingPoint = ENERGY_OPTIMAL_POINT
    quarantined: list[str] = field(default_factory=list)

    @property
    def sram_reduction(self) -> float | None:
        if self.nominal is None or self.optimized is None:
            return None
        return self.nominal.sram_total / self.optimized.sram_total

    @property
    def logic_reduction(self) -> float | None:
        if self.nominal is None or self.optimized is None:
            return None
        return self.nominal.logic_total / self.optimized.logic_total

    @property
    def total_reduction(self) -> float | None:
        if self.nominal is None or self.optimized is None:
            return None
        return self.nominal.total / self.optimized.total

    def to_experiment_result(self) -> ExperimentResult:
        def row(label: str, breakdown: EnergyBreakdown) -> list[str]:
            return [
                label,
                fmt(breakdown.logic_dynamic, 2),
                fmt(breakdown.logic_leakage, 2),
                fmt(breakdown.logic_total, 2),
                fmt(breakdown.sram_dynamic, 2),
                fmt(breakdown.sram_leakage, 2),
                fmt(breakdown.sram_total, 2),
                fmt(breakdown.total, 2),
            ]

        rows = []
        if self.nominal is not None:
            rows.append(
                row(
                    f"nominal ({self.nominal_point.logic_voltage:.2f}/"
                    f"{self.nominal_point.sram_voltage:.2f} V)",
                    self.nominal,
                )
            )
        if self.optimized is not None:
            rows.append(
                row(
                    f"MATIC MEP ({self.optimized_point.logic_voltage:.2f}/"
                    f"{self.optimized_point.sram_voltage:.2f} V)",
                    self.optimized,
                )
            )
        if self.nominal is not None and self.optimized is not None:
            rows.append(
                [
                    "reduction",
                    "-",
                    "-",
                    f"{self.logic_reduction:.1f}x",
                    "-",
                    "-",
                    f"{self.sram_reduction:.1f}x",
                    f"{self.total_reduction:.1f}x",
                ]
            )
        return ExperimentResult(
            experiment="Fig. 11 — energy per cycle (pJ), leakage/dynamic breakdown",
            headers=[
                "operating point",
                "logic dyn",
                "logic leak",
                "logic total",
                "SRAM dyn",
                "SRAM leak",
                "SRAM total",
                "total",
            ],
            rows=rows,
            paper_reference={
                "SRAM energy reduction (paper)": "5.1x",
                "logic energy reduction (paper)": "2.4x",
                "nominal total (paper)": "67.08 pJ/cycle",
            },
            quarantined=list(self.quarantined),
        )


def _fig11_point_worker(shared: dict, task: SweepTask) -> EnergyBreakdown:
    """Decompose per-cycle energy at one operating point."""
    model: SnnacEnergyModel = shared["model"]
    return model.breakdown(shared["points"][task.param("point")])


def run_fig11(
    energy_model: SnnacEnergyModel | None = None,
    optimized_point: OperatingPoint = ENERGY_OPTIMAL_POINT,
    runner: SweepRunner | None = None,
) -> Fig11Result:
    """Recompute the Fig. 11 energy breakdown from the calibrated model.

    The two operating points run as engine tasks — trivially cheap here, so
    the default runner stays on the in-process path (worker processes would
    cost far more than the two analytic evaluations).
    """
    model = energy_model or SnnacEnergyModel()
    runner = runner or SweepRunner(parallel=False)
    points = {"nominal": NOMINAL_OPERATING_POINT, "optimized": optimized_point}
    tasks = expand_grid(params=[{"point": name} for name in points])
    results = runner.map(
        _fig11_point_worker, tasks, shared={"model": model, "points": points}
    )
    # keyed (not positional) assembly: a quarantined sentinel in either slot
    # degrades to a None breakdown instead of mislabelling the other one
    _, quarantined = partition_quarantined(results)
    by_point = {
        task.param("point"): value
        for task, value in zip(tasks, results)
        if not getattr(value, "is_quarantined", False)
    }
    return Fig11Result(
        nominal=by_point.get("nominal"),
        optimized=by_point.get("optimized"),
        optimized_point=optimized_point,
        quarantined=quarantine_notes(quarantined),
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.fig11_energy`` — Fig. 11 energy breakdown."""
    parser = experiment_parser(
        "python -m repro.experiments.fig11_energy",
        "Fig. 11 — per-cycle energy breakdown (nominal vs MATIC-optimal point).",
    )
    parser.add_argument("--logic-voltage", type=float, default=ENERGY_OPTIMAL_POINT.logic_voltage)
    parser.add_argument("--sram-voltage", type=float, default=ENERGY_OPTIMAL_POINT.sram_voltage)
    parser.add_argument("--frequency", type=float, default=ENERGY_OPTIMAL_POINT.frequency)
    args = parser.parse_args(argv)
    # only the paper's point may carry the paper's label: an overridden
    # voltage/frequency is some other operating point and must say so
    overridden = (
        args.logic_voltage,
        args.sram_voltage,
        args.frequency,
    ) != (
        ENERGY_OPTIMAL_POINT.logic_voltage,
        ENERGY_OPTIMAL_POINT.sram_voltage,
        ENERGY_OPTIMAL_POINT.frequency,
    )
    point = OperatingPoint(
        args.logic_voltage,
        args.sram_voltage,
        args.frequency,
        name="custom" if overridden else "EnOpt_split",
    )
    return run_experiment_cli(
        args,
        "fig11",
        lambda runner, cache: run_fig11(optimized_point=point, runner=runner),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
