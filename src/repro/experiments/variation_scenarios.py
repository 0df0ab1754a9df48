"""Variation scenarios — Vmin/yield and MATIC error under correlated variation.

The paper's Monte Carlo samples every bit-cell i.i.d., which flatters
large-array Vmin/yield extrapolation: real banks share peripherals (wordline
drivers per row, sense amps per column group, die-level gradients), so
failures cluster.  This driver makes the variation *scenario* a sweep axis —
correlation shape × strength × workload — and reports, per grid point:

* the **die Vmin distribution** (the voltage at which a die's aggregate
  bit-fault rate reaches the target) and the **yield** at the target voltage
  across a batch of sampled dies,
* **clustering diagnostics** of the fault maps (run lengths, adjacent-cell
  autocorrelation — :meth:`~repro.sram.fault_map.FaultMap.clustering_summary`),
* **MATIC-vs-naive application error** on a representative die, and
* a **canary-placement comparison**: pure-margin ordering versus spatially
  stratified placement (region coverage, and whether each policy detects a
  localized V_min disturbance injected into one die region).

Because every scenario maps the same standard-normal field through the same
marginal transform, correlation strengths redistribute variance without
changing any cell's marginal law — so Vmin/yield *shifts* between i.i.d. and
correlated rows are a pure clustering effect, measured at equal marginal
variance.  With ``shape=iid`` the sampled populations are bit-identical to
the legacy models (``tests/test_variation_scenarios.py``: the
``TestCorrelatedVminModel`` and ``TestScenario`` cases check it).

Like every driver, the grid expands into independent seeded tasks and runs
through the sweep engine — all backends, ``--stream``; a queue run is
bit-identical to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..matic.canary import CanarySelector
from ..matic.flow import MaticFlow
from ..sram import calibration
from ..sram.array import SramBank, WeightMemorySystem
from ..sram.variation import CorrelationSpec, VariationScenario
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
    "VariationPoint",
    "VariationScenariosResult",
    "run_variation_scenarios",
    "DEFAULT_SHAPES",
    "DEFAULT_STRENGTHS",
    "DEFAULT_BENCHMARKS",
    "main",
]

#: Default correlation shapes: the zero-correlation reference plus one
#: single-component shape per shared peripheral and the mixed split.
DEFAULT_SHAPES = ("iid", "row", "region", "mixed")

#: Default correlation strengths (total shared-variance fraction); ``iid``
#: ignores them and contributes a single 0.0 row.
DEFAULT_STRENGTHS = (0.3, 0.6)

#: Default workload (the paper's Fig. 12 benchmark).
DEFAULT_BENCHMARKS = ("inversek2j",)

#: Localized V_min disturbance injected into one die region for the
#: canary-detection comparison, volts.
_REGIONAL_DISTURBANCE = 0.03


@dataclass
class VariationPoint:
    """Measurements for one (benchmark, shape, strength) grid point.

    Unmeasured fields are ``None`` rather than NaN: points round-trip
    through the result store's pickle channel, and NaN's self-inequality
    would make bit-identical comparisons spuriously fail.
    """

    benchmark: str
    shape: str
    strength: float
    scenario_digest: str
    num_dies: int
    #: per-die Vmin at the target fault rate: mean / std / max across dies
    vmin_mean: float
    vmin_std: float
    vmin_max: float
    #: fraction of dies whose Vmin is at or below the target voltage
    yield_fraction: float
    #: aggregate bit-fault rate of die 0 at the target voltage
    fault_rate: float
    #: clustering diagnostics averaged over die 0's banks
    mean_row_run: float
    mean_column_run: float
    row_autocorrelation: float
    column_autocorrelation: float
    naive_error: float | None = None
    adaptive_error: float | None = None
    #: distinct die regions covered by each canary-placement policy (die 0)
    margin_regions: int = 0
    stratified_regions: int = 0
    #: whether each policy detects the injected regional disturbance (die 0)
    margin_detects: bool = False
    stratified_detects: bool = False


@dataclass
class VariationScenariosResult:
    points: list[VariationPoint] = field(default_factory=list)
    voltage: float = 0.50
    target_fault_rate: float = 0.01
    quarantined: list[str] = field(default_factory=list)

    def to_experiment_result(self) -> ExperimentResult:
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.benchmark,
                    p.shape,
                    fmt(p.strength, 2),
                    fmt(p.vmin_mean) + " ± " + fmt(p.vmin_std),
                    fmt_percent(p.yield_fraction, 0),
                    fmt(p.mean_row_run, 2),
                    fmt(p.row_autocorrelation, 3),
                    "-" if p.naive_error is None else fmt(p.naive_error),
                    "-" if p.adaptive_error is None else fmt(p.adaptive_error),
                    f"{p.margin_regions}/{p.stratified_regions}",
                    ("yes" if p.margin_detects else "no")
                    + "/"
                    + ("yes" if p.stratified_detects else "no"),
                ]
            )
        return ExperimentResult(
            experiment=(
                f"Variation scenarios — die Vmin/yield and MATIC error vs "
                f"correlation (target {self.voltage:.2f} V, "
                f"{self.target_fault_rate:.0%} fault-rate Vmin)"
            ),
            headers=[
                "workload",
                "shape",
                "strength",
                "die Vmin (V)",
                "yield",
                "row run",
                "row corr",
                "naive err",
                "MATIC err",
                "regions m/s",
                "detects m/s",
            ],
            rows=rows,
            paper_reference={
                "variation model": "the paper samples every bit-cell i.i.d.; "
                "correlated rows are this repo's extension (ROADMAP)",
            },
            notes=(
                "All shapes share the i.i.d. model's per-cell marginals (equal "
                "marginal variance); shifts are pure clustering effects.  "
                "'regions/detects m/s' compare margin vs stratified canary "
                "placement on a localized Vmin disturbance "
                f"(+{_REGIONAL_DISTURBANCE:.2f} V on one die region).  "
                "See docs/variation.md."
            ),
            quarantined=list(self.quarantined),
        )


def _region_of(address: int, num_regions: int, span: int) -> int:
    """Contiguous-block die region of a word address (clamped)."""
    regions = max(min(num_regions, span), 1)
    return min(address * regions // span, regions - 1)


def _canary_comparison(
    bank_canaries: dict[int, list],
    memory: WeightMemorySystem,
    spec: CorrelationSpec,
    voltage: float,
    temperature: float,
    used_words_per_bank: list[int],
) -> tuple[int, bool]:
    """(distinct regions covered, disturbance detected) for one policy.

    Regions are computed over each bank's *deployed* address span — the same
    span the stratified selector uses — because synaptic canaries can only
    live in words the model occupies.  The disturbance adds
    ``_REGIONAL_DISTURBANCE`` volts to every cell of the last region of that
    span; a canary flags it when its cell's shifted effective V_min crosses
    the rail voltage *and* the flip is observable (the stored expected value
    differs from the cell's preferred state).  Computed array-side, without
    mutating the banks.
    """
    covered: set[int] = set()
    detected = False
    for bank_index, canaries in bank_canaries.items():
        bank: SramBank = memory[bank_index]
        vmin = bank.effective_vmin(temperature)
        span = max(min(int(used_words_per_bank[bank_index]), bank.num_words), 1)
        disturbed_region = max(min(spec.num_regions, span), 1) - 1
        for canary in canaries:
            region = _region_of(canary.address, spec.num_regions, span)
            covered.add(region)
            if region != disturbed_region:
                continue
            shifted = vmin[canary.address, canary.bit] + _REGIONAL_DISTURBANCE
            preferred = int(bank.cells.preferred_state[canary.address, canary.bit])
            if shifted > voltage and preferred != canary.expected_value:
                detected = True
    return len(covered), detected


def _variation_point_worker(shared: dict, task: SweepTask) -> VariationPoint:
    """Measure one (benchmark, shape, strength) grid point."""
    prepared: PreparedBenchmark = shared["prepared"][task.benchmark]
    flow: MaticFlow = shared["flow"]
    shape = str(task.param("shape"))
    strength = float(task.param("strength"))
    voltage = float(shared["voltage"])
    temperature = calibration.NOMINAL_TEMPERATURE
    target_rate = float(shared["target_fault_rate"])
    num_dies = int(shared["num_dies"])
    num_pes = int(shared["num_pes"])
    words_per_bank = int(shared["words_per_bank"])

    spec = CorrelationSpec.from_shape(shape, strength)
    scenario = VariationScenario(
        name=f"{shape}-{strength:.2f}-tt", correlation=spec
    )
    # chip seed derives from the task's content-stable seed, so every
    # backend, and a reordered grid, samples identical per-point dies
    base_seed = shared["chip_seed"] + int(task.seed) % 1_000_003

    die_vmins = []
    die0_summaries = []
    die0_fault_rate = 0.0
    for die in range(num_dies):
        memory = WeightMemorySystem.build(
            num_banks=num_pes,
            words_per_bank=words_per_bank,
            word_bits=16,
            scenario=scenario,
            seed=base_seed + die,
        )
        vmin = np.concatenate(
            [bank.effective_vmin(temperature).ravel() for bank in memory]
        )
        # the die's Vmin at the target fault rate: fault_rate(v) <= target
        # exactly when v >= this quantile of the effective V_min population
        die_vmins.append(float(np.quantile(vmin, 1.0 - target_rate)))
        if die == 0:
            die0_fault_rate = memory.fault_rate_at(voltage, temperature)
            die0_summaries = [
                fault_map.clustering_summary()
                for fault_map in memory.fault_maps_at(voltage, temperature)
            ]

    die_vmins_array = np.asarray(die_vmins)
    yield_fraction = float(np.mean(die_vmins_array <= voltage))

    def _mean(key: str) -> float:
        return float(np.mean([summary[key] for summary in die0_summaries]))

    # --- MATIC vs naive application error on die 0 -----------------------
    naive_error = adaptive_error = None
    margin_regions = stratified_regions = 0
    margin_detects = stratified_detects = False
    if shared["measure_error"]:
        naive_chip = make_chip(
            seed=base_seed,
            words_per_bank=words_per_bank,
            num_pes=num_pes,
            scenario=scenario,
        )
        naive = flow.deploy_naive(
            naive_chip,
            prepared.spec.topology,
            prepared.train,
            target_voltage=voltage,
            loss=prepared.spec.loss,
            initial_network=prepared.baseline,
        )
        outputs = naive.run_at(prepared.test.inputs)
        naive_error = float(prepared.spec.error(outputs, prepared.test))

        adaptive_chip = make_chip(
            seed=base_seed,
            words_per_bank=words_per_bank,
            num_pes=num_pes,
            scenario=scenario,
        )
        deployment = flow.deploy_adaptive(
            adaptive_chip,
            prepared.spec.topology,
            prepared.train,
            target_voltage=voltage,
            loss=prepared.spec.loss,
            initial_network=prepared.baseline,
            select_canaries=False,
        )
        outputs = deployment.run_at(prepared.test.inputs)
        adaptive_error = float(prepared.spec.error(outputs, prepared.test))

        # --- canary-placement comparison on the deployed die -------------
        used = deployment.program.placement.words_used_per_pe
        for placement in ("margin", "stratified"):
            selector = CanarySelector(
                canaries_per_bank=int(shared["canaries_per_bank"]),
                strategy="oracle",
                placement=placement,
            )
            canaries = selector.select(
                adaptive_chip.memory,
                voltage,
                temperature=temperature,
                used_words_per_bank=used,
            )
            per_bank: dict[int, list] = {}
            for canary in canaries:
                per_bank.setdefault(canary.bank, []).append(canary)
            regions, detects = _canary_comparison(
                per_bank, adaptive_chip.memory, spec, voltage, temperature, used
            )
            if placement == "margin":
                margin_regions, margin_detects = regions, detects
            else:
                stratified_regions, stratified_detects = regions, detects

    return VariationPoint(
        benchmark=task.benchmark,
        shape=shape,
        strength=strength,
        scenario_digest=scenario.digest(),
        num_dies=num_dies,
        vmin_mean=float(die_vmins_array.mean()),
        vmin_std=float(die_vmins_array.std()),
        vmin_max=float(die_vmins_array.max()),
        yield_fraction=yield_fraction,
        fault_rate=float(die0_fault_rate),
        mean_row_run=_mean("mean_row_run"),
        mean_column_run=_mean("mean_column_run"),
        row_autocorrelation=_mean("row_autocorrelation"),
        column_autocorrelation=_mean("column_autocorrelation"),
        naive_error=naive_error,
        adaptive_error=adaptive_error,
        margin_regions=margin_regions,
        stratified_regions=stratified_regions,
        margin_detects=margin_detects,
        stratified_detects=stratified_detects,
    )


def run_variation_scenarios(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    shapes: tuple[str, ...] = DEFAULT_SHAPES,
    strengths: tuple[float, ...] = DEFAULT_STRENGTHS,
    voltage: float = 0.50,
    target_fault_rate: float = 0.01,
    num_dies: int = 8,
    num_pes: int = 8,
    words_per_bank: int = 512,
    canaries_per_bank: int = 8,
    measure_error: bool = True,
    num_samples: int | None = None,
    adaptive_epochs: int = 50,
    seed: int = 1,
    chip_seed: int = 11,
    flow: MaticFlow | None = None,
    runner: SweepRunner | None = None,
    cache: ArtifactCache | None = None,
) -> VariationScenariosResult:
    """Run the correlation-scenario grid for the requested workloads.

    ``shape="iid"`` contributes exactly one grid row (strength 0.0)
    regardless of ``strengths`` — it is the zero-correlation reference every
    correlated row is compared against.
    """
    cache = cache if cache is not None else default_cache()
    flow = flow or default_flow(epochs=adaptive_epochs, seed=seed, cache=cache)
    runner = runner or SweepRunner()

    prepared = {
        name: prepare_benchmark(name, num_samples=num_samples, seed=seed, cache=cache)
        for name in benchmarks
    }

    grid = []
    for name in benchmarks:
        for shape in shapes:
            if shape == "iid":
                grid.append({"benchmark": name, "shape": "iid", "strength": 0.0})
            else:
                for strength in strengths:
                    grid.append(
                        {
                            "benchmark": name,
                            "shape": str(shape),
                            "strength": float(strength),
                        }
                    )
    tasks = expand_grid(params=grid, seed=seed)
    shared = {
        "prepared": prepared,
        "flow": flow,
        "voltage": float(voltage),
        "target_fault_rate": float(target_fault_rate),
        "num_dies": int(num_dies),
        "num_pes": int(num_pes),
        "words_per_bank": int(words_per_bank),
        "canaries_per_bank": int(canaries_per_bank),
        "measure_error": bool(measure_error),
        "chip_seed": int(chip_seed),
    }
    points, quarantined = partition_quarantined(
        runner.map(_variation_point_worker, tasks, shared=shared)
    )
    return VariationScenariosResult(
        points=list(points),
        voltage=float(voltage),
        target_fault_rate=float(target_fault_rate),
        quarantined=quarantine_notes(quarantined),
    )


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.variation_scenarios`` — scenario sweep."""
    parser = experiment_parser(
        "python -m repro.experiments.variation_scenarios",
        "Variation scenarios — die Vmin/yield, clustering, and MATIC error "
        "vs correlation shape x strength x workload.",
    )
    parser.add_argument("--benchmarks", nargs="+", default=list(DEFAULT_BENCHMARKS))
    parser.add_argument(
        "--shapes",
        nargs="+",
        default=list(DEFAULT_SHAPES),
        choices=("iid", "row", "column", "region", "mixed"),
    )
    parser.add_argument(
        "--strengths", type=float, nargs="+", default=list(DEFAULT_STRENGTHS)
    )
    parser.add_argument("--voltage", type=float, default=0.50)
    parser.add_argument("--target-fault-rate", type=float, default=0.01)
    parser.add_argument("--num-dies", type=int, default=8)
    parser.add_argument("--num-pes", type=int, default=8)
    parser.add_argument("--words-per-bank", type=int, default=512)
    parser.add_argument("--canaries-per-bank", type=int, default=8)
    parser.add_argument(
        "--skip-error",
        action="store_true",
        help="skip the MATIC/naive deployments (Vmin/yield statistics only)",
    )
    parser.add_argument("--num-samples", type=int, default=None)
    parser.add_argument("--adaptive-epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chip-seed", type=int, default=11)
    args = parser.parse_args(argv)
    return run_experiment_cli(
        args,
        "variation_scenarios",
        lambda runner, cache: run_variation_scenarios(
            benchmarks=tuple(args.benchmarks),
            shapes=tuple(args.shapes),
            strengths=tuple(args.strengths),
            voltage=args.voltage,
            target_fault_rate=args.target_fault_rate,
            num_dies=args.num_dies,
            num_pes=args.num_pes,
            words_per_bank=args.words_per_bank,
            canaries_per_bank=args.canaries_per_bank,
            measure_error=not args.skip_error,
            num_samples=args.num_samples,
            adaptive_epochs=args.adaptive_epochs,
            seed=args.seed,
            chip_seed=args.chip_seed,
            runner=runner,
            cache=cache,
        ),
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
