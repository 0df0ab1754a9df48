"""Experiment drivers: one module per table/figure of the paper's evaluation.

| Paper artifact | Driver |
|---|---|
| Fig. 5   | :func:`repro.experiments.fig05_mat_sweep.run_fig5` |
| Fig. 9a  | :func:`repro.experiments.fig09_sram.run_fig9a` |
| Fig. 9b  | :func:`repro.experiments.fig09_sram.run_fig9b` |
| Fig. 10  | :func:`repro.experiments.fig10_error_vs_voltage.run_fig10` |
| Table I  | :func:`repro.experiments.table1_application_error.run_table1` |
| Fig. 11  | :func:`repro.experiments.fig11_energy.run_fig11` |
| Table II | :func:`repro.experiments.table2_energy_scenarios.run_table2` |
| Fig. 12  | :func:`repro.experiments.fig12_temperature.run_fig12` |
| Table III| :func:`repro.experiments.table3_comparison.run_table3` |

Beyond the paper's artifacts, :func:`repro.experiments.scaling_geometry.run_scaling_geometry`
sweeps chip geometry (PE count × bank capacity) against the workload
catalog — the paper benchmarks plus procedural ``synth/...`` specs — and
:func:`repro.experiments.variation_scenarios.run_variation_scenarios`
sweeps correlated-variation scenarios (shape × strength × workload) for
die Vmin/yield statistics, fault-map clustering, MATIC-vs-naive error, and
margin-vs-stratified canary placement.
:func:`repro.experiments.fleet_population.run_fleet_population` scales from
one die to a seeded chip population (:mod:`repro.population`): die
Vmin/yield distributions, per-die canary margins, and error percentiles
serving a mixed-operating-point request stream, one die per task.

All drivers execute through the sweep engine
(:mod:`repro.experiments.engine`): grids expand into independent seeded
tasks that run serially or in parallel with identical results, and
heavyweight artifacts (float baselines, memory-adaptive fine-tuning,
topology-sweep fits) are memoized by the content-addressed artifact cache
(:mod:`repro.experiments.cache`).  Parallel sweeps run on the directory
queue (:mod:`repro.experiments.queue`): worker processes claim tasks under
leases, failed tasks are retried and then quarantined, and a named sweep
resumes from what it already published; it is also how several hosts
sharing one cache directory split a grid.
:mod:`repro.experiments.faults` is its deterministic chaos harness
(kill/delay/no-heartbeat/poison rules).

The engine/cache/common core is imported eagerly; the driver modules, the
queue backend, and the fault harness load lazily (PEP 562).  For the
drivers, laziness keeps ``python -m repro.experiments.<driver>`` from
importing the target module *before* ``runpy`` executes it as ``__main__``
(the double-execution ``RuntimeWarning``, which also gave every CLI run a
second copy of the driver's classes and workers).  For the queue and the
fault harness it spares every serial run their import cost, and that of
``multiprocessing``.
"""

from importlib import import_module

from .cache import ArtifactCache, cache_digest, default_cache, set_default_cache
from .common import (
    ExperimentResult,
    PreparedBenchmark,
    default_flow,
    experiment_parser,
    format_table,
    make_chip,
    partition_quarantined,
    prepare_benchmark,
    quarantine_notes,
    run_experiment_cli,
    runner_from_args,
    train_cached,
)
from .engine import (
    QuarantinedTask,
    SerialBackend,
    SweepBackend,
    SweepExecution,
    SweepRunner,
    SweepTask,
    expand_grid,
    resolve_backend,
    retry_delay,
    task_digest,
)

#: Lazily exported attributes: name -> submodule that defines it.
_LAZY_EXPORTS = {
    "DelayTask": "faults",
    "FaultPlan": "faults",
    "KillWorker": "faults",
    "PoisonTask": "faults",
    "SuppressHeartbeat": "faults",
    "QueueBackend": "queue",
    "run_fig5": "fig05_mat_sweep",
    "run_fig9a": "fig09_sram",
    "run_fig9b": "fig09_sram",
    "run_fig10": "fig10_error_vs_voltage",
    "DEFAULT_VOLTAGES": "fig10_error_vs_voltage",
    "run_fig11": "fig11_energy",
    "run_fig12": "fig12_temperature",
    "run_table1": "table1_application_error",
    "PAPER_TABLE1": "table1_application_error",
    "run_table2": "table2_energy_scenarios",
    "PAPER_TABLE2": "table2_energy_scenarios",
    "run_table3": "table3_comparison",
    "PRIOR_WORK_ROWS": "table3_comparison",
    "run_scaling_geometry": "scaling_geometry",
    "DEFAULT_WORKLOADS": "scaling_geometry",
    "run_variation_scenarios": "variation_scenarios",
    "DEFAULT_SHAPES": "variation_scenarios",
    "DEFAULT_STRENGTHS": "variation_scenarios",
    "run_fleet_population": "fleet_population",
    "DEFAULT_OPERATING_VOLTAGES": "fleet_population",
}

#: Lazy submodules, also reachable as package attributes once requested.
_LAZY_MODULES = frozenset(_LAZY_EXPORTS.values())


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return import_module(f".{name}", __name__)
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS) | _LAZY_MODULES)


__all__ = [
    "ArtifactCache",
    "DelayTask",
    "ExperimentResult",
    "FaultPlan",
    "KillWorker",
    "PoisonTask",
    "PreparedBenchmark",
    "QuarantinedTask",
    "QueueBackend",
    "SerialBackend",
    "SuppressHeartbeat",
    "SweepBackend",
    "SweepExecution",
    "SweepRunner",
    "SweepTask",
    "cache_digest",
    "default_cache",
    "set_default_cache",
    "expand_grid",
    "resolve_backend",
    "retry_delay",
    "task_digest",
    "experiment_parser",
    "run_experiment_cli",
    "runner_from_args",
    "prepare_benchmark",
    "train_cached",
    "default_flow",
    "make_chip",
    "partition_quarantined",
    "quarantine_notes",
    "format_table",
    "run_fig5",
    "run_fig9a",
    "run_fig9b",
    "run_fig10",
    "DEFAULT_VOLTAGES",
    "run_fig11",
    "run_fig12",
    "run_table1",
    "PAPER_TABLE1",
    "run_table2",
    "PAPER_TABLE2",
    "run_table3",
    "PRIOR_WORK_ROWS",
    "run_scaling_geometry",
    "DEFAULT_WORKLOADS",
    "run_variation_scenarios",
    "DEFAULT_SHAPES",
    "DEFAULT_STRENGTHS",
    "run_fleet_population",
    "DEFAULT_OPERATING_VOLTAGES",
]
