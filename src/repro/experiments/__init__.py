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
serving a mixed-operating-point request stream, sharded by die index.

All drivers execute through the sweep engine
(:mod:`repro.experiments.engine`): grids expand into independent seeded
tasks that run serially or on a multiprocessing pool with identical results,
and heavyweight artifacts (float baselines, memory-adaptive fine-tuning,
topology-sweep fits) are memoized by the content-addressed artifact cache
(:mod:`repro.experiments.cache`).  For sweeps that must survive worker
death, the elastic queue backend (:mod:`repro.experiments.queue`) adds
lease-based claiming, retries with quarantine, and zero-recompute resume;
the socket broker (:mod:`repro.experiments.broker`) serves the same
semantics over TCP for fleets with no shared filesystem; and
:mod:`repro.experiments.faults` is the deterministic chaos harness for
both — process-level (kill/delay/no-heartbeat/poison) and wire-level
(drop-connection/partition/delay-ack/kill-broker) rules.

The engine/cache/common core is imported eagerly; the nine driver modules
load lazily (PEP 562).  Laziness is not an import-time optimization: it
keeps ``python -m repro.experiments.<driver>`` from importing the target
module *before* ``runpy`` executes it as ``__main__`` (the double-execution
``RuntimeWarning``), which also guaranteed every CLI run a second copy of
the driver's classes and workers.
"""

from importlib import import_module

from .cache import (
    ArtifactCache,
    cache_digest,
    collect_shard_results,
    default_cache,
    set_default_cache,
    shard_result_key,
)
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
    ProcessBackend,
    QuarantinedTask,
    RetryingWorker,
    SerialBackend,
    ShardIncompleteError,
    ShardSpec,
    SweepBackend,
    SweepExecution,
    SweepRunner,
    SweepTask,
    TaskTimeoutError,
    WorkerCrashedError,
    expand_grid,
    resolve_backend,
    retry_delay,
    task_digest,
)
from .faults import (
    DelayAck,
    DelayTask,
    DropConnection,
    FaultPlan,
    KillBroker,
    KillWorker,
    PartitionWorker,
    PoisonTask,
    SuppressHeartbeat,
)
from .queue import QueueBackend
#: Lazily exported attributes: name -> submodule that defines it.  Mostly
#: driver entry points; also BrokerBackend, whose module is runnable
#: (``python -m repro.experiments.broker serve``) and therefore must not be
#: pre-imported here (the runpy double-execution warning, same as drivers).
_DRIVER_EXPORTS = {
    "BrokerBackend": "broker",
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

#: Driver submodules, also reachable as package attributes once requested.
_DRIVER_MODULES = frozenset(_DRIVER_EXPORTS.values())


def __getattr__(name: str):
    if name in _DRIVER_MODULES:
        return import_module(f".{name}", __name__)
    module_name = _DRIVER_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DRIVER_EXPORTS) | _DRIVER_MODULES)


__all__ = [
    "ArtifactCache",
    "BrokerBackend",
    "DelayAck",
    "DelayTask",
    "DropConnection",
    "ExperimentResult",
    "FaultPlan",
    "KillBroker",
    "KillWorker",
    "PartitionWorker",
    "PoisonTask",
    "PreparedBenchmark",
    "ProcessBackend",
    "QuarantinedTask",
    "QueueBackend",
    "RetryingWorker",
    "SerialBackend",
    "ShardIncompleteError",
    "ShardSpec",
    "SuppressHeartbeat",
    "SweepBackend",
    "SweepExecution",
    "SweepRunner",
    "SweepTask",
    "TaskTimeoutError",
    "WorkerCrashedError",
    "cache_digest",
    "collect_shard_results",
    "default_cache",
    "set_default_cache",
    "shard_result_key",
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
