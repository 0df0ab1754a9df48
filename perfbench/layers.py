"""Per-layer metrics: traced span totals turned into per-op averages.

Every metric is reported on every workload; a layer a workload bypasses
reads 0 there.  ``README.md`` lists which end-to-end metric and workload each
one should move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .stats import percentile
from .tracer import LayerTotals


@dataclass
class TraceResult:
    """Everything a traced run measured, before it becomes metrics."""

    totals: dict[str, LayerTotals]
    #: number of traced ops the totals cover
    ops: int
    import_s: float
    #: traced and untraced op wall times, seconds
    traced_op_s: list[float]
    untraced_op_s: list[float]
    #: seconds of traced op wall time covered by top-level spans
    attributed_s: float
    #: growth of the run's cache directories over the traced ops, bytes
    put_bytes: int = 0
    #: summed over traced ops that submitted to the queue backend
    queue: dict[str, float] = field(default_factory=dict)
    #: the same grid on the serial backend (sweep-queue only), seconds
    serial_op_s: float = 0.0


def _layer(result: TraceResult, name: str) -> LayerTotals:
    return result.totals.get(name, LayerTotals())


def _per_op(name: str, attr: str) -> Callable[[TraceResult], float]:
    return lambda r: getattr(_layer(r, name), attr) / r.ops


def _note_sum(name: str) -> Callable[[TraceResult], float]:
    return lambda r: sum(_layer(r, name).notes) / r.ops


def _fits(recalled: bool) -> Callable[[TraceResult], float]:
    return lambda r: sum(
        1 for note in _layer(r, "matic.flow.fit_adaptive").notes if bool(note) == recalled
    ) / r.ops


def _hit_ratio(r: TraceResult) -> float:
    gets = _layer(r, "experiments.cache.get")
    return sum(gets.notes) / gets.calls if gets.calls else 0.0


def _overhead(r: TraceResult) -> float:
    if not r.untraced_op_s:
        return 0.0
    return percentile(r.traced_op_s, 0.5) / percentile(r.untraced_op_s, 0.5) - 1.0


def _unattributed(r: TraceResult) -> float:
    wall = sum(r.traced_op_s)
    return (wall - r.attributed_s) / wall if wall else 0.0


def _queue(key: str) -> Callable[[TraceResult], float]:
    return lambda r: r.queue.get(key, 0.0) / r.ops


#: ``(name, unit, better, value)`` in the order BENCHMARK.json lists them.
PER_LAYER: tuple[tuple[str, str, str, Callable[[TraceResult], float]], ...] = (
    ("setup.import_s", "s", "lower", lambda r: r.import_s),
    ("datasets.generate.busy_s", "s", "lower", _per_op("datasets.generate", "busy_s")),
    ("nn.trainer.fit.calls", "count", "lower", _per_op("nn.trainer.fit", "calls")),
    ("nn.trainer.fit.busy_s", "s", "lower", _per_op("nn.trainer.fit", "busy_s")),
    ("nn.network.forward.calls", "count", "lower", _per_op("nn.network.forward", "calls")),
    ("nn.network.forward.busy_s", "s", "lower", _per_op("nn.network.forward", "busy_s")),
    ("nn.network.backward.busy_s", "s", "lower", _per_op("nn.network.backward", "busy_s")),
    ("nn.optimizer.busy_s", "s", "lower", _per_op("nn.optimizer", "busy_s")),
    ("quant.fixed_point.calls", "count", "lower", _per_op("quant.fixed_point", "calls")),
    ("quant.fixed_point.busy_s", "s", "lower", _per_op("quant.fixed_point", "busy_s")),
    ("matic.training.fit.calls", "count", "lower", _per_op("matic.training.fit", "calls")),
    ("matic.training.fit.busy_s", "s", "lower", _per_op("matic.training.fit", "busy_s")),
    (
        "matic.training.train_step.calls",
        "count",
        "lower",
        _per_op("matic.training.train_step", "calls"),
    ),
    (
        "matic.training.train_step.self_s",
        "s",
        "lower",
        _per_op("matic.training.train_step", "self_s"),
    ),
    (
        "matic.masking.install.calls",
        "count",
        "lower",
        _per_op("matic.masking.install", "calls"),
    ),
    (
        "matic.masking.install.busy_s",
        "s",
        "lower",
        _per_op("matic.masking.install", "busy_s"),
    ),
    (
        "matic.masking.from_fault_maps.busy_s",
        "s",
        "lower",
        _per_op("matic.masking.from_fault_maps", "busy_s"),
    ),
    ("matic.flow.fit_adaptive.trained", "count", "lower", _fits(recalled=False)),
    ("matic.flow.fit_adaptive.recalled", "count", "higher", _fits(recalled=True)),
    (
        "matic.flow.profile_chip_sweep.busy_s",
        "s",
        "lower",
        _per_op("matic.flow.profile_chip_sweep", "busy_s"),
    ),
    (
        "matic.flow.profile_chip.busy_s",
        "s",
        "lower",
        _per_op("matic.flow.profile_chip", "busy_s"),
    ),
    ("matic.canary.select.calls", "count", "lower", _per_op("matic.canary.select", "calls")),
    ("matic.canary.select.busy_s", "s", "lower", _per_op("matic.canary.select", "busy_s")),
    ("sram.chip_build.calls", "count", "lower", _per_op("sram.chip_build", "calls")),
    ("sram.chip_build.busy_s", "s", "lower", _per_op("sram.chip_build", "busy_s")),
    ("sram.marginal_cells.calls", "count", "lower", _per_op("sram.marginal_cells", "calls")),
    ("sram.marginal_cells.busy_s", "s", "lower", _per_op("sram.marginal_cells", "busy_s")),
    ("sram.profile_bank.calls", "count", "lower", _per_op("sram.profile_bank", "calls")),
    ("sram.profile_bank.busy_s", "s", "lower", _per_op("sram.profile_bank", "busy_s")),
    (
        "accelerator.run_sweep.calls",
        "count",
        "lower",
        _per_op("accelerator.run_sweep", "calls"),
    ),
    ("accelerator.run_sweep.points", "count", "lower", _note_sum("accelerator.run_sweep")),
    (
        "accelerator.run_sweep.busy_s",
        "s",
        "lower",
        _per_op("accelerator.run_sweep", "busy_s"),
    ),
    ("accelerator.deploy.busy_s", "s", "lower", _per_op("accelerator.deploy", "busy_s")),
    ("accelerator.compile.calls", "count", "lower", _per_op("accelerator.compile", "calls")),
    ("accelerator.compile.busy_s", "s", "lower", _per_op("accelerator.compile", "busy_s")),
    (
        "experiments.cache.get.calls",
        "count",
        "lower",
        _per_op("experiments.cache.get", "calls"),
    ),
    ("experiments.cache.get.hit_ratio", "ratio", "higher", _hit_ratio),
    (
        "experiments.cache.get.busy_s",
        "s",
        "lower",
        _per_op("experiments.cache.get", "busy_s"),
    ),
    (
        "experiments.cache.digest.busy_s",
        "s",
        "lower",
        _per_op("experiments.cache.digest", "busy_s"),
    ),
    (
        "experiments.cache.put.calls",
        "count",
        "lower",
        _per_op("experiments.cache.put", "calls"),
    ),
    ("experiments.cache.put.bytes", "B", "lower", lambda r: r.put_bytes / r.ops),
    (
        "experiments.cache.put.busy_s",
        "s",
        "lower",
        _per_op("experiments.cache.put", "busy_s"),
    ),
    (
        "experiments.engine.map.busy_s",
        "s",
        "lower",
        _per_op("experiments.engine.map", "busy_s"),
    ),
    ("experiments.queue.worker_cpu_s", "s", "lower", _queue("worker_cpu_s")),
    ("experiments.queue.coordinator_cpu_s", "s", "lower", _queue("coordinator_cpu_s")),
    ("experiments.queue.wait_s", "s", "lower", _queue("wait_s")),
    ("experiments.queue.tasks", "count", "lower", _queue("tasks")),
    ("experiments.queue.recalled", "count", "lower", _queue("recalled")),
    ("experiments.queue.quarantined", "count", "lower", _queue("quarantined")),
    ("experiments.queue.respawns", "count", "lower", _queue("respawns")),
    ("experiments.queue.serial_op_s", "s", "lower", lambda r: r.serial_op_s),
    ("trace.op_s", "s", "lower", lambda r: sum(r.traced_op_s) / r.ops),
    ("trace.overhead_frac", "ratio", "lower", _overhead),
    ("trace.unattributed_frac", "ratio", "lower", _unattributed),
)


def layer_metrics(result: TraceResult) -> dict[str, dict[str, float | str]]:
    """Every per-layer metric as ``{name: {"value", "unit"}}``."""
    if result.ops <= 0:
        raise ValueError("a traced run needs at least one traced op")
    return {
        name: {"value": float(value(result)), "unit": unit}
        for name, unit, _better, value in PER_LAYER
    }
