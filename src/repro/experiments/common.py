"""Shared infrastructure for the experiment drivers.

Every driver in :mod:`repro.experiments` regenerates one table or figure of
the paper's evaluation.  They share a few needs: preparing a benchmark
(dataset, split, pre-trained float baseline), deploying models onto chip
instances, and rendering result tables as plain text that the benchmark
harness prints next to the paper's reported values.

Caching
-------
Preparing a benchmark trains a 40–60-epoch float baseline, and several
drivers would otherwise retrain identical baselines.  All heavyweight
artifacts are memoized through the content-addressed
:class:`~repro.experiments.cache.ArtifactCache` (see that module for the
on-disk layout): :func:`prepare_benchmark` caches the full prepared
benchmark, :func:`train_cached` caches plain :class:`~repro.nn.trainer.Trainer`
fits (Fig. 9b's topology sweep), and :func:`default_flow` wires the cache
into the MATIC flow so memory-adaptive fine-tuning — the dominant cost of the
voltage sweeps — trains each (initial weights, mask set, hyper-parameters)
combination exactly once across the whole suite.

Execution
---------
Grid-shaped drivers expand their operating points with
:func:`~repro.experiments.engine.expand_grid` and execute them through a
:class:`~repro.experiments.engine.SweepRunner` (serial or queue backend;
see the engine module docstring for the worker model).  Drivers accept a
``runner`` argument so callers can share one backend configuration across
experiments.

Command line
------------
Every driver module is runnable (``python -m repro.experiments.<driver>``)
and shares one execution vocabulary, wired through
:func:`experiment_parser` / :func:`run_experiment_cli`:

* ``--workers N`` / ``--backend {serial,queue}`` pick the execution
  backend (defaults honour ``$REPRO_SWEEP_WORKERS`` /
  ``$REPRO_SWEEP_BACKEND``; without either, more than one worker runs on
  the queue and publishes through ``--cache-dir``); hosts that run the same
  CLI with ``--backend queue`` and one shared ``--cache-dir`` split its
  grid between them, and each prints the full table;
* ``--stream`` prints each grid point as it completes (the engine's
  ``as_completed`` channel) instead of only the final table;
* ``--retries/--task-timeout/--backoff`` configure the queue's lease
  policy (a serial run attempts each task once; see
  ``docs/robustness.md``).
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass, field, replace
from importlib import import_module
from importlib.machinery import ModuleSpec
from typing import Any, Callable, Iterable

import numpy as np

from ..accelerator.soc import Snnac, SnnacConfig
from ..datasets.registry import BenchmarkSpec, get_benchmark
from ..matic.flow import MaticFlow, TrainingConfig
from ..nn.data import Dataset
from ..nn.network import Network
from ..nn.trainer import Trainer, TrainingHistory
from ..sram.variation import VariationScenario
from .cache import ArtifactCache, cache_digest, default_cache
from .engine import BACKEND_NAMES, SweepRunner, SweepTask

__all__ = [
    "PreparedBenchmark",
    "prepare_benchmark",
    "train_cached",
    "default_flow",
    "make_chip",
    "format_table",
    "ExperimentResult",
    "dataset_key",
    "experiment_parser",
    "runner_from_args",
    "run_experiment_cli",
]


@dataclass
class PreparedBenchmark:
    """A benchmark with its data split and trained float baseline."""

    spec: BenchmarkSpec
    train: Dataset
    test: Dataset
    baseline: Network
    baseline_error: float

    @property
    def name(self) -> str:
        return self.spec.name


#: Per-benchmark baseline training settings (tuned once; see DESIGN.md).
#: Weight decay keeps the trained weight range tight so the fixed-point
#: format (and therefore the worst-case impact of a stuck bit) stays small.
_BASELINE_TRAINING = {
    "mnist": {"learning_rate": 0.2, "epochs": 60, "weight_decay": 2.0e-4},
    "facedet": {"learning_rate": 0.2, "epochs": 40, "weight_decay": 2.0e-4},
    "inversek2j": {"learning_rate": 0.3, "epochs": 60, "weight_decay": 1.0e-4},
    "bscholes": {"learning_rate": 0.3, "epochs": 60, "weight_decay": 1.0e-4},
}

#: Default baseline settings for procedural ``synth/`` workloads: fewer
#: epochs than the paper benchmarks (the synthetic tasks converge quickly,
#: and deep/wide specs make each epoch much more expensive).
_SYNTH_TRAINING = {"learning_rate": 0.2, "epochs": 30, "weight_decay": 1.0e-4}


def dataset_key(dataset: Dataset) -> dict:
    """Content key of a dataset (used to address trained-weight artifacts)."""
    return {
        "inputs": dataset.inputs,
        "targets": dataset.targets,
        "labels": dataset.labels if dataset.labels is not None else "none",
    }


def prepare_benchmark(
    name: str,
    num_samples: int | None = None,
    seed: int = 1,
    epochs: int | None = None,
    cache: ArtifactCache | None = None,
) -> PreparedBenchmark:
    """Generate data, split it, and train the float baseline for a benchmark.

    The result is memoized in the artifact cache under
    ``(benchmark, seed, num_samples, epochs, training settings)`` so each
    baseline is trained exactly once across the whole suite — including
    across processes and sessions.
    """
    cache = cache if cache is not None else default_cache()
    spec = get_benchmark(name)
    fallback = (
        _SYNTH_TRAINING
        if spec.name.startswith("synth/")
        else {"learning_rate": 0.2, "epochs": 50, "weight_decay": 2.0e-4}
    )
    settings = dict(_BASELINE_TRAINING.get(name, fallback))
    if epochs is not None:
        settings["epochs"] = epochs
    key = {
        "benchmark": str(name).lower(),
        # the full spec parameterization, so procedural workloads (whose
        # name alone does not pin the generator arguments or topology)
        # memoize content-addressed exactly like the paper benchmarks
        "spec": spec.spec_key(),
        "num_samples": num_samples if num_samples is not None else "default",
        "seed": int(seed),
        "settings": settings,
    }

    def build() -> PreparedBenchmark:
        dataset = spec.generate(num_samples=num_samples, seed=seed)
        train, test = spec.split(dataset, seed=seed + 1)
        baseline = spec.build_network(seed=seed + 2)
        trainer = Trainer(
            baseline,
            optimizer="momentum",
            learning_rate=settings["learning_rate"],
            epochs=settings["epochs"],
            weight_decay=settings.get("weight_decay", 0.0),
            batch_size=16,
            seed=seed + 3,
        )
        trainer.fit(train)
        error = spec.error(baseline.predict(test.inputs), test)
        return PreparedBenchmark(
            spec=spec, train=train, test=test, baseline=baseline, baseline_error=error
        )

    return cache.get_or_create("prepared-benchmark", key, build)


def train_cached(
    network: Network,
    train: Dataset,
    *,
    optimizer: str = "momentum",
    learning_rate: float = 0.2,
    epochs: int = 50,
    batch_size: int = 16,
    seed: int | None = 0,
    weight_decay: float = 0.0,
    lr_decay: float = 1.0,
    patience: int | None = None,
    cache: ArtifactCache | None = None,
) -> TrainingHistory | None:
    """Fit ``network`` in place, memoizing the trained weights.

    The cache key hashes the initial weights, the dataset, and every
    hyper-parameter, so a hit is guaranteed to reproduce the fit bit-exactly.
    Returns the training history, or ``None`` on a cache hit (the history is
    not part of the cached artifact).
    """
    cache = cache if cache is not None else default_cache()
    key = {
        "initial": network.get_weights(),
        # identically initialized networks can differ only in structure:
        # the objective and activations must keep artifacts apart
        "network": network.structure_key(),
        "dataset": dataset_key(train),
        "optimizer": optimizer,
        "learning_rate": float(learning_rate),
        "epochs": int(epochs),
        "batch_size": int(batch_size),
        "seed": seed if seed is not None else "none",
        "weight_decay": float(weight_decay),
        "lr_decay": float(lr_decay),
        "patience": patience if patience is not None else "none",
    }
    cached = cache.get("trained-weights", key)
    if cached is not None:
        network.set_weights(cached)
        return None
    history = Trainer(
        network,
        optimizer=optimizer,
        learning_rate=learning_rate,
        epochs=epochs,
        batch_size=batch_size,
        seed=seed,
        weight_decay=weight_decay,
        lr_decay=lr_decay,
        patience=patience,
    ).fit(train)
    cache.put("trained-weights", key, network.get_weights())
    return history


def default_flow(
    epochs: int = 60, seed: int = 0, cache: ArtifactCache | None = None
) -> MaticFlow:
    """The MATIC flow configuration used by the evaluation drivers.

    The artifact cache is attached as the flow's training cache, so
    memory-adaptive fine-tuning is memoized on (initial weights, injection
    masks, dataset, hyper-parameters).
    """
    return MaticFlow(
        word_bits=16,
        frac_bits=None,
        training=TrainingConfig(
            epochs=epochs, learning_rate=0.15, lr_decay=0.95, batch_size=32, seed=seed
        ),
        training_cache=cache if cache is not None else default_cache(),
    )


def make_chip(
    seed: int = 11,
    words_per_bank: int = 512,
    num_pes: int = 8,
    config: SnnacConfig | None = None,
    scenario: VariationScenario | None = None,
) -> Snnac:
    """A fresh SNNAC chip instance (its own sampled SRAM variation).

    ``config`` overrides the individual geometry arguments entirely (the
    seed is still applied on top so sweep workers can derive per-task chips
    from one shared configuration).  ``scenario`` threads a
    :class:`~repro.sram.variation.VariationScenario` (correlated sampling,
    process corner) into the instance.
    """
    if config is not None:
        config = replace(config, seed=seed)
    else:
        config = SnnacConfig(seed=seed, words_per_bank=words_per_bank, num_pes=num_pes)
    return Snnac(config, scenario=scenario)


def format_table(
    headers: list[str],
    rows: list[list[str]],
    title: str = "",
) -> str:
    """Render a simple fixed-width text table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("all rows must have the same number of columns as headers")
    widths = [
        max(len(str(headers[col])), *(len(str(row[col])) for row in rows)) if rows else len(str(headers[col]))
        for col in range(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def partition_quarantined(values: Iterable[Any]) -> tuple[list[Any], list[Any]]:
    """Split merged sweep results into (clean, quarantined) lists.

    Merged sweeps may contain :class:`~repro.experiments.engine.QuarantinedTask`
    sentinels in place of results — the queue backend emits them once a
    task's retry budget is spent, or recalls them from the poison store.
    Every driver's assembly path runs its ``runner.map``
    output through this helper so a poisoned task degrades to a marked
    ``QUARANTINED`` table row instead of an ``AttributeError`` mid-render.
    """
    clean: list[Any] = []
    quarantined: list[Any] = []
    for value in values:
        if getattr(value, "is_quarantined", False):
            quarantined.append(value)
        else:
            clean.append(value)
    return clean, quarantined


def quarantine_notes(quarantined: Iterable[Any]) -> list[str]:
    """The ``describe()`` strings an :class:`ExperimentResult` renders."""
    return [sentinel.describe() for sentinel in quarantined]


@dataclass
class ExperimentResult:
    """Generic container returned by experiment drivers.

    ``rows`` holds the regenerated table/series; ``paper_reference`` holds
    the corresponding numbers reported in the paper (when the paper states
    them), so the benchmark output can show both side by side.
    ``quarantined`` carries the ``describe()`` strings of any
    :class:`~repro.experiments.engine.QuarantinedTask` sentinels the driver
    received in place of results; each renders as a marked ``QUARANTINED``
    row plus a summary count, and makes the CLI exit nonzero.
    """

    experiment: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)
    paper_reference: dict[str, float | str] = field(default_factory=dict)
    notes: str = ""
    quarantined: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        rows = list(self.rows)
        for description in self.quarantined:
            marker = ["QUARANTINED", description]
            marker += ["-"] * (len(self.headers) - len(marker))
            rows.append(marker[: len(self.headers)])
        text = format_table(self.headers, rows, title=self.experiment)
        if self.quarantined:
            count = len(self.quarantined)
            text += (
                f"\n\nWARNING: {count} task(s) quarantined — the rows marked "
                "QUARANTINED were not computed. Re-run with a higher --retries "
                "budget (or inspect the errors above) to fill them in."
            )
        if self.paper_reference:
            reference_lines = [
                f"  {key}: {value}" for key, value in self.paper_reference.items()
            ]
            text += "\n\npaper reference:\n" + "\n".join(reference_lines)
        if self.notes:
            text += f"\n\n{self.notes}"
        return text

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


# ----------------------------------------------------------------- CLI layer


#: argparse destinations that select *how* a sweep executes rather than what
#: it computes.  They are excluded from the result-store namespace so any mix
#: of hosts, backends, worker counts, and failure policies over one
#: configuration recalls the same results (a retried result is still the
#: same result).
_EXECUTION_ARGS = frozenset(
    {
        "workers",
        "backend",
        "stream",
        "cache_dir",
        "retries",
        "task_timeout",
        "backoff",
    }
)


def _checked(
    convert: Callable[[str], Any], accept: Callable[[Any], bool], requirement: str
) -> Callable[[str], Any]:
    """An argparse ``type=`` that converts a flag value, then range-checks it.

    A rejected value makes argparse exit with status 2 and an error naming
    the flag, before any sweep starts.
    """

    def parse(text: str) -> Any:
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")

    return parse


def experiment_parser(prog: str, description: str) -> argparse.ArgumentParser:
    """An argument parser pre-loaded with the shared sweep-execution flags.

    Drivers add their own grid arguments on top; every experiment CLI
    therefore accepts the same ``--workers/--backend/--stream``
    vocabulary.  ``--workers`` must be at least 1, ``--retries`` at least 0,
    ``--backoff`` finite and at least 0, and ``--task-timeout`` finite and
    above 0.
    """
    parser = argparse.ArgumentParser(prog=prog, description=description)
    group = parser.add_argument_group("sweep execution")
    group.add_argument(
        "--workers",
        type=_checked(int, lambda n: n >= 1, "an integer >= 1"),
        default=None,
        help="worker processes (default: $REPRO_SWEEP_WORKERS or CPU count)",
    )
    group.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend (default: $REPRO_SWEEP_BACKEND, else the "
        "queue for more than one worker and serial for one)",
    )
    group.add_argument(
        "--stream",
        action="store_true",
        help="print each grid point as it completes (incremental rendering)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-matic)",
    )
    group.add_argument(
        "--retries",
        type=_checked(int, lambda n: n >= 0, "an integer >= 0"),
        default=None,
        metavar="N",
        help="queue backend: attempt each task at most N+1 times, requeued "
        "with backoff, then quarantine it (default: 2). a serial run "
        "attempts each task once and raises",
    )
    group.add_argument(
        "--task-timeout",
        type=_checked(float, lambda s: math.isfinite(s) and s > 0, "finite and > 0"),
        default=None,
        metavar="SECONDS",
        help="queue backend: per-task hang bound, the hard lease deadline "
        "after which the task is stolen and requeued. the serial backend "
        "cannot preempt a task and ignores it",
    )
    group.add_argument(
        "--backoff",
        type=_checked(float, lambda s: math.isfinite(s) and s >= 0, "finite and >= 0"),
        default=None,
        metavar="SECONDS",
        help="queue backend: base delay between retry attempts; doubles per "
        "attempt with deterministic per-task jitter (default: 0.5)",
    )
    return parser


def _stream_progress(task: SweepTask, result: Any, done: int, total: int) -> None:
    print(f"[{done}/{total}] {task.describe()}", flush=True)


def runner_from_args(
    args: argparse.Namespace, sweep: str
) -> tuple[SweepRunner, ArtifactCache]:
    """Build the (runner, cache) pair an experiment CLI hands to its driver.

    The result-store label combines the sweep name with a digest of every
    non-execution argument, so a run recalls only the results of runs of
    the *same* configuration — change a grid axis or a seed and the label
    changes with it, keeping stale results out.
    """
    cache = (
        ArtifactCache(root=args.cache_dir)
        if getattr(args, "cache_dir", None)
        else default_cache()
    )
    config = {
        key: repr(value)
        for key, value in sorted(vars(args).items())
        if key not in _EXECUTION_ARGS
    }
    label = f"{sweep}:{cache_digest(config)[:16]}"
    runner = SweepRunner(
        workers=args.workers,
        backend=args.backend,
        store=cache,
        sweep_label=label,
        progress=_stream_progress if args.stream else None,
        retries=getattr(args, "retries", None),
        task_timeout=getattr(args, "task_timeout", None),
        backoff=getattr(args, "backoff", None),
    )
    return runner, cache


def run_experiment_cli(
    args: argparse.Namespace,
    sweep: str,
    invoke: Callable[[SweepRunner, ArtifactCache], Any],
) -> int:
    """Shared experiment-CLI main body: build the runner, run, render, print.

    ``invoke(runner, cache)`` returns the driver's result object; rendering
    (``.to_experiment_result().to_text()``) happens here, once, so output
    policy changes land in every driver CLI simultaneously.

    A merged result that carries quarantined tasks still prints the full
    table — every healthy row plus one marked ``QUARANTINED`` row per
    sentinel — but exits with status 1 so scripted callers notice the sweep
    was degraded.
    """
    runner, cache = runner_from_args(args, sweep)
    result = invoke(runner, cache)
    rendered = result.to_experiment_result()
    print(rendered.to_text())
    if rendered.quarantined:
        print(
            f"\n{len(rendered.quarantined)} quarantined task(s); exiting nonzero",
            flush=True,
        )
        return 1
    return 0


def dispatch_canonical_main(spec: ModuleSpec) -> int:
    """Entry shim for a driver's ``if __name__ == "__main__"`` block.

    ``runpy`` executes ``python -m repro.experiments.<driver>`` as a module
    named ``__main__``, so workers defined in that copy would carry
    ``__module__ == '__main__'`` and publish results under a namespace that
    no other coordinator or programmatic run of the same sweep recalls.
    Re-importing the canonical module (``__spec__.name`` survives runpy) and
    running *its* ``main()`` keeps every worker on the canonical import path.
    """
    return import_module(spec.name).main()


def fmt(value: float | None, digits: int = 3) -> str:
    """Format a float for table cells; ``None`` (missing datum) renders "-"."""
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def fmt_percent(value: float | None, digits: int = 1) -> str:
    """Format a fraction as a percentage string; ``None`` renders "-"."""
    if value is None:
        return "-"
    return f"{100.0 * value:.{digits}f}%"
