"""Unified sweep engine: grid expansion and pluggable backends.

Every experiment driver regenerates its table/figure by evaluating a grid of
operating points — benchmark × voltage × temperature × correction mode (or a
driver-specific axis such as fault rate or hidden width).  The engine gives
all nine drivers one execution model:

* :func:`expand_grid` turns axis values into an ordered list of
  :class:`SweepTask` records, each carrying a per-task seed derived from the
  root seed with :meth:`numpy.random.SeedSequence.spawn` — tasks are
  statistically independent and their seeds do not depend on how the grid is
  later scheduled;
* :class:`SweepRunner` executes a task list on a pluggable
  :class:`SweepBackend`.  Results are bit-identical across backends because
  workers receive exactly (shared payload, task) and derive all randomness
  from the task seed.

Backends
--------
Execution is delegated to a :class:`SweepBackend`:

* :class:`SerialBackend` — in-process, lazy: each task runs when its result
  is consumed, so streaming consumers drive the sweep one task at a time.
* ``QueueBackend`` (:mod:`repro.experiments.queue`) — worker processes
  claiming from a shared-directory task queue: lease-based claims,
  heartbeat renewal, work-stealing re-execution of dead workers' tasks,
  and poison quarantine.  It is also how several hosts split one grid:
  each runs the same sweep against one shared store, and their fleets
  claim from one queue directory.  See :doc:`docs/robustness`.

``SweepRunner(backend=...)`` accepts a backend name or instance; ``None``
falls back to ``$REPRO_SWEEP_BACKEND``.  A runner that chose neither runs
one worker in process and more than one on the queue.  That queue
publishes through the runner's store when the sweep is named
(``sweep_label``, as every driver CLI names it) and the store is enabled;
otherwise it gets a private temporary store, deleted when the sweep ends,
so it recalls nothing across runs.  A queue chosen by name or instance
keeps its publish/lease/resume semantics even at one worker and refuses a
disabled store.  ``parallel=False`` (sweeps whose points share mutable
state — the Fig. 12 temperature schedule walks one chip through a chamber)
always runs in process, in order.  The worker count defaults to
``$REPRO_SWEEP_WORKERS`` or the CPU count.

Robustness
----------
``SweepRunner(retries=..., task_timeout=..., backoff=...)`` is the queue's
failure policy.  A failed task is requeued with exponential backoff and
deterministic jitter (:func:`retry_delay`) and quarantined as
:class:`QuarantinedTask` once the budget is spent; ``task_timeout`` is the
lease's hard deadline, past which a hung task is stolen and requeued; a
worker killed by signal (SIGKILL, OOM) stops renewing its lease, and its
task runs again on a surviving worker.  The serial backend attempts each
task once and raises.

Streaming
---------
:meth:`SweepRunner.submit` returns a :class:`SweepExecution` handle whose
:meth:`~SweepExecution.as_completed` yields ``(task, result)`` pairs as they
land, so long sweeps stream partial results and drivers can render tables
incrementally.  :meth:`SweepRunner.map` is the ordered convenience built on
top of it (collect everything, return in task order).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .cache import ArtifactCache, cache_digest, default_cache

__all__ = [
    "SweepTask",
    "SweepRunner",
    "SweepExecution",
    "SweepBackend",
    "SerialBackend",
    "QuarantinedTask",
    "expand_grid",
    "resolve_backend",
    "retry_delay",
    "store_label",
    "task_digest",
    "worker_identity",
]

_ENV_WORKERS = "REPRO_SWEEP_WORKERS"
_ENV_BACKEND = "REPRO_SWEEP_BACKEND"

#: Names accepted by ``SweepRunner(backend=...)`` and ``$REPRO_SWEEP_BACKEND``.
BACKEND_NAMES = ("serial", "queue")

#: Default base delay (seconds) between retry attempts; see :func:`retry_delay`.
DEFAULT_BACKOFF = 0.5


@dataclass(frozen=True)
class SweepTask:
    """One grid point of a sweep.

    The generic axes cover the common experiment grids; driver-specific axes
    ride in ``params`` (a sorted tuple of key/value pairs so tasks stay
    hashable and picklable).  ``seed`` is the task's private seed, already
    derived from the sweep root; workers must draw every random decision from
    it (e.g. ``np.random.default_rng(task.seed)``).
    """

    index: int
    seed: int
    benchmark: str | None = None
    voltage: float | None = None
    temperature: float | None = None
    mode: str | None = None
    params: tuple[tuple[str, Any], ...] = ()

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def describe(self) -> str:
        """Compact one-line rendering of the task's non-empty axes."""
        parts = []
        for name in ("benchmark", "voltage", "temperature", "mode"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        parts.extend(f"{key}={value}" for key, value in self.params)
        return " ".join(parts) or f"task #{self.index}"


def expand_grid(
    benchmarks: Sequence[str | None] = (None,),
    voltages: Sequence[float | None] = (None,),
    temperatures: Sequence[float | None] = (None,),
    modes: Sequence[str | None] = (None,),
    seed: int | None = 0,
    params: Iterable[dict[str, Any]] | None = None,
) -> list[SweepTask]:
    """Expand axes into an ordered task list with independent per-task seeds.

    The cartesian product iterates benchmarks outermost and modes innermost
    (matching the serial loops the drivers used historically).  ``params``
    optionally replaces the generic axes entirely: each dict becomes one task
    (useful for driver-specific grids such as Fig. 5's fault rates).
    """
    combos: list[dict[str, Any]]
    if params is not None:
        combos = [dict(p) for p in params]
    else:
        combos = [
            {"benchmark": b, "voltage": v, "temperature": t, "mode": m}
            for b in benchmarks
            for v in voltages
            for t in temperatures
            for m in modes
        ]
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(combos)) if combos else []
    tasks = []
    for index, (combo, child) in enumerate(zip(combos, children)):
        fields = {"benchmark", "voltage", "temperature", "mode"}
        base = {k: combo.get(k) for k in fields}
        extra = tuple(sorted((k, v) for k, v in combo.items() if k not in fields))
        tasks.append(
            SweepTask(
                index=index,
                # full 128 bits of the spawned sequence's entropy: truncating
                # to one word would re-introduce birthday collisions between
                # large grids' task seeds
                seed=int.from_bytes(
                    child.generate_state(4, dtype=np.uint32).tobytes(), "little"
                ),
                params=extra,
                **base,
            )
        )
    return tasks


# -------------------------------------------------------------- task digests


def _digest_safe(value: Any) -> Any:
    """Coerce a task-parameter value into a canonical, cache-hashable form.

    Unordered containers are sorted into a deterministic order and anything
    without a canonical encoding is rejected outright: a ``repr`` fallback
    would hash hash-randomized set ordering or memory addresses, silently
    breaking the cross-host stability that queue task names depend on.
    """
    if value is None or isinstance(
        value, (bool, np.bool_, int, np.integer, float, np.floating, str)
    ):
        return value
    if isinstance(value, np.ndarray):
        # object arrays hash element memory addresses and structured (void)
        # arrays can carry undefined padding bytes — neither survives a
        # process boundary, let alone a host boundary
        if value.dtype.hasobject or value.dtype.kind == "V":
            raise TypeError(
                f"task parameter array with dtype {value.dtype} has no "
                "canonical digest encoding; use numeric/boolean/string dtypes"
            )
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_digest_safe(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_digest_safe(item) for item in value), key=repr))
    if isinstance(value, dict):
        return {str(key): _digest_safe(item) for key, item in value.items()}
    raise TypeError(
        f"task parameter {value!r} has no canonical digest encoding; use "
        "scalars, strings, arrays, lists/tuples, sets, or dicts of those"
    )


def task_digest(task: SweepTask) -> str:
    """Stable content hash of a task's payload (independent of grid position).

    Hashes the axes, driver params, and the per-task seed — never ``index``
    — so a task keeps its digest (and therefore its queue task file and its
    slot in the result store) when the task list is reordered.  The
    seed keeps otherwise-identical grid points distinct, because they draw
    different randomness and may legitimately produce different results.
    """
    return cache_digest(
        {
            "benchmark": task.benchmark,
            "voltage": task.voltage,
            "temperature": task.temperature,
            "mode": task.mode,
            "params": _digest_safe(task.params),
            "seed": int(task.seed),
        }
    )


# ---------------------------------------------------------------- robustness


def retry_delay(
    backoff: float, digest: str, attempt: int, cap: float = 60.0
) -> float:
    """Delay before re-attempting a failed task: exponential + jitter, capped.

    ``backoff * 2**(attempt-1)`` doubles per attempt; the jitter factor in
    ``[0.5, 1.5)`` is drawn deterministically from ``sha256(digest:attempt)``
    rather than a live RNG, so retry schedules are reproducible run-to-run
    (chaos tests can assert on them) while still de-synchronizing tasks that
    failed together — e.g. every task a dead worker held when its lease
    expired.
    """
    base = float(backoff) * (2.0 ** max(0, int(attempt) - 1))
    token = hashlib.sha256(f"{digest}:{int(attempt)}".encode()).digest()
    fraction = int.from_bytes(token[:8], "big") / float(1 << 64)
    return min(float(cap), base * (0.5 + fraction))


@dataclass(frozen=True)
class QuarantinedTask:
    """A task withdrawn from the sweep after exhausting its retry budget.

    The queue backend yields this *in place of* the task's result (and
    records it in the poison store), so a sweep with a poison task completes
    with an inspectable report instead of deadlocking or tearing down the
    whole grid.  Callers that must not silently consume one can check
    ``getattr(value, "is_quarantined", False)`` — true only for this type —
    without importing the engine.
    """

    task: SweepTask | None
    digest: str
    attempts: int
    errors: tuple[str, ...] = ()

    is_quarantined = True

    def describe(self) -> str:
        what = self.task.describe() if self.task is not None else self.digest[:12]
        last = f": {self.errors[-1]}" if self.errors else ""
        return f"quarantined after {self.attempts} attempt(s) — {what}{last}"


def worker_identity(fn: Callable[..., Any]) -> str:
    """Qualified name of the worker function: the store keys' worker axis."""
    return f"{fn.__module__}.{getattr(fn, '__qualname__', fn.__name__)}"


def store_label(sweep_label: str, shared: Any) -> str:
    """The store namespace for a sweep: label + shared-payload digest.

    The task digest covers only the task's own payload; the shared payload
    configures the sweep too (e.g. fig9a's ``num_words``), so it must reach
    the store key or two different configurations of one worker over one
    grid would silently recall each other's results.  When the shared
    payload has no canonical digest (it carries live objects), the caller
    must vouch for the configuration with a non-empty ``sweep_label``.
    """
    try:
        shared_digest = cache_digest({"shared": _digest_safe(shared)})
    except TypeError:
        shared_digest = None
    if shared_digest is None and not sweep_label:
        raise ValueError(
            "this sweep's shared payload has no canonical digest, so the "
            "result store cannot distinguish configurations by content; pass "
            "a sweep_label= that uniquely identifies this configuration"
        )
    if shared_digest is None:
        return sweep_label
    return f"{sweep_label}#{shared_digest[:16]}"


# ------------------------------------------------------------------ backends


@runtime_checkable
class SweepBackend(Protocol):
    """Executes a task list, yielding ``(position, result)`` as tasks finish.

    ``position`` indexes into the submitted task list (not ``task.index``,
    which is grid-global); completion order is backend-dependent and
    callers must not rely on it.
    """

    name: str

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: Sequence[SweepTask],
        workers: int,
    ) -> Iterator[tuple[int, Any]]: ...


class SerialBackend:
    """In-process, in-order execution; lazy, so consumers drive the sweep."""

    name = "serial"

    def submit(self, fn, shared, tasks, workers):
        return ((position, fn(shared, task)) for position, task in enumerate(tasks))


def resolve_backend(spec: str | SweepBackend | None) -> SweepBackend:
    """Turn a backend name/instance into a backend, honouring the env override.

    ``None`` resolves ``$REPRO_SWEEP_BACKEND`` and defaults to ``"queue"``.
    """
    if spec is None:
        spec = os.environ.get(_ENV_BACKEND, "").strip() or "queue"
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialBackend()
        if name == "queue":
            # local import: the queue module builds on the engine's tasks,
            # digests, and retry policy, so the dependency points that way
            from .queue import QueueBackend

            return QueueBackend()
        raise ValueError(
            f"unknown sweep backend {spec!r} (expected one of {BACKEND_NAMES})"
        )
    return spec


def _default_workers() -> int:
    env = os.environ.get(_ENV_WORKERS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


# -------------------------------------------------------------------- runner


class SweepExecution:
    """Handle over an in-flight sweep submission (one-shot).

    Either iterate :meth:`as_completed` to stream ``(task, result)`` pairs as
    they land, or call :meth:`results` to block for the ordered list.  The
    underlying result stream can be consumed once; mixing the two on one
    handle continues the same stream.
    """

    def __init__(
        self,
        tasks: Sequence[SweepTask],
        stream: Iterator[tuple[int, Any]],
        progress: Callable[[SweepTask, Any, int, int], None] | None = None,
        on_result: Callable[[], None] | None = None,
    ):
        self.tasks = list(tasks)
        self._stream = stream
        self._progress = progress
        self._on_result = on_result
        self._completed: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self.tasks)

    def _advance(self) -> Iterator[tuple[int, Any]]:
        try:
            for position, value in self._stream:
                self._completed[position] = value
                if self._on_result is not None:
                    self._on_result()
                if self._progress is not None:
                    self._progress(
                        self.tasks[position], value, len(self._completed), len(self.tasks)
                    )
                yield position, value
        except BaseException:
            # the error (or a caller abandoning as_completed mid-iteration)
            # must release backend resources — worker fleets, heartbeat
            # threads — not leave them to a GC-timed finalizer
            self.close()
            raise

    def as_completed(self) -> Iterator[tuple[SweepTask, Any]]:
        """Yield ``(task, result)`` pairs in completion order."""
        for position, value in self._advance():
            yield self.tasks[position], value

    def results(self) -> list[Any]:
        """Block until every task finished; return results in task order."""
        for _ in self._advance():
            pass
        return [self._completed[position] for position in range(len(self.tasks))]

    def close(self) -> None:
        """Abandon the submission without consuming the remaining results.

        The backend stream's cleanup runs: the queue backend stops its
        workers and leaves every already-published result in its store —
        resubmitting the same sweep later resumes from there, unless the
        store was a private one.  Chaos tests use this to simulate a coordinator killed
        mid-sweep.
        """
        close = getattr(self._stream, "close", None)
        if close is not None:
            close()


@dataclass
class SweepRunner:
    """Execute sweep tasks on a pluggable, deterministic backend.

    Parameters
    ----------
    workers:
        Worker processes.  ``None`` → ``$REPRO_SWEEP_WORKERS`` or CPU
        count.  1 (or a single-CPU host) takes the in-process path unless
        the queue was chosen by name or instance.
    parallel:
        Master switch; ``False`` forces in-process serial execution
        regardless of ``workers``/``backend`` (used by sweeps whose points
        share mutable state).
    backend:
        Backend name (``"serial"``/``"queue"``) or :class:`SweepBackend`
        instance.  ``None`` → ``$REPRO_SWEEP_BACKEND``, and without it one
        worker runs in process and more than one on the queue (see the
        module docstring for the store such a queue publishes through).
    store:
        Artifact cache the queue backend publishes task results through
        (``None`` → the default cache).
    sweep_label:
        Namespace for published results.  Runs that should recall each
        other's results must use the same label; runs with different
        configurations (different grids, worker functions aside) must not
        share one.
    progress:
        Optional ``(task, result, done, total)`` callback invoked as each
        task completes — lets CLIs render tables incrementally.  On the
        queue backend, results recalled from the store count too.
    retries:
        Queue backend: failed-task retry budget, so a task is attempted at
        most ``retries+1`` times and then quarantined.  ``None`` → the
        queue's default of 2.  The serial backend attempts each task once
        and raises.
    task_timeout:
        Queue backend: per-task hang bound in seconds, the lease's hard
        deadline after which the task is stolen and requeued.  The serial
        backend cannot preempt a running task and ignores it.
    backoff:
        Queue backend: base delay between retry attempts (:func:`retry_delay`
        grows it exponentially with deterministic jitter).  ``None`` →
        :data:`DEFAULT_BACKOFF`.
    """

    workers: int | None = None
    parallel: bool = True
    backend: str | SweepBackend | None = None
    store: ArtifactCache | None = None
    sweep_label: str = ""
    progress: Callable[[SweepTask, Any, int, int], None] | None = None
    retries: int | None = None
    task_timeout: float | None = None
    backoff: float | None = None
    #: number of tasks executed through this runner (all backends)
    tasks_run: int = field(default=0, init=False)

    def effective_workers(self, num_tasks: int) -> int:
        if not self.parallel or num_tasks <= 1:
            return 1
        workers = self.workers if self.workers is not None else _default_workers()
        return max(1, min(int(workers), num_tasks))

    def _stream(
        self, fn: Callable[[Any, SweepTask], Any], shared: Any, tasks: list[SweepTask]
    ) -> Iterator[tuple[int, Any]]:
        chosen = self.backend
        if chosen is None:
            chosen = os.environ.get(_ENV_BACKEND, "").strip() or None
        # resolve before the single-worker short-circuit so an invalid
        # backend name (or $REPRO_SWEEP_BACKEND) fails everywhere, not just
        # on multicore hosts with multi-task grids
        backend = resolve_backend(chosen) if chosen is not None else None
        if getattr(backend, "queue_semantics", False) and self.parallel:
            # never downgrade a chosen queue to the in-process path: its
            # publish/lease/resume semantics are the point even at 1 worker
            # (parallel=False still wins — stateful sweeps must stay serial)
            backend.configure_from_runner(self)
            requested = self.workers if self.workers is not None else _default_workers()
            return backend.submit(fn, shared, tasks, max(1, min(int(requested), len(tasks))))
        workers = self.effective_workers(len(tasks))
        if workers == 1:
            return SerialBackend().submit(fn, shared, tasks, 1)
        if backend is None:
            return self._unchosen_queue(fn, shared, tasks, workers)
        return backend.submit(fn, shared, tasks, workers)

    def _unchosen_queue(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: list[SweepTask],
        workers: int,
    ) -> Iterator[tuple[int, Any]]:
        """The queue a runner that chose no backend runs its workers on.

        A named sweep publishes through the runner's store if it is enabled;
        any other gets a private temporary store, deleted with the sweep.
        """
        from .queue import QueueBackend

        store = self.store if self.store is not None else default_cache()
        private = None
        if self.sweep_label and store.enabled:
            backend = QueueBackend()
        else:
            private = tempfile.mkdtemp(prefix="repro-sweep-")
            # a private store holds this run alone: any label names it
            backend = QueueBackend(store=ArtifactCache(root=private), sweep_label="private")
        try:
            backend.configure_from_runner(self)
            yield from backend.submit(fn, shared, tasks, workers)
        finally:
            if private is not None:
                shutil.rmtree(private, ignore_errors=True)

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        tasks: Sequence[SweepTask],
        shared: Any = None,
    ) -> SweepExecution:
        """Start ``fn(shared, task)`` for every task; return a streaming handle."""
        tasks = list(tasks)
        stream = self._stream(fn, shared, tasks)

        def count() -> None:
            # count at result time, not submission time: the backend streams
            # are lazy, so an abandoned execution must not inflate tasks_run
            self.tasks_run += 1

        return SweepExecution(tasks, stream, progress=self.progress, on_result=count)

    def map(
        self,
        fn: Callable[[Any, SweepTask], Any],
        tasks: Sequence[SweepTask],
        shared: Any = None,
    ) -> list[Any]:
        """Run ``fn(shared, task)`` for every task; results in task order."""
        return self.submit(fn, tasks, shared=shared).results()
