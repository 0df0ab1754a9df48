"""Unified sweep engine: grid expansion, pluggable backends, sharding.

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
* :class:`ProcessBackend` — the ``multiprocessing`` pool.  The shared
  payload is pickled once per worker (pool initializer) and the small task
  records are streamed; ``fn`` must be a module-level callable of
  ``(shared, task)`` so it can be pickled under any start method.
* ``QueueBackend`` (:mod:`repro.experiments.queue`) — the fault-tolerant
  elastic backend: a shared-directory task queue with lease-based claims,
  heartbeat renewal, work-stealing re-execution of dead workers' tasks, and
  poison quarantine.  See :doc:`docs/robustness`.

``SweepRunner(backend=...)`` accepts a backend name or instance; ``None``
falls back to ``$REPRO_SWEEP_BACKEND`` and finally to ``"process"``.  A
single worker (or ``parallel=False``, used by sweeps whose points
intentionally share mutable state — the Fig. 12 temperature schedule walks
one chip through a chamber) always takes the serial path, preserving
in-order, in-process execution — except on the queue backend, whose
publish/lease/resume semantics are the point even at one worker.  The
worker count defaults to ``$REPRO_SWEEP_WORKERS`` or the CPU count.

Robustness
----------
``SweepRunner(retries=..., task_timeout=..., backoff=...)`` configures the
failure policy.  Retries are honored on *every* backend: the queue backend
requeues failed tasks natively (with exponential backoff + deterministic
jitter, see :func:`retry_delay`, then quarantines them as
:class:`QuarantinedTask` once the budget is spent); the serial and process
backends wrap the worker in :class:`RetryingWorker`, which retries in place
and re-raises once the budget is spent.  ``task_timeout`` needs a
backend that can preempt a task, so it is honored by the queue backend (as
the lease's hard deadline) and the process backend (as a stall detector
raising :class:`TaskTimeoutError`); the serial backend document-ignores
it.  A process-pool worker killed by signal (SIGKILL, OOM) surfaces as
:class:`WorkerCrashedError` naming the in-flight tasks instead of an opaque
``BrokenProcessPool``.

Streaming
---------
:meth:`SweepRunner.submit` returns a :class:`SweepExecution` handle whose
:meth:`~SweepExecution.as_completed` yields ``(task, result)`` pairs as they
land, so long sweeps stream partial results and drivers can render tables
incrementally.  :meth:`SweepRunner.map` is the ordered convenience built on
top of it (collect everything, return in task order).

Sharding
--------
A :class:`ShardSpec` deterministically partitions a task list so N hosts can
split one grid: each task is assigned by a stable content hash of its
parameters (:func:`task_digest` — independent of list order and of the
task's position in the grid).  A sharded :meth:`SweepRunner.map` runs only
the shard-local slice, publishes every task result into the content-addressed
artifact cache, then merges the full grid back out of the cache; until the
other shards have published their slices it raises
:class:`ShardIncompleteError`.  The last shard to finish therefore returns
the complete, ordered result list — bit-identical to an unsharded run.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import multiprocessing
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import Any, Protocol, runtime_checkable

import numpy as np

from .cache import (
    ArtifactCache,
    POISON_KIND,
    SHARD_RESULT_KIND,
    cache_digest,
    collect_shard_results,
    default_cache,
    poison_key,
    shard_result_key,
)

__all__ = [
    "SweepTask",
    "SweepRunner",
    "SweepExecution",
    "SweepBackend",
    "SerialBackend",
    "ProcessBackend",
    "ShardSpec",
    "ShardIncompleteError",
    "QuarantinedTask",
    "RetryingWorker",
    "TaskTimeoutError",
    "WorkerCrashedError",
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
BACKEND_NAMES = ("serial", "process", "queue")

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

    def with_params(self, **extra: Any) -> "SweepTask":
        merged = dict(self.params)
        merged.update(extra)
        return replace(self, params=tuple(sorted(merged.items())))

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


# ------------------------------------------------------------------ sharding


def _digest_safe(value: Any) -> Any:
    """Coerce a task-parameter value into a canonical, cache-hashable form.

    Unordered containers are sorted into a deterministic order and anything
    without a canonical encoding is rejected outright: a ``repr`` fallback
    would hash hash-randomized set ordering or memory addresses, silently
    breaking the cross-host stability that shard assignment depends on.
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
    — so a task keeps its digest (and therefore its shard assignment and its
    slot in the shard result store) when the task list is reordered.  The
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


@dataclass(frozen=True)
class ShardSpec:
    """Deterministic ``index``-of-``count`` partition of a sweep grid.

    Assignment hashes each task's content (:func:`task_digest`), not its list
    position, so for any fixed ``count`` the shards are disjoint, cover the
    grid, and are stable under task-list reordering — N hosts can expand the
    same grid independently and agree on who owns what.
    """

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index {self.index} out of range for count {self.count}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse a CLI-style ``"i/n"`` spec (e.g. ``"0/2"``)."""
        parts = str(text).strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"shard spec must look like 'i/n', got {text!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError as error:
            raise ValueError(f"shard spec must look like 'i/n', got {text!r}") from error
        return cls(index=index, count=count)

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"

    def owns_digest(self, digest: str) -> bool:
        return int(digest[:16], 16) % self.count == self.index

    def owns(self, task: SweepTask) -> bool:
        """Whether this shard is responsible for executing ``task``."""
        return self.owns_digest(task_digest(task))

    def partition(self, tasks: Sequence[SweepTask]) -> list[SweepTask]:
        """The sub-list of ``tasks`` owned by this shard (original order)."""
        return [task for task in tasks if self.owns(task)]


class ShardIncompleteError(RuntimeError):
    """A sharded sweep merged, but other shards have not published yet.

    The shard-local slice *did* run and its results are in the artifact
    cache; re-running any shard after the missing ones have published
    returns the complete merged result list.
    """

    def __init__(self, shard: ShardSpec, completed: int, missing: list[SweepTask]):
        self.shard = shard
        self.completed = completed
        self.missing = missing
        super().__init__(
            f"shard {shard}: ran {completed} local task(s), but {len(missing)} of the "
            f"grid's tasks are not in the shard store yet — run the remaining shards, "
            f"then re-run any shard to merge the full grid"
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


@dataclass
class RetryingWorker:
    """Picklable wrapper retrying ``fn(shared, task)`` in place.

    How the serial and process backends honor ``SweepRunner(retries=)``:
    the retry loop runs *inside* the worker (sleeping :func:`retry_delay`
    between attempts), so those backends keep their execution model and
    simply re-raise once the budget is spent.  The queue backend never sees
    this wrapper — it requeues failures natively, across workers, and is
    additionally able to retry tasks whose worker died rather than raised.
    """

    fn: Callable[[Any, SweepTask], Any]
    retries: int
    backoff: float = DEFAULT_BACKOFF

    def __call__(self, shared: Any, task: SweepTask) -> Any:
        attempt = 1
        while True:
            try:
                return self.fn(shared, task)
            except Exception:
                if attempt > int(self.retries):
                    raise
                time.sleep(retry_delay(self.backoff, task_digest(task), attempt))
                attempt += 1


def worker_identity(fn: Callable[..., Any]) -> str:
    """Qualified name of the user's worker function, unwrapping retry wrappers.

    Shard-store and poison-store keys must name the *logical* worker: a run
    with ``retries=2`` and a run with ``retries=0`` execute the same
    function and must recall each other's published results.
    """
    while isinstance(fn, RetryingWorker):
        fn = fn.fn
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
            "shard store cannot distinguish configurations by content; pass "
            "a sweep_label= that uniquely identifies this configuration"
        )
    if shared_digest is None:
        return sweep_label
    return f"{sweep_label}#{shared_digest[:16]}"


class WorkerCrashedError(RuntimeError):
    """A pool worker died by signal (SIGKILL, OOM kill) mid-sweep.

    The process pool cannot tell which of its in-flight tasks the dead
    worker held, so every task that never completed is listed.  The queue
    backend turns this exact failure into a lease expiry + requeue instead
    of an error — hence the suggestion.
    """

    def __init__(self, in_flight: Sequence[SweepTask], backend: str = "process"):
        self.in_flight = list(in_flight)
        shown = [
            f"{task.describe()} [{task_digest(task)[:12]}]"
            for task in self.in_flight[:3]
        ]
        more = f" (+{len(self.in_flight) - 3} more)" if len(self.in_flight) > 3 else ""
        super().__init__(
            f"a {backend}-pool worker died by signal (SIGKILL/OOM) with "
            f"{len(self.in_flight)} task(s) in flight or queued: "
            f"{'; '.join(shown)}{more} — completed results are lost with the "
            "pool; re-run with --backend queue for automatic recovery "
            "(expired leases requeue and surviving workers steal the work)"
        )


class TaskTimeoutError(RuntimeError):
    """No task completed within ``task_timeout`` — the pool looks hung.

    The process backend cannot preempt a single wedged task, so the timeout
    is a *stall* bound: wall-clock since the last completion (or since
    submission).  The queue backend enforces the same flag per-task, as the
    lease's hard deadline, and requeues instead of raising.
    """

    def __init__(self, timeout: float, in_flight: Sequence[SweepTask]):
        self.timeout = float(timeout)
        self.in_flight = list(in_flight)
        shown = [
            f"{task.describe()} [{task_digest(task)[:12]}]"
            for task in self.in_flight[:3]
        ]
        more = f" (+{len(self.in_flight) - 3} more)" if len(self.in_flight) > 3 else ""
        super().__init__(
            f"no task completed within --task-timeout {self.timeout:g}s; "
            f"{len(self.in_flight)} task(s) still in flight or queued: "
            f"{'; '.join(shown)}{more} — the process backend cannot requeue a "
            "hung task; --backend queue steals its lease and retries it on a "
            "surviving worker"
        )


# ------------------------------------------------------------------ backends

# Per-worker globals installed by the pool initializer: the shared payload is
# pickled once per worker instead of once per task.
_WORKER_FN: Callable[[Any, SweepTask], Any] | None = None
_WORKER_SHARED: Any = None


def _init_worker(fn: Callable[[Any, SweepTask], Any], shared: Any) -> None:
    global _WORKER_FN, _WORKER_SHARED
    _WORKER_FN = fn
    _WORKER_SHARED = shared


def _run_indexed_chunk(
    chunk: Sequence[tuple[int, SweepTask]],
) -> list[tuple[int, Any]]:
    assert _WORKER_FN is not None, "worker used before initialization"
    return [(position, _WORKER_FN(_WORKER_SHARED, task)) for position, task in chunk]


@runtime_checkable
class SweepBackend(Protocol):
    """Executes a task list, yielding ``(position, result)`` as tasks finish.

    ``position`` indexes into the submitted task list (not ``task.index``,
    which is grid-global and survives sharding); completion order is
    backend-dependent and callers must not rely on it.
    """

    name: str

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: Sequence[SweepTask],
        workers: int,
        chunksize: int,
    ) -> Iterator[tuple[int, Any]]: ...


class SerialBackend:
    """In-process, in-order execution; lazy, so consumers drive the sweep."""

    name = "serial"

    def submit(self, fn, shared, tasks, workers, chunksize):
        return ((position, fn(shared, task)) for position, task in enumerate(tasks))


class ProcessBackend:
    """Process pool; the shared payload is pickled once per worker.

    Failure semantics: a worker that *raises* propagates its exception to
    the consumer (like every backend); a worker that *dies by signal*
    (SIGKILL/OOM) raises :class:`WorkerCrashedError` naming the tasks that
    never completed, instead of CPython's opaque ``BrokenProcessPool``.
    With ``task_timeout`` set, a pool that goes ``task_timeout`` seconds
    without completing anything raises :class:`TaskTimeoutError` (a stall
    detector — the pool cannot preempt one wedged task).  Either way the
    remaining workers are torn down; only the queue backend can requeue and
    survive.
    """

    name = "process"

    def __init__(self, mp_context: str | None = None, task_timeout: float | None = None):
        self.mp_context = mp_context
        self.task_timeout = task_timeout

    def submit(self, fn, shared, tasks, workers, chunksize):
        # fork is only reliably safe on Linux: macOS lists it as available,
        # but forking after numpy/Accelerate initialization aborts or
        # deadlocks in the children (hence CPython's spawn default there)
        method = self.mp_context or ("fork" if sys.platform == "linux" else "spawn")
        context = multiprocessing.get_context(method)
        items = list(enumerate(tasks))
        step = max(1, int(chunksize))
        chunks = [items[start : start + step] for start in range(0, len(items), step)]
        timeout = self.task_timeout

        def remaining_tasks(pending_chunks) -> list[SweepTask]:
            return [task for chunk in pending_chunks for _, task in chunk]

        def stream() -> Iterator[tuple[int, Any]]:
            executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(fn, shared),
            )
            try:
                pending = {
                    executor.submit(_run_indexed_chunk, chunk): chunk
                    for chunk in chunks
                }
                while pending:
                    done, _ = concurrent.futures.wait(
                        pending,
                        timeout=timeout,
                        return_when=concurrent.futures.FIRST_COMPLETED,
                    )
                    if not done:
                        raise TaskTimeoutError(timeout, remaining_tasks(pending.values()))
                    for future in done:
                        chunk = pending.pop(future)
                        try:
                            results = future.result()
                        except concurrent.futures.process.BrokenProcessPool as error:
                            raise WorkerCrashedError(
                                remaining_tasks([chunk, *pending.values()])
                            ) from error
                        yield from results
                executor.shutdown()
            except BaseException:
                # kill the workers outright: shutdown() alone would block on
                # (or orphan) a hung/poisoned task, and cancel_futures only
                # covers work that never started
                for process in list(getattr(executor, "_processes", {}).values()):
                    try:
                        process.terminate()
                    except Exception:
                        pass
                executor.shutdown(wait=False, cancel_futures=True)
                raise

        return stream()


def resolve_backend(
    spec: str | SweepBackend | None,
    mp_context: str | None = None,
    task_timeout: float | None = None,
) -> SweepBackend:
    """Turn a backend name/instance into a backend, honouring the env override.

    ``None`` resolves ``$REPRO_SWEEP_BACKEND`` and defaults to ``"process"``.
    """
    if spec is None:
        spec = os.environ.get(_ENV_BACKEND, "").strip() or "process"
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "serial":
            return SerialBackend()
        if name == "process":
            return ProcessBackend(mp_context, task_timeout=task_timeout)
        if name == "queue":
            # local import: the queue module builds on the engine's tasks,
            # digests, and retry policy, so the dependency points that way
            from .queue import QueueBackend

            return QueueBackend(mp_context=mp_context, task_timeout=task_timeout)
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

    def completions(self) -> Iterator[tuple[int, SweepTask, Any]]:
        """Yield ``(position, task, result)`` triples in completion order.

        ``position`` indexes the submitted task list — it disambiguates
        duplicate tasks for callers (like the shard publisher) that key
        results by list slot.
        """
        for position, value in self._advance():
            yield position, self.tasks[position], value

    def as_completed(self) -> Iterator[tuple[SweepTask, Any]]:
        """Yield ``(task, result)`` pairs in completion order."""
        for position, task, value in self.completions():
            yield task, value

    def results(self) -> list[Any]:
        """Block until every task finished; return results in task order."""
        for _ in self._advance():
            pass
        return [self._completed[position] for position in range(len(self.tasks))]

    def close(self) -> None:
        """Abandon the submission without consuming the remaining results.

        The backend stream's cleanup runs: pools shut down, and the queue
        backend signals its workers and leaves every already-published
        result in the store — resubmitting the same sweep later resumes
        from there.  Chaos tests use this to simulate a coordinator killed
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
        count.  1 (or a single-CPU host) always takes the in-process path.
    parallel:
        Master switch; ``False`` forces in-process serial execution
        regardless of ``workers``/``backend`` (used by sweeps whose points
        share mutable state).
    backend:
        Backend name (``"serial"``/``"process"``/``"queue"``) or
        :class:`SweepBackend` instance.  ``None`` → ``$REPRO_SWEEP_BACKEND``
        or ``"process"``.
    mp_context:
        ``multiprocessing`` start method for the process backend (``"fork"``
        on Linux keeps worker start cheap; ``"spawn"`` works everywhere).
    chunksize:
        Tasks handed to a pool worker per dispatch (process backend).
    shard:
        When set, :meth:`map` runs only this shard's slice of the grid and
        merges the full grid through ``shard_store`` (see the module
        docstring); streaming :meth:`submit` is shard-agnostic.
    shard_store:
        Artifact cache for sharded merges (``None`` → the default cache).
    sweep_label:
        Namespace for shard-store entries.  Runs that should merge with each
        other must use the same label; runs with different configurations
        (different grids, worker functions aside) must not share one.
    progress:
        Optional ``(task, result, done, total)`` callback invoked as each
        task completes — lets CLIs render tables incrementally.  Under
        sharding, ``done``/``total`` count the shard's slice (cache-recalled
        results included), not just the tasks executed by this run.
    retries:
        Failed-task retry budget: a task is attempted at most ``retries+1``
        times.  Honored by every backend — the queue backend requeues (and
        quarantines once spent), the others retry in-worker via
        :class:`RetryingWorker` and re-raise once spent.  ``None`` → 0
        (queue backend: its own default of 2).
    task_timeout:
        Per-task hang bound in seconds.  Queue backend: the lease's hard
        deadline, after which the task is stolen and requeued.  Process
        backend: stall detection (:class:`TaskTimeoutError`).  The serial
        backend cannot preempt a running task and ignores it.
    backoff:
        Base delay between retry attempts (:func:`retry_delay` grows it
        exponentially with deterministic jitter).  ``None`` →
        :data:`DEFAULT_BACKOFF`.
    """

    workers: int | None = None
    parallel: bool = True
    backend: str | SweepBackend | None = None
    mp_context: str | None = None
    chunksize: int = 1
    shard: ShardSpec | None = None
    shard_store: ArtifactCache | None = None
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

    def _resolve(self, num_tasks: int) -> tuple[SweepBackend, int]:
        # resolve before the single-worker short-circuit so an invalid
        # backend name (or $REPRO_SWEEP_BACKEND) fails everywhere, not just
        # on multicore hosts with multi-task grids
        backend = resolve_backend(
            self.backend, self.mp_context, task_timeout=self.task_timeout
        )
        if getattr(backend, "queue_semantics", False) and self.parallel:
            # never downgrade the queue backend to the in-process path: its
            # publish/lease/resume semantics are the point even at 1 worker
            # (parallel=False still wins — stateful sweeps must stay serial)
            backend.configure_from_runner(self)
            workers = self.workers if self.workers is not None else _default_workers()
            return backend, max(1, min(int(workers), max(1, num_tasks)))
        workers = self.effective_workers(num_tasks)
        if workers == 1:
            return SerialBackend(), 1
        return backend, workers

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        tasks: Sequence[SweepTask],
        shared: Any = None,
        progress: Callable[[SweepTask, Any, int, int], None] | None = None,
    ) -> SweepExecution:
        """Start ``fn(shared, task)`` for every task; return a streaming handle.

        ``progress`` overrides the runner-level callback for this submission
        (``None`` falls back to :attr:`progress`).
        """
        tasks = list(tasks)
        backend, workers = self._resolve(len(tasks))
        run_fn = fn
        retries = int(self.retries) if self.retries else 0
        if retries > 0 and not getattr(backend, "handles_retries", False):
            run_fn = RetryingWorker(
                fn,
                retries,
                self.backoff if self.backoff is not None else DEFAULT_BACKOFF,
            )
        stream = backend.submit(run_fn, shared, tasks, workers, self.chunksize)

        def count() -> None:
            # count at result time, not submission time: the backend streams
            # are lazy, so an abandoned execution must not inflate tasks_run
            self.tasks_run += 1

        return SweepExecution(
            tasks,
            stream,
            progress=progress if progress is not None else self.progress,
            on_result=count,
        )

    def as_completed(
        self,
        fn: Callable[[Any, SweepTask], Any],
        tasks: Sequence[SweepTask],
        shared: Any = None,
    ) -> Iterator[tuple[SweepTask, Any]]:
        """Yield ``(task, result)`` pairs as they land (completion order)."""
        return self.submit(fn, tasks, shared=shared).as_completed()

    def map(
        self,
        fn: Callable[[Any, SweepTask], Any],
        tasks: Sequence[SweepTask],
        shared: Any = None,
    ) -> list[Any]:
        """Run ``fn(shared, task)`` for every task; results in task order.

        With a :class:`ShardSpec` configured, only the shard-local slice is
        executed; see :meth:`_map_sharded` for the merge contract.
        """
        tasks = list(tasks)
        if self.shard is not None and len(tasks) > 0:
            return self._map_sharded(fn, tasks, shared)
        return self.submit(fn, tasks, shared=shared).results()

    def _map_sharded(
        self,
        fn: Callable[[Any, SweepTask], Any],
        tasks: list[SweepTask],
        shared: Any,
    ) -> list[Any]:
        """Run this shard's slice, publish it, and merge the full grid.

        Every completed task result is stored in the artifact cache under
        ``(sweep_label, worker, task_digest)`` as it lands (so a crashed
        shard resumes where it left off), then the full grid is assembled
        from local results plus the other shards' published entries.  Raises
        :class:`ShardIncompleteError` while any task is still unpublished.
        """
        assert self.shard is not None
        store = self.shard_store if self.shard_store is not None else default_cache()
        if not store.enabled and self.shard.count > 1:
            raise ValueError(
                "sharded sweeps merge through the artifact cache; the shard store "
                "must be enabled (unset $REPRO_CACHE_DISABLE or pass an enabled cache)"
            )
        worker_name = worker_identity(fn)
        label = store_label(self.sweep_label, shared)
        digests = [task_digest(task) for task in tasks]
        mine = [
            (position, task)
            for position, task in enumerate(tasks)
            if self.shard.owns_digest(digests[position])
        ]
        # recall shard-local results a previous (possibly killed) run already
        # published, then execute only what is still pending
        recalled, _ = collect_shard_results(
            store,
            label,
            worker_name,
            [digests[position] for position, _ in mine],
        )
        local: dict[str, Any] = {
            digest: payload["result"] for digest, payload in recalled.items()
        }
        pending = [
            (position, task)
            for position, task in mine
            if digests[position] not in local
        ]
        # stream progress counts the whole shard slice, recalled tasks
        # included, so a resumed run reports e.g. [4/4] rather than [1/1]
        progress = None
        if self.progress is not None:
            recalled_count = len(mine) - len(pending)
            done = 0
            for position, task in mine:
                if digests[position] in local:
                    done += 1
                    self.progress(task, local[digests[position]], done, len(mine))
            outer, slice_total = self.progress, len(mine)

            def progress(task, value, done, _total):
                outer(task, value, recalled_count + done, slice_total)

        execution = self.submit(
            fn, [task for _, task in pending], shared=shared, progress=progress
        )
        for local_position, _, value in execution.completions():
            digest = digests[pending[local_position][0]]
            local[digest] = value
            if getattr(value, "is_quarantined", False):
                # the queue backend already recorded the poison entry under
                # its own kind; a quarantine sentinel must never be stored
                # as a task *result* (other shards would recall it as one)
                continue
            # publish as results land, not after the slice finishes: a shard
            # killed mid-run keeps its completed work and resumes from there
            stored = store.put(
                SHARD_RESULT_KIND,
                shard_result_key(label, worker_name, digest),
                {"result": value},
            )
            if not stored and self.shard.count > 1:
                # the publish is this shard's only channel to the merge; a
                # silently dropped entry would deadlock the fleet on
                # ShardIncompleteError with no error surfaced anywhere
                raise RuntimeError(
                    f"shard {self.shard}: failed to publish a task result to the "
                    f"shard store at {store.root} (unpicklable result or "
                    f"unwritable cache); the other shards can never merge "
                    f"without it"
                )
        published, unpublished = collect_shard_results(
            store,
            label,
            worker_name,
            [digest for digest in digests if digest not in local],
        )
        # a task another shard quarantined has a poison entry instead of a
        # result; merging it as a QuarantinedTask (exactly what the local
        # queue coordinator would yield) keeps poisoned sweeps mergeable
        # rather than deadlocked on ShardIncompleteError
        poisoned: dict[str, QuarantinedTask] = {}
        for digest in unpublished:
            payload = store.get(POISON_KIND, poison_key(label, worker_name, digest))
            if payload is not None:
                poisoned[digest] = QuarantinedTask(
                    task=payload.get("task"),
                    digest=digest,
                    attempts=int(payload.get("attempts", 0)),
                    errors=tuple(payload.get("errors", ())),
                )
        results: list[Any] = []
        missing: list[SweepTask] = []
        for task, digest in zip(tasks, digests):
            if digest in local:
                results.append(local[digest])
            elif digest in published:
                results.append(published[digest]["result"])
            elif digest in poisoned:
                results.append(poisoned[digest])
            else:
                missing.append(task)
        if missing:
            raise ShardIncompleteError(self.shard, completed=len(mine), missing=missing)
        return results
