"""Fault-tolerant elastic sweep backend: a shared-directory task queue.

``QueueBackend`` is the elastic :class:`~repro.experiments.engine.SweepBackend`:
a sweep that keeps its promises when workers are SIGKILLed, OOMed, hung, or
simply added and removed mid-flight.  The queue is a directory (by default
under the artifact-cache root), so anything that can share a filesystem can
share a sweep, and all coordination rides the same atomic
rename/link/replace guarantees the cache already depends on.  Lease records,
the retry decision, and the heartbeat live in
:mod:`repro.experiments.leases`; this module holds the queue directory, the
worker that claims from it, and the coordinator loop.

Queue layout
------------
One sweep occupies ``<queue_dir>/<sweep_id>/`` where ``sweep_id`` hashes the
store namespace (sweep label + worker function), so concurrent sweeps over
overlapping grids share task state exactly when they would share results::

    <queue_dir>/<sweep_id>/
        tasks/<task_digest>.pkl     queued task record:
                                    {task, digest, attempts, not_before, errors}
        leases/<task_digest>.lease  JSON: {owner, acquired,
                                    heartbeat_deadline, hard_deadline}

Completed results never live in the queue directory: they publish to the
artifact store under :data:`~repro.experiments.leases.RESULT_KIND`, and
quarantined tasks under :data:`~repro.experiments.leases.POISON_KIND`, both
keyed by :func:`~repro.experiments.leases.settled_key`.  The queue directory
holds only *pending* state, which is why a coordinator restart resumes with
zero recomputation — everything done is in the store.

Claim protocol
--------------
A worker scans ``tasks/`` (rotated by worker index so a fleet doesn't
contend on one head), skips records whose ``not_before`` backoff is in the
future, and claims a task by atomically creating its lease file.  On
success the worker publishes to the store *first*, then removes the task
file, then the lease — every step idempotent, so a crash between any two of
them is absorbed by the next worker's re-scan.  A failed attempt rewrites
the task record through :func:`~repro.experiments.leases.fail_transition`
(or quarantines it to the poison store), but only while the worker still
holds its lease; an expired lease is stolen with
:func:`~repro.experiments.leases.steal_lease` and requeued the same way, so
the stealer owns that decision.  A worker with nothing claimable polls
every ``poll_seconds`` — a shared directory has nothing to block on — and
wakes at once when its coordinator stops the run.

Coordinator
-----------
:meth:`QueueBackend.submit` recalls what the store already settled, enqueues
the remainder, spawns the worker fleet, then runs settle / reclaim / respawn
/ inline-drain rounds until every task has settled, and tears down.  A round
that made no progress waits at most ``poll_seconds`` before the next, and
wakes as soon as a worker exits, so a fleet that drains the queue ends the
sweep without waiting out a poll.  Since a worker publishes before it
removes the task file, a round looks up in the store only the pending
tasks whose file is gone.

Several coordinators may share one queue directory — hosts splitting one
grid, or overlapping sweeps — so each stops and retires only what is its
own.  Every submission stops its fleet through a ``multiprocessing.Event``
of its own (:attr:`WorkerSpec.stop`), which only its workers hold.  At
teardown a coordinator sets that event and, once its own tasks have
settled, removes only the directories left empty, never a peer's queued
tasks; and since a peer may retire the directory first, a coordinator left
without a fleet puts its unsettled tasks back before it drains the queue
itself.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import sys
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .cache import ArtifactCache, cache_digest, default_cache
from .engine import (
    DEFAULT_BACKOFF,
    QuarantinedTask,
    SweepTask,
    store_label,
    task_digest,
    worker_identity,
)
from .leases import (
    DEFAULT_QUEUE_RETRIES,
    POISON_KIND,
    RESULT_KIND,
    Heartbeat,
    acquire_lease,
    atomic_write,
    discard,
    fail_transition,
    lease_expired,
    read_lease,
    recall_settled,
    release_lease,
    renew_lease,
    settled_key,
    steal_lease,
)

if TYPE_CHECKING:
    from .faults import FaultPlan

__all__ = [
    "DEFAULT_QUEUE_RETRIES",
    "LeaseWorker",
    "QueueBackend",
    "WorkerSpec",
]

#: The variable :meth:`repro.experiments.faults.FaultPlan.from_env` reads.
_ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"


def _env_fault_plan() -> FaultPlan | None:
    """The plan ``$REPRO_FAULT_PLAN`` carries, or None when it is unset.

    The chaos harness (:mod:`repro.experiments.faults`) is imported only
    when the variable is set, so a run without a plan never loads it.
    """
    if not os.environ.get(_ENV_FAULT_PLAN, "").strip():
        return None
    from .faults import FaultPlan

    return FaultPlan.from_env()


class _NoFaults:
    """The fault hooks of a worker without a fault plan: none ever fires.

    Stands in for a :class:`~repro.experiments.faults.WorkerFaultInjector`
    with no rules, without importing the chaos harness.
    """

    def on_claim(self, completed: int) -> None:
        pass

    def before_execute(self, task: SweepTask) -> None:
        pass

    def heartbeat_allowed(self, completed: int) -> bool:
        return True

    def on_publish(self, completed: int) -> None:
        pass


def _write_record(path: Path, record: dict[str, Any]) -> bool:
    """Atomically (re)write a task record; readers see old, new, or nothing."""
    return atomic_write(path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))


def _names(directory: Path, suffix: str) -> list[str]:
    """The sorted names in ``directory`` that end in ``suffix`` (none if it
    is gone)."""
    try:
        return sorted(name for name in os.listdir(directory) if name.endswith(suffix))
    except OSError:
        return []


def _read_record(path: Path) -> dict[str, Any] | None:
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except Exception:
        # gone (claimed + completed), or a torn concurrent rewrite: skip —
        # the atomic replace means the next scan sees a whole record
        return None
    return record if isinstance(record, dict) else None


@dataclass
class WorkerSpec:
    """Everything a queue worker needs, in one picklable record."""

    store: ArtifactCache
    label: str
    worker_name: str
    fn: Callable[[Any, SweepTask], Any]
    shared: Any
    retries: int
    backoff: float
    lease_seconds: float
    task_timeout: float | None
    poll_seconds: float
    sweep_dir: Path
    worker_index: int = 0
    fault_plan: FaultPlan | None = None
    #: set by the coordinator run that spawned the worker, at its teardown:
    #: the worker stops claiming and wakes from an idle wait.  The run's
    #: ``multiprocessing.Event``; the default, for a worker driven in
    #: process, is never set
    stop: Any = field(default_factory=threading.Event)


class _QueueDir:
    """One sweep's queue directory, as one worker or the coordinator sees it.

    Workers claim, renew, complete, and fail through it; the coordinator
    (owner-less) enqueues, steals expired leases every round, finds the
    tasks that may have settled, stops its own workers, and retires what
    the sweep left empty.
    """

    def __init__(self, spec: WorkerSpec, owner: str = ""):
        self.spec = spec
        self.owner = owner
        self.sweep_dir = Path(spec.sweep_dir)
        self.tasks_dir = self.sweep_dir / "tasks"
        self.leases_dir = self.sweep_dir / "leases"

    def _task_path(self, record: dict[str, Any]) -> Path:
        return self.tasks_dir / f"{record['digest']}.pkl"

    def _lease_path(self, record: dict[str, Any]) -> Path:
        return self.leases_dir / f"{record['digest']}.lease"

    def _pending_names(self) -> list[str]:
        names = _names(self.tasks_dir, ".pkl")
        index = self.spec.worker_index
        if names and index > 0:
            # deterministic rotation: workers start their scans at different
            # offsets so a fresh fleet doesn't all fight over the first task
            pivot = index % len(names)
            names = names[pivot:] + names[:pivot]
        return names

    def claim(self) -> tuple[str, dict[str, Any] | None]:
        """Steal expired leases, then lease the first claimable task.

        Returns ``("claimed", record)``, or ``(status, None)`` with status
        ``shutdown``, ``busy`` (leases were reclaimed: rescan now), ``idle``
        (nothing claimable yet: poll), or ``drained`` (nothing left).
        """
        if self.spec.stop.is_set() or not self.tasks_dir.is_dir():
            return "shutdown", None
        reclaimed = self.reclaim()
        spec = self.spec
        now = time.time()
        hard = now + spec.task_timeout if spec.task_timeout is not None else None
        for name in self._pending_names():
            path = self.tasks_dir / name
            record = _read_record(path)
            if record is None or record.get("not_before", 0.0) > now:
                continue
            lease_path = self._lease_path(record)
            if not acquire_lease(lease_path, self.owner, spec.lease_seconds, hard_deadline=hard):
                continue
            # won the claim — but between scan and claim the previous lease
            # holder may have completed (and removed) the task
            record = _read_record(path)
            if record is None:
                release_lease(lease_path)
                continue
            return "claimed", record
        if reclaimed:
            return "busy", None  # progress: rescan before polling
        return ("drained" if self._idle() else "idle"), None

    def _idle(self) -> bool:
        return not _names(self.tasks_dir, ".pkl") and not _names(self.leases_dir, ".lease")

    def renew(self, record: dict[str, Any]) -> bool:
        return renew_lease(self._lease_path(record), self.owner, self.spec.lease_seconds)

    def complete(self, record: dict[str, Any]) -> None:
        """Tidy a task the store has settled: task file first, then the lease."""
        discard(self._task_path(record))
        release_lease(self._lease_path(record))

    def fail(self, record: dict[str, Any], error: str) -> None:
        """Requeue (or quarantine) a failed attempt while its lease is still ours.

        Once the lease was stolen, the stealer already requeued the task from
        the queue's record and a later holder may be running or have settled
        it: neither the requeue decision nor the lease file is ours any more.
        A heartbeating holder renewed within the last quarter lease, so its
        lease cannot expire between this check and the release.
        """
        lease_path = self._lease_path(record)
        lease = read_lease(lease_path)
        if lease is None or lease.get("owner") != self.owner:
            return
        self._requeue(record, error)
        release_lease(lease_path)

    def _requeue(self, record: dict[str, Any], error: str) -> None:
        """Requeue a failed attempt with backoff, or quarantine it."""
        spec = self.spec
        state, payload = fail_transition(record, error, spec.retries, spec.backoff)
        if state == "poison":
            spec.store.put(
                POISON_KIND, settled_key(spec.label, spec.worker_name, record["digest"]), payload
            )
            discard(self._task_path(record))
        else:
            _write_record(self._task_path(record), payload)

    def reclaim(self) -> int:
        """Steal expired leases; requeue (or quarantine) their tasks."""
        reclaimed = 0
        now = time.time()
        for name in _names(self.leases_dir, ".lease"):
            lease_path = self.leases_dir / name
            if not lease_expired(read_lease(lease_path), now):
                continue
            stolen = steal_lease(lease_path)
            if stolen is None:
                continue  # a peer won the steal; it owns the requeue
            record = _read_record(self.tasks_dir / f"{lease_path.stem}.pkl")
            if record is None:
                continue
            spec = self.spec
            if recall_settled(spec.store, spec.label, spec.worker_name, record["digest"]):
                # the holder finished (or the task was quarantined) before
                # dying; nothing to requeue — just tidy the task file
                discard(self._task_path(record))
                continue
            owner = stolen.get("owner", "unknown")
            self._requeue(record, f"lease expired: worker {owner} died or hung past its deadline")
            reclaimed += 1
        return reclaimed

    # ----------------------------------------------------------- coordinator

    def enqueue(self, pending: dict[str, SweepTask]) -> None:
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        for digest, task in pending.items():
            path = self.tasks_dir / f"{digest}.pkl"
            if path.exists():
                continue  # a concurrent coordinator already queued it
            _write_record(
                path,
                {"task": task, "digest": digest, "attempts": 0, "not_before": 0.0, "errors": []},
            )

    def unqueued(self, digests: Iterable[str]) -> list[str]:
        """The digests whose task file is gone: the only ones that may have
        settled, since a worker publishes before it removes the file."""
        queued = set(_names(self.tasks_dir, ".pkl"))
        return [digest for digest in digests if f"{digest}.pkl" not in queued]

    def shutdown(self) -> None:
        """Stop this run's workers: they claim nothing more and stop idling."""
        self.spec.stop.set()

    def retire(self, settled: bool) -> None:
        """Once the run's tasks have settled, remove what is left empty.

        An abandoned run keeps the directory for its resume.  ``rmdir``,
        never a tree removal: a peer coordinator's queued tasks and leases
        keep the directory alive.
        """
        if not settled:
            return
        for path in (self.tasks_dir, self.leases_dir, self.sweep_dir):
            try:
                path.rmdir()
            except OSError:
                pass


class LeaseWorker:
    """The claim/execute/publish loop every queue worker runs.

    The coordinator runs one more in-process (index -1, never
    fault-injected) to drain the sweep when no fleet is left.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        # unique per process *and* per coordinator spawn: renewals must not
        # confuse two incarnations that recycled a pid
        self.owner = f"w{spec.worker_index}:pid{os.getpid()}:{time.monotonic_ns():x}"
        self.completed = 0
        plan = spec.fault_plan
        self.injector = (
            plan.for_worker(spec.worker_index) if plan is not None else _NoFaults()
        )
        self.queue = _QueueDir(spec, self.owner)

    def step(self) -> str:
        """Claim and run one task: ``worked``, or the queue's claim status."""
        status, record = self.queue.claim()
        if record is None:
            return status
        self.execute(record)
        return "worked"

    def execute(self, record: dict[str, Any]) -> None:
        spec = self.spec
        digest = record["digest"]
        # settled check first, fault injection second: a straggler delay
        # injected below stalls a task that *will* execute, which is what
        # forces the steal + duplicate-absorption path
        if recall_settled(spec.store, spec.label, spec.worker_name, digest) is not None:
            # the store already holds a terminal state: nothing to requeue
            self.queue.complete(record)
            return
        self.injector.on_claim(self.completed)  # may SIGKILL / straggle
        heartbeat: Heartbeat | None = None
        if self.injector.heartbeat_allowed(self.completed):
            heartbeat = Heartbeat(lambda: self.queue.renew(record), spec.lease_seconds)
        error: str | None = None
        try:
            self.injector.before_execute(record["task"])  # may raise (poison rule)
            result = spec.fn(spec.shared, record["task"])
            if not spec.store.put(
                RESULT_KIND,
                settled_key(spec.label, spec.worker_name, digest),
                {"result": result, "attempts": record.get("attempts", 0) + 1},
            ):
                # the store is the worker's channel to the coordinator; an
                # unpublishable result is a failed attempt (retried, then
                # quarantined with the reason) — never a silent deadlock
                error = (
                    f"failed to publish result to the store at {spec.store.root} "
                    "(unpicklable result or unwritable cache)"
                )
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if heartbeat is not None:
                heartbeat.stop()
        if error is not None:
            self.queue.fail(record, error)
            return
        self.queue.complete(record)
        self.completed += 1
        self.injector.on_publish(self.completed)  # may SIGKILL post-publish

    def run(self) -> None:
        """Work until the sweep drains or shuts down."""
        while True:
            outcome = self.step()
            if outcome in ("drained", "shutdown"):
                return
            if outcome == "idle":
                # tasks exist but none is claimable (backoff windows or live
                # leases): poll, or stop as soon as the coordinator does
                self.spec.stop.wait(self.spec.poll_seconds)


def _worker_main(spec: WorkerSpec) -> None:
    LeaseWorker(spec).run()


@dataclass
class QueueBackend:
    """Shared-directory elastic queue backend (leases, retries, quarantine).

    Satisfies the ``SweepBackend`` protocol and is *stateful across
    submissions by design*: results publish through the artifact ``store``
    under ``sweep_label``, so resubmitting the same sweep — after a crash,
    from another process, or concurrently — recomputes nothing that already
    published.  On every submission ``SweepRunner`` fills the
    ``store``/``sweep_label``/policy fields not given to the constructor
    from its own configuration (:meth:`configure_from_runner`).

    Parameters
    ----------
    retries:
        Retry budget per task (``attempts <= retries + 1``); ``None`` →
        :data:`DEFAULT_QUEUE_RETRIES`.
    task_timeout:
        Hard lease deadline per attempt; a task running past it is stolen
        and requeued even if its worker still heartbeats.  ``None`` → no
        hard bound (heartbeat expiry still covers dead workers).
    lease_seconds:
        Heartbeat deadline horizon: a worker that misses renewals for this
        long is presumed dead and its task is stolen.  Renewals run every
        ``lease_seconds / 4``.
    respawn:
        Whether the coordinator replaces workers that died abnormally (up to
        ``4 * workers + 4`` times).  With respawn exhausted or disabled and
        the whole fleet dead, the coordinator drains the sweep inline rather
        than deadlocking.
    fault_plan:
        Chaos injection (:mod:`repro.experiments.faults`); ``None`` reads
        ``$REPRO_FAULT_PLAN`` so CLI runs can be fault-injected too.
    queue_dir:
        Root for per-sweep queue directories (default: ``<store.root>/queue``
        — next to, not inside, the artifact kinds).

    After each submission :attr:`last_stats` reports ``{"tasks",
    "recalled", "enqueued", "quarantined", "worker_deaths", "respawns",
    "inline_drained"}`` and :attr:`quarantined` lists the
    :class:`QuarantinedTask` sentinels yielded in place of results.
    """

    store: ArtifactCache | None = None
    sweep_label: str = ""
    retries: int | None = None
    task_timeout: float | None = None
    backoff: float | None = None
    lease_seconds: float = 15.0
    poll_seconds: float = 0.05
    respawn: bool = True
    fault_plan: FaultPlan | None = None
    queue_dir: Path | str | None = None

    quarantined: list[QuarantinedTask] = field(default_factory=list, init=False)
    last_stats: dict[str, int] = field(default_factory=dict, init=False)
    _given: dict[str, Any] = field(default_factory=dict, init=False, repr=False)

    name = "queue"
    #: SweepRunner must not downgrade this backend to the in-process serial
    #: path at 1 worker, and should hand it runner-level configuration
    queue_semantics = True

    def __post_init__(self) -> None:
        self._given = {
            name: getattr(self, name)
            for name in _RUNNER_FIELDS
            if getattr(self, name) not in (None, "")
        }

    def configure_from_runner(self, runner: Any) -> None:
        """Take the current runner's configuration for every field not given here.

        Re-done on each submission, so a backend reused across runners never
        keeps a previous runner's store or label (and with them, its results).
        """
        for name in _RUNNER_FIELDS:
            setattr(self, name, self._given.get(name, getattr(runner, name)))

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: Sequence[SweepTask],
        workers: int,
    ) -> Iterator[tuple[int, Any]]:
        return self._coordinate(self._spec(fn, shared), list(tasks), max(1, int(workers)))

    def _spec(self, fn: Callable[[Any, SweepTask], Any], shared: Any) -> WorkerSpec:
        """The sweep's worker spec, addressing its queue directory."""
        store = self.store if self.store is not None else default_cache()
        if not store.enabled:
            raise ValueError(
                "the queue backend publishes results through the artifact "
                "cache; the store must be enabled (unset $REPRO_CACHE_DISABLE or "
                "pass an enabled cache)"
            )
        label = store_label(self.sweep_label, shared)
        worker_name = worker_identity(fn)
        root = self.queue_dir if self.queue_dir is not None else store.root / "queue"
        # same namespace axes as the store keys: sweeps share queue state
        # exactly when they would share published results
        sweep_id = cache_digest({"label": label, "worker": worker_name})[:24]
        return WorkerSpec(
            store=store,
            label=label,
            worker_name=worker_name,
            fn=fn,
            shared=shared,
            retries=int(self.retries) if self.retries is not None else DEFAULT_QUEUE_RETRIES,
            backoff=float(self.backoff) if self.backoff is not None else DEFAULT_BACKOFF,
            lease_seconds=float(self.lease_seconds),
            task_timeout=self.task_timeout,
            poll_seconds=float(self.poll_seconds),
            sweep_dir=Path(root) / sweep_id,
            fault_plan=(
                self.fault_plan if self.fault_plan is not None else _env_fault_plan()
            ),
        )

    def _coordinate(
        self, spec: WorkerSpec, tasks: list[SweepTask], workers: int
    ) -> Iterator[tuple[int, Any]]:
        self.quarantined = []
        stats = dict.fromkeys(
            (
                "tasks",
                "recalled",
                "enqueued",
                "quarantined",
                "worker_deaths",
                "respawns",
                "inline_drained",
            ),
            0,
        )
        stats["tasks"] = len(tasks)
        self.last_stats = stats
        positions: dict[str, list[int]] = {}
        for position, task in enumerate(tasks):
            positions.setdefault(task_digest(task), []).append(position)

        def settle_from_store(digests: list[str], recall: bool) -> Iterator[tuple[int, Any]]:
            for digest in digests:
                found = recall_settled(spec.store, spec.label, spec.worker_name, digest)
                if found is None:
                    continue
                kind, value = found
                if kind == "poison":
                    stats["quarantined"] += 1
                    self.quarantined.append(value)
                elif recall:
                    stats["recalled"] += 1
                for position in positions.pop(digest):
                    yield position, value

        # recall: everything a previous run (or a concurrent sweep over an
        # overlapping grid) already settled costs zero recomputation
        yield from settle_from_store(list(positions), recall=True)
        if not positions:
            return

        stats["enqueued"] = len(positions)
        context = multiprocessing.get_context(_START_METHOD)
        # the run's own stop signal: only the workers spawned below hold it
        spec = replace(spec, stop=context.Event())
        queue = _QueueDir(spec)
        processes: list[Any] = []
        next_index = 0
        spawn_budget = workers + 4 * workers + 4  # the fleet plus its respawns
        inline: LeaseWorker | None = None

        def pending_tasks() -> dict[str, SweepTask]:
            return {digest: tasks[slots[0]] for digest, slots in positions.items()}

        def spawn() -> None:
            nonlocal next_index
            process = context.Process(
                target=_worker_main,
                args=(replace(spec, worker_index=next_index),),
                daemon=True,
            )
            process.start()
            processes.append(process)
            next_index += 1

        try:
            # enqueue only the unsettled remainder, then spawn the fleet
            queue.enqueue(pending_tasks())
            for _ in range(min(workers, len(positions))):
                spawn()
            while positions:
                # settle from the store (workers publish there before tidying
                # the queue, so a crash never loses a result), then steal the
                # leases of dead or hung workers
                unsettled = len(positions)
                yield from settle_from_store(queue.unqueued(positions), recall=False)
                if not positions:
                    break
                queue.reclaim()
                progressed = len(positions) < unsettled
                # respawn: absorb fleet deaths within budget
                alive = []
                died = 0
                for process in processes:
                    if process.is_alive():
                        alive.append(process)
                    elif process.exitcode not in (0, None):
                        # exit 0 is a clean drain (idle queue); a signal or
                        # nonzero exit is a death the fleet must absorb
                        died += 1
                processes[:] = alive
                stats["worker_deaths"] += died
                if self.respawn:
                    for _ in range(died):
                        if next_index >= spawn_budget:
                            break
                        spawn()
                        stats["respawns"] += 1
                # inline drain: with no fleet left the coordinator claims
                # from the queue itself — a sweep must terminate even with
                # zero surviving workers.  A peer coordinator may have
                # retired the directory, so what is unsettled goes back first
                if not processes:
                    if inline is None:
                        inline = LeaseWorker(replace(spec, worker_index=-1, fault_plan=None))
                    queue.enqueue(pending_tasks())
                    if inline.step() == "worked":
                        stats["inline_drained"] += 1
                        progressed = True
                if not progressed:
                    if processes:
                        # wait at most one poll, but wake as soon as a worker
                        # exits: a drained fleet ends the sweep right away
                        multiprocessing.connection.wait(
                            [process.sentinel for process in processes],
                            timeout=spec.poll_seconds,
                        )
                    else:
                        time.sleep(spec.poll_seconds)
        finally:
            queue.shutdown()
            terminated = _stop_fleet(processes, grace=10.0)
            # a worker that died after the last settle never reached the
            # death check above; the stragglers terminated here did not die
            stats["worker_deaths"] += sum(
                process.exitcode not in (0, None)
                for process in processes
                if process not in terminated
            )
            queue.retire(settled=not positions)


#: QueueBackend fields a runner configures unless the constructor was given them.
_RUNNER_FIELDS = ("store", "sweep_label", "retries", "task_timeout", "backoff")

#: How workers start: fork is only reliably safe on Linux (macOS lists it,
#: but forking after numpy/Accelerate initialization aborts or deadlocks in
#: the children, hence CPython's spawn default there).
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"


def _stop_fleet(processes: list[Any], grace: float) -> list[Any]:
    """Join worker processes within ``grace`` seconds, then terminate stragglers.

    Returns the stragglers it terminated.
    """
    deadline = time.time() + grace
    for process in processes:
        process.join(timeout=max(0.1, deadline - time.time()))
    stragglers = [process for process in processes if process.is_alive()]
    for process in stragglers:
        process.terminate()
        process.join(timeout=1.0)
    return stragglers
