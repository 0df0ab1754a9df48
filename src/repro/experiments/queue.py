"""Fault-tolerant elastic sweep backend: a shared-directory task queue.

``QueueBackend`` is the fourth :class:`~repro.experiments.engine.SweepBackend`:
a sweep that keeps its promises when workers are SIGKILLed, OOMed, hung, or
simply added and removed mid-flight.  There is no broker — the queue is a
directory (by default under the artifact-cache root), so anything that can
share a filesystem can share a sweep, and all coordination rides the same
atomic rename/link/replace guarantees the cache already depends on.  The
lease, retry, quarantine, worker, and coordinator logic is the shared core
in :mod:`repro.experiments.leases`; this module is its on-disk transport.

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
        shutdown                    sentinel: coordinator told workers to exit

Completed results never live in the queue directory: they publish through
the existing ``shard_result_key`` artifact-cache path (kind ``sweep-shard``),
and quarantined tasks through ``poison_key`` (kind ``sweep-poison``).  The
queue directory holds only *pending* state, which is why a coordinator
restart resumes with zero recomputation — everything done is in the store.

Claim protocol
--------------
A worker scans ``tasks/`` (rotated by worker index so a fleet doesn't
contend on one head), skips records whose ``not_before`` backoff is in the
future, and claims a task by atomically creating its lease file.  On
success the worker publishes to the store *first*, then removes the task
file, then the lease — every step idempotent, so a crash between any two of
them is absorbed by the next worker's re-scan.  A failed attempt rewrites
the task record through :func:`~repro.experiments.leases.fail_transition`
(or quarantines it to the poison store); an expired lease is stolen with
:func:`~repro.experiments.leases.steal_lease` and requeued the same way.
Workers poll every ``poll_seconds`` — a shared directory has nothing to
block on.
"""

from __future__ import annotations

import pickle
import shutil
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .cache import POISON_KIND, poison_key
from .engine import SweepTask
from .leases import (
    DEFAULT_QUEUE_RETRIES,
    LeaseBackend,
    WorkerSpec,
    acquire_lease,
    atomic_write,
    discard,
    fail_transition,
    lease_expired,
    read_lease,
    recall_settled,
    release_lease,
    renew_lease,
    steal_lease,
)

__all__ = [
    "QueueBackend",
    "DEFAULT_QUEUE_RETRIES",
    "fail_transition",
    "recall_settled",
]

_SHUTDOWN_SENTINEL = "shutdown"


def _write_record(path: Path, record: dict[str, Any]) -> bool:
    """Atomically (re)write a task record; readers see old, new, or nothing."""
    return atomic_write(path, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))


def _read_record(path: Path) -> dict[str, Any] | None:
    try:
        with open(path, "rb") as handle:
            record = pickle.load(handle)
    except Exception:
        # gone (claimed + completed), or a torn concurrent rewrite: skip —
        # the atomic replace means the next scan sees a whole record
        return None
    return record if isinstance(record, dict) else None


@dataclass(frozen=True)
class _QueueLink:
    """Picklable address of one sweep's queue directory."""

    sweep_dir: str

    def connect(self, worker: Any) -> "_QueueDir":
        return _QueueDir(Path(self.sweep_dir), worker.spec, worker.owner)


class _QueueDir:
    """One sweep's queue directory: the transport for workers and coordinator.

    Workers claim, renew, complete, and fail through it; the coordinator
    (owner-less) enqueues, steals expired leases every round, signals
    shutdown, and retires the directory once the sweep settles.
    """

    extra_stats = ()
    fleet = True

    def __init__(self, sweep_dir: Path, spec: WorkerSpec, owner: str = ""):
        self.sweep_dir = sweep_dir
        self.link = _QueueLink(str(sweep_dir))
        self.spec = spec
        self.owner = owner
        self.tasks_dir = sweep_dir / "tasks"
        self.leases_dir = sweep_dir / "leases"
        self.shutdown_path = sweep_dir / _SHUTDOWN_SENTINEL

    def _task_path(self, record: dict[str, Any]) -> Path:
        return self.tasks_dir / f"{record['digest']}.pkl"

    def _lease_path(self, record: dict[str, Any]) -> Path:
        return self.leases_dir / f"{record['digest']}.lease"

    def _pending_files(self) -> list[Path]:
        try:
            names = sorted(path.name for path in self.tasks_dir.glob("*.pkl"))
        except OSError:
            return []
        index = self.spec.worker_index
        if names and index > 0:
            # deterministic rotation: workers start their scans at different
            # offsets so a fresh fleet doesn't all fight over the first task
            pivot = index % len(names)
            names = names[pivot:] + names[:pivot]
        return [self.tasks_dir / name for name in names]

    def claim(self) -> tuple[str, dict[str, Any] | None]:
        """Steal expired leases, then lease the first claimable task."""
        if self.shutdown_path.exists() or not self.tasks_dir.is_dir():
            return "shutdown", None
        reclaimed = self.reclaim()
        spec = self.spec
        now = time.time()
        hard = now + spec.task_timeout if spec.task_timeout is not None else None
        for path in self._pending_files():
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
        try:
            return not any(self.tasks_dir.glob("*.pkl")) and not any(
                self.leases_dir.glob("*.lease")
            )
        except OSError:
            return False

    def renew(self, record: dict[str, Any]) -> bool:
        return renew_lease(self._lease_path(record), self.owner, self.spec.lease_seconds)

    def settled(self, record: dict[str, Any], kind: str, value: Any) -> bool:
        # the store already holds a terminal state: nothing to requeue, just
        # tidy the task file (publish → task file → lease, each idempotent)
        self.complete(record, value)
        return True

    def complete(self, record: dict[str, Any], result: Any) -> None:
        discard(self._task_path(record))
        release_lease(self._lease_path(record))

    def fail(self, record: dict[str, Any], error: str) -> None:
        self._requeue(record, error)
        release_lease(self._lease_path(record))

    def _requeue(self, record: dict[str, Any], error: str) -> None:
        """Requeue a failed attempt with backoff, or quarantine it."""
        spec = self.spec
        state, payload = fail_transition(record, error, spec.retries, spec.backoff)
        if state == "poison":
            spec.store.put(
                POISON_KIND, poison_key(spec.label, spec.worker_name, record["digest"]), payload
            )
            discard(self._task_path(record))
        else:
            _write_record(self._task_path(record), payload)

    def reclaim(self) -> int:
        """Steal expired leases; requeue (or quarantine) their tasks."""
        try:
            lease_paths = sorted(self.leases_dir.glob("*.lease"))
        except OSError:
            return 0
        reclaimed = 0
        now = time.time()
        for lease_path in lease_paths:
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

    def start(self, pending: dict[str, SweepTask], stats: dict[str, int], context: Any) -> None:
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        discard(self.shutdown_path)  # stale sentinel from an earlier coordinator
        for digest, task in pending.items():
            path = self.tasks_dir / f"{digest}.pkl"
            if path.exists():
                continue  # a concurrent coordinator already queued it
            _write_record(
                path,
                {"task": task, "digest": digest, "attempts": 0, "not_before": 0.0, "errors": []},
            )

    def collect(self, digests: list[str]) -> list[tuple[str, str, Any]]:
        # terminal states live in the store only; this round's transport work
        # is stealing the leases of dead or hung workers
        self.reclaim()
        return []

    def check(self, remaining: Any) -> bool:
        return False

    def shutdown(self) -> None:
        try:
            self.shutdown_path.touch()
        except OSError:
            pass

    def close(self, settled: bool = False) -> None:
        if settled:
            shutil.rmtree(self.sweep_dir, ignore_errors=True)


@dataclass
class QueueBackend(LeaseBackend):
    """Shared-directory elastic queue backend (leases, retries, quarantine).

    See :class:`~repro.experiments.leases.LeaseBackend` for the shared
    fields, statistics, and resume semantics.

    Parameters
    ----------
    queue_dir:
        Root for per-sweep queue directories (default: ``<store.root>/queue``
        — next to, not inside, the artifact kinds).
    """

    queue_dir: Path | str | None = None

    name = "queue"

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: Sequence[SweepTask],
        workers: int,
        chunksize: int,
    ) -> Iterator[tuple[int, Any]]:
        # chunksize is a pool-dispatch optimization; the queue hands out one
        # task per claim so stealing stays task-granular
        spec, sweep_id = self._spec(fn, shared)
        root = self.queue_dir if self.queue_dir is not None else spec.store.root / "queue"
        queue = _QueueDir(Path(root) / sweep_id, spec)
        return self._coordinate(queue, spec, list(tasks), max(1, int(workers)))
