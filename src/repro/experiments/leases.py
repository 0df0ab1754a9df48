"""The lease core shared by the elastic sweep backends.

:class:`~repro.experiments.queue.QueueBackend` (a shared directory) and
:class:`~repro.experiments.broker.BrokerBackend` (a TCP broker) are two
transports over the one lease/retry/quarantine machine defined here:

* **lease records** — :func:`new_lease` is the one lease shape every holder
  agrees on and :func:`lease_expired` judges it; the ``*_lease`` file
  primitives give the directory queue atomic claim, renew, steal, and
  release on a shared filesystem;
* **retry decision** — :func:`fail_transition` turns a failed attempt into
  a requeue with backoff or a quarantine, and :func:`recall_settled` is the
  single source of truth for "is this task done?" (the artifact store);
* **lease table** — :class:`LeaseTable` is one sweep's pending tasks,
  leases, and settled payloads as a pure object: every operation takes
  ``now`` as an argument, does no IO, and returns the journal entries it
  implies, so the broker journals them and :meth:`LeaseTable.apply`
  replays them;
* **worker** — :class:`LeaseWorker` runs the one execute path (settled
  check, claim hook, heartbeat, execute, store publish, then ack or fail)
  against a transport *channel*, renewing its lease through one
  :class:`Heartbeat` thread;
* **coordinator** — :class:`LeaseBackend` holds the backend fields both
  transports share and the one coordinator loop: recall, enqueue, spawn,
  then settle / respawn / inline-drain rounds, then teardown.

A transport supplies two small objects.  Its *channel* (built in each
worker from the picklable ``WorkerSpec.link``) implements ``claim``,
``renew``, ``settled``, ``complete``, ``fail``, and ``close``; its
coordinator-side *transport* implements ``start``, ``collect``, ``check``,
``shutdown``, and ``close``, and exposes the ``link`` workers connect
through, whether a ``fleet`` may be spawned, and its ``extra_stats``
counters.  Completed results always publish through the artifact store,
so a restarted coordinator recalls them instead of recomputing.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import threading
import time
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .cache import (
    ArtifactCache,
    POISON_KIND,
    SHARD_RESULT_KIND,
    cache_digest,
    default_cache,
    poison_key,
    shard_result_key,
)
from .engine import (
    DEFAULT_BACKOFF,
    QuarantinedTask,
    SweepTask,
    retry_delay,
    store_label,
    task_digest,
    worker_identity,
)
from .faults import NULL_INJECTOR, FaultPlan

__all__ = [
    "DEFAULT_QUEUE_RETRIES",
    "Heartbeat",
    "LeaseBackend",
    "LeaseTable",
    "LeaseWorker",
    "WorkerSpec",
    "acquire_lease",
    "atomic_write",
    "discard",
    "fail_transition",
    "lease_expired",
    "new_lease",
    "read_lease",
    "recall_settled",
    "release_lease",
    "renew_lease",
    "steal_lease",
]

#: Default retry budget of the lease backends (used when the runner leaves
#: it unset): unlike the in-process backends, retrying is what they are for.
DEFAULT_QUEUE_RETRIES = 2


# --------------------------------------------------------------- lease records
#
# A lease means "this worker is executing the task".  The directory queue
# keeps it in a small JSON file next to the queued task and needs exactly
# three filesystem guarantees, all of which the artifact store already
# depends on: atomic create-if-absent (claim), atomic replace (heartbeat
# renewal), and atomic rename (steal).  Readers therefore always see a
# complete lease or none — never a torn one — and an unreadable lease can
# safely be treated as expired, because stealing it is itself atomic
# (exactly one stealer wins the rename).


def new_lease(
    owner: str,
    lease_seconds: float,
    hard_deadline: float | None = None,
    now: float | None = None,
) -> dict[str, Any]:
    """A fresh lease payload: the one lease shape every holder agrees on.

    ``heartbeat_deadline`` starts at now + ``lease_seconds`` and is pushed
    forward by renewals; ``hard_deadline`` (the ``--task-timeout`` bound) is
    absolute and never renewed.  The directory queue writes it to a lease
    file and :class:`LeaseTable` keeps it in memory, so :func:`lease_expired`
    judges both identically.
    """
    now = time.time() if now is None else now
    return {
        "owner": str(owner),
        "acquired": now,
        "heartbeat_deadline": now + float(lease_seconds),
        "hard_deadline": float(hard_deadline) if hard_deadline is not None else None,
    }


def atomic_write(
    path: Path, data: bytes, publish: Callable[[str, Path], None] = os.replace
) -> bool:
    """Write ``data`` to a temp file beside ``path``, then move it into place.

    Readers see the old content, the new content, or nothing — never a torn
    write.  ``publish`` is ``os.replace`` (overwrite) or ``os.link`` (atomic
    create-if-absent *with* content).  Returns ``False`` on any ``OSError``,
    including an existing ``path`` under ``os.link``.
    """
    temp_name = None
    try:
        handle, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(handle, "wb") as temp_file:
            temp_file.write(data)
        publish(temp_name, path)
        return True
    except OSError:
        return False
    finally:
        if temp_name is not None:
            discard(temp_name)  # replaced away, or the link's leftover name


def discard(path: Path | str) -> None:
    """Unlink a file if it is there (idempotent)."""
    try:
        os.unlink(path)
    except OSError:
        pass


def acquire_lease(
    path: Path | str,
    owner: str,
    lease_seconds: float,
    hard_deadline: float | None = None,
) -> bool:
    """Atomically claim a lease file; ``True`` iff this caller created it.

    The lease is written in full and linked into place (unlike a bare
    ``O_CREAT | O_EXCL`` open followed by a write, which would expose an
    empty lease between the two syscalls).  See :func:`new_lease` for the
    deadline semantics.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    payload = json.dumps(new_lease(owner, lease_seconds, hard_deadline)).encode()
    return atomic_write(path, payload, publish=os.link)


def read_lease(path: Path | str) -> dict[str, Any] | None:
    """The lease's JSON payload, or None (absent, unreadable, or corrupt)."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def lease_expired(
    lease: Mapping[str, Any] | None, now: float | None = None
) -> bool:
    """Whether a lease may be stolen: past either deadline, or unreadable."""
    if lease is None:
        return True
    now = time.time() if now is None else now
    heartbeat = lease.get("heartbeat_deadline")
    hard = lease.get("hard_deadline")
    if isinstance(heartbeat, (int, float)) and now > heartbeat:
        return True
    if isinstance(hard, (int, float)) and now > hard:
        return True
    # a lease carrying neither deadline is malformed; holding it forever
    # would deadlock the queue, so it counts as expired too
    return not isinstance(heartbeat, (int, float)) and not isinstance(hard, (int, float))


def renew_lease(path: Path | str, owner: str, lease_seconds: float) -> bool:
    """Push the heartbeat deadline forward if ``owner`` still holds the lease.

    Returns ``False`` when the lease was stolen (or the rewrite failed) —
    the worker keeps executing regardless, because publishing the result is
    idempotent; the thief merely re-runs the task redundantly.
    """
    path = Path(path)
    lease = read_lease(path)
    if lease is None or lease.get("owner") != str(owner):
        return False
    lease["heartbeat_deadline"] = time.time() + float(lease_seconds)
    return atomic_write(path, json.dumps(lease).encode())


def steal_lease(path: Path | str) -> dict[str, Any] | None:
    """Atomically take a lease off its task: exactly one concurrent caller wins.

    The winner receives the stolen lease's payload (``{}`` if unreadable) and
    owns the requeue decision; losers (and calls on an already-stolen lease)
    get ``None``.  Implemented as ``os.replace`` to a caller-unique name, so
    there is no read-check-unlink window for two stealers to race through.
    """
    path = Path(path)
    unique = f".steal-{os.getpid()}-{threading.get_ident()}-{time.monotonic_ns()}"
    target = path.with_name(path.name + unique)
    try:
        os.replace(path, target)
    except OSError:
        return None
    lease = read_lease(target) or {}
    discard(target)
    return lease


def release_lease(path: Path | str) -> None:
    """Drop a lease (idempotent; releasing a stolen/absent lease is a no-op)."""
    discard(path)


# ------------------------------------------------------------ retry decision


def fail_transition(
    record: dict[str, Any],
    error: str,
    retries: int,
    backoff: float,
    now: float | None = None,
) -> tuple[str, dict[str, Any]]:
    """The one requeue-or-quarantine decision every transport shares.

    Given a task record ``{task, digest, attempts, errors, ...}`` and the
    error that failed this attempt, returns either ``("requeue", record')``
    — attempts incremented, the error appended, and ``not_before`` pushed to
    now + :func:`~repro.experiments.engine.retry_delay` (exponential backoff
    with deterministic per-digest jitter) — or, once ``attempts > retries``,
    ``("poison", payload)`` where the payload is store-shaped
    ``{task, digest, attempts, errors}``.
    """
    now = time.time() if now is None else now
    digest = record["digest"]
    attempts = record.get("attempts", 0) + 1
    errors = [*record.get("errors", []), error]
    if attempts > int(retries):
        return "poison", {
            "task": record.get("task"),
            "digest": digest,
            "attempts": attempts,
            "errors": tuple(errors),
        }
    return "requeue", {
        **record,
        "attempts": attempts,
        "errors": errors,
        "not_before": now + retry_delay(backoff, digest, attempts),
    }


def _settled_value(kind: str, digest: str, payload: Mapping[str, Any]) -> Any:
    """What the coordinator yields for a store-shaped terminal payload."""
    if kind == "result":
        return payload["result"]
    return QuarantinedTask(
        task=payload.get("task"),
        digest=digest,
        attempts=int(payload.get("attempts", 0)),
        errors=tuple(payload.get("errors", ())),
    )


def recall_settled(
    store: ArtifactCache, label: str, worker_name: str, digest: str
) -> tuple[str, Any] | None:
    """Look a task up in the store's terminal states.

    Returns ``("result", value)`` for a published result, ``("poison",
    QuarantinedTask)`` for a quarantined task, or ``None`` while the task is
    still unsettled.  This is the single source of truth for "is this task
    done?" — workers use it to skip re-execution, and the coordinator uses
    it to recall prior work at zero recomputation.
    """
    for kind, store_kind, key in (
        ("result", SHARD_RESULT_KIND, shard_result_key),
        ("poison", POISON_KIND, poison_key),
    ):
        payload = store.get(store_kind, key(label, worker_name, digest))
        if payload is not None:
            return kind, _settled_value(kind, digest, payload)
    return None


# --------------------------------------------------------------- lease table


class LeaseTable:
    """One sweep's pending tasks, leases, and settled payloads.

    A pure state machine: every operation takes ``now`` as an argument,
    starts no thread, does no IO, and returns the journal entries it
    implies.  Mutations are made *by* applying those entries
    (:meth:`apply`), so replaying a journal rebuilds the same pending
    tasks, settled payloads, and lease owners.  Entries:

    ``sweep``     the retry policy (``retries``, ``backoff``); reopens claims
    ``task``      a pending record — an enqueue, or a requeue carrying the
                  backoff's ``not_before`` (it releases the task's lease)
    ``lease``     a claim: ``digest``, ``owner``, ``lease_seconds``,
                  ``hard_deadline``
    ``done``      a completion with its (opaque) ``result`` and ``attempts``
    ``poison``    a quarantine with ``task``, ``attempts``, and ``errors``
    ``shutdown``  claims return nothing until the next ``sweep`` entry

    Heartbeat renewals are deliberately not journaled: replay re-arms every
    live lease with a fresh ``lease_seconds`` grace window, exactly the
    benefit of the doubt a renewing worker had earned.  Every lease belongs
    to a pending task (requeues and settlements drop it), so expiry always
    has a record to requeue.  Records and results are opaque to the table:
    the broker stores base64 pickles, and the retry arithmetic is
    :func:`fail_transition`, the same as the directory queue's.
    """

    def __init__(
        self, retries: int = DEFAULT_QUEUE_RETRIES, backoff: float = DEFAULT_BACKOFF
    ):
        self.tasks: dict[str, dict[str, Any]] = {}
        self.leases: dict[str, dict[str, Any]] = {}
        self.settled: dict[str, dict[str, Any]] = {}
        self.retries = retries
        self.backoff = backoff
        self.shutdown = False

    def counts(self) -> dict[str, int]:
        return {
            "pending": len(self.tasks),
            "leased": len(self.leases),
            "settled": len(self.settled),
        }

    # --------------------------------------------------------------- replay

    def apply(self, entry: Mapping[str, Any], now: float) -> None:
        """Apply one journal entry (``now`` stamps a replayed lease)."""
        kind = entry.get("entry")
        digest = entry.get("digest")
        if kind == "sweep":
            self.retries = int(entry.get("retries", DEFAULT_QUEUE_RETRIES))
            self.backoff = float(entry.get("backoff", DEFAULT_BACKOFF))
            self.shutdown = False  # a (re)enqueueing coordinator reopens it
        elif kind == "task":
            record = entry.get("record")
            if isinstance(record, dict) and record.get("digest") not in self.settled:
                self.tasks[record["digest"]] = record
                self.leases.pop(record["digest"], None)  # a requeue implies release
        elif kind == "lease":
            if digest in self.tasks:
                lease = new_lease(
                    entry.get("owner", "unknown"),
                    float(entry.get("lease_seconds", 15.0)),
                    now=now,
                )
                # the hard deadline stays absolute — a replay never extends it
                lease["hard_deadline"] = entry.get("hard_deadline")
                self.leases[digest] = lease
        elif kind == "done":
            self.settled[digest] = {
                "status": "done",
                "result": entry.get("result"),
                "attempts": int(entry.get("attempts", 1)),
            }
        elif kind == "poison":
            self.settled[digest] = {
                "status": "poison",
                "task": entry.get("task"),
                "attempts": int(entry.get("attempts", 0)),
                "errors": list(entry.get("errors", [])),
            }
        elif kind == "shutdown":
            self.shutdown = True
        if kind in ("done", "poison"):
            self.tasks.pop(digest, None)
            self.leases.pop(digest, None)

    def _commit(self, entries: list[dict[str, Any]], now: float) -> list[dict[str, Any]]:
        for entry in entries:
            self.apply(entry, now)
        return entries

    # ----------------------------------------------------------- operations

    def enqueue(
        self, records: Sequence[Mapping[str, Any]], retries: int, backoff: float, now: float
    ) -> tuple[int, int, list[dict[str, Any]]]:
        """Register records and the retry policy: ``(enqueued, known, entries)``.

        Already-pending and already-settled digests count as ``known`` and
        are skipped, so concurrent or resumed coordinators are safe.
        """
        for record in records:
            digest = record.get("digest") if isinstance(record, Mapping) else None
            if not isinstance(digest, str) or not digest:
                raise ValueError(f"task record without digest: {record!r}")
        entries = self._commit(
            [{"entry": "sweep", "retries": int(retries), "backoff": float(backoff)}], now
        )
        known = 0
        for record in records:
            if record["digest"] in self.settled or record["digest"] in self.tasks:
                known += 1
                continue
            entries += self._commit([{"entry": "task", "record": dict(record)}], now)
        return len(records) - known, known, entries

    def claim(
        self, owner: str, lease_seconds: float, hard_timeout: float | None, now: float
    ) -> tuple[dict[str, Any] | None, list[dict[str, Any]]]:
        """Lease one claimable task to ``owner`` (after reaping expired leases).

        Idempotent per owner: an owner re-sending a claim whose reply was
        lost gets its own lease's record back.  Returns ``(record, entries)``
        with ``record=None`` when nothing is claimable (everything leased or
        inside a backoff window, or the sweep is shut down).
        """
        entries = self.reap(now)
        if self.shutdown:
            return None, entries
        for digest, lease in self.leases.items():
            if lease.get("owner") == owner:
                return self._public(digest), entries
        for digest in sorted(self.tasks):
            if digest in self.leases or self.tasks[digest].get("not_before", 0.0) > now:
                continue
            hard = now + float(hard_timeout) if hard_timeout is not None else None
            entry = {
                "entry": "lease",
                "digest": digest,
                "owner": owner,
                "lease_seconds": float(lease_seconds),
                "hard_deadline": hard,
            }
            return self._public(digest), entries + self._commit([entry], now)
        return None, entries

    def _public(self, digest: str) -> dict[str, Any]:
        record = self.tasks[digest]
        return {
            "digest": digest,
            "task": record.get("task"),
            "attempts": record.get("attempts", 0),
            "errors": list(record.get("errors", [])),
        }

    def renew(self, digest: str, owner: str, lease_seconds: float, now: float) -> bool:
        """Push ``owner``'s heartbeat deadline forward; ``False`` if not held."""
        lease = self.leases.get(digest)
        if lease is None or lease.get("owner") != owner or lease_expired(lease, now):
            return False
        lease["heartbeat_deadline"] = now + float(lease_seconds)
        return True

    def complete(
        self, digest: str, result: Any, attempts: int, now: float
    ) -> tuple[bool, list[dict[str, Any]]]:
        """Settle a task with its result: ``(duplicate, entries)``.

        A re-sent or late (post-steal) completion of a settled task is
        absorbed as a duplicate.
        """
        if digest in self.settled:
            return True, []
        entry = {"entry": "done", "digest": digest, "result": result, "attempts": int(attempts)}
        return False, self._commit([entry], now)

    def fail(
        self, digest: str, attempts: int, error: str, now: float
    ) -> tuple[str, list[dict[str, Any]]]:
        """Report a failed attempt: ``requeued``, ``quarantined``, ``stale``, or ``settled``.

        Keyed on the attempt count the worker saw at claim time: a re-sent
        fail (dropped reply) or a fail racing a reaper's requeue finds the
        count already advanced and is ignored as ``stale``.
        """
        if digest in self.settled:
            return "settled", []
        record = self.tasks.get(digest)
        if record is None or int(attempts) != int(record.get("attempts", 0)):
            return "stale", []
        entries = self._fail(record, error, now)
        return ("quarantined" if entries[0]["entry"] == "poison" else "requeued"), entries

    def _fail(self, record: dict[str, Any], error: str, now: float) -> list[dict[str, Any]]:
        outcome, payload = fail_transition(record, error, self.retries, self.backoff, now)
        if outcome == "poison":
            entry = {
                "entry": "poison",
                "digest": payload["digest"],
                "task": payload.get("task"),
                "attempts": payload["attempts"],
                "errors": list(payload["errors"]),
            }
        else:
            entry = {"entry": "task", "record": payload}
        return self._commit([entry], now)

    def reap(self, now: float) -> list[dict[str, Any]]:
        """Requeue (or quarantine) every task whose lease expired by ``now``."""
        entries: list[dict[str, Any]] = []
        for digest in [d for d, lease in self.leases.items() if lease_expired(lease, now)]:
            owner = self.leases[digest].get("owner", "unknown")
            entries += self._fail(
                self.tasks[digest],
                f"lease expired: worker {owner} died or hung past its deadline",
                now,
            )
        return entries

    def collect(
        self, digests: Iterable[str], now: float
    ) -> tuple[dict[str, dict[str, Any]], list[dict[str, Any]]]:
        """Settled payloads among ``digests`` (after reaping expired leases)."""
        entries = self.reap(now)
        return {d: self.settled[d] for d in digests if d in self.settled}, entries

    def close(self, now: float) -> list[dict[str, Any]]:
        """Shut the sweep: later claims return nothing."""
        return [] if self.shutdown else self._commit([{"entry": "shutdown"}], now)


# -------------------------------------------------------------------- worker


class Heartbeat:
    """Daemon thread renewing one lease every ``lease_seconds / 4`` from construction.

    ``renew()`` returns ``True`` (renewed), ``False`` (the lease was stolen:
    renewal stops, the execution finishes, and its publish stays
    idempotent), or ``None`` (the lease holder is unreachable).  Once
    renewals have been unreachable for longer than the lease horizon, the
    lease has certainly been re-granted: ``lost`` is set and the worker
    abandons its ack.
    """

    def __init__(self, renew: Callable[[], bool | None], lease_seconds: float):
        self.renew = renew
        self.lease_seconds = float(lease_seconds)
        self.interval = max(0.01, self.lease_seconds / 4.0)
        self.lost = False
        self._stop = threading.Event()
        # named so tests can assert no repro-* thread outlives its sweep
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-heartbeat"
        )
        self._thread.start()

    def _run(self) -> None:
        abandon_at: float | None = None
        while not self._stop.wait(self.interval):
            renewed = self.renew()
            if renewed is None:
                now = time.time()
                if abandon_at is None:
                    abandon_at = now + self.lease_seconds
                elif now > abandon_at:
                    self.lost = True
                    return
            elif not renewed:
                return
            else:
                abandon_at = None

    def stop(self) -> None:
        self._stop.set()
        # join so stop() is a real resource release, not a request: once it
        # returns, no renewal can race a lease this worker gives up
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)


@dataclass
class WorkerSpec:
    """Everything a lease worker needs, in one picklable record.

    ``link`` is the transport's picklable address (a queue directory, a
    broker address); ``link.connect(worker)`` builds the worker's channel.
    """

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
    link: Any = None
    worker_index: int = 0
    fault_plan: FaultPlan | None = None


class LeaseWorker:
    """The claim/execute/publish loop every transport's workers run.

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
            plan.for_worker(spec.worker_index) if plan is not None else NULL_INJECTOR
        )
        self.channel = spec.link.connect(self)

    def step(self) -> str:
        """Claim and run one task: ``worked``, or the channel's claim status."""
        status, record = self.channel.claim()
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
        found = recall_settled(spec.store, spec.label, spec.worker_name, digest)
        if found is not None and self.channel.settled(record, *found):
            return
        self.injector.on_claim(self.completed)  # may SIGKILL / straggle / partition
        heartbeat: Heartbeat | None = None
        if self.injector.heartbeat_allowed(self.completed):
            heartbeat = Heartbeat(lambda: self.channel.renew(record), spec.lease_seconds)
        error: str | None = None
        try:
            self.injector.before_execute(record["task"])  # may raise (poison rule)
            result = spec.fn(spec.shared, record["task"])
            if not spec.store.put(
                SHARD_RESULT_KIND,
                shard_result_key(spec.label, spec.worker_name, digest),
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
            self.channel.fail(record, error)
            return
        if heartbeat is not None and heartbeat.lost:
            # lease holder lost past the lease deadline: the task is certainly
            # re-leased — abandon the ack; the publish above is the durable
            # copy and any duplicate execution is absorbed idempotently
            self.completed += 1
            return
        self.channel.complete(record, result)
        self.completed += 1
        self.injector.on_publish(self.completed)  # may SIGKILL post-publish

    def run(self) -> int:
        """Work until the sweep drains or shuts down; the process exit code."""
        try:
            while True:
                outcome = self.step()
                if outcome == "unreachable":
                    # exit abnormally so the coordinator respawns a fresh
                    # worker once it has restarted (or given up on) the broker
                    return 3
                if outcome in ("drained", "shutdown"):
                    return 0
                if outcome == "idle":
                    # tasks exist but none is claimable (backoff windows or
                    # live leases): poll
                    time.sleep(self.spec.poll_seconds)
        finally:
            self.channel.close()


def _worker_main(spec: WorkerSpec) -> None:
    sys.exit(LeaseWorker(spec).run())


# --------------------------------------------------------------- coordinator


@dataclass
class LeaseBackend:
    """Fields and coordinator loop shared by the queue and broker backends.

    Both satisfy the ``SweepBackend`` protocol and are *stateful across
    submissions by design*: results publish through the artifact ``store``
    under ``sweep_label``, so resubmitting the same sweep — after a crash,
    from another process, or concurrently — recomputes nothing that already
    published.  ``SweepRunner`` fills ``store``/``sweep_label``/policy fields
    from its own configuration via :meth:`configure_from_runner` (only where
    unset here).

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

    After each submission :attr:`last_stats` reports ``{"tasks",
    "recalled", "enqueued", "quarantined", "worker_deaths", "respawns",
    "inline_drained"}`` (plus transport counters) and :attr:`quarantined`
    lists the :class:`QuarantinedTask` sentinels yielded in place of results.
    """

    store: ArtifactCache | None = None
    sweep_label: str = ""
    retries: int | None = None
    task_timeout: float | None = None
    backoff: float | None = None
    lease_seconds: float = 15.0
    poll_seconds: float = 0.05
    respawn: bool = True
    mp_context: str | None = None
    fault_plan: FaultPlan | None = None

    quarantined: list[QuarantinedTask] = field(default_factory=list, init=False)
    last_stats: dict[str, int] = field(default_factory=dict, init=False)

    name = "lease"
    #: SweepRunner must not downgrade this backend to the in-process serial
    #: path at 1 worker, and should hand it runner-level configuration
    queue_semantics = True
    #: retries are handled natively (requeue/quarantine) — SweepRunner must
    #: not additionally wrap the worker in RetryingWorker
    handles_retries = True

    def configure_from_runner(self, runner: Any) -> None:
        """Adopt runner-level configuration for fields not set explicitly."""
        if self.store is None:
            self.store = runner.shard_store
        if not self.sweep_label and runner.sweep_label:
            self.sweep_label = runner.sweep_label
        if self.retries is None:
            self.retries = runner.retries
        if self.task_timeout is None:
            self.task_timeout = runner.task_timeout
        if self.backoff is None:
            self.backoff = runner.backoff
        if self.mp_context is None:
            self.mp_context = runner.mp_context

    def _spec(self, fn: Callable[[Any, SweepTask], Any], shared: Any) -> tuple[WorkerSpec, str]:
        """The sweep's worker spec (without a link) and its sweep id."""
        store = self.store if self.store is not None else default_cache()
        if not store.enabled:
            raise ValueError(
                f"the {self.name} backend publishes results through the artifact "
                "cache; the store must be enabled (unset $REPRO_CACHE_DISABLE or "
                "pass an enabled cache)"
            )
        label = store_label(self.sweep_label, shared)
        worker_name = worker_identity(fn)
        spec = WorkerSpec(
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
            fault_plan=(
                self.fault_plan if self.fault_plan is not None else FaultPlan.from_env()
            ),
        )
        # same namespace axes as the store keys: sweeps share transport state
        # exactly when they would share published results
        return spec, cache_digest({"label": label, "worker": worker_name})[:24]

    def _coordinate(
        self, transport: Any, spec: WorkerSpec, tasks: list[SweepTask], workers: int
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
                *transport.extra_stats,
            ),
            0,
        )
        stats["tasks"] = len(tasks)
        self.last_stats = stats
        store = spec.store
        positions: dict[str, list[int]] = {}
        for position, task in enumerate(tasks):
            positions.setdefault(task_digest(task), []).append(position)

        def consume(digest: str, kind: str, value: Any) -> list[tuple[int, Any]]:
            if kind == "poison":
                stats["quarantined"] += 1
                self.quarantined.append(value)
            return [(position, value) for position in positions.pop(digest)]

        def settle_from_store(recall: bool) -> Iterator[tuple[int, Any]]:
            for digest in list(positions):
                found = recall_settled(store, spec.label, spec.worker_name, digest)
                if found is None:
                    continue
                if recall and found[0] == "result":
                    stats["recalled"] += 1
                yield from consume(digest, *found)

        # recall: everything a previous run (or a concurrent sweep over an
        # overlapping grid) already settled costs zero recomputation
        yield from settle_from_store(recall=True)
        if not positions:
            return

        stats["enqueued"] = len(positions)
        method = self.mp_context or ("fork" if sys.platform == "linux" else "spawn")
        context = multiprocessing.get_context(method)
        processes: list[Any] = []
        next_index = 0
        spawn_budget = workers + 4 * workers + 4  # the fleet plus its respawns
        inline: LeaseWorker | None = None

        def spawn() -> None:
            nonlocal next_index
            process = context.Process(
                target=_worker_main,
                args=(replace(spec, link=transport.link, worker_index=next_index),),
                daemon=True,
            )
            process.start()
            processes.append(process)
            next_index += 1

        try:
            # enqueue only the unsettled remainder, then spawn the fleet
            transport.start(
                {digest: tasks[slots[0]] for digest, slots in positions.items()},
                stats,
                context,
            )
            if transport.fleet:
                for _ in range(min(workers, len(positions))):
                    spawn()
            while positions:
                # settle: the store first (workers publish there before
                # acking, so a lost ack never loses a result), then whatever
                # only the transport knows (broker-side quarantines)
                unsettled = len(positions)
                yield from settle_from_store(recall=False)
                collected = transport.collect(sorted(positions)) if positions else []
                for digest, kind, payload in collected:
                    if digest in positions:
                        key = shard_result_key if kind == "result" else poison_key
                        store.put(
                            SHARD_RESULT_KIND if kind == "result" else POISON_KIND,
                            key(spec.label, spec.worker_name, digest),
                            payload,
                        )
                        yield from consume(digest, kind, _settled_value(kind, digest, payload))
                if not positions:
                    break
                progressed = len(positions) < unsettled
                # respawn: absorb fleet deaths within budget, then let the
                # transport check its own liveness (broker restart/fallback)
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
                if self.respawn and transport.fleet:
                    for _ in range(died):
                        if next_index >= spawn_budget:
                            break
                        spawn()
                        stats["respawns"] += 1
                if transport.check(positions):
                    progressed = True
                if not transport.fleet and processes:
                    _stop_fleet(processes, grace=0.0)
                    processes.clear()
                # inline drain: with no fleet left the coordinator claims
                # through the transport itself — a sweep must terminate even
                # with zero surviving workers
                if not processes:
                    if inline is None or inline.spec.link is not transport.link:
                        if inline is not None:
                            inline.channel.close()
                        inline = LeaseWorker(
                            replace(spec, link=transport.link, worker_index=-1, fault_plan=None)
                        )
                    if inline.step() == "worked":
                        stats["inline_drained"] += 1
                        progressed = True
                if not progressed:
                    time.sleep(spec.poll_seconds)
        finally:
            transport.shutdown()
            _stop_fleet(processes, grace=10.0)
            if inline is not None:
                inline.channel.close()
            # a fully settled sweep retires its transport state (everything
            # worth keeping lives in the store); an abandoned sweep keeps it
            # so a resume picks the queue back up
            transport.close(settled=not positions)


def _stop_fleet(processes: list[Any], grace: float) -> None:
    """Join worker processes within ``grace`` seconds, then terminate stragglers."""
    deadline = time.time() + grace
    for process in processes:
        process.join(timeout=max(0.1, deadline - time.time()))
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
