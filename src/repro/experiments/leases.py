"""Lease records, the retry decision, and the heartbeat of the directory queue.

:class:`~repro.experiments.queue.QueueBackend` builds its worker and
coordinator from the pieces defined here:

* **lease records** — :func:`new_lease` is the one lease shape and
  :func:`lease_expired` judges it; the ``*_lease`` file primitives give the
  queue atomic claim, renew, steal, and release on a shared filesystem;
* **retry decision** — :func:`fail_transition` turns a failed attempt into
  a requeue with backoff or a quarantine, and :func:`recall_settled` is the
  single source of truth for "is this task done?" (the artifact store,
  under the :func:`settled_key` of :data:`RESULT_KIND` or
  :data:`POISON_KIND`);
* **heartbeat** — :class:`Heartbeat` renews one lease from a daemon thread
  while its task executes.

Completed results always publish through the artifact store, so a restarted
coordinator recalls them instead of recomputing.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

from .cache import ArtifactCache
from .engine import QuarantinedTask, retry_delay

__all__ = [
    "DEFAULT_QUEUE_RETRIES",
    "Heartbeat",
    "POISON_KIND",
    "RESULT_KIND",
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
    "settled_key",
    "steal_lease",
]

#: Default retry budget of the queue backend (used when the runner leaves it
#: unset): unlike the serial backend, retrying is what it is for.
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
    absolute and never renewed.
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
    """The one requeue-or-quarantine decision for a failed attempt.

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


#: Artifact kind of a task's published result.  The name predates the queue
#: and is kept so that results published by earlier versions are recalled.
RESULT_KIND = "sweep-shard"

#: Artifact kind of a task quarantined after exhausting its retry budget.
POISON_KIND = "sweep-poison"


def settled_key(label: str, worker_name: str, digest: str) -> dict[str, str]:
    """Store key of one task's terminal state, under either kind.

    ``label`` namespaces the sweep configuration (``engine.store_label``),
    ``worker_name`` the worker function (``engine.worker_identity``) and
    ``digest`` the task (``engine.task_digest``).
    """
    return {"sweep": str(label), "worker": str(worker_name), "task": str(digest)}


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
    key = settled_key(label, worker_name, digest)
    payload = store.get(RESULT_KIND, key)
    if payload is not None:
        return "result", payload["result"]
    payload = store.get(POISON_KIND, key)
    if payload is not None:
        return "poison", QuarantinedTask(
            task=payload.get("task"),
            digest=digest,
            attempts=int(payload.get("attempts", 0)),
            errors=tuple(payload.get("errors", ())),
        )
    return None


# -------------------------------------------------------------------- heartbeat


class Heartbeat:
    """Daemon thread renewing one lease every ``lease_seconds / 4`` from construction.

    ``renew()`` returns ``True`` (renewed) or ``False`` (the lease was
    stolen: renewal stops, the execution finishes, and its publish stays
    idempotent).
    """

    def __init__(self, renew: Callable[[], bool], lease_seconds: float):
        self.renew = renew
        self.interval = max(0.01, float(lease_seconds) / 4.0)
        self._stop = threading.Event()
        # named so tests can assert no repro-* thread outlives its sweep
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-heartbeat"
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.renew():
                return

    def stop(self) -> None:
        self._stop.set()
        # join so stop() is a real resource release, not a request: once it
        # returns, no renewal can race a lease this worker gives up
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
