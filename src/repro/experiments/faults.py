"""Deterministic fault injection for chaos-testing the elastic sweep service.

The queue backend's whole value proposition — leases expire, tasks are
stolen, sweeps survive dead workers — is unobservable on a healthy host.
This module makes failure reproducible: a :class:`FaultPlan` is a seeded,
picklable description of *which* worker misbehaves, *when*, and *how*, and
the queue/broker workers consult their :class:`WorkerFaultInjector` at fixed
hook points (task claim, heartbeat renewal, result publish, and — on the
broker backend — every wire request).  Because kill points are counted in
completed tasks and all randomness is seeded, a chaos test that kills
worker 0 after its first task does so on every run, on every host.

Fault rules
-----------
Process-level rules (queue and broker workers):

* :class:`KillWorker` — ``os.kill(getpid(), SIGKILL)`` after N completed
  tasks.  ``phase="claim"`` dies *after acquiring the next lease* (the
  nastiest case: the task is mid-flight, recovery requires lease expiry +
  stealing); ``phase="publish"`` dies right after a clean publish (models a
  worker preempted between tasks — nothing to recover but the fleet shrank).
* :class:`DelayTask` — sleeps before executing (straggler injection; with a
  short lease this forces expiry *while the worker is still alive*,
  exercising the duplicate-execution path that idempotent publishes absorb).
* :class:`SuppressHeartbeat` — stops lease renewal while the task keeps
  running, forcing expiry + steal without killing anyone.
* :class:`PoisonTask` — raises inside task execution for every task whose
  ``describe()`` contains a substring, on *every* worker (``worker=-1``
  wildcard by default).  Because the failure is task-addressed rather than
  worker-addressed, retries land on the same poison and the task is
  deterministically quarantined once the retry budget is spent — the rule
  that exercises the ``QuarantinedTask`` rendering path end to end.

Wire-level rules (broker backend, :mod:`repro.experiments.broker`):

* :class:`DropConnection` — the worker's broker client closes its socket
  right after sending a request, before reading the reply.  The reply is
  lost, so the client must reconnect-with-backoff and re-send; the broker
  protocol is idempotent per ``(digest, attempts)``, so the retry is
  absorbed without double-counting.
* :class:`PartitionWorker` — from the claim of the N-th task, every wire
  call from that worker fails for ``seconds`` (the socket is never even
  touched), modelling a network partition.  Heartbeats stop reaching the
  broker, the lease expires, the broker re-leases the task elsewhere, and
  the partitioned worker abandons it once its lease deadline passes.
* :class:`DelayAck` — sleeps between publishing a result to the store and
  sending the ``complete`` ack; with a short lease the task is re-leased in
  that window and the duplicate is absorbed idempotently.
* :class:`KillBroker` — consulted by the *broker process*, not a worker:
  SIGKILL right after journaling the N-th completed task (the reply for
  that completion is never sent).  Recovery is journal replay: a restarted
  broker reloads every pending task, restored lease, and settled result.

CLI injection
-------------
``$REPRO_FAULT_PLAN`` carries a JSON-encoded plan into driver CLIs (the CI
lease-smoke job kills a ``fig09_sram --backend queue`` worker this way, and
a live broker under a driver)::

    REPRO_FAULT_PLAN='[{"kind": "kill", "worker": 0, "after_tasks": 1}]' \\
        python -m repro.experiments.fig09_sram --figure a --backend queue

Only queue/broker workers (and the broker server) consult the plan — the
fault hooks live in the lease worker's execute path
(:class:`~repro.experiments.leases.LeaseWorker`) and the broker's socket
client and server, so other backends ignore the variable.
Malformed plans fail fast with the accepted grammar
(:func:`rule_grammar`) instead of failing deep inside a worker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import time
from dataclasses import asdict, dataclass

__all__ = [
    "DelayAck",
    "DelayTask",
    "DropConnection",
    "FaultPlan",
    "KillBroker",
    "KillWorker",
    "PartitionWorker",
    "PoisonTask",
    "SuppressHeartbeat",
    "WorkerFaultInjector",
    "NULL_INJECTOR",
    "rule_grammar",
]

ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

_KILL_PHASES = ("claim", "publish")


@dataclass(frozen=True)
class KillWorker:
    """SIGKILL worker ``worker`` once it has completed ``after_tasks`` tasks.

    ``after_tasks=None`` draws the count deterministically from the plan
    seed (1–3), so randomized chaos stays reproducible.  See the module
    docstring for the ``phase`` semantics.
    """

    worker: int
    after_tasks: int | None = None
    phase: str = "claim"

    kind = "kill"

    def __post_init__(self) -> None:
        if self.phase not in _KILL_PHASES:
            raise ValueError(
                f"kill phase must be one of {_KILL_PHASES}, got {self.phase!r}"
            )


@dataclass(frozen=True)
class DelayTask:
    """Sleep ``seconds`` before executing every ``every``-th claimed task."""

    worker: int
    seconds: float
    every: int = 1

    kind = "delay"


@dataclass(frozen=True)
class SuppressHeartbeat:
    """Stop renewing leases once ``after_tasks`` tasks have completed.

    The worker keeps executing; its lease expires mid-task and another
    worker steals + requeues it.  The suppressed worker's publish still
    lands (idempotently), modelling the classic partitioned-but-alive node.
    """

    worker: int
    after_tasks: int = 0

    kind = "no-heartbeat"


@dataclass(frozen=True)
class PoisonTask:
    """Raise inside execution for tasks whose ``describe()`` contains ``match``.

    Unlike the worker-addressed rules, poison follows the *task*: with the
    default ``worker=-1`` wildcard every worker that claims a matching task
    fails it, so retry attempts cannot escape by landing elsewhere and the
    task is quarantined after exactly ``retries + 1`` attempts.  An empty
    ``match`` poisons every task (a fully-poisoned sweep still terminates —
    with a table of QUARANTINED rows).
    """

    match: str = ""
    worker: int = -1

    kind = "poison"


@dataclass(frozen=True)
class DropConnection:
    """Forcibly close the broker connection after sending a request.

    Fires on every ``every``-th matching wire request (``op`` is a substring
    filter over the request's operation name; empty matches any), at most
    ``limit`` times (``None`` = unlimited).  The reply is lost, so the
    client must reconnect and re-send — exercising the reconnect-with-
    backoff path and the broker protocol's idempotency.
    """

    worker: int
    every: int = 1
    op: str = ""
    limit: int | None = 1

    kind = "drop-connection"


@dataclass(frozen=True)
class PartitionWorker:
    """Cut the worker off from the broker for ``seconds``.

    Triggers once, on the claim hook of the task after ``after_tasks``
    completions: every wire call from this worker (heartbeats included)
    fails until the window closes.  The broker re-leases the abandoned task
    once its lease expires; the healed worker's late traffic is absorbed
    idempotently.
    """

    worker: int
    after_tasks: int = 0
    seconds: float = 1.0

    kind = "partition"


@dataclass(frozen=True)
class DelayAck:
    """Sleep ``seconds`` between store publish and the ``complete`` ack.

    Fires on every ``every``-th completed task.  With a lease shorter than
    the delay, the broker re-leases the task in the publish→ack window and
    the duplicate execution is absorbed idempotently.
    """

    worker: int
    seconds: float
    every: int = 1

    kind = "delay-ack"


@dataclass(frozen=True)
class KillBroker:
    """SIGKILL the *broker process* after journaling ``after_completions`` tasks.

    Consulted by the broker server, never by workers (the default
    ``worker=-1`` is cosmetic — :meth:`FaultPlan.for_worker` filters this
    rule out).  The kill lands *after* the journal append and *before* the
    completion reply is sent, so recovery exercises both journal replay and
    the client-side re-send of a lost ack.  Journal-replayed completions
    count toward the threshold, so a restarted broker does not die again at
    the same point.
    """

    after_completions: int = 1
    worker: int = -1

    kind = "kill-broker"


_RULE_TYPES = {
    cls.kind: cls
    for cls in (
        KillWorker,
        DelayTask,
        SuppressHeartbeat,
        PoisonTask,
        DropConnection,
        PartitionWorker,
        DelayAck,
        KillBroker,
    )
}

FaultRule = (
    KillWorker
    | DelayTask
    | SuppressHeartbeat
    | PoisonTask
    | DropConnection
    | PartitionWorker
    | DelayAck
    | KillBroker
)


def rule_grammar() -> str:
    """Human-readable catalogue of every accepted rule kind and its fields.

    Embedded in validation errors so a malformed ``$REPRO_FAULT_PLAN``
    fails fast with the full grammar instead of deep inside a worker.
    """
    lines = []
    for kind in sorted(_RULE_TYPES):
        cls = _RULE_TYPES[kind]
        params = []
        for field in dataclasses.fields(cls):
            if field.default is dataclasses.MISSING:
                params.append(field.name)
            else:
                params.append(f"{field.name}={field.default!r}")
        lines.append(f'  {{"kind": "{kind}", {", ".join(params)}}}')
    return "\n".join(lines)


def _rule_from_entry(entry: object, position: int) -> FaultRule:
    """Build one rule from a decoded JSON entry, or fail naming the culprit."""
    where = f"fault rule #{position}"
    if not isinstance(entry, dict):
        raise ValueError(
            f"{where} must be a JSON object with a \"kind\", got {entry!r}; "
            f"accepted rules:\n{rule_grammar()}"
        )
    if "kind" not in entry:
        raise ValueError(
            f"{where} {entry!r} has no \"kind\"; accepted rules:\n{rule_grammar()}"
        )
    kind = entry["kind"]
    rule_type = _RULE_TYPES.get(kind)
    if rule_type is None:
        raise ValueError(
            f"{where}: unknown fault kind {kind!r} (expected one of "
            f"{sorted(_RULE_TYPES)}); accepted rules:\n{rule_grammar()}"
        )
    fields = {key: value for key, value in entry.items() if key != "kind"}
    accepted = {field.name for field in dataclasses.fields(rule_type)}
    unknown = sorted(set(fields) - accepted)
    if unknown:
        raise ValueError(
            f"{where} ({kind!r}): unknown field(s) {unknown} — accepted fields "
            f"are {sorted(accepted)}; accepted rules:\n{rule_grammar()}"
        )
    try:
        return rule_type(**fields)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"{where} ({kind!r}) {entry!r} is invalid: {error}; "
            f"accepted rules:\n{rule_grammar()}"
        ) from error


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules, distributable to workers by index."""

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def for_worker(self, index: int) -> "WorkerFaultInjector":
        """The injector a queue/broker worker with this index should consult.

        ``worker=-1`` on a rule is a wildcard: every worker in the fleet
        applies it (the coordinator's inline drain worker never consults a
        plan, so even wildcard rules cannot poison the coordinator itself).
        :class:`KillBroker` rules are broker-side and never distributed to
        workers (see :meth:`broker_kill_after`).
        """
        mine = [
            rule
            for rule in self.rules
            if not isinstance(rule, KillBroker) and rule.worker in (index, -1)
        ]
        return WorkerFaultInjector(index, mine, seed=self.seed)

    def broker_kill_after(self) -> int | None:
        """The completion count after which the broker should SIGKILL itself.

        ``None`` when the plan carries no :class:`KillBroker` rule; the
        first such rule wins otherwise.
        """
        for rule in self.rules:
            if isinstance(rule, KillBroker):
                return int(rule.after_completions)
        return None

    # ------------------------------------------------- env/JSON round-trip

    def to_json(self) -> str:
        return json.dumps(
            [{"kind": rule.kind, **asdict(rule)} for rule in self.rules]
        )

    @classmethod
    def from_json(cls, text: str, seed: int = 0) -> "FaultPlan":
        try:
            entries = json.loads(text)
        except ValueError as error:
            raise ValueError(
                f"fault plan is not valid JSON ({error}); expected a JSON "
                f"list of rule objects, e.g.\n{rule_grammar()}"
            ) from error
        if not isinstance(entries, list):
            raise ValueError(
                f"fault plan JSON must be a list of rule objects, got "
                f"{type(entries).__name__}; accepted rules:\n{rule_grammar()}"
            )
        rules = [
            _rule_from_entry(entry, position) for position, entry in enumerate(entries)
        ]
        return cls(rules=tuple(rules), seed=seed)

    def to_env(self, environ: dict[str, str] | None = None) -> dict[str, str]:
        """Write the plan into an environment mapping (default ``os.environ``)."""
        target = os.environ if environ is None else environ
        target[ENV_FAULT_PLAN] = self.to_json()
        return target

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan carried by ``$REPRO_FAULT_PLAN``, or None when unset.

        A present-but-malformed plan raises immediately (naming the variable
        and the grammar) rather than being silently ignored or failing deep
        inside a worker process.
        """
        text = os.environ.get(ENV_FAULT_PLAN, "").strip()
        if not text:
            return None
        try:
            return cls.from_json(text)
        except ValueError as error:
            raise ValueError(f"${ENV_FAULT_PLAN}: {error}") from error


class WorkerFaultInjector:
    """One worker's slice of a fault plan, consulted at the lease hook points.

    The lease worker calls :meth:`on_claim` after acquiring a lease
    (before executing), :meth:`heartbeat_allowed` when deciding whether to
    start the renewal thread, and :meth:`on_publish` after a completed
    task's result landed.  The broker client additionally consults
    :meth:`wire_drop` after sending each request, :meth:`partition_active`
    before touching the socket, and :meth:`ack_delay` before sending a
    completion ack.  All decisions are pure functions of (rules, seed,
    completed count) — no live randomness.
    """

    def __init__(self, index: int, rules: list, seed: int = 0):
        self.index = index
        self._delays = [rule for rule in rules if isinstance(rule, DelayTask)]
        self._suppress = [rule for rule in rules if isinstance(rule, SuppressHeartbeat)]
        self._poisons = [rule for rule in rules if isinstance(rule, PoisonTask)]
        self._drops = [rule for rule in rules if isinstance(rule, DropConnection)]
        self._drop_matches = [0] * len(self._drops)
        self._drop_fired = [0] * len(self._drops)
        self._partitions = [rule for rule in rules if isinstance(rule, PartitionWorker)]
        self._partition_done = [False] * len(self._partitions)
        self._partition_until = 0.0
        self._ack_delays = [rule for rule in rules if isinstance(rule, DelayAck)]
        self._kill: tuple[int, str] | None = None
        kills = [rule for rule in rules if isinstance(rule, KillWorker)]
        if kills:
            rule = kills[0]
            after = rule.after_tasks
            if after is None:
                token = hashlib.sha256(f"faults:{seed}:{index}".encode()).digest()
                after = 1 + token[0] % 3
            self._kill = (int(after), rule.phase)

    def on_claim(self, completed: int) -> None:
        """Hook after lease acquisition; may sleep (straggle) or never return."""
        for rule in self._delays:
            if rule.every > 0 and (completed + 1) % rule.every == 0:
                time.sleep(rule.seconds)
        for position, rule in enumerate(self._partitions):
            if not self._partition_done[position] and completed >= rule.after_tasks:
                self._partition_done[position] = True
                self._partition_until = max(
                    self._partition_until, time.time() + float(rule.seconds)
                )
        if self._kill is not None:
            after, phase = self._kill
            if phase == "claim" and completed >= after:
                self._die()

    def before_execute(self, task) -> None:
        """Hook inside the execution try-block; raising fails the *attempt*.

        The lease worker treats the raise exactly like a worker-function
        exception: the task is requeued with backoff and quarantined once
        ``attempts > retries`` — never a crashed worker, never a deadlock.
        """
        if not self._poisons:
            return
        description = task.describe() if hasattr(task, "describe") else str(task)
        for rule in self._poisons:
            if rule.match in description:
                raise RuntimeError(
                    f"fault plan poisoned task ({rule.match!r} in {description!r})"
                )

    def heartbeat_allowed(self, completed: int) -> bool:
        """Whether this task's lease may be renewed while it runs."""
        return not any(completed >= rule.after_tasks for rule in self._suppress)

    # ----------------------------------------------------- wire-level hooks

    def wire_drop(self, op: str) -> bool:
        """Whether to sever the connection after sending this request."""
        dropped = False
        for position, rule in enumerate(self._drops):
            if rule.op and rule.op not in op:
                continue
            self._drop_matches[position] += 1
            if rule.limit is not None and self._drop_fired[position] >= rule.limit:
                continue
            if rule.every > 0 and self._drop_matches[position] % rule.every == 0:
                self._drop_fired[position] += 1
                dropped = True
        return dropped

    def partition_active(self) -> bool:
        """Whether this worker is currently partitioned from the broker.

        The window is armed by :meth:`on_claim` (see
        :class:`PartitionWorker`) and shared by every connection the worker
        process holds — the main client and the heartbeat client fail
        together, exactly like a real network partition.
        """
        return time.time() < self._partition_until

    def ack_delay(self, completed: int) -> float:
        """Seconds to sleep between store publish and the completion ack."""
        total = 0.0
        for rule in self._ack_delays:
            if rule.every > 0 and (completed + 1) % rule.every == 0:
                total += float(rule.seconds)
        return total

    def on_publish(self, completed: int) -> None:
        """Hook after a clean publish + lease release; may never return."""
        if self._kill is not None:
            after, phase = self._kill
            if phase == "publish" and completed >= after:
                self._die()

    @staticmethod
    def _die() -> None:
        # SIGKILL self: no cleanup handlers, no finally blocks — exactly the
        # abrupt death (OOM killer, preemption) the lease protocol must absorb
        os.kill(os.getpid(), signal.SIGKILL)


#: Injector that never fires — what workers use when no plan is active.
NULL_INJECTOR = WorkerFaultInjector(-1, [])
