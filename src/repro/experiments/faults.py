"""Deterministic fault injection for chaos-testing the elastic sweep service.

The queue backend's whole value proposition — leases expire, tasks are
stolen, sweeps survive dead workers — is unobservable on a healthy host.
This module makes failure reproducible: a :class:`FaultPlan` is a picklable
description of *which* worker misbehaves, *when*, and *how*, and the queue
workers consult their :class:`WorkerFaultInjector` at fixed hook points
(task claim, task execution, heartbeat renewal, result publish).  Because
kill points are counted in completed tasks, a chaos test that kills worker
0 after its first task does so on every run, on every host.

Fault rules
-----------

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

CLI injection
-------------
``$REPRO_FAULT_PLAN`` carries a JSON-encoded plan into driver CLIs
(``tests/test_engine.py::TestCliTableDiffs`` kills a ``fig09_sram --backend
queue`` worker this way, and ``TestQuarantineRendering`` poisons one task of
every driver)::

    REPRO_FAULT_PLAN='[{"kind": "kill", "worker": 0, "after_tasks": 1}]' \\
        python -m repro.experiments.fig09_sram --figure a --backend queue

Only queue workers consult the plan — the fault hooks live in the queue
worker's execute path (:class:`~repro.experiments.queue.LeaseWorker`), so
other backends ignore the variable.
Malformed plans fail fast with the accepted grammar
(:func:`rule_grammar`) instead of failing deep inside a worker.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from dataclasses import asdict, dataclass

__all__ = [
    "DelayTask",
    "FaultPlan",
    "KillWorker",
    "PoisonTask",
    "SuppressHeartbeat",
    "WorkerFaultInjector",
    "rule_grammar",
]

ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"

_KILL_PHASES = ("claim", "publish")


@dataclass(frozen=True)
class KillWorker:
    """SIGKILL worker ``worker`` once it has completed ``after_tasks`` tasks.

    See the module docstring for the ``phase`` semantics.
    """

    worker: int
    after_tasks: int
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


_RULE_TYPES = {
    cls.kind: cls for cls in (KillWorker, DelayTask, SuppressHeartbeat, PoisonTask)
}

FaultRule = KillWorker | DelayTask | SuppressHeartbeat | PoisonTask


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
    """A set of fault rules, distributable to workers by index."""

    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def for_worker(self, index: int) -> "WorkerFaultInjector":
        """The injector a queue worker with this index should consult.

        ``worker=-1`` on a rule is a wildcard: every worker in the fleet
        applies it (the coordinator's inline drain worker never consults a
        plan, so even wildcard rules cannot poison the coordinator itself).
        """
        return WorkerFaultInjector([rule for rule in self.rules if rule.worker in (index, -1)])

    # ------------------------------------------------- env/JSON round-trip

    def to_json(self) -> str:
        return json.dumps(
            [{"kind": rule.kind, **asdict(rule)} for rule in self.rules]
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
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
        return cls(rules=tuple(rules))

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

    The queue worker calls :meth:`on_claim` after acquiring a lease
    (before executing), :meth:`before_execute` inside the execution,
    :meth:`heartbeat_allowed` when deciding whether to start the renewal
    thread, and :meth:`on_publish` after a completed task's result landed.
    All decisions are pure functions of (rules, completed count) — no live
    randomness.
    """

    def __init__(self, rules: list):
        self._delays = [rule for rule in rules if isinstance(rule, DelayTask)]
        self._suppress = [rule for rule in rules if isinstance(rule, SuppressHeartbeat)]
        self._poisons = [rule for rule in rules if isinstance(rule, PoisonTask)]
        kills = [rule for rule in rules if isinstance(rule, KillWorker)]
        self._kill = (int(kills[0].after_tasks), kills[0].phase) if kills else None

    def on_claim(self, completed: int) -> None:
        """Hook after lease acquisition; may sleep (straggle) or never return."""
        for rule in self._delays:
            if rule.every > 0 and (completed + 1) % rule.every == 0:
                time.sleep(rule.seconds)
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
