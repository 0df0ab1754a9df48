"""Chaos tests for the elastic queue backend, its leases, and the fault harness.

The tests here run real worker *processes* against a real shared-directory
queue and kill them mid-flight: the acceptance bar is that the merged sweep
stays bit-identical to :class:`SerialBackend` no matter which workers die,
that a restarted coordinator recomputes nothing already published, and that
a poisonous task is quarantined after exactly ``retries + 1`` attempts
instead of deadlocking the sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.experiments.cache import ArtifactCache
from repro.experiments.engine import (
    QuarantinedTask,
    SweepRunner,
    expand_grid,
    resolve_backend,
    retry_delay,
)
from repro.experiments.faults import (
    ENV_FAULT_PLAN,
    DelayTask,
    FaultPlan,
    KillWorker,
    PoisonTask,
    SuppressHeartbeat,
    rule_grammar,
)
from repro.experiments.leases import (
    acquire_lease,
    lease_expired,
    read_lease,
    release_lease,
    renew_lease,
    steal_lease,
)
from repro.experiments.queue import DEFAULT_QUEUE_RETRIES, QueueBackend


def _log_execution(log_path, tag):
    # O_APPEND keeps concurrent small writes whole: one line per execution
    with open(log_path, "a") as handle:
        handle.write(f"{tag}\n")


def _log_counts(log_path):
    try:
        lines = open(log_path).read().split()
    except OSError:
        return {}
    counts: dict[str, int] = {}
    for line in lines:
        counts[line] = counts.get(line, 0) + 1
    return counts


def _draw_worker(shared, task):
    rng = np.random.default_rng(task.seed)
    return {
        "voltage": task.voltage,
        "offset": shared["offset"],
        "draw": float(rng.uniform()),
    }


def _logged_worker(shared, task):
    _log_execution(shared["log"], f"{task.voltage}")
    return _draw_worker(shared, task)


def _poison_worker(shared, task):
    _log_execution(shared["log"], f"{task.voltage}")
    if task.voltage == shared["bad"]:
        raise RuntimeError("injected poison")
    return task.voltage * 2.0


def _grid(n=8, seed=17):
    return expand_grid(
        voltages=tuple(round(0.40 + 0.02 * i, 2) for i in range(n)), seed=seed
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


def _queue_backend(store, **kw):
    kw.setdefault("lease_seconds", 10.0)
    kw.setdefault("poll_seconds", 0.01)
    return QueueBackend(store=store, **kw)


def _runner(backend, store, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("sweep_label", "queue-test")
    return SweepRunner(backend=backend, shard_store=store, **kw)


class TestLeaseFiles:
    """The three filesystem atomics every queue guarantee rests on."""

    def test_acquire_is_exclusive(self, tmp_path):
        path = tmp_path / "task.lease"
        assert acquire_lease(path, "w0", 5.0) is True
        assert acquire_lease(path, "w1", 5.0) is False
        lease = read_lease(path)
        assert lease["owner"] == "w0"
        assert lease["heartbeat_deadline"] > lease["acquired"]
        assert lease["hard_deadline"] is None

    def test_fresh_lease_not_expired(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 30.0)
        assert lease_expired(read_lease(path)) is False

    def test_missed_heartbeats_expire(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 5.0)
        lease = read_lease(path)
        assert lease_expired(lease, now=lease["heartbeat_deadline"] + 0.1) is True

    def test_renew_pushes_heartbeat_deadline(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 0.1)
        before = read_lease(path)["heartbeat_deadline"]
        assert renew_lease(path, "w0", 60.0) is True
        assert read_lease(path)["heartbeat_deadline"] > before

    def test_renew_requires_ownership(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 5.0)
        assert renew_lease(path, "impostor", 5.0) is False
        assert read_lease(path)["owner"] == "w0"

    def test_hard_deadline_survives_renewal(self, tmp_path):
        """--task-timeout is absolute: heartbeats cannot extend it."""
        path = tmp_path / "task.lease"
        hard = time.time() + 0.5
        acquire_lease(path, "w0", 5.0, hard_deadline=hard)
        assert renew_lease(path, "w0", 3600.0) is True
        assert lease_expired(read_lease(path), now=hard + 0.1) is True

    def test_steal_has_one_winner(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 5.0)
        stolen = steal_lease(path)
        assert stolen["owner"] == "w0"
        assert steal_lease(path) is None  # a second stealer loses
        assert not path.exists()

    def test_renew_after_steal_fails(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 5.0)
        steal_lease(path)
        assert renew_lease(path, "w0", 5.0) is False

    def test_malformed_lease_counts_as_expired(self, tmp_path):
        path = tmp_path / "task.lease"
        path.write_text(json.dumps({"owner": "w0"}))  # no deadlines at all
        assert lease_expired(read_lease(path)) is True
        path.write_text("not json")
        assert read_lease(path) is None
        assert lease_expired(None) is True

    def test_release_is_idempotent(self, tmp_path):
        path = tmp_path / "task.lease"
        acquire_lease(path, "w0", 5.0)
        release_lease(path)
        release_lease(path)  # releasing an absent lease must not raise
        assert not path.exists()


class TestRetryDelay:
    def test_deterministic(self):
        assert retry_delay(0.5, "abc", 2) == retry_delay(0.5, "abc", 2)

    def test_exponential_with_bounded_jitter(self):
        for attempt in (1, 2, 3, 4):
            base = 0.5 * 2 ** (attempt - 1)
            delay = retry_delay(0.5, "abc", attempt)
            assert 0.5 * base <= delay < 1.5 * base

    def test_cap(self):
        assert retry_delay(0.5, "abc", 50, cap=60.0) == 60.0

    def test_jitter_desynchronizes_digests(self):
        delays = {retry_delay(0.5, f"digest-{i}", 1) for i in range(8)}
        assert len(delays) == 8


class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="publish"),
                DelayTask(worker=1, seconds=0.25, every=2),
                SuppressHeartbeat(worker=2, after_tasks=1),
                PoisonTask(match="voltage=0.44"),
            )
        )

    def test_plan_holds_every_rule_kind(self):
        kinds = {rule.kind for rule in self._plan().rules}
        assert kinds == {"delay", "kill", "no-heartbeat", "poison"}
        assert [line.split('"')[3] for line in rule_grammar().splitlines()] == sorted(kinds)

    def test_json_round_trip(self):
        plan = self._plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_round_trip(self, monkeypatch):
        plan = self._plan()
        env: dict[str, str] = {}
        plan.to_env(env)
        monkeypatch.setenv(ENV_FAULT_PLAN, env[ENV_FAULT_PLAN])
        assert FaultPlan.from_env() == plan

    def test_env_json_round_trip(self, monkeypatch):
        # the variable holds the plan's JSON verbatim, so a hand-written
        # $REPRO_FAULT_PLAN parses exactly as one written by to_env
        plan = FaultPlan(rules=(PoisonTask(match="voltage=0.44"),))
        env: dict[str, str] = {}
        plan.to_env(env)
        assert env[ENV_FAULT_PLAN] == plan.to_json()
        monkeypatch.setenv(ENV_FAULT_PLAN, env[ENV_FAULT_PLAN])
        assert FaultPlan.from_env() == plan

    def test_from_env_absent(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT_PLAN, raising=False)
        assert FaultPlan.from_env() is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json('[{"kind": "meteor", "worker": 0}]')

    def test_unknown_kind_lists_accepted(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json('[{"kind": "meteor"}]')
        message = str(excinfo.value)
        assert "unknown fault kind 'meteor'" in message
        assert rule_grammar() in message  # every accepted rule is listed

    def test_entry_must_be_object(self):
        with pytest.raises(ValueError, match=r"rule #1 must be a JSON object"):
            FaultPlan.from_json('[{"kind": "kill", "worker": 0, "after_tasks": 1}, "oops"]')

    def test_entry_needs_kind(self):
        with pytest.raises(ValueError, match=r'has no "kind"'):
            FaultPlan.from_json('[{"worker": 0}]')

    def test_unknown_field_named(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json('[{"kind": "no-heartbeat", "worker": 0, "aftr_tasks": 3}]')
        message = str(excinfo.value)
        assert "unknown field(s) ['aftr_tasks']" in message
        assert "'after_tasks'" in message and "'worker'" in message

    def test_missing_required_field(self):
        # KillWorker.after_tasks is required: a kill point is always explicit
        with pytest.raises(ValueError, match=r"rule #0 \('kill'\).*invalid"):
            FaultPlan.from_json('[{"kind": "kill", "worker": 0}]')

    def test_plan_must_be_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            FaultPlan.from_json('{"kind": "kill", "worker": 0, "after_tasks": 1}')

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("[{kind: kill}]")

    def test_env_errors_name_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_PLAN, '[{"kind": "meteor"}]')
        with pytest.raises(ValueError, match=rf"\${ENV_FAULT_PLAN}"):
            FaultPlan.from_env()

    def test_kill_phase_validated(self):
        with pytest.raises(ValueError, match="phase"):
            KillWorker(worker=0, after_tasks=0, phase="mid-air")

    def test_rules_dispatch_by_worker_index(self):
        plan = self._plan()
        # worker 2 is heartbeat-suppressed after 1 task; worker 0 is not
        assert plan.for_worker(2).heartbeat_allowed(0) is True
        assert plan.for_worker(2).heartbeat_allowed(1) is False
        assert plan.for_worker(0).heartbeat_allowed(100) is True

    def test_delay_fires_every_nth_claim(self, monkeypatch):
        naps: list[float] = []
        monkeypatch.setattr(
            "repro.experiments.faults.time.sleep", lambda s: naps.append(s)
        )
        injector = self._plan().for_worker(1)
        for completed in range(4):
            injector.on_claim(completed)
        assert naps == [0.25, 0.25]  # claims 2 and 4 only


class TestQueueBackend:
    def test_resolve_backend_accepts_queue(self):
        assert isinstance(resolve_backend("queue"), QueueBackend)

    def test_env_selects_queue_backend(self, monkeypatch, store):
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "queue")
        tasks = _grid(4)
        shared = {"offset": 2}
        runner = SweepRunner(workers=2, shard_store=store, sweep_label="env-queue")
        results = runner.map(_draw_worker, tasks, shared=shared)
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert results == serial

    def test_matches_serial_bit_identical(self, store):
        tasks = _grid(8)
        shared = {"offset": 4}
        backend = _queue_backend(store)
        queue = _runner(backend, store, workers=3).map(
            _draw_worker, tasks, shared=shared
        )
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert queue == serial
        assert backend.last_stats["tasks"] == 8
        assert backend.last_stats["enqueued"] == 8
        assert backend.last_stats["quarantined"] == 0
        # a fully settled sweep retires its queue directory
        queue_root = store.root / "queue"
        assert not queue_root.exists() or not any(queue_root.iterdir())

    def test_one_worker_keeps_queue_semantics(self, store):
        """SweepRunner must not downgrade the queue to in-process serial."""
        tasks = _grid(3)
        backend = _queue_backend(store)
        results = _runner(backend, store, workers=1).map(
            _draw_worker, tasks, shared={"offset": 0}
        )
        assert len(results) == 3
        assert backend.last_stats["enqueued"] == 3  # the queue actually ran

    def test_kill_two_workers_mid_sweep_bit_identical(self, store):
        """The ISSUE's chaos proof: 4 workers, 2 SIGKILLed, merged map intact.

        Worker 0 dies holding a freshly-claimed lease (recovery = expiry +
        steal + re-execute); worker 1 dies right after a clean publish.
        """
        plan = FaultPlan(
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="claim"),
                KillWorker(worker=1, after_tasks=1, phase="publish"),
            )
        )
        backend = _queue_backend(
            store, lease_seconds=0.4, respawn=False, backoff=0.02, fault_plan=plan
        )
        tasks = _grid(10)
        shared = {"offset": 7}
        chaos = _runner(backend, store, workers=4).map(
            _draw_worker, tasks, shared=shared
        )
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert chaos == serial
        assert backend.last_stats["worker_deaths"] == 2
        assert backend.last_stats["quarantined"] == 0
        assert backend.quarantined == []

    def test_kill_two_workers_on_a_fig10_grid(self, store):
        """The same two-kill plan on a real driver grid: three benchmarks,
        every voltage overscaled, so each benchmark contributes one batched
        naive task and one chained adaptive-sweep task.  A fresh coordinator
        over the same store then resumes without recomputing anything."""
        from repro.experiments.fig10_error_vs_voltage import run_fig10

        def rows(runner):
            result = run_fig10(
                benchmarks=("inversek2j", "bscholes", "facedet"),
                voltages=(0.46, 0.48, 0.50, 0.52, 0.54, 0.56),
                num_samples=240,
                adaptive_epochs=4,
                runner=runner,
                cache=store,
            )
            return [
                (s.benchmark, s.nominal_error, p.voltage, p.bit_fault_rate,
                 p.naive_error, p.adaptive_error)
                for s in result.sweeps
                for p in s.points
            ]

        serial = rows(SweepRunner(workers=1))
        plan = FaultPlan(
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="claim"),
                KillWorker(worker=1, after_tasks=1, phase="publish"),
            )
        )
        backend = _queue_backend(
            store, lease_seconds=1.0, poll_seconds=0.02, backoff=0.05,
            respawn=False, fault_plan=plan,
        )
        assert rows(_runner(backend, store, workers=4)) == serial
        assert backend.last_stats["tasks"] == 6
        assert backend.last_stats["worker_deaths"] == 2
        assert backend.last_stats["quarantined"] == 0
        resumed = _queue_backend(store, poll_seconds=0.02)
        assert rows(_runner(resumed, store)) == serial
        assert resumed.last_stats["enqueued"] == 0

    def test_dead_fleet_drains_inline_with_retry_semantics(self, store):
        """Every worker dies on its first claim and none is respawned: the
        coordinator drains the sweep itself and quarantines the poison after
        exactly ``retries + 1`` attempts."""
        plan = FaultPlan(rules=(KillWorker(worker=-1, after_tasks=0),))
        backend = _queue_backend(
            store, lease_seconds=0.3, respawn=False, backoff=0.01, fault_plan=plan
        )
        tasks = _grid(4)
        shared = {"offset": 0, "log": os.devnull, "bad": tasks[1].voltage}
        results = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        poison = results[1]
        assert isinstance(poison, QuarantinedTask)
        assert poison.attempts == len(poison.errors) == 2
        healthy = [r for i, r in enumerate(results) if i != 1]
        assert healthy == [t.voltage * 2.0 for t in tasks if t is not tasks[1]]
        assert backend.last_stats["worker_deaths"] == 2
        assert backend.last_stats["respawns"] == 0
        assert backend.last_stats["inline_drained"] > 0

    def test_coordinator_wakes_when_the_fleet_exits(self, store):
        """The sweep ends when its one worker drains the queue and exits,
        not at the coordinator's next poll."""
        backend = _queue_backend(store, poll_seconds=3.0)
        start = time.monotonic()
        results = _runner(backend, store, workers=1).map(
            _draw_worker, _grid(1), shared={"offset": 0}
        )
        elapsed = time.monotonic() - start
        assert len(results) == 1 and backend.last_stats["enqueued"] == 1
        assert elapsed < backend.poll_seconds / 2

    def test_death_after_the_last_settle_is_counted(self, store):
        """A worker killed right after publishing the sweep's last result
        dies after the coordinator's last settle; teardown still counts it."""
        plan = FaultPlan(rules=(KillWorker(worker=0, after_tasks=1, phase="publish"),))
        backend = _queue_backend(store, respawn=False, fault_plan=plan)
        results = _runner(backend, store, workers=1).map(
            _draw_worker, _grid(1), shared={"offset": 0}
        )
        assert len(results) == 1
        assert backend.last_stats["worker_deaths"] == 1
        assert backend.last_stats["respawns"] == 0

    def test_no_leaked_threads_or_processes(self, store):
        """Every sweep — healthy or degraded — must stop what it started."""

        def leaked():
            threads = [t for t in threading.enumerate() if t.name.startswith("repro-")]
            return threads + multiprocessing.active_children()

        assert leaked() == []
        _runner(_queue_backend(store), store).map(
            _draw_worker, _grid(3), shared={"offset": 0}
        )
        assert leaked() == []
        # a dead fleet drains inline: a worker (and its heartbeat) in-process
        plan = FaultPlan(rules=(KillWorker(worker=-1, after_tasks=0),))
        degraded = _queue_backend(
            store, lease_seconds=0.3, respawn=False, backoff=0.01, fault_plan=plan
        )
        _runner(degraded, store).map(_draw_worker, _grid(3), shared={"offset": 5})
        assert degraded.last_stats["inline_drained"] > 0
        assert leaked() == []

    def test_restart_recomputes_nothing(self, store, tmp_path):
        tasks = _grid(8)
        shared = {"offset": 1, "log": str(tmp_path / "executions.log")}
        first_backend = _queue_backend(store)
        first = _runner(first_backend, store).map(_logged_worker, tasks, shared=shared)
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert set(counts.values()) == {1}
        # a brand-new coordinator over the same store recalls everything
        second_backend = _queue_backend(store)
        second = _runner(second_backend, store).map(
            _logged_worker, tasks, shared=shared
        )
        assert second == first
        assert second_backend.last_stats["recalled"] == 8
        assert second_backend.last_stats["enqueued"] == 0
        assert _log_counts(shared["log"]) == counts  # zero recomputation

    def test_interrupted_coordinator_resumes_exactly_once(self, store, tmp_path):
        """Kill the coordinator mid-sweep; the resume finishes the remainder.

        Every task executes exactly once across both incarnations — the
        interrupted run's published results are never recomputed.
        """
        tasks = _grid(8)
        shared = {"offset": 5, "log": str(tmp_path / "executions.log")}
        backend = _queue_backend(store)
        execution = _runner(backend, store).submit(_logged_worker, tasks, shared=shared)
        stream = execution.as_completed()
        consumed = [next(stream) for _ in range(2)]
        assert len(consumed) == 2
        execution.close()  # the "coordinator killed mid-sweep" moment
        # an abandoned sweep keeps its queue directory for the resume
        assert any((store.root / "queue").iterdir())
        resumed_backend = _queue_backend(store)
        resumed = _runner(resumed_backend, store).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 5, "log": str(tmp_path / "reference.log")},
        )
        assert resumed == reference
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert set(counts.values()) == {1}

    def test_overlapping_sweeps_dedup_through_store(self, store, tmp_path):
        """Two sweeps over overlapping grids share every common task."""
        shared = {"offset": 2, "log": str(tmp_path / "executions.log")}
        narrow = _grid(5)
        _runner(_queue_backend(store), store).map(_logged_worker, narrow, shared=shared)
        wide_backend = _queue_backend(store)
        wide = _runner(wide_backend, store).map(_logged_worker, _grid(8), shared=shared)
        assert len(wide) == 8
        assert wide_backend.last_stats["recalled"] == 5
        assert wide_backend.last_stats["enqueued"] == 3
        counts = _log_counts(shared["log"])
        assert len(counts) == 8 and set(counts.values()) == {1}

    def test_poison_quarantined_after_exact_budget(self, store, tmp_path):
        tasks = _grid(5)
        shared = {
            "offset": 0,
            "log": str(tmp_path / "attempts.log"),
            "bad": tasks[2].voltage,
        }
        backend = _queue_backend(store, backoff=0.01)
        results = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        poison = results[2]
        assert isinstance(poison, QuarantinedTask)
        assert poison.is_quarantined
        assert poison.attempts == 2  # exactly retries + 1
        assert "injected poison" in poison.errors[-1]
        assert f"voltage={tasks[2].voltage}" in poison.describe()
        healthy = [r for i, r in enumerate(results) if i != 2]
        assert healthy == [t.voltage * 2.0 for t in tasks if t is not tasks[2]]
        assert backend.last_stats["quarantined"] == 1
        assert backend.quarantined == [poison]
        assert _log_counts(shared["log"])[str(tasks[2].voltage)] == 2

    def test_poison_default_retry_budget(self, store, tmp_path):
        tasks = _grid(3)
        shared = {
            "offset": 0,
            "log": str(tmp_path / "attempts.log"),
            "bad": tasks[0].voltage,
        }
        backend = _queue_backend(store, backoff=0.01)
        results = _runner(backend, store).map(_poison_worker, tasks, shared=shared)
        assert results[0].attempts == DEFAULT_QUEUE_RETRIES + 1
        assert _log_counts(shared["log"])[str(tasks[0].voltage)] == (
            DEFAULT_QUEUE_RETRIES + 1
        )

    def test_poison_recalled_without_retrying(self, store, tmp_path):
        """A quarantined task is settled: resumes report it, never re-run it."""
        tasks = _grid(4)
        shared = {
            "offset": 0,
            "log": str(tmp_path / "attempts.log"),
            "bad": tasks[1].voltage,
        }
        first = _runner(_queue_backend(store, backoff=0.01), store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        counts = _log_counts(shared["log"])
        backend = _queue_backend(store)
        second = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        assert second == first
        assert backend.last_stats["enqueued"] == 0
        assert backend.last_stats["quarantined"] == 1
        assert _log_counts(shared["log"]) == counts

    def test_suppressed_heartbeat_forces_steal(self, store, tmp_path):
        """A partitioned-but-alive worker loses its lease; the sweep absorbs
        the duplicate execution through idempotent publishes."""
        plan = FaultPlan(
            rules=(
                SuppressHeartbeat(worker=0, after_tasks=0),
                DelayTask(worker=0, seconds=1.0),
            )
        )
        backend = _queue_backend(
            store, lease_seconds=0.2, backoff=0.02, fault_plan=plan
        )
        tasks = _grid(3)
        shared = {"offset": 9, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 9, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        assert backend.last_stats["worker_deaths"] == 0  # nobody died
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert max(counts.values()) >= 2  # the stalled task ran twice

    def test_disabled_store_rejected(self, tmp_path):
        backend = QueueBackend(
            store=ArtifactCache(root=tmp_path / "cache", enabled=False)
        )
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            _runner(backend, None).map(_draw_worker, _grid(2), shared={"offset": 0})

    def test_undigestable_shared_needs_label(self, store):
        backend = _queue_backend(store)
        runner = SweepRunner(backend=backend, workers=1, sweep_label="")
        with pytest.raises(ValueError, match="sweep_label"):
            runner.map(_draw_worker, _grid(2), shared={"offset": object()})

    def test_runner_configuration_adopted(self, store):
        backend = QueueBackend()
        runner = SweepRunner(
            backend=backend,
            workers=1,
            shard_store=store,
            sweep_label="adopted",
            retries=5,
            task_timeout=33.0,
            backoff=0.125,
        )
        runner.map(_draw_worker, _grid(2), shared={"offset": 0})
        assert backend.store is store
        assert backend.sweep_label == "adopted"
        assert backend.retries == 5
        assert backend.task_timeout == 33.0
        assert backend.backoff == 0.125
