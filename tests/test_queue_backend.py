"""Chaos tests for the elastic queue backend, its leases, and the fault harness.

The tests here run real worker *processes* against a real shared-directory
queue and kill them mid-flight: the acceptance bar is that the merged sweep
stays bit-identical to :class:`SerialBackend` no matter which workers die,
that a restarted coordinator recomputes nothing already published, and that
a poisonous task is quarantined after exactly ``retries + 1`` attempts
instead of deadlocking the sweep.  Coordinators sharing one queue directory
must each finish their own sweep, whichever of them finishes or is
abandoned first.
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
    task_digest,
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
        with open(log_path) as handle:
            lines = handle.read().split()
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


def _slow_worker(shared, task):
    time.sleep(shared["sleep"])
    return _draw_worker(shared, task)


def _one_slow_worker(shared, task):
    if task.voltage == shared["slow"]:
        time.sleep(shared["sleep"])
    return _draw_worker(shared, task)


#: read by ``_scaled_worker`` in whichever process runs it (a forked worker
#: inherits it), the way CLI arguments reach a worker outside ``shared``
_SCALE = {"value": 1.0}


def _scaled_worker(shared, task):
    return task.voltage * _SCALE["value"]


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
    return SweepRunner(backend=backend, store=store, **kw)


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
        monkeypatch.setenv(ENV_FAULT_PLAN, plan.to_json())
        assert FaultPlan.from_env() == plan

    def test_env_json_round_trip(self, monkeypatch):
        # the variable holds the plan's JSON verbatim, so a hand-written
        # $REPRO_FAULT_PLAN parses exactly as the plan's own to_json
        plan = FaultPlan(rules=(PoisonTask(match="voltage=0.44"),))
        monkeypatch.setenv(ENV_FAULT_PLAN, plan.to_json())
        assert FaultPlan.from_env() == plan
        assert FaultPlan.from_env().to_json() == plan.to_json()

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
        runner = SweepRunner(workers=2, store=store, sweep_label="env-queue")
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
        over the same store then resumes without recomputing anything.

        Two workers make both deaths certain: worker 1 takes one task and
        dies after publishing it, and while worker 0 runs its first task at
        least four are left unclaimed (the coordinator drains only once the
        fleet is gone), so worker 0 always makes the second claim it dies
        on."""
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
        assert rows(_runner(backend, store, workers=2)) == serial
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

    def test_teardown_does_not_wait_out_a_poll(self, store):
        """The worker done with the fast task idles on the slow task's live
        lease; when the sweep settles, the coordinator's stop wakes it, so
        the sweep ends without waiting out its poll."""
        backend = _queue_backend(store, poll_seconds=3.0)
        tasks = _grid(2)
        shared = {"offset": 0, "slow": tasks[0].voltage, "sleep": 0.3}
        start = time.monotonic()
        results = _runner(backend, store, workers=2).map(_one_slow_worker, tasks, shared=shared)
        elapsed = time.monotonic() - start
        assert results == SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert backend.last_stats["enqueued"] == 2
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

    def test_disjoint_slices_merge_without_recompute(self, store, tmp_path):
        """Two coordinators that each settle one half of a grid leave a
        third nothing to run: it recalls the whole grid from the store."""
        tasks = _grid(8)
        shared = {"offset": 4, "log": str(tmp_path / "executions.log")}
        for half in (tasks[::2], tasks[1::2]):
            _runner(_queue_backend(store), store).map(_logged_worker, half, shared=shared)
        counts = _log_counts(shared["log"])
        assert len(counts) == 8 and set(counts.values()) == {1}
        backend = _queue_backend(store)
        merged = _runner(backend, store).map(_logged_worker, tasks, shared=shared)
        assert merged == SweepRunner(workers=1).map(_draw_worker, tasks, shared={"offset": 4})
        assert (backend.last_stats["recalled"], backend.last_stats["enqueued"]) == (8, 0)
        assert _log_counts(shared["log"]) == counts

    def test_fig9a_interrupted_then_resumed_matches_serial(self, store):
        """A real driver interrupted mid-sweep, as Ctrl-C does, then run
        again: the resume prints the serial table from what the interrupted
        run published plus the rest, and a third run recomputes nothing."""
        from repro.experiments.fig09_sram import run_fig9a

        kwargs = dict(voltages=np.arange(0.40, 0.561, 0.02), num_words=1024)

        def rows(runner):
            return [
                (p.voltage, p.measured_rate, p.predicted_rate, p.word_rate)
                for p in run_fig9a(runner=runner, **kwargs).points
            ]

        def interrupt(task, result, done, total):
            if done == 2:
                raise KeyboardInterrupt

        serial = rows(SweepRunner(workers=1))
        # the interrupted run's workers straggle 0.1 s before every task, so
        # they are still far from the end of the grid when the coordinator
        # stops them after the second result: each finishes only the task
        # it holds
        straggle = FaultPlan(rules=(DelayTask(worker=-1, seconds=0.1),))
        with pytest.raises(KeyboardInterrupt):
            rows(
                _runner(
                    _queue_backend(store, fault_plan=straggle), store, progress=interrupt
                )
            )
        resumed = _queue_backend(store)
        assert rows(_runner(resumed, store)) == serial
        assert 2 <= resumed.last_stats["recalled"] < len(serial)
        rerun = _queue_backend(store)
        assert rows(_runner(rerun, store)) == serial
        assert (rerun.last_stats["recalled"], rerun.last_stats["enqueued"]) == (len(serial), 0)

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
        disabled = ArtifactCache(root=tmp_path / "cache", enabled=False)
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            _runner(QueueBackend(store=disabled), None).map(
                _draw_worker, _grid(2), shared={"offset": 0}
            )
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            _runner("queue", disabled).map(_draw_worker, _grid(2), shared={"offset": 0})

    def test_undigestable_shared_needs_label(self, store):
        backend = _queue_backend(store)
        runner = SweepRunner(backend=backend, workers=1, sweep_label="")
        with pytest.raises(ValueError, match="sweep_label"):
            runner.map(_draw_worker, _grid(2), shared={"offset": object()})
        # an explicit label restores the contract: the caller vouches that
        # the label uniquely identifies this configuration
        labelled = _runner(_queue_backend(store), store, workers=1, sweep_label="opaque")
        assert len(labelled.map(_draw_worker, _grid(2), shared={"offset": object()})) == 2

    def test_fig11_live_model_needs_a_sweep_label(self, store):
        """Fig. 11 hands its workers a live energy model, which has no
        canonical digest: on the queue only a sweep_label names that
        configuration, and a labelled run renders the serial table."""
        from repro.experiments.fig11_energy import run_fig11

        unlabelled = SweepRunner(backend=_queue_backend(store), workers=1)
        with pytest.raises(ValueError, match="sweep_label"):
            run_fig11(runner=unlabelled)
        labelled = _runner(_queue_backend(store), store, workers=1, sweep_label="fig11")
        assert (
            run_fig11(runner=labelled).to_experiment_result().to_text()
            == run_fig11().to_experiment_result().to_text()
        )

    def test_progress_counts_recalled_tasks_on_resume(self, store):
        """A resumed sweep's progress counts what it recalls: it ends at (N, N)."""
        tasks = _grid(6)
        _runner(_queue_backend(store), store).map(_draw_worker, tasks[:4], shared={"offset": 0})
        events = []
        backend = _queue_backend(store)
        _runner(
            backend, store, progress=lambda task, result, done, total: events.append((done, total))
        ).map(_draw_worker, tasks, shared={"offset": 0})
        assert backend.last_stats["recalled"] == 4
        assert events == [(done, 6) for done in range(1, 7)]

    def test_runner_configuration_adopted(self, store):
        backend = QueueBackend()
        runner = SweepRunner(
            backend=backend,
            workers=1,
            store=store,
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

    def test_reused_backend_takes_each_runners_configuration(self, store, monkeypatch):
        """A backend passed to a second runner must not keep the first
        runner's label, and with it recall the first configuration's results."""
        backend = QueueBackend(poll_seconds=0.01)
        tasks = _grid(2)
        for scale in (1, 10):
            monkeypatch.setitem(_SCALE, "value", scale)
            runner = SweepRunner(
                backend=backend, workers=1, store=store, sweep_label=f"scale={scale}"
            )
            results = runner.map(_scaled_worker, tasks, shared={"offset": 0})
        assert results == [task.voltage * 10 for task in tasks]
        assert backend.last_stats["recalled"] == 0
        assert backend.sweep_label == "scale=10"

    def test_given_configuration_wins_over_the_runner(self, store, tmp_path):
        backend = QueueBackend(store=store, sweep_label="given", retries=0)
        runner = SweepRunner(
            backend=backend,
            workers=1,
            store=ArtifactCache(root=tmp_path / "other"),
            sweep_label="runner",
            retries=4,
        )
        runner.map(_draw_worker, _grid(1), shared={"offset": 0})
        assert (backend.store, backend.sweep_label, backend.retries) == (store, "given", 0)


class TestNamespacing:
    """Runs with different labels, shared payloads or workers never recall
    each other's results."""

    def test_labels_keep_results_apart(self, store):
        tasks = _grid(4)
        _runner(_queue_backend(store), store, sweep_label="config-a").map(
            _draw_worker, tasks, shared={"offset": 0}
        )
        backend = _queue_backend(store)
        _runner(backend, store, sweep_label="config-b").map(
            _draw_worker, tasks, shared={"offset": 0}
        )
        assert (backend.last_stats["recalled"], backend.last_stats["enqueued"]) == (0, 4)

    def test_shared_payload_keeps_results_apart(self, store):
        tasks = _grid(4)
        first = _runner(_queue_backend(store), store).map(
            _draw_worker, tasks, shared={"offset": 10}
        )
        backend = _queue_backend(store)
        second = _runner(backend, store).map(_draw_worker, tasks, shared={"offset": 100})
        assert backend.last_stats["recalled"] == 0
        assert [r["offset"] for r in first] == [10] * 4
        assert [r["offset"] for r in second] == [100] * 4

    def test_worker_identity_keeps_sweeps_apart(self, store):
        tasks = _grid(2)
        shared = {"offset": 0, "log": os.devnull}
        _runner(_queue_backend(store), store).map(_draw_worker, tasks, shared=shared)
        backend = _queue_backend(store)
        _runner(backend, store).map(_logged_worker, tasks, shared=shared)
        assert backend.last_stats["recalled"] == 0


class TestConcurrentCoordinators:
    """Two coordinators share one store and one queue directory, each with
    its own cache instance, as two hosts would.  The surviving coordinator
    finishes in a thread joined with a timeout, so a hang fails the test.
    Both start their fleets from the main thread before that thread runs."""

    SHARED = {"offset": 3, "sleep": 0.05}

    def _finish(self, stream, timeout=10.0):
        """Consume ``stream`` in a daemon thread; None if it hangs."""
        pairs: list = []
        thread = threading.Thread(target=lambda: pairs.extend(stream), daemon=True)
        thread.start()
        thread.join(timeout)
        return None if thread.is_alive() else pairs

    def _serial(self, tasks):
        return dict(zip(tasks, SweepRunner(workers=1).map(_draw_worker, tasks, shared=self.SHARED)))

    def test_finished_peer_leaves_the_other_sweep_running(self, store):
        """A coordinator whose 2 tasks settle first must neither stop the
        8-task coordinator's fleet nor delete its queued tasks."""
        tasks = _grid(8)
        head = sorted(task_digest(task) for task in tasks)[:2]
        wide = _runner(_queue_backend(store), store, workers=1).submit(
            _slow_worker, tasks, shared=self.SHARED
        )
        stream = wide.as_completed()
        first = [next(stream)]
        peer = ArtifactCache(root=store.root)
        narrow_tasks = [task for task in tasks if task_digest(task) in head]
        narrow = _runner(_queue_backend(peer), peer, workers=1).map(
            _slow_worker, narrow_tasks, shared=self.SHARED
        )
        rest = self._finish(stream)
        assert rest is not None, "the 8-task coordinator hung after its peer finished"
        reference = self._serial(tasks)
        assert narrow == [reference[task] for task in narrow_tasks]
        assert dict(first + rest) == reference
        assert not any((store.root / "queue").iterdir())  # retired once both settled

    def test_abandoned_peer_leaves_the_other_sweep_running(self, store):
        """A coordinator abandoned mid-sweep (what Ctrl-C does) must not
        stop the fleet of another coordinator running the same grid."""
        tasks = _grid(8)
        abandoned = _runner(_queue_backend(store), store, workers=1).submit(
            _slow_worker, tasks, shared=self.SHARED
        )
        stream = abandoned.as_completed()  # held: dropping it would close the sweep
        next(stream)
        peer = ArtifactCache(root=store.root)
        backend = _queue_backend(peer)
        survivor = _runner(backend, peer, workers=1).submit(
            _slow_worker, tasks, shared=self.SHARED
        ).as_completed()
        first = []
        while not backend.last_stats.get("enqueued"):  # until its fleet is up
            first.append(next(survivor))
        abandoned.close()
        rest = self._finish(survivor)
        assert rest is not None, "the surviving coordinator hung after its peer was abandoned"
        assert dict(first + rest) == self._serial(tasks)
        assert not any((store.root / "queue").iterdir())  # retired once both settled
