"""Chaos tests for the socket broker: wire protocol, journal, and backend.

Three layers, tested bottom-up: the broker *protocol* (idempotent claims,
stale fails, duplicate completions) against a live in-process server; the
*journal* (a SIGKILLed broker restarts with zero lost claims and zero lost
results, tolerating a torn final line); and the *backend* (real worker
processes, partitions, dropped connections, and a broker killed mid-sweep —
the merged map must stay bit-identical to :class:`SerialBackend` and a
resume must recompute nothing).
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.experiments.broker import (
    BrokerBackend,
    BrokerClient,
    BrokerError,
    BrokerServer,
    BrokerUnreachable,
    parse_address,
    _encode,
)
from repro.experiments.cache import ArtifactCache
from repro.experiments.engine import (
    QuarantinedTask,
    SweepRunner,
    expand_grid,
    resolve_backend,
)
from repro.experiments.faults import (
    ENV_FAULT_PLAN,
    DelayAck,
    DelayTask,
    DropConnection,
    FaultPlan,
    KillBroker,
    KillWorker,
    PartitionWorker,
)
from repro.experiments.queue import QueueBackend


def _log_execution(log_path, tag):
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
    if task.voltage == shared["bad"]:
        raise RuntimeError("injected poison")
    return task.voltage * 2.0


def _grid(n=8, seed=23):
    return expand_grid(
        voltages=tuple(round(0.40 + 0.02 * i, 2) for i in range(n)), seed=seed
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


def _broker_backend(store, **kw):
    kw.setdefault("lease_seconds", 10.0)
    kw.setdefault("poll_seconds", 0.01)
    kw.setdefault("connect_backoff", 0.02)
    return BrokerBackend(store=store, journal_dir=store.root / "broker", **kw)


def _runner(backend, store, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("sweep_label", "broker-test")
    return SweepRunner(backend=backend, shard_store=store, **kw)


def _no_repro_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


# ------------------------------------------------------------------- protocol


SWEEP = "sweep-abc123"


@pytest.fixture
def live_broker(tmp_path):
    """An in-process broker server plus a connected client."""
    server = BrokerServer(("127.0.0.1", 0), journal_dir=tmp_path / "journal")
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    client = BrokerClient(server.address, timeout=5.0, attempts=3, backoff=0.01)
    try:
        yield server, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _records(n):
    return [
        {
            "digest": f"digest-{i:02d}",
            "task": _encode({"index": i}),
            "attempts": 0,
            "not_before": 0.0,
            "errors": [],
        }
        for i in range(n)
    ]


def _enqueue(client, n, retries=2, backoff=0.01):
    return client.call(
        {
            "op": "enqueue",
            "sweep": SWEEP,
            "retries": retries,
            "backoff": backoff,
            "records": _records(n),
        }
    )


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:7464") == ("127.0.0.1", 7464)

    def test_sequence_passthrough(self):
        assert parse_address(("broker.lan", 80)) == ("broker.lan", 80)

    def test_rejects_malformed(self):
        for bad in ("localhost", "host:", ":80", "host:port"):
            with pytest.raises(ValueError, match="HOST:PORT"):
                parse_address(bad)


class TestProtocol:
    def test_ping(self, live_broker):
        _server, client = live_broker
        assert client.call({"op": "ping"}) == {"ok": True, "sweeps": 0}

    def test_enqueue_claim_complete_collect(self, live_broker):
        _server, client = live_broker
        reply = _enqueue(client, 2)
        assert (reply["enqueued"], reply["known"]) == (2, 0)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        done = client.call(
            {
                "op": "complete",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": digest,
                "attempts": 1,
                "result": _encode(41.5),
            }
        )
        assert done["duplicate"] is False
        collected = client.call(
            {"op": "collect", "sweep": SWEEP, "digests": [digest]}
        )
        payload = collected["settled"][digest]
        assert payload["status"] == "done" and payload["attempts"] == 1
        assert collected["pending"] == 1

    def test_enqueue_is_idempotent(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 3)
        reply = _enqueue(client, 3)
        assert (reply["enqueued"], reply["known"]) == (0, 3)

    def test_claim_idempotent_per_owner(self, live_broker):
        """A re-sent claim (lost reply) returns the owner's own lease back."""
        _server, client = live_broker
        _enqueue(client, 2)
        first = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        again = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        assert again["record"]["digest"] == first["record"]["digest"]
        other = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w1", "lease_seconds": 5.0}
        )
        assert other["record"]["digest"] != first["record"]["digest"]

    def test_duplicate_complete_absorbed(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 1)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        message = {
            "op": "complete",
            "sweep": SWEEP,
            "owner": "w0",
            "digest": claim["record"]["digest"],
            "attempts": 1,
            "result": _encode("value"),
        }
        assert client.call(message)["duplicate"] is False
        assert client.call(message)["duplicate"] is True

    def test_stale_fail_ignored(self, live_broker):
        """fail is keyed on claim-time attempts: the re-send cannot double-count."""
        _server, client = live_broker
        _enqueue(client, 1, retries=5)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        message = {
            "op": "fail",
            "sweep": SWEEP,
            "owner": "w0",
            "digest": digest,
            "attempts": 0,
            "error": "boom",
        }
        assert client.call(message)["state"] == "requeued"
        assert client.call(message)["state"] == "stale"

    def test_fail_quarantines_after_budget(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 1, retries=0)
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        digest = claim["record"]["digest"]
        reply = client.call(
            {
                "op": "fail",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": digest,
                "attempts": 0,
                "error": "boom",
            }
        )
        assert reply["state"] == "quarantined"
        collected = client.call({"op": "collect", "sweep": SWEEP, "digests": [digest]})
        payload = collected["settled"][digest]
        assert payload["status"] == "poison"
        assert payload["attempts"] == 1 and "boom" in payload["errors"][-1]

    def test_complete_after_retire_acks_duplicate(self, live_broker):
        """A late ack for a retired sweep must not error the worker."""
        _server, client = live_broker
        _enqueue(client, 1)
        client.call({"op": "retire", "sweep": SWEEP})
        reply = client.call(
            {
                "op": "complete",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": "digest-00",
                "attempts": 1,
                "result": _encode(1),
            }
        )
        assert reply["duplicate"] is True

    def test_shutdown_stops_claims(self, live_broker):
        _server, client = live_broker
        _enqueue(client, 2)
        client.call({"op": "shutdown", "sweep": SWEEP})
        claim = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 5.0}
        )
        assert claim["shutdown"] is True and claim["record"] is None

    def test_unknown_op_refused(self, live_broker):
        _server, client = live_broker
        with pytest.raises(BrokerError, match="unknown op"):
            client.call({"op": "teleport", "sweep": SWEEP})

    def test_invalid_sweep_id_refused(self, live_broker):
        _server, client = live_broker
        with pytest.raises(BrokerError, match="invalid sweep id"):
            client.call({"op": "claim", "sweep": "../escape", "owner": "w0"})

    def test_unreachable_raises_after_budget(self, tmp_path):
        client = BrokerClient(("127.0.0.1", 1), timeout=0.2, attempts=2, backoff=0.01)
        with pytest.raises(BrokerUnreachable, match="2 attempt"):
            client.call({"op": "ping"})
        assert client.try_call({"op": "ping"}) is None


class TestJournalReplay:
    def _fill(self, tmp_path, journal_dir):
        """Enqueue 3, complete one, fail one, leave one leased; close abruptly."""
        server = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        thread.start()
        client = BrokerClient(server.address, timeout=5.0, attempts=3, backoff=0.01)
        # wide backoff: the failed task's requeue must still be inside its
        # backoff window when the replay assertions run
        _enqueue(client, 3, retries=5, backoff=30.0)
        first = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 30.0}
        )["record"]["digest"]
        client.call(
            {
                "op": "complete",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": first,
                "attempts": 1,
                "result": _encode("settled-value"),
            }
        )
        second = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w0", "lease_seconds": 30.0}
        )["record"]["digest"]
        client.call(
            {
                "op": "fail",
                "sweep": SWEEP,
                "owner": "w0",
                "digest": second,
                "attempts": 0,
                "error": "first attempt failed",
            }
        )
        third = client.call(
            {"op": "claim", "sweep": SWEEP, "owner": "w1", "lease_seconds": 30.0}
        )["record"]["digest"]
        client.close()
        # no retire, no clean shutdown of state: everything must come back
        # from the journal alone (server_close only closes file handles)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        return first, second, third

    def test_replay_restores_settled_pending_and_leases(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first, second, third = self._fill(tmp_path, journal_dir)
        revived = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        try:
            collected = revived.handle_message(
                {"op": "collect", "sweep": SWEEP, "digests": [first, second, third]}
            )
            # the completed task survives with its exact payload
            assert collected["settled"][first]["result"] == _encode("settled-value")
            # the failed task is pending again with its attempt counted
            assert collected["pending"] == 2
            # w1's live lease survives: w1 re-claims its own record, w2 is
            # refused it (the failed task is inside its backoff window and
            # third is leased, so w2 gets nothing)
            reclaim = revived.handle_message(
                {"op": "claim", "sweep": SWEEP, "owner": "w1", "lease_seconds": 30.0}
            )
            assert reclaim["record"]["digest"] == third
            stranger = revived.handle_message(
                {"op": "claim", "sweep": SWEEP, "owner": "w2", "lease_seconds": 30.0}
            )
            assert stranger["record"] is None
        finally:
            revived.server_close()

    def test_replay_skips_torn_final_line(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first, _second, _third = self._fill(tmp_path, journal_dir)
        path = journal_dir / f"{SWEEP}.journal"
        with open(path, "ab") as handle:
            handle.write(b'{"entry": "done", "digest": "torn')  # no newline
        revived = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        try:
            collected = revived.handle_message(
                {"op": "collect", "sweep": SWEEP, "digests": [first, "torn"]}
            )
            assert first in collected["settled"]
            assert "torn" not in collected["settled"]
        finally:
            revived.server_close()

    def test_retire_deletes_journal(self, tmp_path):
        journal_dir = tmp_path / "journal"
        self._fill(tmp_path, journal_dir)
        revived = BrokerServer(("127.0.0.1", 0), journal_dir=journal_dir)
        try:
            assert (journal_dir / f"{SWEEP}.journal").exists()
            revived.handle_message({"op": "retire", "sweep": SWEEP})
            assert not (journal_dir / f"{SWEEP}.journal").exists()
            assert revived.handle_message({"op": "ping"}) == {"ok": True, "sweeps": 0}
        finally:
            revived.server_close()


# -------------------------------------------------------------------- backend


class TestBrokerBackend:
    def test_resolve_backend_accepts_broker(self):
        assert isinstance(resolve_backend("broker"), BrokerBackend)

    def test_matches_serial_bit_identical(self, store):
        tasks = _grid(8)
        shared = {"offset": 4}
        backend = _broker_backend(store)
        broker = _runner(backend, store, workers=3).map(
            _draw_worker, tasks, shared=shared
        )
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert broker == serial
        assert backend.last_stats["tasks"] == 8
        assert backend.last_stats["enqueued"] == 8
        assert backend.last_stats["quarantined"] == 0
        assert backend.last_stats["broker_restarts"] == 0
        # a fully settled sweep retires its journal
        journal_dir = store.root / "broker"
        assert not journal_dir.exists() or not list(journal_dir.glob("*.journal"))

    def test_restart_recomputes_nothing(self, store, tmp_path):
        tasks = _grid(6)
        shared = {"offset": 1, "log": str(tmp_path / "executions.log")}
        first = _runner(_broker_backend(store), store).map(
            _logged_worker, tasks, shared=shared
        )
        counts = _log_counts(shared["log"])
        assert set(counts.values()) == {1}
        second_backend = _broker_backend(store)
        second = _runner(second_backend, store).map(
            _logged_worker, tasks, shared=shared
        )
        assert second == first
        assert second_backend.last_stats["recalled"] == 6
        assert second_backend.last_stats["enqueued"] == 0
        assert _log_counts(shared["log"]) == counts  # zero recomputation

    def test_kill_broker_restarts_without_recomputation(self, store, tmp_path):
        """SIGKILL the broker after journaling a completion (the ack is lost).

        The coordinator restarts it on the same port, journal replay restores
        every settled task, the worker re-sends the lost ack (absorbed as a
        duplicate), and nothing is ever executed twice.
        """
        plan = FaultPlan(rules=(KillBroker(after_completions=3),))
        backend = _broker_backend(
            store, lease_seconds=2.0, fault_plan=plan, backoff=0.02
        )
        tasks = _grid(8)
        shared = {"offset": 3, "log": str(tmp_path / "executions.log")}
        chaos = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        serial = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 3, "log": str(tmp_path / "reference.log")},
        )
        assert chaos == serial
        assert backend.last_stats["broker_restarts"] == 1
        assert backend.last_stats["quarantined"] == 0
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert set(counts.values()) == {1}  # replay made the restart lossless

    def test_killed_embedded_broker_restarts_within_a_poll_round(self, store):
        """A dead embedded broker is noticed by liveness, not a reconnect window.

        The coordinator's probes of its own broker use a short budget, so the
        kill costs one poll round; a full client budget (~34 s at this
        backoff) would stall the sweep long past the bound asserted here.
        """
        plan = FaultPlan(rules=(KillBroker(after_completions=2),))
        backend = _broker_backend(store, fault_plan=plan, backoff=0.02)
        start = time.perf_counter()
        results = _runner(backend, store, workers=2).map(
            _draw_worker, _grid(6), shared={"offset": 4}
        )
        assert time.perf_counter() - start < 10.0
        assert backend.last_stats["broker_restarts"] == 1
        assert results == SweepRunner(workers=1).map(
            _draw_worker, _grid(6), shared={"offset": 4}
        )

    def test_kill_workers_mid_sweep_bit_identical(self, store):
        plan = FaultPlan(
            rules=(
                KillWorker(worker=0, after_tasks=1, phase="claim"),
                KillWorker(worker=1, after_tasks=1, phase="publish"),
            )
        )
        backend = _broker_backend(
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

    def test_partition_forces_steal_and_absorbs_duplicate(self, store, tmp_path):
        """A partitioned worker's task is stolen; its late publish is absorbed.

        The straggler delay keeps the task mid-flight while the partition
        outlives the lease, so the broker re-leases it to the healthy worker
        and both executions land on the same idempotent store key.
        """
        plan = FaultPlan(
            rules=(
                PartitionWorker(worker=0, after_tasks=0, seconds=0.8),
                DelayTask(worker=0, seconds=0.6),
            )
        )
        backend = _broker_backend(
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
        assert backend.last_stats["quarantined"] == 0
        counts = _log_counts(shared["log"])
        assert sorted(counts) == sorted(str(t.voltage) for t in tasks)
        assert max(counts.values()) >= 2  # the stolen task ran twice

    def test_dropped_ack_resent_and_absorbed(self, store, tmp_path):
        """DropConnection severs the socket after the complete is sent.

        The reply is lost; the client reconnects and re-sends; the broker
        answers ``duplicate: true``; the task is never executed twice.
        """
        plan = FaultPlan(
            rules=(DropConnection(worker=0, every=1, op="complete", limit=2),)
        )
        backend = _broker_backend(store, fault_plan=plan, backoff=0.02)
        tasks = _grid(4)
        shared = {"offset": 6, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=1).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 6, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        counts = _log_counts(shared["log"])
        assert set(counts.values()) == {1}  # re-sent acks, not re-executions

    def test_delayed_ack_expires_lease_and_absorbs(self, store, tmp_path):
        plan = FaultPlan(rules=(DelayAck(worker=0, seconds=0.5, every=1),))
        backend = _broker_backend(
            store, lease_seconds=0.2, backoff=0.02, fault_plan=plan
        )
        tasks = _grid(2)
        shared = {"offset": 8, "log": str(tmp_path / "executions.log")}
        results = _runner(backend, store, workers=2).map(
            _logged_worker, tasks, shared=shared
        )
        reference = SweepRunner(workers=1).map(
            _logged_worker,
            tasks,
            shared={"offset": 8, "log": str(tmp_path / "reference.log")},
        )
        assert results == reference
        assert backend.last_stats["quarantined"] == 0

    def test_unreachable_attached_broker_drains_inline(self, store):
        """A coordinator that can never reach its broker must not hang."""
        backend = _broker_backend(
            store,
            address="127.0.0.1:1",
            connect_timeout=0.2,
            connect_attempts=2,
        )
        tasks = _grid(4)
        shared = {"offset": 2}
        results = _runner(backend, store).map(_draw_worker, tasks, shared=shared)
        serial = SweepRunner(workers=1).map(_draw_worker, tasks, shared=shared)
        assert results == serial
        assert backend.last_stats["inline_drained"] == 4

    def test_inline_drain_keeps_retry_semantics(self, store):
        tasks = _grid(4)
        shared = {"offset": 0, "bad": tasks[1].voltage}
        backend = _broker_backend(
            store,
            address="127.0.0.1:1",
            connect_timeout=0.2,
            connect_attempts=2,
            backoff=0.01,
        )
        results = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        poison = results[1]
        assert isinstance(poison, QuarantinedTask)
        assert poison.attempts == 2  # exactly retries + 1, same as the queue
        assert backend.last_stats["quarantined"] == 1

    def test_poison_quarantined_after_exact_budget(self, store):
        tasks = _grid(5)
        shared = {"offset": 0, "bad": tasks[2].voltage}
        backend = _broker_backend(store, backoff=0.02)
        results = _runner(backend, store, retries=1).map(
            _poison_worker, tasks, shared=shared
        )
        poison = results[2]
        assert isinstance(poison, QuarantinedTask)
        assert poison.attempts == 2
        assert "injected poison" in poison.errors[-1]
        healthy = [r for i, r in enumerate(results) if i != 2]
        assert healthy == [t.voltage * 2.0 for t in tasks if t is not tasks[2]]
        assert backend.quarantined == [poison]

    def test_no_leaked_threads_or_processes(self, store):
        """Every sweep — healthy or degraded — must stop what it started."""
        assert _no_repro_threads() == []
        _runner(_broker_backend(store), store).map(
            _draw_worker, _grid(3), shared={"offset": 0}
        )
        assert _no_repro_threads() == []
        # the inline-drain path runs a worker (and its heartbeats) in-process
        degraded = _broker_backend(
            store, address="127.0.0.1:1", connect_timeout=0.2, connect_attempts=2
        )
        _runner(degraded, store).map(_draw_worker, _grid(3), shared={"offset": 5})
        assert _no_repro_threads() == []

    def test_disabled_store_rejected(self, tmp_path):
        backend = BrokerBackend(
            store=ArtifactCache(root=tmp_path / "cache", enabled=False)
        )
        with pytest.raises(ValueError, match="REPRO_CACHE_DISABLE"):
            _runner(backend, None).map(_draw_worker, _grid(2), shared={"offset": 0})

    def test_runner_configuration_adopted(self, store):
        backend = BrokerBackend()
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


class TestBackendEquivalenceMatrix:
    def test_serial_queue_broker_identical(self, tmp_path):
        """The fig9a-shaped proof: three transports, one bit-identical table."""
        from repro.experiments import run_fig9a

        voltages = np.array([0.46, 0.52])
        rows = []
        for name in ("serial", "queue", "broker"):
            store = ArtifactCache(root=tmp_path / f"cache-{name}")
            if name == "serial":
                runner = SweepRunner(workers=1)
            else:
                backend: object = (
                    QueueBackend(store=store, poll_seconds=0.01)
                    if name == "queue"
                    else BrokerBackend(
                        store=store,
                        journal_dir=store.root / "broker",
                        poll_seconds=0.01,
                        connect_backoff=0.02,
                    )
                )
                runner = SweepRunner(
                    workers=2,
                    backend=backend,
                    shard_store=store,
                    sweep_label=f"matrix-{name}",
                )
            result = run_fig9a(voltages=voltages, num_words=96, runner=runner)
            rows.append(
                [
                    (p.voltage, p.measured_rate, p.predicted_rate, p.word_rate)
                    for p in result.points
                ]
            )
        assert rows[0] == rows[1] == rows[2]


class TestWireFaultPlanValidation:
    def test_wire_rules_round_trip(self):
        plan = FaultPlan(
            rules=(
                DropConnection(worker=3, every=2, op="complete", limit=2),
                PartitionWorker(worker=2, after_tasks=1, seconds=0.8),
                DelayAck(worker=1, seconds=0.25, every=2),
                KillBroker(after_completions=3),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_kill_broker_never_reaches_workers(self):
        plan = FaultPlan(
            rules=(KillBroker(after_completions=2), DelayAck(worker=0, seconds=0.1))
        )
        assert plan.broker_kill_after() == 2
        injector = plan.for_worker(0)
        assert injector._kill is None
        assert injector.ack_delay(0) == 0.1

    def test_no_kill_broker_rule(self):
        assert FaultPlan(rules=(DelayAck(worker=0, seconds=0.1),)).broker_kill_after() is None

    def test_entry_must_be_object(self):
        with pytest.raises(ValueError, match=r'rule #1 must be a JSON object'):
            FaultPlan.from_json('[{"kind": "kill", "worker": 0}, "oops"]')

    def test_entry_needs_kind(self):
        with pytest.raises(ValueError, match=r'has no "kind"'):
            FaultPlan.from_json('[{"worker": 0}]')

    def test_unknown_kind_lists_accepted(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json('[{"kind": "meteor"}]')
        message = str(excinfo.value)
        assert "unknown fault kind 'meteor'" in message
        assert "kill-broker" in message and "partition" in message

    def test_unknown_field_named(self):
        with pytest.raises(ValueError) as excinfo:
            FaultPlan.from_json('[{"kind": "partition", "worker": 0, "untl": 3}]')
        message = str(excinfo.value)
        assert "unknown field(s) ['untl']" in message
        assert "'after_tasks'" in message and "'seconds'" in message

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match=r"rule #0 \('delay-ack'\).*invalid"):
            FaultPlan.from_json('[{"kind": "delay-ack"}]')

    def test_plan_must_be_list(self):
        with pytest.raises(ValueError, match="must be a list"):
            FaultPlan.from_json('{"kind": "kill", "worker": 0}')

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("[{kind: kill}]")

    def test_env_errors_name_the_variable(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT_PLAN, '[{"kind": "meteor"}]')
        with pytest.raises(ValueError, match=rf"\${ENV_FAULT_PLAN}"):
            FaultPlan.from_env()

    def test_env_json_round_trip(self, monkeypatch):
        plan = FaultPlan(rules=(KillBroker(after_completions=2),))
        env: dict[str, str] = {}
        plan.to_env(env)
        monkeypatch.setenv(ENV_FAULT_PLAN, env[ENV_FAULT_PLAN])
        assert FaultPlan.from_env() == plan
