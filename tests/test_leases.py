"""The queue directory and its lease core driven in process: no worker processes.

Claims, renewals, completions, failures and lease reclaims run against a
real queue directory on synthetic time: :func:`synthetic_time` swaps the
``time`` attribute of :mod:`repro.experiments.leases` and
:mod:`repro.experiments.queue` for a clock the test advances.  Random
interleavings by three owners are checked against a model of who holds
which lease.  The worker's execute path runs against a queue directory
under ``tmp_path``, and the heartbeat against a scripted ``renew`` on a
10 ms interval.
"""

from __future__ import annotations

import contextlib
import tempfile
import threading
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import leases, queue
from repro.experiments.cache import SHARD_RESULT_KIND, ArtifactCache, shard_result_key
from repro.experiments.engine import expand_grid
from repro.experiments.leases import Heartbeat, read_lease, recall_settled
from repro.experiments.queue import LeaseWorker, WorkerSpec, _QueueDir, _read_record

DIGESTS = ("d0", "d1", "d2", "d3")
POISON = "d3"  # every attempt at this task fails
OWNERS = ("w0", "w1", "w2")
LEASE_SECONDS = 1.0
RETRIES = 2
BACKOFF = 0.1
LABEL = "leases-test"
WORKER = "double"


@contextlib.contextmanager
def synthetic_time():
    """Run the lease core on a clock the caller advances through ``clock.now``."""
    clock = types.SimpleNamespace(now=1000.0)
    fake = types.SimpleNamespace(
        time=lambda: clock.now,
        monotonic_ns=time.monotonic_ns,
        sleep=lambda seconds: setattr(clock, "now", clock.now + seconds),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(leases, "time", fake)
        patch.setattr(queue, "time", fake)
        yield clock


def _double_or_raise(shared, task):
    shared["calls"].append(task.voltage)
    if task.voltage == shared["bad"]:
        raise RuntimeError("bad voltage")
    return task.voltage * 2


def _spec(root: Path, store: ArtifactCache, retries: int = RETRIES, **kw) -> WorkerSpec:
    kw.setdefault("task_timeout", None)
    return WorkerSpec(
        store=store,
        label=LABEL,
        worker_name=WORKER,
        fn=_double_or_raise,
        shared=None,
        retries=retries,
        backoff=BACKOFF,
        lease_seconds=LEASE_SECONDS,
        poll_seconds=0.0,
        sweep_dir=root / "sweep",
        **kw,
    )


def _queue(root: Path, digests, retries: int = RETRIES, **kw):
    """A store, a queue directory holding ``digests``, and one handle per owner."""
    store = ArtifactCache(root=root / "cache")
    spec = _spec(root, store, retries, **kw)
    coordinator = _QueueDir(spec)
    coordinator.enqueue({digest: f"task-{digest}" for digest in digests})
    return store, coordinator, {owner: _QueueDir(spec, owner) for owner in OWNERS}


def _publish(store: ArtifactCache, digest: str) -> None:
    store.put(
        SHARD_RESULT_KIND,
        shard_result_key(LABEL, WORKER, digest),
        {"result": f"result-{digest}", "attempts": 1},
    )


def _settled(store: ArtifactCache, digest: str):
    return recall_settled(store, LABEL, WORKER, digest)


def _on_disk(coordinator: _QueueDir):
    """(pending digests, {digest: lease owner}) as the queue directory holds them."""
    pending = {path.stem for path in coordinator.tasks_dir.glob("*.pkl")}
    owners = {
        path.stem: (read_lease(path) or {}).get("owner")
        for path in coordinator.leases_dir.glob("*.lease")
    }
    return pending, owners


OPS = st.lists(
    st.tuples(
        st.sampled_from(("claim", "renew", "complete", "fail", "reclaim")),
        st.sampled_from(OWNERS),
        st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
    ),
    min_size=5,
    max_size=40,
)


class TestQueueProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.sampled_from(DIGESTS), min_size=1), OPS)
    def test_random_interleavings(self, initial, ops):
        with tempfile.TemporaryDirectory() as root, synthetic_time() as clock:
            store, coordinator, queues = _queue(Path(root), sorted(initial))
            held: dict[str, dict] = {}  # owner -> the record its last claim returned
            # the model: digest -> (owner, heartbeat deadline) of every lease
            model: dict[str, tuple[str, float]] = {}
            results: set[str] = set()  # digests published with a result

            def steal_expired():
                for digest, (_, deadline) in list(model.items()):
                    if clock.now > deadline:
                        del model[digest]

            def check():
                pending, owners = _on_disk(coordinator)
                # every lease is on disk under the holder the model expects
                assert owners == {d: owner for d, (owner, _) in model.items()}
                # no task is lost: it is pending or settled in the store
                for digest in initial - pending:
                    assert _settled(store, digest) is not None
                # a task settled with a result never comes back to tasks/
                assert not results & pending

            for op, owner, step in ops:
                clock.now += step
                record = held.get(owner)
                if op == "claim":
                    steal_expired()
                    status, claimed = queues[owner].claim()
                    if claimed is not None:
                        assert claimed["digest"] not in model
                        model[claimed["digest"]] = (owner, clock.now + LEASE_SECONDS)
                        held[owner] = claimed
                elif op == "reclaim":
                    steal_expired()
                    coordinator.reclaim()
                elif record is None:
                    continue
                else:
                    digest = record["digest"]
                    holder = model.get(digest, (None,))[0]
                    if op == "renew":
                        assert queues[owner].renew(record) == (holder == owner)
                        if holder == owner:
                            model[digest] = (owner, clock.now + LEASE_SECONDS)
                    elif op == "complete" and digest != POISON:
                        _publish(store, digest)
                        queues[owner].complete(record)
                        model.pop(digest, None)
                        results.add(digest)
                    elif op == "fail":
                        queues[owner].fail(record, "boom")
                        if holder == owner:
                            del model[digest]
                check()

            # drain: every enqueued task settles, the poison by quarantine
            for _ in range(100):
                clock.now += 10.0  # past every backoff window and lease deadline
                status, claimed = queues["w0"].claim()
                if status == "drained":
                    break
                if claimed is None:
                    continue
                if claimed["digest"] == POISON:
                    queues["w0"].fail(claimed, "boom")
                else:
                    _publish(store, claimed["digest"])
                    queues["w0"].complete(claimed)
            assert _on_disk(coordinator) == (set(), {})
            assert all(_settled(store, digest) for digest in initial)
            if POISON in initial:
                kind, poison = _settled(store, POISON)
                assert kind == "poison"
                assert poison.attempts == RETRIES + 1
                assert len(poison.errors) == RETRIES + 1

    @pytest.mark.parametrize("retries", [0, 1, 3])
    def test_always_failing_task_poisoned_after_retries_plus_one(self, tmp_path, retries):
        with synthetic_time() as clock:
            store, _, queues = _queue(tmp_path, [POISON], retries)
            fails = 0
            while _settled(store, POISON) is None:
                clock.now += 5.0
                _, claimed = queues["w0"].claim()
                queues["w0"].fail(claimed, "boom")
                fails += 1
            kind, poison = _settled(store, POISON)
            assert kind == "poison"
            assert fails == poison.attempts == retries + 1

    def test_expired_leases_count_as_attempts(self, tmp_path):
        with synthetic_time() as clock:
            store, coordinator, queues = _queue(tmp_path, ["d0"], retries=1)
            queues["w0"].claim()
            clock.now += LEASE_SECONDS + 0.5
            assert coordinator.reclaim() == 1
            record = _read_record(coordinator.tasks_dir / "d0.pkl")
            assert record["attempts"] == 1
            assert "worker w0 died or hung" in record["errors"][-1]
            clock.now += 10.0
            queues["w1"].claim()
            clock.now += LEASE_SECONDS + 0.5
            coordinator.reclaim()
            assert _settled(store, "d0")[0] == "poison"

    def test_hard_deadline_survives_renewal(self, tmp_path):
        with synthetic_time() as clock:
            _, coordinator, queues = _queue(tmp_path, ["d0"], task_timeout=2.0)
            _, record = queues["w0"].claim()
            clock.now += 0.9
            assert queues["w0"].renew(record)
            clock.now += 0.9
            assert queues["w0"].renew(record)
            assert coordinator.reclaim() == 0
            clock.now += 0.5  # past the hard deadline, inside the renewed lease
            assert coordinator.reclaim() == 1

    def test_shutdown_stops_claims_until_next_enqueue(self, tmp_path):
        _, coordinator, queues = _queue(tmp_path, ["d0"])
        coordinator.shutdown()
        assert queues["w0"].claim() == ("shutdown", None)
        coordinator.enqueue({})
        assert queues["w0"].claim()[1]["digest"] == "d0"


class TestStaleFailure:
    """w0 hangs past its lease, the coordinator requeues d0, w1 claims it."""

    def _stolen(self, tmp_path, clock):
        store, coordinator, queues = _queue(tmp_path, ["d0"])
        _, stale = queues["w0"].claim()
        clock.now += LEASE_SECONDS + 0.5
        assert coordinator.reclaim() == 1
        clock.now += 1.0  # past the requeue's backoff
        _, record = queues["w1"].claim()
        assert record["attempts"] == 1
        return store, coordinator, queues, stale, record

    def test_running_holder_keeps_its_lease(self, tmp_path):
        with synthetic_time() as clock:
            _, coordinator, queues, stale, _ = self._stolen(tmp_path, clock)
            queues["w0"].fail(stale, "boom")
            assert _on_disk(coordinator)[1] == {"d0": "w1"}
            assert _read_record(coordinator.tasks_dir / "d0.pkl")["attempts"] == 1
            clock.now += 0.5  # past any backoff the stale failure could set
            assert queues["w2"].claim() == ("idle", None)

    def test_settled_task_stays_settled(self, tmp_path):
        with synthetic_time() as clock:
            store, coordinator, queues, stale, record = self._stolen(tmp_path, clock)
            _publish(store, "d0")
            queues["w1"].complete(record)
            queues["w0"].fail(stale, "boom")
            assert _on_disk(coordinator) == (set(), {})
            assert queues["w2"].claim() == ("drained", None)


class TestLeaseWorker:
    def test_execute_path_over_a_queue_directory(self, tmp_path):
        store = ArtifactCache(root=tmp_path / "cache")
        tasks = expand_grid(voltages=(0.4, 0.5, 0.6), seed=1)
        shared = {"bad": 0.5, "calls": []}
        spec = _spec(tmp_path, store, retries=1)
        spec.shared = shared
        coordinator = _QueueDir(spec)
        coordinator.enqueue({f"t{i}": task for i, task in enumerate(tasks)})
        LeaseWorker(spec).run()
        assert _settled(store, "t0") == ("result", 0.8)
        kind, poison = _settled(store, "t1")
        assert kind == "poison" and poison.attempts == 2
        assert _settled(store, "t2") == ("result", 1.2)
        assert sorted(shared["calls"]) == [0.4, 0.5, 0.5, 0.6]
        assert _on_disk(coordinator) == (set(), {})
        # a requeued task already published to the store is not re-executed
        shared["calls"].clear()
        coordinator.enqueue({"t2": tasks[2]})
        LeaseWorker(spec).run()
        assert shared["calls"] == []
        assert _on_disk(coordinator) == (set(), {})


class TestHeartbeat:
    def _beat(self, answers):
        calls = []

        def renew():
            calls.append(len(calls))
            return answers(len(calls))

        heartbeat = Heartbeat(renew, lease_seconds=0.04)
        heartbeat._thread.join(timeout=5.0)
        return heartbeat, calls

    def test_stolen_lease_stops_renewal(self):
        heartbeat, calls = self._beat(lambda n: n < 3)
        assert len(calls) == 3

    def test_stop_joins_the_thread(self):
        heartbeat = Heartbeat(lambda: True, lease_seconds=0.04)
        heartbeat.stop()
        assert not [t for t in threading.enumerate() if t.name == "repro-heartbeat"]
