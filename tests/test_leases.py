"""The lease core driven directly: no sockets and no worker processes.

:class:`LeaseTable` is the one lease/retry/quarantine state machine behind
the broker (and, through :func:`fail_transition`, the directory queue).  It
takes ``now`` as an argument, so random interleavings of claims, renewals,
completions, failures and lease expiries run on synthetic time here, and
every journal prefix it emits is replayed and compared with the live table.
The worker's execute path runs against an in-memory table, and the
heartbeat against a scripted ``renew`` on a 10 ms interval.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ArtifactCache
from repro.experiments.engine import expand_grid
from repro.experiments.leases import (
    Heartbeat,
    LeaseTable,
    LeaseWorker,
    WorkerSpec,
    recall_settled,
)

DIGESTS = ("d0", "d1", "d2", "d3")
POISON = "d3"  # every attempt at this task fails
OWNERS = ("w0", "w1", "w2")
LEASE_SECONDS = 1.0
RETRIES = 2
BACKOFF = 0.1


def _records(digests):
    return [
        {"digest": d, "task": f"task-{d}", "attempts": 0, "not_before": 0.0, "errors": []}
        for d in digests
    ]


def _replay(journal, now):
    """A fresh table rebuilt from a journal, as the broker replays one from disk."""
    table = LeaseTable()
    for entry in journal:
        table.apply(json.loads(json.dumps(entry)), now)
    return table


def _state(table):
    """What replay must rebuild: heartbeat deadlines are re-armed by design."""
    owners = {d: (lease["owner"], lease["hard_deadline"]) for d, lease in table.leases.items()}
    return table.tasks, table.settled, owners, table.retries, table.backoff, table.shutdown


def _settlements(journal):
    counts: dict[str, int] = {}
    for entry in journal:
        if entry["entry"] in ("done", "poison"):
            counts[entry["digest"]] = counts.get(entry["digest"], 0) + 1
    return counts


OPS = st.lists(
    st.tuples(
        st.sampled_from(("enqueue", "claim", "renew", "complete", "fail", "reap", "collect")),
        st.sampled_from(DIGESTS),
        st.sampled_from(OWNERS),
        st.floats(min_value=0.0, max_value=0.6, allow_nan=False),
        st.booleans(),  # re-send the request, as after a lost reply
    ),
    min_size=5,
    max_size=40,
)


class TestLeaseTableProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.sets(st.sampled_from(DIGESTS), min_size=1), OPS)
    def test_random_interleavings(self, initial, ops):
        table = LeaseTable()
        _, _, journal = table.enqueue(_records(sorted(initial)), RETRIES, BACKOFF, 0.0)
        enqueued = set(initial)
        held: dict[str, dict] = {}  # owner -> the record its last claim returned
        now = 0.0

        def check():
            assert _state(_replay(journal, now)) == _state(table)
            assert set(table.leases) <= set(table.tasks)
            for digest in enqueued:  # no task lost, none settled twice
                assert (digest in table.tasks) != (digest in table.settled)
            assert all(count == 1 for count in _settlements(journal).values())

        for op, digest, owner, step, resend in ops:
            now += step
            record = held.get(owner)
            if op == "enqueue":
                _, _, entries = table.enqueue(_records([digest]), RETRIES, BACKOFF, now)
                enqueued.add(digest)
            elif op == "claim":
                claimed, entries = table.claim(owner, LEASE_SECONDS, None, now)
                if resend:
                    again, extra = table.claim(owner, LEASE_SECONDS, None, now)
                    assert again == claimed and extra == []
                if claimed is not None:
                    held[owner] = claimed
            elif op == "renew" and record is not None:
                table.renew(record["digest"], owner, LEASE_SECONDS, now)
                entries = []
            elif op == "complete" and record is not None and record["digest"] != POISON:
                digest = record["digest"]
                duplicate, entries = table.complete(
                    digest, f"result-{digest}", record["attempts"] + 1, now
                )
                assert duplicate == (entries == [])
                if resend:
                    assert table.complete(digest, "again", 9, now) == (True, [])
            elif op == "fail" and record is not None:
                state, entries = table.fail(record["digest"], record["attempts"], "boom", now)
                if resend:
                    again = table.fail(record["digest"], record["attempts"], "boom", now)
                    expected = "settled" if state in ("quarantined", "settled") else "stale"
                    assert again == (expected, [])
            elif op == "reap":
                entries = table.reap(now)
            elif op == "collect":
                found, entries = table.collect(DIGESTS, now)
                assert found == {d: p for d, p in table.settled.items()}
            else:
                entries = []
            journal += entries
            check()

        # drain on synthetic time: every enqueued task settles exactly once
        for _ in range(100):
            if not table.tasks:
                break
            now += 10.0  # past every backoff window and lease deadline
            claimed, entries = table.claim("drainer", LEASE_SECONDS, None, now)
            journal += entries
            if claimed is None:
                continue
            if claimed["digest"] == POISON:
                _, entries = table.fail(POISON, claimed["attempts"], "boom", now)
            else:
                _, entries = table.complete(claimed["digest"], "late", 1, now)
            journal += entries
            check()
        assert not table.tasks and not table.leases
        assert set(table.settled) == enqueued
        assert _settlements(journal) == dict.fromkeys(enqueued, 1)
        if POISON in enqueued:
            poison = table.settled[POISON]
            assert poison["status"] == "poison"
            assert poison["attempts"] == RETRIES + 1
            assert len(poison["errors"]) == RETRIES + 1

    @pytest.mark.parametrize("retries", [0, 1, 3])
    def test_always_failing_task_poisoned_after_retries_plus_one(self, retries):
        table = LeaseTable()
        table.enqueue(_records([POISON]), retries, BACKOFF, 0.0)
        now, fails = 0.0, 0
        while POISON not in table.settled:
            now += 5.0
            claimed, _ = table.claim("w0", LEASE_SECONDS, None, now)
            state, _ = table.fail(POISON, claimed["attempts"], "boom", now)
            fails += 1
        assert state == "quarantined"
        assert fails == table.settled[POISON]["attempts"] == retries + 1

    def test_expired_leases_count_as_attempts(self):
        table = LeaseTable()
        table.enqueue(_records(["d0"]), 1, BACKOFF, 0.0)
        table.claim("w0", LEASE_SECONDS, None, 0.0)
        entries = table.reap(LEASE_SECONDS + 0.5)
        assert [e["entry"] for e in entries] == ["task"]
        assert entries[0]["record"]["attempts"] == 1
        assert "worker w0 died or hung" in entries[0]["record"]["errors"][-1]
        table.claim("w1", LEASE_SECONDS, None, 10.0)
        assert table.reap(20.0)[0]["entry"] == "poison"

    def test_hard_deadline_survives_renewal_and_replay(self):
        table = LeaseTable()
        _, _, journal = table.enqueue(_records(["d0"]), 2, BACKOFF, 0.0)
        journal += table.claim("w0", LEASE_SECONDS, 2.0, 0.0)[1]
        assert table.renew("d0", "w0", 100.0, 0.5)
        replayed = _replay(journal, 1.0)
        assert replayed.leases["d0"]["hard_deadline"] == 2.0
        assert table.reap(2.5) and replayed.reap(2.5)

    def test_shutdown_stops_claims_until_next_enqueue(self):
        table = LeaseTable()
        table.enqueue(_records(["d0"]), 2, BACKOFF, 0.0)
        assert table.close(0.0) == [{"entry": "shutdown"}]
        assert table.close(0.0) == []
        assert table.claim("w0", LEASE_SECONDS, None, 0.0) == (None, [])
        table.enqueue([], 2, BACKOFF, 0.0)
        assert table.claim("w0", LEASE_SECONDS, None, 0.0)[0]["digest"] == "d0"

    def test_enqueue_rejects_records_without_digest(self):
        table = LeaseTable()
        with pytest.raises(ValueError, match="without digest"):
            table.enqueue([*_records(["d0"]), {"task": "x"}], 2, BACKOFF, 0.0)
        assert table.tasks == {}  # all or nothing


# --------------------------------------------------------- worker + heartbeat


class _TableLink:
    """A worker channel straight onto an in-memory LeaseTable."""

    def __init__(self, table, now):
        self.table, self.now, self.log = table, now, []

    def connect(self, worker):
        self.worker = worker
        return self

    def claim(self):
        record, _ = self.table.claim(self.worker.owner, LEASE_SECONDS, None, self.now())
        if record is None:
            return ("drained" if not self.table.tasks else "idle"), None
        return "claimed", record

    def renew(self, record):
        return self.table.renew(record["digest"], self.worker.owner, LEASE_SECONDS, self.now())

    def settled(self, record, kind, value):
        self.log.append(("settled", record["digest"], kind))
        self.table.complete(record["digest"], value, record["attempts"] + 1, self.now())
        return True

    def complete(self, record, result):
        self.log.append(("complete", record["digest"], result))
        self.table.complete(record["digest"], result, record["attempts"] + 1, self.now())

    def fail(self, record, error):
        self.log.append(("fail", record["digest"], error))
        self.table.fail(record["digest"], record["attempts"], error, self.now())

    def close(self):
        pass


def _double_or_raise(shared, task):
    if task.voltage == shared["bad"]:
        raise RuntimeError("bad voltage")
    return task.voltage * 2


class TestLeaseWorker:
    def test_execute_path_over_an_in_memory_table(self, tmp_path):
        store = ArtifactCache(root=tmp_path / "cache")
        tasks = expand_grid(voltages=(0.4, 0.5, 0.6), seed=1)
        table = LeaseTable()
        table.enqueue(
            [{"digest": f"t{i}", "task": task, "attempts": 0} for i, task in enumerate(tasks)],
            1,
            0.0,
            0.0,
        )
        clock = iter(float(i) for i in range(1000))
        link = _TableLink(table, lambda: next(clock))
        spec = WorkerSpec(
            store=store,
            label="leases-test",
            worker_name="double",
            fn=_double_or_raise,
            shared={"bad": 0.5},
            retries=1,
            backoff=0.0,
            lease_seconds=60.0,
            task_timeout=None,
            poll_seconds=0.0,
            link=link,
        )
        assert LeaseWorker(spec).run() == 0
        assert table.settled["t0"]["result"] == 0.8
        assert table.settled["t1"]["status"] == "poison"
        assert table.settled["t1"]["attempts"] == 2
        assert recall_settled(store, "leases-test", "double", "t2") == ("result", 1.2)
        # a re-claimed task already published to the store is not re-executed
        del table.settled["t2"]
        table.enqueue([{"digest": "t2", "task": tasks[2], "attempts": 0}], 1, 0.0, 0.0)
        LeaseWorker(spec).run()
        assert link.log[-1] == ("settled", "t2", "result")


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
        assert len(calls) == 3 and heartbeat.lost is False

    def test_unreachable_past_horizon_is_lost(self):
        heartbeat, calls = self._beat(lambda n: None)
        assert heartbeat.lost is True and len(calls) >= 2

    def test_stop_joins_the_thread(self):
        heartbeat = Heartbeat(lambda: True, lease_seconds=0.04)
        heartbeat.stop()
        assert not [t for t in threading.enumerate() if t.name == "repro-heartbeat"]
