"""Socket-broker sweep service: the directory queue for hosts with no shared disk.

``BrokerBackend`` is the fifth :class:`~repro.experiments.engine.SweepBackend`
and the distributed sibling of :class:`~repro.experiments.queue.QueueBackend`:
the same lease core (:mod:`repro.experiments.leases` — claims, heartbeat
renewal, expired-lease stealing, backoff with deterministic jitter, poison
quarantine, worker and coordinator loops), coordinated by a tiny
dependency-free TCP broker instead of a shared directory, so any host that
can open a socket can join a fleet.  The broker is a socket, a lock, and a
journal around one :class:`~repro.experiments.leases.LeaseTable` per sweep;
every lease and retry decision is the table's.

Wire protocol
-------------
Newline-delimited JSON over a persistent TCP connection.  Every request is
one object with an ``op`` field; every reply is one object with ``ok``
(True, or False plus ``error``).  Task and result payloads travel as
base64-encoded pickles inside the JSON (the broker never unpickles them —
it routes opaque bytes; like every pickle-based channel in the stack, the
protocol assumes a trusted network).  Operations:

====================  =======================================================
``ping``              liveness probe; reports the sweep count
``enqueue``           register task records + the sweep's retries/backoff
                      policy; already-known and already-settled digests are
                      skipped, so concurrent or resumed coordinators are safe
``claim``             lease one claimable task (not leased, backoff window
                      passed).  Idempotent per owner: a worker re-sending a
                      claim whose reply was lost gets the same record back
``renew``             push the lease's heartbeat deadline forward (the hard
                      ``task_timeout`` deadline is never renewed)
``complete``          settle a task with its result bytes.  Idempotent: a
                      re-sent or late (post-steal) completion is absorbed
``fail``              report a failed attempt.  Keyed on the attempt number
                      the worker claimed, so a re-sent fail whose first copy
                      already requeued the task is ignored as stale
``collect``           coordinator poll: settled payloads for the digests it
                      still wants, plus pending/leased counts
``shutdown``          tell future claims to return ``shutdown: true``
``retire``            drop a fully-settled sweep and delete its journal
``stop``              stop the server loop (embedded teardown / CI cleanup)
====================  =======================================================

Journal
-------
Every state transition appends the table's journal entries, one JSON line
each, to ``<journal_dir>/<sweep_id>.journal`` before the reply is sent (see
:class:`~repro.experiments.leases.LeaseTable` for the entry kinds).  The
handle is unbuffered, so a SIGKILL can tear at most the final line, which
replay skips.  A SIGKILLed broker therefore restarts with zero lost claims
and zero lost results: replay rebuilds pending tasks, leases (with a fresh
heartbeat grace window), and settled payloads.

Failure handling
----------------
Clients use bounded reconnect-with-backoff: attempt ``n`` sleeps
``min(1s, connect_backoff * 2**(n-1))`` before retrying, giving a default
window of roughly half a minute — wide enough to ride out a broker restart,
finite so nothing hangs forever.  A worker that cannot renew past its lease
deadline *abandons* the task (the broker re-leases it; the worker's store
publish is absorbed idempotently).  An embedded broker's death is detected
by the coordinator's liveness poll — its probes use a two-attempt budget,
so a dead broker costs one poll round, not a reconnect window — and it is
restarted on the same port (up to three times).  A coordinator that can
never reach its broker, or whose restart budget is spent, runs the shared
inline worker against an in-process lease table instead of hanging.  The
wire-level chaos rules of :mod:`repro.experiments.faults`
(``drop-connection``, ``partition``, ``delay-ack``, ``kill-broker``) fire
in this module's client and server only.

Standalone usage::

    python -m repro.experiments.broker serve --port 7464 --supervise &
    python -m repro.experiments.fig09_sram --figure a --broker 127.0.0.1:7464
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import pickle
import re
import signal
import socket
import socketserver
import sys
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .cache import default_cache
from .engine import SweepTask
from .faults import NULL_INJECTOR, FaultPlan
from .leases import LeaseBackend, LeaseTable, WorkerSpec, discard

__all__ = [
    "BrokerBackend",
    "BrokerClient",
    "BrokerError",
    "BrokerServer",
    "BrokerUnreachable",
    "DEFAULT_PORT",
    "parse_address",
    "main",
]

#: Default port for ``python -m repro.experiments.broker serve``.
DEFAULT_PORT = 7464

#: Embedded-broker restarts a coordinator attempts before draining inline.
MAX_BROKER_RESTARTS = 3

_SWEEP_ID = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

_Table = LeaseTable | None
_Message = dict[str, Any]
#: a broker op's reply fields and the journal entries it implies
_Reply = tuple[dict[str, Any], list[dict[str, Any]]]


def _encode(value: Any) -> str:
    """Pickle + base64: how tasks and results ride inside the JSON protocol."""
    return base64.b64encode(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode(
        "ascii"
    )


def _decode(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def parse_address(spec: str | Sequence[Any]) -> tuple[str, int]:
    """``"host:port"`` (or a 2-sequence) → ``(host, port)`` tuple."""
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return str(spec[0]), int(spec[1])
    text = str(spec).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"broker address must be HOST:PORT (e.g. 127.0.0.1:{DEFAULT_PORT}), "
            f"got {spec!r}"
        )
    return host, int(port)


class BrokerError(RuntimeError):
    """The broker refused a request (protocol-level; retrying won't help)."""


class BrokerUnreachable(BrokerError):
    """No reply within the bounded reconnect-with-backoff budget."""


# ---------------------------------------------------------------------- server


class _Broker:
    """Every broker op, minus the socket: a lock and a journal around tables.

    One :class:`LeaseTable` per sweep id.  All mutation happens under one
    lock — requests are short and a journal append is a single unbuffered
    write, so the lock is never held across anything slow.  With a
    ``journal_dir``, every ``*.journal`` in it is replayed on construction;
    without one (the coordinator's in-process fallback) nothing is
    journaled.

    ``fault_plan`` is consulted for :class:`~repro.experiments.faults.KillBroker`
    only: after journaling the N-th completion the process SIGKILLs itself
    *without replying* — the nastiest crash point, because the worker's ack
    is lost and must be re-sent to the restarted broker.
    """

    def __init__(self, journal_dir: Path | None = None, fault_plan: FaultPlan | None = None):
        self.journal_dir = journal_dir
        self._lock = threading.Lock()
        self._tables: dict[str, LeaseTable] = {}
        self._journals: dict[str, Any] = {}  # unbuffered append handles, opened lazily
        self._completions = 0  # journaled `done` entries, replayed included
        self._kill_after = fault_plan.broker_kill_after() if fault_plan else None
        if journal_dir is not None:
            journal_dir.mkdir(parents=True, exist_ok=True)
            self._replay_all()

    def _journal_path(self, sweep_id: str) -> Path:
        return self.journal_dir / f"{sweep_id}.journal"

    def _journal(self, sweep_id: str, entries: list[dict[str, Any]]) -> None:
        if not entries or self.journal_dir is None:
            return
        handle = self._journals.get(sweep_id)
        if handle is None:
            # buffering=0: each write() is one os.write, so a SIGKILL can
            # tear at most the final line — which replay skips
            handle = open(self._journal_path(sweep_id), "ab", buffering=0)
            self._journals[sweep_id] = handle
        for entry in entries:
            handle.write(json.dumps(entry).encode() + b"\n")

    def _replay_all(self) -> None:
        now = time.time()
        for path in sorted(self.journal_dir.glob("*.journal")):
            sweep_id = path.stem
            if not _SWEEP_ID.match(sweep_id):
                continue
            table = LeaseTable()
            replayed_done = 0
            try:
                with open(path, "rb") as handle:
                    for raw in handle:
                        try:
                            entry = json.loads(raw)
                        except ValueError:
                            continue  # torn tail from a mid-append SIGKILL
                        if isinstance(entry, dict):
                            table.apply(entry, now)
                            replayed_done += entry.get("entry") == "done"
            except OSError:
                continue
            self._tables[sweep_id] = table
            # replayed completions count toward the kill threshold so a
            # restarted broker does not die again at the same trigger
            self._completions += replayed_done

    def handle_message(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        try:
            with self._lock:
                if op == "ping":
                    return {"ok": True, "sweeps": len(self._tables)}
                sweep_id = message.get("sweep")
                if not isinstance(sweep_id, str) or not _SWEEP_ID.match(sweep_id):
                    return {"ok": False, "error": f"invalid sweep id {sweep_id!r}"}
                handler = getattr(self, f"_op_{op}", None)
                if handler is None:
                    return {"ok": False, "error": f"unknown op {op!r}"}
                table = self._tables.get(sweep_id)
                reply, entries = handler(sweep_id, table, message, time.time())
                self._journal(sweep_id, entries)
                done = sum(entry["entry"] == "done" for entry in entries)
                self._completions += done
                if done and self._completions == self._kill_after:
                    # chaos: die after journaling, before replying — the
                    # worker's ack is lost and must be re-sent to the replayed
                    # broker.  `==` (not `>=`): after a restart replays exactly
                    # this many completions, the counter passes the threshold
                    # without ever equalling it again
                    os.kill(os.getpid(), signal.SIGKILL)
                return {"ok": True, **reply}
        except Exception as error:  # never let one request kill the server
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    # Each op gets the sweep's table (None for an unknown or retired sweep)
    # and returns its reply fields plus the journal entries to append.

    def _op_enqueue(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        table = self._tables.setdefault(sweep_id, LeaseTable())
        enqueued, known, entries = table.enqueue(
            message.get("records", []),
            message.get("retries", table.retries),
            message.get("backoff", table.backoff),
            now,
        )
        return {"enqueued": enqueued, "known": known, **table.counts()}, entries

    def _op_claim(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        table = table if table is not None else LeaseTable()  # nothing to claim
        record, entries = table.claim(
            str(message.get("owner", "")),
            float(message.get("lease_seconds", 15.0)),
            message.get("hard_timeout"),
            now,
        )
        return {"shutdown": table.shutdown, **table.counts(), "record": record}, entries

    def _op_renew(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        renewed = table is not None and table.renew(
            message.get("digest"),
            message.get("owner"),
            float(message.get("lease_seconds", 15.0)),
            now,
        )
        return {"renewed": renewed}, []

    def _op_complete(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        if table is None:
            # retired sweep (everything settled, coordinator gone): a late
            # or re-sent completion is acknowledged as already absorbed
            return {"settled": True, "duplicate": True}, []
        duplicate, entries = table.complete(
            message.get("digest"), message.get("result"), int(message.get("attempts", 1)), now
        )
        return {"settled": True, "duplicate": duplicate}, entries

    def _op_fail(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        if table is None:
            return {"state": "settled"}, []
        state, entries = table.fail(
            message.get("digest"),
            int(message.get("attempts", -1)),
            str(message.get("error", "unknown error")),
            now,
        )
        return {"state": state}, entries

    def _op_collect(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        table = table if table is not None else LeaseTable()
        found, entries = table.collect(message.get("digests", []), now)
        counts = table.counts()
        return {
            "settled": found,
            "pending": counts["pending"],
            "leased": counts["leased"],
            "settled_count": counts["settled"],
        }, entries

    def _op_shutdown(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        return {}, table.close(now) if table is not None else []

    def _op_retire(self, sweep_id: str, table: _Table, message: _Message, now: float) -> _Reply:
        self._tables.pop(sweep_id, None)
        self._close_journal(sweep_id)
        if self.journal_dir is not None:
            discard(self._journal_path(sweep_id))
        return {}, []

    def _close_journal(self, sweep_id: str) -> None:
        handle = self._journals.pop(sweep_id, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            for sweep_id in list(self._journals):
                self._close_journal(sweep_id)


class _BrokerRequestHandler(socketserver.StreamRequestHandler):
    """One persistent connection: read a JSON line, reply with a JSON line."""

    def handle(self) -> None:  # pragma: no cover - exercised via live sockets
        while True:
            try:
                line = self.rfile.readline()
            except OSError:
                return
            if not line:
                return  # client closed (or died: the kernel sends FIN for it)
            try:
                message = json.loads(line)
                if not isinstance(message, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as error:
                reply: dict[str, Any] = {"ok": False, "error": f"malformed request: {error}"}
            else:
                reply = self.server.handle_message(message)
            try:
                self.wfile.write(json.dumps(reply).encode() + b"\n")
                self.wfile.flush()
            except OSError:
                return


class BrokerServer(socketserver.ThreadingTCPServer):
    """The TCP task broker: a socket in front of :class:`_Broker`.

    One instance serves any number of sweeps concurrently (state is keyed by
    sweep id, exactly like the directory queue keys its per-sweep
    directories).  On construction every ``<journal_dir>/*.journal`` is
    replayed, restoring pending tasks, settled results, and live leases
    (with a fresh heartbeat grace window).
    """

    allow_reuse_address = True  # restarts rebind the same port immediately
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int] = ("127.0.0.1", 0),
        journal_dir: Path | str | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.journal_dir = (
            Path(journal_dir)
            if journal_dir is not None
            else Path(default_cache().root) / "broker"
        )
        self.broker = _Broker(self.journal_dir, fault_plan)
        super().__init__(tuple(address), _BrokerRequestHandler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def handle_message(self, message: dict[str, Any]) -> dict[str, Any]:
        if message.get("op") == "stop":
            threading.Thread(target=self.shutdown, daemon=True).start()
            return {"ok": True, "stopping": True}
        return self.broker.handle_message(message)

    def server_close(self) -> None:
        self.broker.close()
        super().server_close()


def _broker_server_main(
    host: str, port: int, journal_dir: str, fault_plan: FaultPlan | None, conn: Any
) -> None:
    """Subprocess entry: bind, report the bound port, serve until stopped."""
    server = BrokerServer((host, port), journal_dir, fault_plan)
    host, port = server.address
    conn.send(("ready", host, port))
    conn.close()
    with server:
        server.serve_forever(poll_interval=0.1)


class _EmbeddedBroker:
    """A broker subprocess its owner supervises, restartable on a pinned port."""

    def __init__(
        self,
        journal_dir: Path,
        fault_plan: FaultPlan | None,
        context: Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.journal_dir = journal_dir
        self.fault_plan = fault_plan
        self.context = context
        self.host = host
        self.port = port  # 0 picks a free port on first start; restarts reuse it
        self.process: Any = None

    def start(self) -> tuple[str, int]:
        parent, child = self.context.Pipe()
        self.process = self.context.Process(
            target=_broker_server_main,
            args=(self.host, self.port, str(self.journal_dir), self.fault_plan, child),
            daemon=True,
        )
        self.process.start()
        child.close()
        try:
            if not parent.poll(15.0):
                raise RuntimeError("embedded broker did not report ready within 15s")
            _tag, host, port = parent.recv()
        finally:
            parent.close()
        self.host, self.port = host, port
        return host, port

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)


# ---------------------------------------------------------------------- client


class BrokerClient:
    """One persistent NDJSON connection with bounded reconnect-with-backoff.

    ``call`` sends a request and blocks for its reply, transparently
    reconnecting on any socket failure: attempt ``n`` sleeps
    ``min(1s, backoff * 2**(n-1))`` first, so the total window is bounded
    (and sized to ride out a broker restart) but never infinite.  After
    ``attempts`` consecutive failures it raises :class:`BrokerUnreachable`;
    a protocol refusal (``ok: false``) raises :class:`BrokerError`
    immediately — retrying a refused request cannot help.

    ``injector`` hooks the wire-level chaos rules: ``partition_active()``
    fails calls without touching the socket, and (when ``wire_faults`` is
    set — worker main connections only) ``wire_drop(op)`` severs the
    connection after a send so the reply is lost and the idempotent re-send
    path gets exercised.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float = 10.0,
        attempts: int = 40,
        backoff: float = 0.05,
        injector: Any = None,
        wire_faults: bool = False,
    ):
        self.address = (str(address[0]), int(address[1]))
        self.timeout = float(timeout)
        self.attempts = max(1, int(attempts))
        self.backoff = float(backoff)
        self.injector = injector if injector is not None else NULL_INJECTOR
        self.wire_faults = wire_faults
        self._sock: socket.socket | None = None
        self._file: Any = None

    def _disconnect(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    close = _disconnect

    def call(self, message: dict[str, Any], attempts: int | None = None) -> dict[str, Any]:
        payload = (json.dumps(message) + "\n").encode()
        op = str(message.get("op", ""))
        budget = self.attempts if attempts is None else max(1, int(attempts))
        last: Exception | None = None
        for attempt in range(budget):
            if attempt:
                time.sleep(min(1.0, self.backoff * (2 ** (attempt - 1))))
            if self.injector.partition_active():
                last = BrokerUnreachable("partitioned from broker (fault plan)")
                self._disconnect()
                continue
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(self.address, timeout=self.timeout)
                    self._sock.settimeout(self.timeout)
                    self._file = self._sock.makefile("rb")
                self._sock.sendall(payload)
                if self.wire_faults and self.injector.wire_drop(op):
                    self._disconnect()
                    last = ConnectionError("connection dropped by fault plan")
                    continue
                line = self._file.readline()
                if not line:
                    raise ConnectionError("broker closed the connection")
                reply = json.loads(line)
                if not isinstance(reply, dict):
                    raise ValueError(f"malformed broker reply: {reply!r}")
                if not reply.get("ok", False):
                    raise BrokerError(str(reply.get("error", "request refused")))
                return reply
            except BrokerError:
                raise  # protocol refusal: not a transport failure
            except (OSError, ValueError) as error:
                last = error
                self._disconnect()
        self._disconnect()
        raise BrokerUnreachable(
            f"broker at {self.address[0]}:{self.address[1]} unreachable after "
            f"{budget} attempt(s): {last}"
        )

    def try_call(
        self, message: dict[str, Any], attempts: int | None = None
    ) -> dict[str, Any] | None:
        """``call`` that reports unreachability as ``None`` instead of raising."""
        try:
            return self.call(message, attempts=attempts)
        except BrokerUnreachable:
            return None


class _LocalClient:
    """:class:`BrokerClient`'s in-process stand-in: the same messages, no socket."""

    def __init__(self, broker: _Broker):
        self.broker = broker

    def call(self, message: dict[str, Any], attempts: int | None = None) -> dict[str, Any]:
        # a JSON round trip each way shapes payloads exactly as the wire does
        reply = self.broker.handle_message(json.loads(json.dumps(message)))
        reply = json.loads(json.dumps(reply))
        if not reply.get("ok", False):
            raise BrokerError(str(reply.get("error", "request refused")))
        return reply

    try_call = call

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- worker


@dataclass
class _BrokerLink:
    """Picklable address of a sweep on a broker (or on an in-process one)."""

    address: tuple[str, int]
    sweep_id: str
    timeout: float
    attempts: int
    backoff: float
    #: the coordinator's in-process fallback broker (never sent to a process)
    local: _Broker | None = None

    def client(
        self, attempts: int | None = None, injector: Any = None, wire_faults: bool = False
    ) -> BrokerClient | _LocalClient:
        if self.local is not None:
            return _LocalClient(self.local)
        return BrokerClient(
            self.address,
            timeout=self.timeout,
            attempts=self.attempts if attempts is None else attempts,
            backoff=self.backoff,
            injector=injector,
            wire_faults=wire_faults,
        )

    def connect(self, worker: Any) -> "_BrokerChannel":
        return _BrokerChannel(self, worker)


class _BrokerChannel:
    """A worker's lease operations as broker requests."""

    def __init__(self, link: _BrokerLink, worker: Any):
        self.sweep_id = link.sweep_id
        self.worker = worker
        self.client = link.client(injector=worker.injector, wire_faults=True)
        # separate connection for renewals (the main socket may be blocked
        # on a claim), short budget so each tick returns quickly — loss
        # tolerance lives in the Heartbeat, not in per-call retries
        self.heartbeat_client = link.client(attempts=2, injector=worker.injector)

    def _send(self, op: str, **fields: Any) -> None:
        try:
            self.client.call({"op": op, "sweep": self.sweep_id, **fields})
        except BrokerUnreachable:
            pass  # abandoned: lease expiry requeues the task; the store has any result

    def claim(self) -> tuple[str, dict[str, Any] | None]:
        spec = self.worker.spec
        try:
            reply = self.client.call(
                {
                    "op": "claim",
                    "sweep": self.sweep_id,
                    "owner": self.worker.owner,
                    "lease_seconds": spec.lease_seconds,
                    "hard_timeout": spec.task_timeout,
                }
            )
        except BrokerUnreachable:
            return "unreachable", None
        if reply.get("shutdown"):
            return "shutdown", None
        record = reply.get("record")
        if record is None:
            if reply.get("pending", 0) == 0 and reply.get("leased", 0) == 0:
                return "drained", None
            return "idle", None  # backoff windows or live leases: poll again
        return "claimed", {**record, "task": _decode(record["task"])}

    def renew(self, record: dict[str, Any]) -> bool | None:
        reply = self.heartbeat_client.try_call(
            {
                "op": "renew",
                "sweep": self.sweep_id,
                "owner": self.worker.owner,
                "digest": record["digest"],
                "lease_seconds": float(self.worker.spec.lease_seconds),
            }
        )
        return None if reply is None else bool(reply.get("renewed", False))

    def settled(self, record: dict[str, Any], kind: str, value: Any) -> bool:
        if kind != "result":
            return False  # no op reports a store-side quarantine: run the attempt
        # a previous holder published to this (shared) store but its ack was
        # lost: settle the broker from the store, skip re-execution
        self._complete(record, value)
        return True

    def complete(self, record: dict[str, Any], result: Any) -> None:
        delay = self.worker.injector.ack_delay(self.worker.completed)
        if delay > 0:
            time.sleep(delay)  # chaos: the lease may expire in the publish→ack gap
        self._complete(record, result)

    def _complete(self, record: dict[str, Any], result: Any) -> None:
        self._send(
            "complete",
            owner=self.worker.owner,
            digest=record["digest"],
            attempts=record.get("attempts", 0) + 1,
            result=_encode(result),
        )

    def fail(self, record: dict[str, Any], error: str) -> None:
        self._send(
            "fail",
            owner=self.worker.owner,
            digest=record["digest"],
            attempts=record.get("attempts", 0),
            error=error,
        )

    def close(self) -> None:
        self.client.close()
        self.heartbeat_client.close()


# ----------------------------------------------------------------- coordinator


def _settled_payload(digest: str, payload: dict[str, Any]) -> tuple[str, str, dict[str, Any]]:
    """A collected broker payload as ``(digest, kind, store payload)``."""
    if payload.get("status") == "done":
        value = _decode(payload["result"])
        return digest, "result", {"result": value, "attempts": int(payload.get("attempts", 1))}
    return digest, "poison", {
        "task": _decode(payload["task"]) if payload.get("task") else None,
        "digest": digest,
        "attempts": int(payload.get("attempts", 0)),
        "errors": tuple(payload.get("errors", ())),
    }


class _BrokerTransport:
    """Coordinator side of the broker: resolve, enqueue, collect, supervise."""

    extra_stats = ("broker_restarts",)

    def __init__(self, backend: "BrokerBackend", spec: WorkerSpec, sweep_id: str):
        self.backend = backend
        self.spec = spec
        self.sweep_id = sweep_id
        self.broker: _EmbeddedBroker | None = None
        self.client: BrokerClient | _LocalClient | None = None
        self.link: _BrokerLink | None = None
        self.fleet = True
        self.records: list[dict[str, Any]] = []
        self.unreachable_rounds = 0
        self.stats: dict[str, int] = {}

    def start(self, pending: dict[str, SweepTask], stats: dict[str, int], context: Any) -> None:
        backend, spec = self.backend, self.spec
        self.stats = stats
        self.records = [
            {
                "digest": digest,
                "task": _encode(pending[digest]),
                "attempts": 0,
                "not_before": 0.0,
                "errors": [],
            }
            for digest in sorted(pending)
        ]
        if backend.address is None:
            journal_dir = (
                Path(backend.journal_dir)
                if backend.journal_dir is not None
                else Path(spec.store.root) / "broker"
            )
            self.broker = _EmbeddedBroker(journal_dir, spec.fault_plan, context)
            try:
                address = self.broker.start()
            except (OSError, RuntimeError, EOFError):
                self._go_local(pending)
                return
        else:
            address = parse_address(backend.address)
        self.link = _BrokerLink(
            address,
            self.sweep_id,
            float(backend.connect_timeout),
            int(backend.connect_attempts),
            float(backend.connect_backoff),
        )
        # an embedded broker's death shows in its process liveness, so probe
        # it with a short budget (a dead broker costs one poll round, not a
        # reconnect window); an attached broker gets the full window
        self.client = self.link.client(attempts=2 if self.broker is not None else None)
        if self.client.try_call({"op": "ping"}) is None:
            # graceful degradation: a coordinator that can never reach its
            # broker finishes the sweep itself instead of hanging
            self._go_local(pending)
            return
        self.client.call(self._enqueue_message(self.records))

    def _enqueue_message(self, records: list[dict[str, Any]]) -> dict[str, Any]:
        return {
            "op": "enqueue",
            "sweep": self.sweep_id,
            "retries": self.spec.retries,
            "backoff": self.spec.backoff,
            "records": records,
        }

    def _go_local(self, remaining: Any) -> None:
        """Continue on an in-process broker: the inline worker drains the rest."""
        if self.client is not None:
            self.client.close()
        self.link = _BrokerLink(("127.0.0.1", 0), self.sweep_id, 0.0, 1, 0.0, local=_Broker())
        self.client = self.link.client()
        self.fleet = False
        self.client.call(
            self._enqueue_message([r for r in self.records if r["digest"] in remaining])
        )

    def collect(self, digests: list[str]) -> list[tuple[str, str, Any]]:
        reply = self.client.try_call(
            {"op": "collect", "sweep": self.sweep_id, "digests": digests}
        )
        if reply is None:
            self.unreachable_rounds += 1
            return []
        self.unreachable_rounds = 0
        settled = reply.get("settled", {})
        if not settled and reply.get("pending", 0) == 0 and reply.get("leased", 0) == 0:
            # the broker has no trace of our remaining tasks (a restart with
            # a wiped journal): re-enqueue them — idempotent against anything
            # it does still know
            wanted = set(digests)
            self.client.try_call(
                self._enqueue_message([r for r in self.records if r["digest"] in wanted])
            )
        return [_settled_payload(digest, payload) for digest, payload in settled.items()]

    def check(self, remaining: Any) -> bool:
        """Broker liveness: restart an embedded broker, or fall back in-process."""
        if not self.fleet:
            return False
        if self.broker is not None:
            if self.broker.alive():
                return False
            # restart on the pinned port: journal replay makes it lossless
            if self.stats["broker_restarts"] < MAX_BROKER_RESTARTS:
                self.stats["broker_restarts"] += 1
                try:
                    self.broker.start()
                    return True
                except (OSError, RuntimeError, EOFError):
                    pass
        elif self.unreachable_rounds < 2:
            # an attached broker is someone else's to restart: give it two
            # full reconnect windows before draining inline
            return False
        self._go_local(remaining)
        return True

    def shutdown(self) -> None:
        if self.client is not None:
            self.client.try_call({"op": "shutdown", "sweep": self.sweep_id}, attempts=2)

    def close(self, settled: bool) -> None:
        if self.client is not None:
            if settled:
                self.client.try_call({"op": "retire", "sweep": self.sweep_id}, attempts=2)
            self.client.close()
        if self.broker is not None:
            self.broker.stop()


@dataclass
class BrokerBackend(LeaseBackend):
    """Socket-distributed elastic sweep backend (leases, retries, quarantine).

    The directory queue's exact semantics (see
    :class:`~repro.experiments.leases.LeaseBackend` for the shared fields
    and statistics), but coordination rides a TCP broker, so workers need
    no shared filesystem.  Two modes:

    * **embedded** (``address=None``, the default and what ``--backend
      broker`` resolves to): the coordinator spawns its own broker
      subprocess on a free localhost port, supervises it, restarts it on
      the same port if it dies (up to three times; the journal under
      ``journal_dir``, default ``<store.root>/broker``, makes the restart
      lossless), and stops it at the end.
    * **attached** (``address="host:port"``, what ``--broker`` sets): the
      broker is external (``python -m repro.experiments.broker serve``) and
      its lifecycle belongs to whoever started it.

    Either way, a coordinator that loses its broker for good drains the
    sweep inline (full retry/quarantine semantics) instead of hanging.
    ``connect_timeout``/``connect_attempts``/``connect_backoff`` size the
    clients' reconnect window.  :attr:`last_stats` adds ``broker_restarts``.
    """

    address: str | tuple[str, int] | None = None
    journal_dir: Path | str | None = None
    connect_timeout: float = 10.0
    connect_attempts: int = 40
    connect_backoff: float = 0.05

    name = "broker"

    def submit(
        self,
        fn: Callable[[Any, SweepTask], Any],
        shared: Any,
        tasks: Sequence[SweepTask],
        workers: int,
        chunksize: int,
    ) -> Iterator[tuple[int, Any]]:
        # chunksize is a pool-dispatch optimization; the broker hands out one
        # task per claim so stealing stays task-granular
        spec, sweep_id = self._spec(fn, shared)
        transport = _BrokerTransport(self, spec, sweep_id)
        return self._coordinate(transport, spec, list(tasks), max(1, int(workers)))


# -------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.broker`` — run and manage a task broker."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.broker",
        description="Run and manage the socket sweep broker.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    serve_parser = commands.add_parser(
        "serve", help="run a broker (foreground; --supervise restarts it on death)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port (0 picks a free one; default {DEFAULT_PORT})",
    )
    serve_parser.add_argument(
        "--journal-dir",
        default=None,
        help="journal directory (default: <cache root>/broker)",
    )
    serve_parser.add_argument(
        "--supervise",
        action="store_true",
        help="run the broker as a child process and restart it if it dies "
        "abnormally (journal replay makes the restart lossless)",
    )
    serve_parser.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        metavar="N",
        help="restart budget under --supervise (default 2)",
    )
    for name in ("ping", "stop"):
        sub = commands.add_parser(
            name,
            help=(
                "probe a broker's liveness" if name == "ping" else "stop a broker"
            ),
        )
        sub.add_argument(
            "--broker",
            required=True,
            metavar="HOST:PORT",
            help="address of the broker to contact",
        )
    args = parser.parse_args(argv)

    if args.command in ("ping", "stop"):
        try:
            address = parse_address(args.broker)
        except ValueError as error:
            parser.error(str(error))
        client = BrokerClient(address, timeout=5.0, attempts=3, backoff=0.1)
        try:
            reply = client.call({"op": args.command})
        except BrokerError as error:
            print(f"broker at {args.broker}: {error}", file=sys.stderr)
            return 1
        finally:
            client.close()
        print(json.dumps({"broker": args.broker, **reply}))
        return 0

    plan = FaultPlan.from_env()
    journal_dir = (
        Path(args.journal_dir)
        if args.journal_dir is not None
        else Path(default_cache().root) / "broker"
    )
    if not args.supervise:
        server = BrokerServer((args.host, args.port), journal_dir, plan)
        host, port = server.address
        print(f"broker listening on {host}:{port} (journal: {journal_dir})", flush=True)
        with server:
            try:
                server.serve_forever(poll_interval=0.2)
            except KeyboardInterrupt:
                pass
        return 0

    broker = _EmbeddedBroker(
        journal_dir,
        plan,
        multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn"),
        host=args.host,
        port=int(args.port),
    )
    restarts = 0
    while True:
        host, port = broker.start()
        print(f"broker listening on {host}:{port} (journal: {journal_dir})", flush=True)
        broker.process.join()
        exitcode = broker.process.exitcode
        if exitcode == 0:
            return 0
        if restarts >= int(args.max_restarts):
            print(
                f"broker died (exit {exitcode}) with the restart budget spent",
                file=sys.stderr,
            )
            return 1
        restarts += 1
        print(
            f"broker died (exit {exitcode}); restarting on {host}:{port} "
            f"({restarts}/{args.max_restarts})",
            flush=True,
        )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    from repro.experiments.common import dispatch_canonical_main

    raise SystemExit(dispatch_canonical_main(__spec__))
