"""The campaign coordinator: shard queue, merge, HTTP fan-in.

One coordinator owns one campaign.  It plans the campaign exactly as
a single-host :class:`~repro.campaign.runner.CampaignRunner` would
(same plans, same tasks, same fingerprint), resolves what the journal
and store already know, partitions the remainder into content-keyed
shards and serves them to workers over stdlib HTTP.

Shard lifecycle::

    pending --claim--> leased --report--> done
       ^                  |
       +---lease expiry---+   (retries += 1; too many -> degraded)

All timing is on the coordinator's injected monotonic clock — a
worker's clock never enters the protocol, so clock skew cannot expire
or immortalise a lease.  ``/report`` is idempotent per shard: the
first report merges, every later one (a reclaimed worker finishing
late, a retried HTTP call) is acknowledged and ignored — safe because
shard results are deterministic, so duplicates are byte-identical by
construction.

Resolving and recording go through the runner's
:class:`~repro.campaign.runner.Ledger`, the same rule a single-host
campaign follows: a restarted coordinator with ``--resume`` adopts
the merged journal and only re-dispatches the remainder, every merged
class is journaled (crash safety), and remote simulations that did
not degrade are adopted into the coordinator's content-addressed
store (re-run economy).  Each merge is also emitted as a
:class:`~repro.campaign.events.ClassCompleted` event (live metrics).
The final result is assembled in plan order, so it is byte-identical
to a single-host run with the same seed.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...core.path import PathResult
from ...core.router import error_envelope
from ...macrotest.coverage import DetectionRecord
from ..events import (CampaignFinished, CampaignStarted, ClassCompleted,
                      DistributedMetricsCollector, EventBus,
                      ShardClaimed, ShardCompleted, ShardReclaimed)
from ..runner import (CampaignOptions, CampaignResult, CampaignRunner,
                      Ledger, PreparedCampaign)
from ..tasks import ClassTask, degraded_record
from .partition import Shard, partition_tasks
from .protocol import (CampaignDescriptor, ProtocolError, ReportEntry,
                       ShardLease, decode_entries)

#: default shard lease in seconds; workers heartbeat at lease / 3
DEFAULT_LEASE = 30.0

#: how many expired leases a shard survives before its unfinished
#: classes degrade (the campaign finishes; it does not hang forever
#: on a shard no worker can complete)
MAX_SHARD_RETRIES = 3

#: suggested worker poll interval when no shard is claimable
RETRY_AFTER = 0.2


class _ShardState:
    """Coordinator-side lifecycle of one shard."""

    __slots__ = ("shard", "status", "worker", "expiry", "claimed_at",
                 "retries")

    def __init__(self, shard: Shard) -> None:
        self.shard = shard
        self.status = "pending"  # pending | leased | done
        self.worker: Optional[str] = None
        self.expiry = 0.0
        self.claimed_at = 0.0
        self.retries = 0


class Coordinator:
    """Plans, shards, serves and merges one distributed campaign.

    Usage::

        coordinator = Coordinator(config, options, lease=30.0)
        url = coordinator.start()        # plans + binds the server
        ... point `python -m repro worker <url>` at it ...
        result = coordinator.wait()      # blocks until merged

    or, localhost multi-worker mode in one call::

        result = Coordinator(config, options).run(workers=3)

    The coordinator itself never simulates a fault class (the decoder
    logic pass at assembly is the one exception, mirroring the
    single-host runner).
    """

    def __init__(self, config=None,
                 options: Optional[CampaignOptions] = None,
                 bus: Optional[EventBus] = None,
                 macros: Optional[Sequence[str]] = None,
                 shard_size: Optional[int] = None,
                 n_shards: Optional[int] = None,
                 lease: float = DEFAULT_LEASE,
                 max_shard_retries: int = MAX_SHARD_RETRIES,
                 host: str = "127.0.0.1", port: int = 0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.runner = CampaignRunner(config, options, bus=bus)
        self.config = self.runner.config
        self.options = self.runner.options
        self.bus = self.runner.bus
        self.collector = self.runner.collector
        self.distributed = DistributedMetricsCollector(clock=clock)
        self.bus.subscribe(self.distributed)
        self.macros = macros
        self.shard_size = shard_size
        self.n_shards = n_shards
        self.lease = float(lease)
        self.max_shard_retries = max_shard_retries
        self.host = host
        self.port = port
        self._clock = clock
        self._lock = threading.RLock()
        self._done = threading.Event()
        self._prepared: Optional[PreparedCampaign] = None
        self._shards: Dict[str, _ShardState] = {}
        self._queue: List[str] = []  # pending shard ids, heaviest first
        self._results: Dict[str, DetectionRecord] = {}
        self._ledger: Optional[Ledger] = None
        self._server: Optional["CoordinatorServer"] = None
        self._server_thread: Optional[threading.Thread] = None
        self._workers_seen: set = set()

    # -- planning ----------------------------------------------------------

    def prepare(self) -> PreparedCampaign:
        """Plan, resolve journal/store, partition the rest into shards.

        Idempotent; called implicitly by :meth:`start`.
        """
        with self._lock:
            if self._prepared is not None:
                return self._prepared
            prepared = self.runner.prepare(self.macros, jobs=1)
            self._prepared = prepared
            if prepared.store is not None:
                prepared.store.sweep_tmp()

            self._ledger = self.runner.ledger(prepared)

            self.bus.emit(CampaignStarted(
                macros=tuple(p.name for p in prepared.plans) +
                (("decoder",) if "decoder" in prepared.wanted else ()),
                total_tasks=len(prepared.tasks), jobs=0,
                resumed=len(self._ledger.adopted),
                total_weight=sum(t.fault_class.count
                                 for t in prepared.tasks)))

            # resolve journal + store before sharding anything
            to_shard = self._ledger.known(prepared.tasks, self._complete)
            for shard in partition_tasks(to_shard,
                                         shard_size=self.shard_size,
                                         n_shards=self.n_shards):
                self._shards[shard.id] = _ShardState(shard)
                self._queue.append(shard.id)
            self.distributed.set_totals(
                len(self._shards),
                sum(s.shard.weight for s in self._shards.values()))
            if not self._shards:
                self._done.set()
            return prepared

    def descriptor(self) -> CampaignDescriptor:
        prepared = self.prepare()
        return CampaignDescriptor(
            fingerprint=prepared.fingerprint,
            config=self.config.to_dict(),
            macros=tuple(prepared.wanted),
            store_version=self.options.store_version,
            lease=self.lease)

    # -- merge -------------------------------------------------------------

    def _complete(self, task: ClassTask, record: DetectionRecord,
                  source: str, wall: float = 0.0,
                  error: Optional[str] = None) -> None:
        """Fold one finished class into the campaign (lock held)."""
        self._results[task.task_id] = record
        self._ledger.record(task, record, source, error)
        self.bus.emit(ClassCompleted(
            macro=task.macro, kind=task.kind, index=task.index,
            source=source, wall=wall, degraded=error is not None,
            error=error, done=len(self._results),
            total=len(self._prepared.tasks), weight=task.fault_class.count))

    def _reclaim_expired(self) -> None:
        """Requeue (or degrade) shards whose lease ran out."""
        now = self._clock()
        for state in self._shards.values():
            if state.status != "leased" or state.expiry > now:
                continue
            state.retries += 1
            worker = state.worker or ""
            state.worker = None
            self.bus.emit(ShardReclaimed(
                shard_id=state.shard.id, worker=worker,
                retries=state.retries, lease=self.lease))
            if state.retries > self.max_shard_retries:
                # the shard keeps killing its workers: degrade its
                # unfinished classes so the campaign finishes
                tasks = self._prepared.tasks_by_id
                for task_id in state.shard.task_ids:
                    if task_id in self._results:
                        continue
                    task = tasks[task_id]
                    self._complete(
                        task, degraded_record(task.fault_class),
                        "remote",
                        error=f"shard {state.shard.id[:16]} exceeded "
                              f"{self.max_shard_retries} lease "
                              f"retries")
                state.status = "done"
                self._check_done()
            else:
                state.status = "pending"
                self._queue.append(state.shard.id)

    def _check_done(self) -> None:
        if all(s.status == "done" for s in self._shards.values()):
            self._done.set()

    # -- protocol operations (called by the HTTP layer) --------------------

    def claim(self, worker: str) -> Dict:
        with self._lock:
            self._workers_seen.add(worker)
            self._reclaim_expired()
            if self._done.is_set():
                return {"shard": None, "done": True}
            # heaviest pending shard first (queue order preserves the
            # partitioner's dispatch order; reclaimed shards rejoin at
            # the back)
            while self._queue:
                state = self._shards[self._queue.pop(0)]
                if state.status != "pending":
                    continue
                now = self._clock()
                state.status = "leased"
                state.worker = worker
                state.claimed_at = now
                state.expiry = now + self.lease
                self.bus.emit(ShardClaimed(
                    shard_id=state.shard.id, worker=worker,
                    n_tasks=state.shard.n_tasks,
                    weight=state.shard.weight,
                    retries=state.retries))
                return {"shard": ShardLease.from_shard(
                    state.shard, self.lease,
                    retries=state.retries).to_dict(),
                    "done": False}
            return {"shard": None, "done": self._done.is_set(),
                    "retry_after": RETRY_AFTER}

    def report(self, worker: str, shard_id: str,
               entries: Sequence[ReportEntry]) -> Dict:
        with self._lock:
            self._workers_seen.add(worker)
            state = self._shards.get(shard_id)
            if state is None:
                raise ProtocolError(f"unknown shard {shard_id!r}")
            if state.status == "done":
                self.bus.emit(ShardCompleted(
                    shard_id=shard_id, worker=worker,
                    n_tasks=state.shard.n_tasks,
                    weight=state.shard.weight, duplicate=True))
                return {"accepted": True, "duplicate": True}

            by_id = {e.task_id: e for e in entries}
            missing = [task_id for task_id in state.shard.task_ids
                       if task_id not in by_id and
                       task_id not in self._results]
            if missing:
                # a partial report is a failed report: requeue whole
                if state.status == "leased":
                    state.status = "pending"
                    state.worker = None
                    state.retries += 1
                    self._queue.append(shard_id)
                return {"accepted": False, "duplicate": False,
                        "missing": missing}

            tasks = self._prepared.tasks_by_id
            merged = 0
            for task_id in state.shard.task_ids:
                if task_id in self._results:
                    continue
                entry = by_id[task_id]
                task = tasks[task_id]
                record = replace(entry.record,
                                 count=task.fault_class.count)
                source = entry.source if entry.source == "cache" \
                    else "remote"
                self._complete(task, record, source, wall=entry.wall,
                               error=entry.error if entry.degraded
                               else None)
                merged += 1
            wall = self._clock() - state.claimed_at \
                if state.claimed_at else 0.0
            state.status = "done"
            state.worker = None
            self.bus.emit(ShardCompleted(
                shard_id=shard_id, worker=worker, n_tasks=merged,
                weight=state.shard.weight, wall=wall))
            self._check_done()
            return {"accepted": True, "duplicate": False}

    def heartbeat(self, worker: str, shard_id: str) -> Dict:
        with self._lock:
            self._reclaim_expired()
            state = self._shards.get(shard_id)
            if state is None:
                raise ProtocolError(f"unknown shard {shard_id!r}")
            if state.status == "done":
                return {"ok": False, "done": True}
            if state.status == "leased" and state.worker == worker:
                state.expiry = self._clock() + self.lease
                return {"ok": True, "lease": self.lease}
            return {"ok": False, "reclaimed": True}

    def health(self) -> Dict:
        with self._lock:
            counts = {"pending": 0, "leased": 0, "done": 0}
            for state in self._shards.values():
                counts[state.status] += 1
            return {
                "status": "ok",
                "fingerprint": self._prepared.fingerprint
                if self._prepared else "",
                "shards": counts,
                "workers": sorted(self._workers_seen),
                "done": self._done.is_set(),
            }

    def metrics(self) -> Dict:
        jobs = max(1, len(self._workers_seen))
        return {
            "campaign": self.collector.snapshot(jobs=jobs).as_dict(),
            "distributed": self.distributed.snapshot().as_dict(),
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("coordinator is not serving")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> str:
        """Plan the campaign and start serving; returns the URL."""
        self.prepare()
        if self._server is None:
            self._server = CoordinatorServer((self.host, self.port),
                                             self)
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                name="campaign-coordinator", daemon=True)
            self._server_thread.start()
        return self.url

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
                self._server_thread = None

    def wait(self, timeout: Optional[float] = None) -> CampaignResult:
        """Block until every shard is merged, then assemble.

        Raises :class:`TimeoutError` if the campaign has not finished
        within ``timeout`` seconds.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"distributed campaign incomplete after {timeout}s "
                f"({self.health()['shards']})")
        with self._lock:
            prepared = self._prepared
            try:
                analyses = self.runner._assemble(
                    prepared.wanted, prepared.plans, self._results)
            finally:
                self._ledger.close()
        metrics = self.collector.snapshot(
            jobs=max(1, len(self._workers_seen)))
        self.bus.emit(CampaignFinished(metrics=metrics))
        return CampaignResult(
            path_result=PathResult(config=self.config,
                                   macros=analyses),
            metrics=metrics, fingerprint=prepared.fingerprint)

    def run(self, workers: int = 0, worker_mode: str = "process",
            worker_jobs: int = 1,
            timeout: Optional[float] = None) -> CampaignResult:
        """Localhost multi-worker mode: serve, spawn, wait, stop.

        With ``workers=0`` the coordinator only serves — point
        external ``python -m repro worker <url>`` processes at it.
        """
        from .worker import LocalWorkerPool
        url = self.start()
        pool = None
        if workers > 0:
            pool = LocalWorkerPool(
                url, workers, mode=worker_mode, jobs=worker_jobs,
                cache_dir=self.options.resolved_cache_dir())
            pool.start()
        try:
            return self.wait(timeout)
        finally:
            if pool is not None:
                pool.join(timeout=10.0)
            self.stop()


class CoordinatorServer(ThreadingHTTPServer):
    """HTTP fan-in bound to one :class:`Coordinator`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 coordinator: Coordinator) -> None:
        super().__init__(address, _Handler)
        self.coordinator = coordinator


class _Handler(BaseHTTPRequestHandler):
    server: CoordinatorServer

    #: quiet by default; the CLI flips this on with --verbose
    verbose = False

    def log_message(self, format, *args):  # noqa: A002 — stdlib name
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 — stdlib contract
        coordinator = self.server.coordinator
        if self.path == "/health":
            self._reply(200, coordinator.health())
        elif self.path == "/metrics":
            self._reply(200, coordinator.metrics())
        elif self.path == "/campaign":
            self._reply(200, coordinator.descriptor().to_dict())
        else:
            # same JSON error envelope as the diagnosis service:
            # {"error": {"code", "message"}}
            self._reply(404, error_envelope(
                "not_found", f"unknown path {self.path!r}"))

    def do_POST(self) -> None:  # noqa: N802 — stdlib contract
        coordinator = self.server.coordinator
        try:
            if self.path == "/claim":
                payload = self._body()
                worker = str(payload.get("worker") or "")
                if not worker:
                    raise ProtocolError("'worker' is required")
                self._reply(200, coordinator.claim(worker))
            elif self.path == "/report":
                payload = self._body()
                worker = str(payload.get("worker") or "")
                shard = str(payload.get("shard_id") or "")
                if not worker or not shard:
                    raise ProtocolError(
                        "'worker' and 'shard_id' are required")
                entries = decode_entries(payload)
                self._reply(200, coordinator.report(worker, shard,
                                                    entries))
            elif self.path == "/heartbeat":
                payload = self._body()
                worker = str(payload.get("worker") or "")
                shard = str(payload.get("shard_id") or "")
                if not worker or not shard:
                    raise ProtocolError(
                        "'worker' and 'shard_id' are required")
                self._reply(200, coordinator.heartbeat(worker, shard))
            else:
                self._reply(404, error_envelope(
                    "not_found", f"unknown path {self.path!r}"))
        except ProtocolError as exc:
            self._reply(400, error_envelope("bad_request", str(exc)))
