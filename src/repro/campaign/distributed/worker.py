"""The campaign worker: claim, simulate, report, repeat.

A worker joins a campaign knowing only the coordinator's URL.  It
downloads the :class:`~.protocol.CampaignDescriptor`, re-plans the
campaign locally from the shipped config through the unchanged
:class:`~repro.campaign.runner.CampaignRunner` and refuses to claim
anything unless its own fingerprint reproduces the coordinator's —
config or code drift between hosts fails loudly before any
simulation runs.

Each leased shard then runs through ``CampaignRunner.execute`` —
the exact retry/degrade machinery of a single-host campaign — and
resolves and records through the runner's
:class:`~repro.campaign.runner.Ledger`: an optional local shard
journal (always adopted, for crash safety, and compacted before the
results ship), then the worker's store; simulated records are stored
with the worker id in their metadata.  A heartbeat thread extends the
lease at a third of its duration.  Reports are sent even when the
lease was lost meanwhile: ``/report`` is idempotent, so a late result
is acknowledged and dropped rather than double-merged.

Timing discipline: the worker never sends a timestamp.  Lease expiry
lives entirely on the coordinator's monotonic clock, so worker clock
skew cannot corrupt the lease protocol.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..runner import (CampaignOptions, CampaignRunner, Ledger,
                      PreparedCampaign)
from ..tasks import ClassTask
from .protocol import (CampaignDescriptor, ProtocolError, ReportEntry,
                       ShardLease)

#: connect/read timeout for protocol calls, seconds
HTTP_TIMEOUT = 30.0

#: transient-error retries per protocol call
HTTP_RETRIES = 3

#: fallback poll interval when the coordinator has nothing claimable
#: and suggests no retry_after
POLL_INTERVAL = 0.2

_worker_serial = itertools.count(1)


class WorkerError(RuntimeError):
    """The worker cannot (or must not) continue this campaign."""


def default_worker_id() -> str:
    """Host- and process-unique worker id (threads get a serial)."""
    return (f"{socket.gethostname()}-{os.getpid()}"
            f"-{next(_worker_serial)}")


def _http_json(url: str, payload: Optional[Dict] = None,
               timeout: float = HTTP_TIMEOUT,
               retries: int = HTTP_RETRIES) -> Dict:
    """One JSON round trip with transient-error retries.

    4xx answers raise :class:`WorkerError` immediately (the request
    is wrong; retrying cannot fix it); connection failures and 5xx
    back off and retry.
    """
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    last_error: Optional[str] = None
    for attempt in range(1 + max(0, retries)):
        if attempt:
            time.sleep(min(2.0, 0.2 * (2 ** (attempt - 1))))
        request = urllib.request.Request(url, data=data,
                                         headers=headers)
        try:
            with urllib.request.urlopen(request,
                                        timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            body = ""
            try:
                body = exc.read().decode("utf-8", "replace")
            except OSError:
                pass
            if 400 <= exc.code < 500:
                raise WorkerError(
                    f"{url} answered {exc.code}: {body}") from exc
            last_error = f"{url} answered {exc.code}: {body}"
        except (urllib.error.URLError, OSError,
                json.JSONDecodeError) as exc:
            last_error = f"{url} failed: {exc}"
    raise WorkerError(last_error or f"{url} failed")


class Worker:
    """One worker process/thread bound to one coordinator.

    Args:
        url: coordinator base URL (``http://host:port``).
        worker_id: stable id used in leases and the dashboard;
            generated when omitted.
        jobs: process-pool width for each shard's execution (1 =
            in-process serial, the localhost-pool default).
        cache_dir: optional local cache root; enables the worker-side
            results store (cache hits are reported with source
            ``"cache"``) and the per-shard crash-safety journal.
        bus: optional event bus for worker-side reporting.
    """

    def __init__(self, url: str, worker_id: Optional[str] = None,
                 jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 bus=None) -> None:
        self.url = url.rstrip("/")
        self.worker_id = worker_id or default_worker_id()
        self.jobs = max(1, jobs)
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else None
        self.bus = bus
        self.descriptor: Optional[CampaignDescriptor] = None
        self.prepared: Optional[PreparedCampaign] = None
        self.runner: Optional[CampaignRunner] = None
        self.stats = {"shards": 0, "tasks": 0, "computed": 0,
                      "cached": 0, "degraded": 0}

    # -- joining -----------------------------------------------------------

    def join_campaign(self) -> CampaignDescriptor:
        """Fetch the descriptor, re-plan, verify the fingerprint.

        Idempotent; called implicitly by :meth:`run`.
        """
        if self.descriptor is not None:
            return self.descriptor
        try:
            descriptor = CampaignDescriptor.from_dict(
                _http_json(f"{self.url}/campaign"))
        except ProtocolError as exc:
            raise WorkerError(f"bad campaign descriptor: {exc}") \
                from exc
        options = CampaignOptions(
            jobs=self.jobs, cache_dir=self.cache_dir, resume=False,
            store_version=descriptor.store_version)
        self.runner = CampaignRunner(descriptor.path_config(),
                                     options, bus=self.bus)
        self.prepared = self.runner.prepare(descriptor.macros,
                                            jobs=self.jobs)
        if self.prepared.fingerprint != descriptor.fingerprint:
            raise WorkerError(
                f"fingerprint mismatch: coordinator campaign "
                f"{descriptor.fingerprint[:16]} != local plan "
                f"{self.prepared.fingerprint[:16]} (config or code "
                f"drift between hosts; refusing to simulate)")
        self.descriptor = descriptor
        return descriptor

    # -- shard execution ---------------------------------------------------

    def _shard_tasks(self, lease: ShardLease) -> List[ClassTask]:
        tasks_by_id = self.prepared.tasks_by_id
        missing = [t for t in lease.task_ids if t not in tasks_by_id]
        if missing:
            # impossible after the fingerprint check, so treat it as
            # the drift it would be
            raise WorkerError(
                f"lease {lease.shard_id[:16]} names unknown tasks "
                f"{missing[:3]}")
        return [tasks_by_id[t] for t in lease.task_ids]

    def _shard_journal(self, lease: ShardLease) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / "journals" / \
            f"shard-{lease.shard_id[:16]}.jsonl"

    def execute_shard(self, lease: ShardLease) -> List[ReportEntry]:
        """Run one shard through the single-host execution machinery.

        Resolution order mirrors the runner: local shard journal (a
        crashed predecessor's partial work), then the results store,
        then simulation via ``CampaignRunner.execute`` (retry and
        degrade semantics included).  Every completion is journaled
        immediately, so a worker killed mid-shard loses only the
        class in flight.
        """
        tasks = self._shard_tasks(lease)
        ledger = Ledger(self._shard_journal(lease),
                        self.descriptor.fingerprint,
                        self.prepared.store, adopt=True)
        collected: Dict[str, ReportEntry] = {}

        def complete(task: ClassTask, record, source: str,
                     wall: float = 0.0,
                     error: Optional[str] = None,
                     retried: bool = False) -> None:
            degraded = error is not None
            collected[task.task_id] = ReportEntry(
                task_id=task.task_id, record=record,
                degraded=degraded, error=error, wall=wall,
                source="cache" if source == "cache" else "remote")
            self.stats["tasks"] += 1
            self.stats["degraded"] += degraded
            if source == "cache":
                self.stats["cached"] += 1
            elif source == "computed":
                self.stats["computed"] += 1
            ledger.record(task, record, source, error,
                          worker=self.worker_id)

        try:
            self.runner.execute(ledger.known(tasks, complete), complete,
                                jobs=self.jobs,
                                baselines=self.prepared.baselines)
            # dedup retried classes so the shipped report and any
            # crash-recovery adoption read one line per class
            ledger.compact()
        finally:
            ledger.close()
        return [collected[t.task_id] for t in tasks]

    # -- protocol loop -----------------------------------------------------

    def _claim(self) -> Dict:
        return _http_json(f"{self.url}/claim",
                          {"worker": self.worker_id})

    def _report(self, lease: ShardLease,
                entries: Sequence[ReportEntry]) -> Dict:
        return _http_json(
            f"{self.url}/report",
            {"worker": self.worker_id, "shard_id": lease.shard_id,
             "entries": [e.to_dict() for e in entries]})

    def _heartbeat_loop(self, lease: ShardLease,
                        stop: threading.Event) -> None:
        interval = max(0.05, (lease.lease or
                              self.descriptor.lease) / 3.0)
        while not stop.wait(interval):
            try:
                answer = _http_json(
                    f"{self.url}/heartbeat",
                    {"worker": self.worker_id,
                     "shard_id": lease.shard_id}, retries=0)
            except WorkerError:
                continue  # transient; the lease may still be alive
            if not answer.get("ok"):
                # reclaimed or already done — keep simulating and
                # report anyway (idempotent), but stop heartbeating
                return

    def run_shard(self, lease: ShardLease) -> Dict:
        """Execute one lease end to end and report it."""
        stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(lease, stop),
            name=f"heartbeat-{lease.shard_id[:8]}", daemon=True)
        heartbeat.start()
        try:
            entries = self.execute_shard(lease)
        finally:
            stop.set()
        heartbeat.join(timeout=1.0)
        answer = self._report(lease, entries)
        if not answer.get("accepted"):
            raise WorkerError(
                f"coordinator rejected shard "
                f"{lease.shard_id[:16]}: {answer}")
        self.stats["shards"] += 1
        if journal := self._shard_journal(lease):
            # the merge is durable on the coordinator; drop the local
            # crash-safety journal
            try:
                journal.unlink()
            except OSError:
                pass
        return answer

    def run(self) -> Dict:
        """Claim-execute-report until the campaign is done.

        Returns the worker's accounting dict (shards, tasks,
        computed, cached, degraded).
        """
        self.join_campaign()
        while True:
            answer = self._claim()
            shard = answer.get("shard")
            if shard is None:
                if answer.get("done"):
                    return dict(self.stats)
                time.sleep(float(answer.get("retry_after") or
                                 POLL_INTERVAL))
                continue
            try:
                lease = ShardLease.from_dict(shard)
            except ProtocolError as exc:
                raise WorkerError(f"bad lease: {exc}") from exc
            self.run_shard(lease)


def run_worker(url: str, worker_id: Optional[str] = None,
               jobs: int = 1,
               cache_dir: Optional[Union[str, Path]] = None) -> Dict:
    """Module-level worker entry point.

    Picklable by design: this is what ``python -m repro worker`` and
    the spawn-based :class:`LocalWorkerPool` both invoke.
    """
    return Worker(url, worker_id=worker_id, jobs=jobs,
                  cache_dir=cache_dir).run()


class LocalWorkerPool:
    """N workers against one coordinator on this host.

    ``mode="process"`` spawns real processes (true parallelism — the
    CI benchmark and ``campaign --coordinator --workers N``);
    ``mode="thread"`` runs workers as threads in this process, which
    is what protocol tests want: monkeypatched simulation stubs stay
    visible and failures surface as ordinary exceptions.
    """

    def __init__(self, url: str, n: int, mode: str = "process",
                 jobs: int = 1,
                 cache_dir: Optional[Union[str, Path]] = None,
                 worker_prefix: str = "worker") -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        self.url = url
        self.n = max(1, n)
        self.mode = mode
        self.jobs = jobs
        self.cache_dir = str(cache_dir) if cache_dir is not None \
            else None
        self.worker_prefix = worker_prefix
        self._members: List = []
        self._errors: List[BaseException] = []

    def _thread_main(self, worker_id: str) -> None:
        try:
            run_worker(self.url, worker_id=worker_id, jobs=self.jobs,
                       cache_dir=self.cache_dir)
        except BaseException as exc:  # surfaced by join()
            self._errors.append(exc)

    def start(self) -> None:
        for k in range(self.n):
            worker_id = f"{self.worker_prefix}-{k}"
            if self.mode == "thread":
                member = threading.Thread(
                    target=self._thread_main, args=(worker_id,),
                    name=worker_id, daemon=True)
            else:
                import multiprocessing
                context = multiprocessing.get_context("spawn")
                member = context.Process(
                    target=run_worker, name=worker_id,
                    args=(self.url,),
                    kwargs={"worker_id": worker_id,
                            "jobs": self.jobs,
                            "cache_dir": self.cache_dir},
                    daemon=True)
            self._members.append(member)
            member.start()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for every worker; re-raise the first thread error."""
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        for member in self._members:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            member.join(remaining)
        if self._errors:
            raise self._errors[0]

    def terminate(self) -> None:
        for member in self._members:
            if hasattr(member, "terminate") and member.is_alive():
                member.terminate()
