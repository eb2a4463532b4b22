"""The campaign runner: parallel, resumable fault-class execution.

``CampaignRunner`` turns a :class:`~repro.core.path.PathConfig` into a
:class:`~repro.core.path.PathResult` by

1. planning (serial): class discovery per macro
   (:mod:`repro.campaign.plan`);
2. baselining: each macro's fault-free circuit is computed once (or
   loaded from the store's baseline cache) and shared with every
   worker, so no fault class ever pays for a good-circuit simulation;
3. resolving: already-finished classes are adopted from the resume
   journal, then from the content-addressed results store;
4. dispatching: everything left — ordered most-likely class first, so
   weighted coverage converges early — fans out over a
   ``concurrent.futures.ProcessPoolExecutor`` (``jobs=1`` runs
   in-process, same code path, no pool overhead);
5. recording: every completion is journaled (crash safety), stored
   (re-run economy) and emitted as an event (live metrics).

Steps 3 and 5 are one rule, kept in one place: the :class:`Ledger`.
It adopts a journal written for the same campaign fingerprint, then
takes store hits; it journals every completion not read from the
journal, and stores only simulated, non-degraded records.  The
runner, the distributed coordinator and the worker's shard journal
all resolve and record through it; each keeps only its own
``complete`` callback (results and events here).

Failure contract: a class whose simulation raises — including worker
death taking the whole pool down — is retried once, then recorded as a
*degraded* (counted undetected) result with the error attached.  A
campaign finishes; it does not abort.

Results are assembled in plan order, so the output is bit-identical at
any ``jobs`` value and across resumes.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import FIRST_COMPLETED, Future, \
    ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.path import MacroAnalysis, PathConfig, PathResult
from ..faultsim.macro_engines import DecoderFaultEngine
from ..macrotest.coverage import DetectionRecord, MacroResult
from ..macrotest.macro import decoder_area
from .events import (CampaignFinished, CampaignStarted, ClassCompleted,
                     EventBus, MacroPlanned, MetricsCollector)
from .journal import CampaignJournal, JournalEntry
from .plan import (ANALOG_MACROS, MacroPlan, comparator_spec,
                   likelihood_order, plan_macro, validate_macros)
from .store import (STORE_VERSION, ResultsStore, baseline_key,
                    content_key)
from .tasks import (ClassTask, TaskOutcome, adopt_baselines,
                    degraded_record, get_engine, run_task)

#: default on-disk location for store + journal when resuming without
#: an explicit --cache-dir
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclass(frozen=True)
class CampaignOptions:
    """How a campaign executes (orthogonal to *what* it simulates).

    Attributes:
        jobs: worker processes; None means ``os.cpu_count()``.
        cache_dir: root for the results store and journal; None
            disables both (pure in-memory run).
        resume: adopt finished classes from a matching journal
            instead of re-simulating them.
        retries: extra attempts per failing class before degrading.
        store_version: results-store version tag (bump to invalidate).
    """

    jobs: Optional[int] = None
    cache_dir: Optional[Union[str, Path]] = None
    resume: bool = False
    retries: int = 1
    store_version: str = STORE_VERSION

    def resolved_jobs(self) -> int:
        if self.jobs is not None:
            return max(1, self.jobs)
        return max(1, os.cpu_count() or 1)

    def resolved_cache_dir(self) -> Optional[Path]:
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        if self.resume:
            return Path(DEFAULT_CACHE_DIR)
        return None


@dataclass(frozen=True)
class CampaignResult:
    """A finished campaign: the path result plus its accounting.

    Attributes:
        path_result: the assembled per-macro analyses.
        metrics: campaign accounting snapshot.
        fingerprint: the campaign identity digest (see
            :meth:`CampaignRunner.fingerprint`) — what dictionary
            builds key their store blobs by.  Empty for results not
            produced by a runner.
    """

    path_result: PathResult
    metrics: "object"  # CampaignMetrics (kept loose for serialization)
    fingerprint: str = ""


@dataclass
class _Pending:
    task: ClassTask
    attempts: int = 0
    first_error: Optional[str] = None


@dataclass
class PreparedCampaign:
    """A planned campaign, ready to dispatch (or to shard).

    Everything :meth:`CampaignRunner.run` needs before execution, and
    everything the distributed coordinator/worker pair needs to agree
    on the same work: the validated macro list, per-macro plans, the
    ordered task list, the campaign fingerprint, the (optional) store
    and the resolved good-circuit baselines.

    Planning is deterministic in the config, so two hosts preparing
    the same config produce the same fingerprint — the distributed
    protocol's consistency check.
    """

    wanted: List[str]
    plans: List[MacroPlan]
    tasks: List[ClassTask]
    fingerprint: str
    store: Optional[ResultsStore]
    baselines: Dict[str, Dict]

    @property
    def tasks_by_id(self) -> Dict[str, ClassTask]:
        return {t.task_id: t for t in self.tasks}


class Ledger:
    """The one rule for resolving and recording finished classes.

    Args:
        journal_path: the campaign (or shard) journal; None keeps no
            journal.
        fingerprint: the campaign identity the journal is bound to.
        store: the results store; None stores nothing.
        adopt: read a journal written for ``fingerprint`` back.  A
            journal that adopts nothing — another campaign's, or any
            journal when ``adopt`` is False — is truncated.

    :meth:`known` completes what the journal, else the store, holds;
    :meth:`record` journals every completion not read from the
    journal and stores only simulated (``"computed"``, or
    ``"remote"`` as the coordinator books a worker's simulation),
    non-degraded records.
    """

    def __init__(self, journal_path: Optional[Path], fingerprint: str,
                 store: Optional[ResultsStore] = None,
                 adopt: bool = False) -> None:
        self.store = store
        #: journal entries read back, by task id
        self.adopted: Dict[str, JournalEntry] = {}
        self._journal: Optional[CampaignJournal] = None
        if journal_path is not None:
            self._journal = CampaignJournal(journal_path)
            if adopt:
                self.adopted = self._journal.load(fingerprint)
            self._journal.open(fingerprint, fresh=not self.adopted)

    def known(self, tasks: Sequence[ClassTask], complete
              ) -> List[ClassTask]:
        """Complete every task the journal or the store already holds.

        ``complete(task, record, source, error=...)`` receives a task's
        journal entry (source ``"journal"``; a degraded one with its
        error) if there is one, else its store object (``"cache"``),
        re-hydrated with the task's class count.  Returns the
        remaining tasks in order.
        """
        rest = []
        for task in tasks:
            count = task.fault_class.count
            entry = self.adopted.get(task.task_id)
            if entry is not None:
                complete(task, replace(entry.record, count=count),
                         "journal",
                         error=entry.error if entry.degraded else None)
                continue
            if self.store is not None:
                cached = self.store.get(task.store_key, count=count)
                if cached is not None:
                    complete(task, cached, "cache")
                    continue
            rest.append(task)
        return rest

    def record(self, task: ClassTask, record: DetectionRecord,
               source: str, error: Optional[str] = None,
               **meta) -> None:
        """Journal and store one completion; ``meta`` joins the stored
        object's metadata (the worker adds its id)."""
        degraded = error is not None
        if self._journal is not None and source != "journal":
            self._journal.append(JournalEntry(
                task_id=task.task_id, record=record, degraded=degraded,
                error=error, source=source))
        if self.store is not None and \
                source in ("computed", "remote") and not degraded:
            self.store.put(task.store_key, record,
                           meta={"task_id": task.task_id,
                                 "macro": task.macro, **meta})

    def compact(self) -> None:
        """Rewrite the journal down to one line per class."""
        if self._journal is not None:
            self._journal.compact()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()


class CampaignRunner:
    """Executes a campaign described by a PathConfig."""

    def __init__(self, config: Optional[PathConfig] = None,
                 options: Optional[CampaignOptions] = None,
                 bus: Optional[EventBus] = None) -> None:
        self.config = config or PathConfig()
        self.options = options or CampaignOptions()
        self.bus = bus or EventBus()
        self.collector = MetricsCollector()
        self.bus.subscribe(self.collector)

    # -- plan / identity ---------------------------------------------------

    def _plan(self, wanted: Sequence[str]) -> List[MacroPlan]:
        plans = []
        for name in wanted:
            if name not in ANALOG_MACROS:
                continue
            plan = plan_macro(name, self.config)
            plans.append(plan)
            self.bus.emit(MacroPlanned(
                macro=name, n_classes=len(plan.classes),
                n_noncat=len(plan.noncat_classes)))
        return plans

    def _tasks(self, plans: Sequence[MacroPlan]) -> List[ClassTask]:
        tasks = []
        for plan in plans:
            for kind, classes in (("cat", plan.classes),
                                  ("noncat", plan.noncat_classes)):
                for index, fc in enumerate(classes):
                    key = content_key(
                        fc, plan.spec,
                        version=self.options.store_version)
                    tasks.append(ClassTask(
                        task_id=f"{plan.name}:{kind}:{index}",
                        macro=plan.name, kind=kind, index=index,
                        fault_class=fc, spec=plan.spec,
                        store_key=key))
        return tasks

    @staticmethod
    def fingerprint(tasks: Sequence[ClassTask]) -> str:
        """Campaign identity: digest over the ordered task keys.

        Two campaigns share a fingerprint exactly when they would
        simulate the same classes against the same engines with the
        same code version — the resume-safety criterion.
        """
        payload = json.dumps([[t.task_id, t.store_key] for t in tasks],
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- baselines ---------------------------------------------------------

    def _preload_comparator_baseline(
            self, store: Optional[ResultsStore]) -> Dict[str, Dict]:
        """Adopt a stored comparator baseline before planning runs.

        Planning derives the chip IVdd window from the comparator good
        space, so a cache hit here saves that corner sweep too.  With
        ``--cold-start`` (``config.warm_start`` False) nothing is
        reused and every good circuit is re-simulated.
        """
        if store is None or not self.config.warm_start:
            return {}
        spec = comparator_spec(self.config)
        payload = store.get_blob(
            baseline_key(spec, version=self.options.store_version))
        if payload is None:
            # undo the miss: _resolve_baselines will compute and
            # account for it once the plan exists
            store.baseline_misses -= 1
            return {}
        # registry keys use the default-version digest — what
        # get_engine computes when it looks a spec's baseline up
        baselines = {baseline_key(spec): payload}
        adopt_baselines(baselines)
        return baselines

    def _resolve_baselines(self, plans: Sequence[MacroPlan],
                           store: Optional[ResultsStore],
                           found: Dict[str, Dict]) -> Dict[str, Dict]:
        """Load-or-compute every planned macro's good-circuit baseline.

        Computed baselines are persisted as store blobs (keyed by the
        normalised spec) so ``--resume`` and repeat campaigns start
        warm; all of them are adopted into this process's engine
        registry and later shipped to pool workers.  Disabled by
        ``--cold-start``.
        """
        if not self.config.warm_start:
            return {}
        baselines = dict(found)
        computed = 0
        for plan in plans:
            reg_key = baseline_key(plan.spec)
            if reg_key in baselines:
                continue
            key = baseline_key(plan.spec,
                               version=self.options.store_version)
            payload = store.get_blob(key) if store is not None else None
            if payload is None:
                payload = get_engine(plan.spec).export_baseline() \
                    .to_dict()
                computed += 1
                if store is not None:
                    store.put_blob(key, payload)
            baselines[reg_key] = payload
        hits = store.baseline_hits if store is not None else 0
        misses = (store.baseline_misses if store is not None
                  else computed)
        self.collector.add_baseline_counts(hits, misses)
        adopt_baselines(baselines)
        return baselines

    # -- execution ---------------------------------------------------------

    def prepare(self, macros: Optional[Sequence[str]] = None,
                jobs: Optional[int] = None) -> PreparedCampaign:
        """Plan the campaign without executing anything.

        The serial front half of :meth:`run` — validation, store
        construction, baseline adoption, per-macro planning, task
        derivation, fingerprinting — packaged so the distributed
        coordinator (to shard the task list) and workers (to rebuild
        the identical task list from the shipped config) share it with
        the single-host path.
        """
        wanted = validate_macros(macros)
        if jobs is None:
            jobs = self.options.resolved_jobs()
        cache_dir = self.options.resolved_cache_dir()

        store: Optional[ResultsStore] = None
        if cache_dir is not None:
            store = ResultsStore(cache_dir,
                                 version=self.options.store_version)

        # a stored comparator baseline saves the good-space sweep that
        # planning itself triggers (the ladder / biasgen IVdd window is
        # derived from it), so it is adopted before planning starts
        baselines = self._preload_comparator_baseline(store)

        plans = self._plan(wanted)
        # in-process serial runs without a store gain nothing from the
        # baseline stage (the engine cache already computes each good
        # circuit once), so only pools and stored campaigns pay for it
        if store is not None or jobs > 1:
            baselines = self._resolve_baselines(plans, store, baselines)
        tasks = self._tasks(plans)
        return PreparedCampaign(
            wanted=wanted, plans=plans, tasks=tasks,
            fingerprint=self.fingerprint(tasks), store=store,
            baselines=baselines)

    def ledger(self, prepared: PreparedCampaign) -> Ledger:
        """The campaign's ledger: its fingerprint's journal under the
        cache dir (adopted on ``--resume``) and the prepared store."""
        cache_dir = self.options.resolved_cache_dir()
        # one journal per campaign identity: concurrent or
        # back-to-back campaigns with different configs sharing a
        # cache dir never clobber each other's checkpoints
        path = None if cache_dir is None else \
            Path(cache_dir) / "journals" / \
            f"{prepared.fingerprint[:16]}.jsonl"
        return Ledger(path, prepared.fingerprint, prepared.store,
                      adopt=self.options.resume)

    def run(self, macros: Optional[Sequence[str]] = None
            ) -> CampaignResult:
        jobs = self.options.resolved_jobs()
        prepared = self.prepare(macros, jobs=jobs)
        tasks = prepared.tasks
        ledger = self.ledger(prepared)

        self.bus.emit(CampaignStarted(
            macros=tuple(p.name for p in prepared.plans) +
            (("decoder",) if "decoder" in prepared.wanted else ()),
            total_tasks=len(tasks), jobs=jobs,
            resumed=len(ledger.adopted),
            total_weight=sum(t.fault_class.count for t in tasks)))

        results: Dict[str, DetectionRecord] = {}

        def complete(task: ClassTask, record: DetectionRecord,
                     source: str, wall: float = 0.0,
                     error: Optional[str] = None,
                     retried: bool = False) -> None:
            results[task.task_id] = record
            ledger.record(task, record, source, error)
            self.bus.emit(ClassCompleted(
                macro=task.macro, kind=task.kind, index=task.index,
                source=source, wall=wall, degraded=error is not None,
                error=error, retried=retried, done=len(results),
                total=len(tasks), weight=task.fault_class.count))

        try:
            # resolve journal + store, then dispatch the rest,
            # most-likely class first (results are assembled by task
            # id, so ordering never changes the output)
            self.execute(ledger.known(tasks, complete), complete,
                         jobs=jobs, baselines=prepared.baselines)
            # assemble; the decoder is fault-simulated here, in the
            # parent (one bit-parallel pass over its 256 codes)
            analyses = self._assemble(prepared.wanted, prepared.plans,
                                      results)
        finally:
            ledger.close()

        metrics = self.collector.snapshot(jobs=jobs)
        self.bus.emit(CampaignFinished(metrics=metrics))
        return CampaignResult(
            path_result=PathResult(config=self.config, macros=analyses),
            metrics=metrics, fingerprint=prepared.fingerprint)

    def execute(self, tasks: Sequence[ClassTask], complete,
                jobs: Optional[int] = None,
                baselines: Optional[Dict[str, Dict]] = None) -> None:
        """Run tasks through the retry/degrade contract.

        The execution back half shared by :meth:`run` and the
        distributed worker: tasks are dispatched most-likely class
        first (serial in-process at ``jobs=1``, over a process pool
        otherwise) and every completion — simulated, retried or
        degraded — is delivered through ``complete(task, record,
        source, wall=..., error=..., retried=...)``.
        """
        if not tasks:
            return
        if jobs is None:
            jobs = self.options.resolved_jobs()
        to_run = [_Pending(task=t)
                  for t in likelihood_order(list(tasks))]
        if jobs == 1:
            self._run_serial(to_run, complete)
        else:
            self._run_pool(to_run, complete, jobs, baselines)

    def _handle_outcome(self, pending: _Pending, outcome: TaskOutcome,
                        complete) -> bool:
        """Process one attempt; returns True when the task is done."""
        pending.attempts += 1
        if outcome.convergence_failure:
            self.collector.add_convergence_failures(1)
        if outcome.solver_phases:
            self.collector.add_solver_timings(outcome.solver_phases)
        if outcome.ok:
            complete(pending.task, outcome.record, "computed",
                     wall=outcome.wall,
                     retried=pending.attempts > 1)
            return True
        pending.first_error = pending.first_error or outcome.error
        if pending.attempts > self.options.retries:
            complete(pending.task,
                     degraded_record(pending.task.fault_class),
                     "computed", wall=outcome.wall,
                     error=outcome.error or pending.first_error,
                     retried=pending.attempts > 1)
            return True
        return False

    def _run_serial(self, to_run: List[_Pending], complete) -> None:
        for pending in to_run:
            while True:
                outcome = run_task(pending.task)
                if self._handle_outcome(pending, outcome, complete):
                    break

    def _run_pool(self, to_run: List[_Pending], complete,
                  jobs: int,
                  baselines: Optional[Dict[str, Dict]] = None) -> None:
        """Fan out over a process pool, surviving worker death.

        Every worker is initialised with the campaign's macro
        baselines, so engines built in workers adopt the fault-free
        results instead of re-simulating them (works under spawn as
        well as fork).

        A ``BrokenProcessPool`` (a worker was OOM-killed or segfaulted)
        charges an attempt to every in-flight task and restarts the
        pool; tasks that exhaust their retries degrade as usual.
        """
        remaining = {p.task.task_id: p for p in to_run}
        pool_restarts = 0
        while remaining:
            executor = ProcessPoolExecutor(
                max_workers=jobs, initializer=adopt_baselines,
                initargs=(baselines or {},))
            futures: Dict[Future, _Pending] = {
                executor.submit(run_task, p.task): p
                for p in remaining.values()}
            try:
                while futures:
                    finished, _ = wait(list(futures),
                                       return_when=FIRST_COMPLETED)
                    for future in finished:
                        pending = futures.pop(future)
                        try:
                            outcome = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:  # unpicklable, etc.
                            outcome = TaskOutcome(
                                task_id=pending.task.task_id,
                                error=f"{type(exc).__name__}: {exc}",
                                error_type=type(exc).__name__)
                        if self._handle_outcome(pending, outcome,
                                                complete):
                            remaining.pop(pending.task.task_id, None)
                        else:
                            futures[executor.submit(
                                run_task, pending.task)] = pending
            except BrokenProcessPool:
                pool_restarts += 1
                for pending in futures.values():
                    if self._handle_outcome(
                            pending,
                            TaskOutcome(task_id=pending.task.task_id,
                                        error="worker process died "
                                              "(broken pool)",
                                        error_type="BrokenProcessPool"),
                            complete):
                        remaining.pop(pending.task.task_id, None)
                executor.shutdown(wait=False, cancel_futures=True)
                if pool_restarts > len(to_run):
                    for pending in list(remaining.values()):
                        complete(pending.task,
                                 degraded_record(pending.task.fault_class),
                                 "computed",
                                 error="process pool kept dying")
                        remaining.pop(pending.task.task_id, None)
                continue
            else:
                executor.shutdown(wait=True)

    # -- assembly ----------------------------------------------------------

    def _assemble(self, wanted: Sequence[str],
                  plans: Sequence[MacroPlan],
                  results: Dict[str, DetectionRecord]
                  ) -> Dict[str, MacroAnalysis]:
        by_name = {p.name: p for p in plans}
        analyses: Dict[str, MacroAnalysis] = {}
        for name in wanted:
            if name == "decoder":
                analyses[name] = self._analyze_decoder()
                continue
            plan = by_name[name]

            def records(kind: str, classes) -> Tuple[DetectionRecord,
                                                     ...]:
                return tuple(results[f"{plan.name}:{kind}:{k}"]
                             for k in range(len(classes)))

            result = MacroResult(
                name=plan.name, bbox_area=plan.bbox_area,
                instances=plan.instances,
                defects_sprinkled=plan.defects_sprinkled,
                records=records("cat", plan.classes))
            noncat_result = None
            if self.config.include_noncat:
                noncat_result = MacroResult(
                    name=plan.name, bbox_area=plan.bbox_area,
                    instances=plan.instances,
                    defects_sprinkled=plan.defects_sprinkled,
                    records=records("noncat", plan.noncat_classes))
            analyses[name] = MacroAnalysis(
                result=result, noncat_result=noncat_result,
                classes=plan.classes)
        return analyses

    def _analyze_decoder(self) -> MacroAnalysis:
        """Digital decoder analysis.

        Bridges stand for the short population, stuck-ats for the
        opens; counts are weighted ~95/5 to match the defect mix.  The
        decoder's fault yield is approximated by the comparator's
        (2.5 %; both are dense layouts), via the synthetic
        ``defects_sprinkled``.
        """
        bridge_records, stuck_records = DecoderFaultEngine().run()
        weighted = [replace(r, count=11) for r in bridge_records] + \
            list(stuck_records)
        total_faults = sum(r.count for r in weighted)
        pseudo_defects = max(1, int(total_faults / 0.025))
        result = MacroResult(name="decoder", bbox_area=decoder_area(),
                             instances=1,
                             defects_sprinkled=pseudo_defects,
                             records=tuple(weighted))
        return MacroAnalysis(result=result, noncat_result=result,
                             classes=tuple())
