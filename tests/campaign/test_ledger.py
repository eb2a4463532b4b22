"""Tests for the ledger: the one rule for resolving and recording
finished classes that the runner, the coordinator and the worker's
shard journal share.

Each test drives the ledger the way its callers do — a ``complete``
callback that records every completion back into the ledger — so a
broken rule inside the ledger shows here and nowhere else first.
"""

import json

from repro.campaign.journal import CampaignJournal, JournalEntry
from repro.campaign.runner import Ledger
from repro.campaign.store import ResultsStore, content_key
from repro.campaign.tasks import ClassTask, EngineSpec
from repro.defects.collapse import FaultClass
from repro.defects.faults import ShortFault
from repro.faultsim.signatures import CurrentMechanism
from repro.macrotest.coverage import DetectionRecord

FP = "a" * 64
OTHER_FP = "b" * 64


def make_task(index: int, count: int = 5) -> ClassTask:
    fault_class = FaultClass(
        representative=ShortFault(nets=frozenset({f"n{index}", "gnd"}),
                                  layer="metal1", resistance=0.2),
        count=count)
    spec = EngineSpec(macro="clockgen")
    return ClassTask(task_id=f"clockgen:cat:{index}", macro="clockgen",
                     kind="cat", index=index, fault_class=fault_class,
                     spec=spec, store_key=content_key(fault_class, spec))


def make_record(count: int = 1, detected: bool = True) -> DetectionRecord:
    return DetectionRecord(count=count, voltage_detected=detected,
                           mechanisms=frozenset({CurrentMechanism.IDDQ}),
                           fault_type="short")


def journal_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def recording(ledger, seen):
    """A caller's ``complete``: log the completion, record it back."""
    def complete(task, record, source, error=None):
        seen.append((task.task_id, record, source, error))
        ledger.record(task, record, source, error)
    return complete


class TestRecord:
    def test_degraded_completion_journaled_never_stored(self, tmp_path):
        store = ResultsStore(tmp_path)
        journal = tmp_path / "j.jsonl"
        ledger = Ledger(journal, FP, store)
        sick, healthy = make_task(0), make_task(1)
        ledger.record(sick, make_record(detected=False), "computed",
                      error="ConvergenceError: boom")
        ledger.record(healthy, make_record(), "computed")
        ledger.close()

        entries = CampaignJournal(journal).load(FP)
        assert entries[sick.task_id].degraded
        assert "boom" in entries[sick.task_id].error
        assert store.get(sick.store_key) is None
        assert store.get(healthy.store_key) == make_record()

    def test_only_simulated_sources_are_stored(self, tmp_path):
        store = ResultsStore(tmp_path)
        ledger = Ledger(None, FP, store)
        remote, cached = make_task(0), make_task(1)
        ledger.record(remote, make_record(), "remote")
        ledger.record(cached, make_record(), "cache")
        assert store.get(remote.store_key) == make_record()
        assert store.get(cached.store_key) is None

    def test_meta_carries_the_worker_id(self, tmp_path):
        store = ResultsStore(tmp_path)
        ledger = Ledger(None, FP, store)
        task = make_task(3)
        ledger.record(task, make_record(), "computed", worker="w-7")
        [stored] = list(store.iter_records())
        assert stored.key == task.store_key
        assert stored.meta == {"task_id": task.task_id,
                               "macro": "clockgen", "worker": "w-7"}


class TestAdopt:
    def _journal(self, path, fingerprint, *entries):
        journal = CampaignJournal(path)
        with journal:
            journal.open(fingerprint, fresh=True)
            for entry in entries:
                journal.append(entry)

    def test_journal_hit_is_not_journaled_again(self, tmp_path):
        path = tmp_path / "j.jsonl"
        done = make_task(0)
        self._journal(path, FP, JournalEntry(task_id=done.task_id,
                                             record=make_record()))
        before = journal_lines(path)

        ledger = Ledger(path, FP, adopt=True)
        seen = []
        rest = ledger.known([done], recording(ledger, seen))
        ledger.close()

        assert rest == []
        assert [s[2] for s in seen] == ["journal"]
        assert journal_lines(path) == before

    def test_other_fingerprint_adopts_nothing_and_truncates(self,
                                                            tmp_path):
        path = tmp_path / "j.jsonl"
        task = make_task(0)
        self._journal(path, OTHER_FP, JournalEntry(task_id=task.task_id,
                                                   record=make_record()))
        ledger = Ledger(path, FP, adopt=True)
        seen = []
        assert ledger.known([task], recording(ledger, seen)) == [task]
        ledger.close()
        assert ledger.adopted == {} and seen == []
        assert journal_lines(path) == [{"journal_version": 1,
                                        "fingerprint": FP}]

    def test_no_adopt_truncates_a_matching_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        task = make_task(0)
        self._journal(path, FP, JournalEntry(task_id=task.task_id,
                                             record=make_record()))
        ledger = Ledger(path, FP, adopt=False)
        seen = []
        assert ledger.known([task], recording(ledger, seen)) == [task]
        ledger.close()
        assert ledger.adopted == {} and seen == []
        assert journal_lines(path) == [{"journal_version": 1,
                                        "fingerprint": FP}]


class TestKnown:
    def test_journal_before_store_counts_rehydrated_rest_in_order(
            self, tmp_path):
        store = ResultsStore(tmp_path)
        path = tmp_path / "j.jsonl"
        tasks = [make_task(k, count=10 + k) for k in range(5)]
        # task 1: journal only (degraded); task 2: journal and store;
        # task 3: store only; tasks 0 and 4: unknown
        journal = CampaignJournal(path)
        with journal:
            journal.open(FP, fresh=True)
            journal.append(JournalEntry(
                task_id=tasks[1].task_id,
                record=make_record(detected=False), degraded=True,
                error="worker died"))
            journal.append(JournalEntry(task_id=tasks[2].task_id,
                                        record=make_record()))
        store.put(tasks[2].store_key, make_record(detected=False))
        store.put(tasks[3].store_key, make_record())

        ledger = Ledger(path, FP, store, adopt=True)
        seen = []
        rest = ledger.known(tasks, recording(ledger, seen))
        ledger.close()

        assert rest == [tasks[0], tasks[4]]
        assert [(tid, source, error) for tid, _, source, error
                in seen] == [
            (tasks[1].task_id, "journal", "worker died"),
            (tasks[2].task_id, "journal", None),
            (tasks[3].task_id, "cache", None)]
        # the journal wins over the store for task 2
        assert seen[1][1].voltage_detected
        # every adopted record carries the task's own class count
        assert [record.count for _, record, _, _ in seen] == [11, 12, 13]
        # the store hit was journaled, the journal hits were not
        assert [line.get("task_id") for line in journal_lines(path)] \
            == [None, tasks[1].task_id, tasks[2].task_id,
                tasks[3].task_id]
