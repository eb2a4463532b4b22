"""Tests for the campaign runner: dispatch, retry, resume, determinism.

Cheap runner-logic tests stub the per-class simulation (clockgen plans
quickly and the stub never builds an engine); the jobs-invariance test
at the bottom runs real simulations to pin down bit-reproducibility.
"""

import shutil

import pytest

import repro.campaign.tasks as tasks_mod
from repro.campaign import (CampaignOptions, CampaignRunner,
                            ClassCompleted, EventBus)
from repro.circuit.dc import ConvergenceError
from repro.core.path import DefectOrientedTestPath, PathConfig
from repro.macrotest.coverage import DetectionRecord


def tiny_config(**kwargs) -> PathConfig:
    defaults = dict(n_defects=1200, max_classes=3, seed=11,
                    include_noncat=True)
    defaults.update(kwargs)
    return PathConfig(**defaults)


def fake_record(fault_class) -> DetectionRecord:
    return DetectionRecord(count=fault_class.count,
                           voltage_detected=True,
                           mechanisms=frozenset(),
                           fault_type=fault_class.fault_type)


@pytest.fixture
def stub_simulation(monkeypatch):
    """Replace the physics with an instant stub; returns the call log."""
    calls = []

    def fake_simulate(fault_class, spec):
        calls.append((spec.macro,
                      fault_class.representative.collapse_key()))
        return fake_record(fault_class)

    monkeypatch.setattr(tasks_mod, "simulate_class", fake_simulate)
    return calls


class TestRunnerBasics:
    def test_assembles_path_result(self, stub_simulation):
        runner = CampaignRunner(tiny_config(),
                                CampaignOptions(jobs=1))
        result = runner.run(["clockgen"]).path_result
        analysis = result.macros["clockgen"]
        assert len(analysis.result.records) == 3
        assert analysis.noncat_result is not None
        assert all(r.voltage_detected
                   for r in analysis.result.records)

    def test_unknown_macro_rejected(self, stub_simulation):
        runner = CampaignRunner(tiny_config(), CampaignOptions(jobs=1))
        with pytest.raises(ValueError):
            runner.run(["fpga"])

    def test_metrics_account_for_every_class(self, stub_simulation):
        runner = CampaignRunner(tiny_config(), CampaignOptions(jobs=1))
        campaign = runner.run(["clockgen"])
        m = campaign.metrics
        assert m.total_tasks == m.completed == m.computed == 6
        assert m.cache_hits == m.degraded == 0

    def test_events_cover_all_classes(self, stub_simulation):
        bus = EventBus()
        seen = []
        runner = CampaignRunner(tiny_config(), CampaignOptions(jobs=1),
                                bus=bus)
        bus.subscribe(lambda e: isinstance(e, ClassCompleted) and
                      seen.append(e))
        runner.run(["clockgen"])
        assert len(seen) == 6
        assert [e.done for e in seen] == list(range(1, 7))


class TestRetryAndDegrade:
    def test_transient_failure_retried_once(self, monkeypatch):
        failed = set()

        def flaky(fault_class, spec):
            key = fault_class.representative.collapse_key()
            if key not in failed:
                failed.add(key)
                raise ConvergenceError("first attempt diverges")
            return fake_record(fault_class)

        monkeypatch.setattr(tasks_mod, "simulate_class", flaky)
        runner = CampaignRunner(tiny_config(include_noncat=False),
                                CampaignOptions(jobs=1))
        campaign = runner.run(["clockgen"])
        m = campaign.metrics
        assert m.degraded == 0
        assert m.retries == 3
        assert m.convergence_failures == 3
        assert all(r.voltage_detected for r in campaign.path_result
                   .macros["clockgen"].result.records)

    def test_persistent_failure_degrades_not_aborts(self, monkeypatch):
        def sick(fault_class, spec):
            raise ConvergenceError("never converges")

        monkeypatch.setattr(tasks_mod, "simulate_class", sick)
        bus = EventBus()
        degraded_events = []
        runner = CampaignRunner(tiny_config(include_noncat=False),
                                CampaignOptions(jobs=1), bus=bus)
        bus.subscribe(lambda e: isinstance(e, ClassCompleted) and
                      e.degraded and degraded_events.append(e))
        campaign = runner.run(["clockgen"])
        m = campaign.metrics
        assert m.completed == m.total_tasks == 3
        assert m.degraded == 3
        records = campaign.path_result.macros["clockgen"] \
            .result.records
        # degraded classes count as undetected: coverage can only
        # look worse, never better
        assert all(not r.detected for r in records)
        assert all("never converges" in e.error
                   for e in degraded_events)


class TestStoreIntegration:
    def test_rerun_hits_cache(self, stub_simulation, tmp_path):
        options = CampaignOptions(jobs=1, cache_dir=tmp_path)
        first = CampaignRunner(tiny_config(), options).run(["clockgen"])
        assert first.metrics.computed == 6
        second = CampaignRunner(tiny_config(), options).run(["clockgen"])
        assert second.metrics.cache_hits == 6
        assert second.metrics.computed == 0
        assert second.path_result == first.path_result

    def test_config_change_misses_cache(self, stub_simulation,
                                        tmp_path):
        import dataclasses
        from repro.adc.process import typical
        options = CampaignOptions(jobs=1, cache_dir=tmp_path)
        CampaignRunner(tiny_config(), options).run(["clockgen"])
        corner = dataclasses.replace(typical(), vdd=4.75,
                                     name="lowvdd")
        changed = CampaignRunner(tiny_config(process=corner),
                                 options).run(["clockgen"])
        assert changed.metrics.cache_hits == 0
        assert changed.metrics.computed == changed.metrics.total_tasks

    def test_degraded_results_not_cached(self, monkeypatch, tmp_path):
        def sick(fault_class, spec):
            raise ConvergenceError("no")

        monkeypatch.setattr(tasks_mod, "simulate_class", sick)
        options = CampaignOptions(jobs=1, cache_dir=tmp_path)
        CampaignRunner(tiny_config(include_noncat=False),
                       options).run(["clockgen"])
        monkeypatch.setattr(tasks_mod, "simulate_class",
                            lambda fc, spec: fake_record(fc))
        # journal (not resumed) and store must not replay the
        # degraded records — the classes get a fresh chance
        second = CampaignRunner(tiny_config(include_noncat=False),
                                options).run(["clockgen"])
        assert second.metrics.cache_hits == 0
        assert second.metrics.degraded == 0


class TestJournalResume:
    def test_resume_after_kill_skips_finished_classes(
            self, stub_simulation, tmp_path):
        options = CampaignOptions(jobs=1, cache_dir=tmp_path)
        first = CampaignRunner(tiny_config(), options).run(["clockgen"])
        journals = list((tmp_path / "journals").glob("*.jsonl"))
        assert len(journals) == 1
        # simulate a kill after 2 completed classes: truncate the
        # journal and delete the store so only the journal can help
        lines = journals[0].read_text().splitlines()
        journals[0].write_text("\n".join(lines[:3]) + "\n")
        shutil.rmtree(tmp_path / "objects")
        stub_simulation.clear()

        resumed = CampaignRunner(
            tiny_config(),
            CampaignOptions(jobs=1, cache_dir=tmp_path, resume=True)
        ).run(["clockgen"])
        assert resumed.metrics.journal_hits == 2
        assert resumed.metrics.computed == 4
        assert len(stub_simulation) == 4
        assert resumed.path_result == first.path_result

    def test_resume_ignores_other_campaigns_journal(
            self, stub_simulation, tmp_path):
        options = CampaignOptions(jobs=1, cache_dir=tmp_path)
        CampaignRunner(tiny_config(), options).run(["clockgen"])
        shutil.rmtree(tmp_path / "objects")
        other = CampaignRunner(
            tiny_config(seed=12),
            CampaignOptions(jobs=1, cache_dir=tmp_path, resume=True)
        ).run(["clockgen"])
        assert other.metrics.journal_hits == 0


class TestPathDelegation:
    def test_path_run_uses_runner(self, stub_simulation):
        result = DefectOrientedTestPath(tiny_config()) \
            .run(macros=["clockgen"])
        assert len(result.macros["clockgen"].result.records) == 3

    def test_unknown_macro_still_valueerror(self, stub_simulation):
        with pytest.raises(ValueError):
            DefectOrientedTestPath(tiny_config()).run(macros=["fpga"])


@pytest.mark.slow
class TestJobsInvariance:
    def test_jobs_1_and_4_identical_path_result(self):
        """The satellite guarantee: a campaign is bit-reproducible at
        any --jobs value (real simulations, no stubs)."""
        config = PathConfig(n_defects=1500, max_classes=3, seed=7,
                            include_noncat=True)
        serial = CampaignRunner(config, CampaignOptions(jobs=1)) \
            .run(["ladder", "decoder"]).path_result
        parallel = CampaignRunner(config, CampaignOptions(jobs=4)) \
            .run(["ladder", "decoder"]).path_result
        assert serial == parallel
