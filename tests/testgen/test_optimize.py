"""Tests for the greedy test-plan optimizer and its cost vocabulary."""

import pytest

import numpy as np

from repro.faultsim import CurrentMechanism
from repro.macrotest import DetectionRecord, MacroResult
from repro.optimize import greedy_test_plan
from repro.testgen.optimize import (MISSING_CODE, full_plan_cost,
                                    measurement_cost)

IVDD_S = ("ivdd", "sampling", "above")
IDDQ_S = ("iddq", "sampling", "above")
IDDQ_L = ("iddq", "latching", "below")


def rec(count, voltage=False, keys=()):
    mechs = set()
    for k in keys:
        mechs.add(CurrentMechanism.IVDD if k[0] == "ivdd"
                  else CurrentMechanism.IDDQ)
    return DetectionRecord(count=count, voltage_detected=voltage,
                           mechanisms=frozenset(mechs),
                           violated_keys=frozenset(keys))


def macro(records):
    return MacroResult(name="m", bbox_area=1.0, instances=1,
                       defects_sprinkled=1000, records=tuple(records))


class TestOptimize:
    def test_single_measurement_suffices(self):
        m = macro([rec(10, keys=[IVDD_S]), rec(5, keys=[IVDD_S])])
        plan = greedy_test_plan(m)
        assert plan.measurements == (IVDD_S,)
        assert plan.coverage == pytest.approx(1.0)

    def test_overlap_collapses_to_one(self):
        """Two mechanisms covering the same faults: pick only one."""
        m = macro([rec(10, keys=[IVDD_S, IDDQ_S])])
        plan = greedy_test_plan(m)
        assert len(plan.measurements) == 1

    def test_complementary_measurements_both_chosen(self):
        m = macro([rec(10, keys=[IVDD_S]), rec(10, keys=[IDDQ_L])])
        plan = greedy_test_plan(m)
        assert set(plan.measurements) == {IVDD_S, IDDQ_L}

    def test_missing_code_included_when_needed(self):
        m = macro([rec(10, voltage=True), rec(5, keys=[IDDQ_S])])
        plan = greedy_test_plan(m)
        assert MISSING_CODE in plan.measurements
        assert plan.coverage == pytest.approx(1.0)

    def test_cost_weighting_prefers_current(self):
        """A fault caught by both: the cheaper current measurement wins
        (100 us vs the 150 us missing-code test)."""
        m = macro([rec(10, voltage=True, keys=[IDDQ_S])])
        plan = greedy_test_plan(m)
        assert plan.measurements == (IDDQ_S,)

    def test_undetectable_faults_bound_achievable(self):
        m = macro([rec(8, keys=[IVDD_S]), rec(2)])
        plan = greedy_test_plan(m)
        assert plan.achievable == pytest.approx(0.8)
        assert plan.coverage == pytest.approx(0.8)

    def test_min_coverage_stops_early(self):
        m = macro([rec(90, keys=[IVDD_S]), rec(10, keys=[IDDQ_L])])
        plan = greedy_test_plan(m, min_coverage=0.9)
        assert plan.measurements == (IVDD_S,)

    def test_empty_macro_rejected(self):
        with pytest.raises(ValueError):
            greedy_test_plan(macro([]))

    def test_plan_is_cheaper_than_naive(self):
        m = macro([rec(10, voltage=True, keys=[IVDD_S, IDDQ_S])])
        plan = greedy_test_plan(m)
        assert plan.cost < full_plan_cost()

    def test_describe(self):
        m = macro([rec(10, voltage=True), rec(5, keys=[IDDQ_S])])
        text = greedy_test_plan(m).describe()
        assert "missing-code test" in text
        assert "coverage" in text

    def test_explicit_rng_accepted(self):
        """Every plan producer takes an explicit numpy Generator (the
        greedy is deterministic, so it changes nothing)."""
        m = macro([rec(10, keys=[IVDD_S])])
        a = greedy_test_plan(m)
        b = greedy_test_plan(m, rng=np.random.default_rng(5))
        assert a == b


class TestResolutionAware:
    def _dictionary(self, records, labels=None):
        from repro.diagnosis import compile_dictionary
        labels = labels or [f"m:cat:{k}" for k in range(len(records))]
        return compile_dictionary(
            [(label, "m", 1.0, record)
             for label, record in zip(labels, records)])

    def test_no_dictionary_keeps_plan_unannotated(self):
        m = macro([rec(10, keys=[IVDD_S])])
        assert greedy_test_plan(m).resolution is None

    def test_zero_weight_reproduces_coverage_plan(self):
        records = [rec(10, voltage=True, keys=[IVDD_S]),
                   rec(5, voltage=True, keys=[IDDQ_L])]
        m = macro(records)
        base = greedy_test_plan(m)
        annotated = greedy_test_plan(m,
                                     dictionary=self._dictionary(
                                         records))
        assert annotated.measurements == base.measurements
        assert annotated.resolution is not None

    def test_resolution_weight_buys_extra_measurements(self):
        # both classes are covered by the missing-code test alone, but
        # only their current signatures tell them apart
        records = [rec(10, voltage=True, keys=[IVDD_S]),
                   rec(10, voltage=True, keys=[IDDQ_L])]
        m = macro(records)
        d = self._dictionary(records)
        base = greedy_test_plan(m, dictionary=d)
        aware = greedy_test_plan(m, dictionary=d,
                                 resolution_weight=1000.0)
        assert aware.resolution > base.resolution
        assert len(aware.measurements) >= len(base.measurements)
        assert aware.coverage >= base.coverage

    def test_describe_reports_resolution(self):
        records = [rec(10, keys=[IVDD_S])]
        plan = greedy_test_plan(macro(records),
                                dictionary=self._dictionary(records))
        assert "diagnostic resolution" in plan.describe()


class TestCosts:
    def test_measurement_costs(self):
        assert measurement_cost(IVDD_S) == pytest.approx(100e-6)
        assert measurement_cost(MISSING_CODE) == pytest.approx(150e-6)
        assert full_plan_cost() == pytest.approx(150e-6 + 24 * 100e-6)


class TestOnRealEngine:
    def test_plan_from_real_run(self):
        """Small real run: the optimizer reproduces the aggregate
        coverage with a handful of measurements."""
        from repro.core import DefectOrientedTestPath, PathConfig
        from repro.macrotest import macro_breakdown

        config = PathConfig(n_defects=4000, max_classes=8,
                            include_noncat=False)
        result = DefectOrientedTestPath(config).run(
            macros=["comparator"])
        comparator = result.macros["comparator"].result
        plan = greedy_test_plan(comparator)
        breakdown = macro_breakdown(comparator)
        assert plan.coverage == pytest.approx(breakdown.total, abs=1e-9)
        assert plan.cost < full_plan_cost()
        assert 1 <= len(plan.measurements) <= 25
