"""Tests for the DfT advisor (escape diagnosis)."""

import pytest

from repro.core.advisor import (EscapeDiagnosis, classify_escape,
                                diagnose_escapes, recommendations,
                                render_advice)
from repro.defects import ShortFault
from repro.defects.collapse import FaultClass
from repro.faultsim import (CurrentMechanism, NearMissShortFault,
                            VoltageSignature)
from repro.macrotest import DetectionRecord


def fc(fault, count=10):
    return FaultClass(representative=fault, count=count)


def short(a, b):
    return ShortFault(nets=frozenset({a, b}), layer="metal1",
                      resistance=0.2)


def rec(detected=False, signature=VoltageSignature.NONE):
    return DetectionRecord(
        count=10, voltage_detected=detected,
        mechanisms=frozenset([CurrentMechanism.IVDD] if detected
                             else []),
        voltage_signature=signature)


class TestClassify:
    def test_twin_bias_bridge(self):
        assert classify_escape(fc(short("vbn1", "vbn2")), rec()) == \
            "similar_signal_bridge"

    def test_clock_value_is_dynamic_only(self):
        assert classify_escape(
            fc(short("phi1", "outp")),
            rec(signature=VoltageSignature.CLOCK_VALUE)) == \
            "dynamic_only"

    def test_supply_loading_masked(self):
        assert classify_escape(fc(short("nleak", "vdd")), rec()) == \
            "masked_supply_current"

    def test_near_miss_is_parametric(self):
        fault = NearMissShortFault(nets=frozenset({"tap3", "tap4"}))
        assert classify_escape(fc(fault), rec()) == "parametric"


class TestDiagnose:
    def test_only_undetected_diagnosed(self):
        classes = [fc(short("vbn1", "vbn2")), fc(short("lp", "ln"))]
        records = [rec(detected=False), rec(detected=True)]
        out = diagnose_escapes(classes, records)
        assert len(out) == 1
        assert out[0].category == "similar_signal_bridge"
        assert "bias-line" in out[0].recommendation

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            diagnose_escapes([fc(short("a", "b"))], [])

    def test_recommendations_weighted(self):
        diagnoses = [
            EscapeDiagnosis(fc(short("vbn1", "vbn2"), count=30),
                            "similar_signal_bridge"),
            EscapeDiagnosis(fc(short("nleak", "vdd"), count=10),
                            "masked_supply_current"),
        ]
        recs = recommendations(diagnoses, total_faults=100)
        assert recs[0][0] == "similar_signal_bridge"
        assert recs[0][1] == pytest.approx(0.30)

    def test_render(self):
        classes = [fc(short("vbn1", "vbn2"))]
        text = render_advice(classes, [rec()], total_faults=100)
        assert "similar_signal_bridge" in text
        assert "re-order" in text

    def test_render_clean(self):
        assert "no DfT action" in render_advice([], [], 10)


class TestOnRealRun:
    def test_advisor_finds_the_papers_measures(self):
        """Pre-DfT, the advisor must independently rediscover the
        paper's two DfT measures from the escape population."""
        from repro.core import DefectOrientedTestPath, PathConfig

        config = PathConfig(n_defects=10000, max_classes=25,
                            include_noncat=False)
        analysis = DefectOrientedTestPath(config).run(
            ["comparator"]).macros["comparator"]
        diagnoses = diagnose_escapes(list(analysis.classes),
                                     list(analysis.result.records))
        categories = {d.category for d in diagnoses}
        # the twin-bias-line bridge is the canonical escape
        assert "similar_signal_bridge" in categories