"""Tests for the FaultEngine protocol: one contract, every engine."""

import pytest

from repro.defects import ShortFault
from repro.defects.collapse import FaultClass
from repro.faultsim import (ComparatorFaultEngine, EngineConfig,
                            FaultEngine)
from repro.faultsim.macro_engines import (BiasgenFaultEngine,
                                          ClockgenFaultEngine,
                                          DecoderFaultEngine,
                                          LadderFaultEngine)
from repro.macrotest.coverage import DetectionRecord


def short_class(a, b, r=0.2, count=4):
    fault = ShortFault(nets=frozenset({a, b}), layer="metal1",
                       resistance=r)
    return FaultClass(representative=fault, count=count)


class TestProtocolConformance:
    def test_every_engine_satisfies_protocol(self):
        engines = [
            ComparatorFaultEngine(EngineConfig()),
            LadderFaultEngine(ivdd_window_halfwidth=20e-3),
            ClockgenFaultEngine(),
            BiasgenFaultEngine(ivdd_window_halfwidth=20e-3),
            DecoderFaultEngine(),
        ]
        for engine in engines:
            assert isinstance(engine, FaultEngine)

    def test_non_engine_rejected(self):
        assert not isinstance(object(), FaultEngine)


class TestComparatorContract:
    @pytest.fixture(scope="class")
    def engine(self):
        return ComparatorFaultEngine(EngineConfig())

    def test_simulate_class_returns_detection_record(self, engine):
        fc = short_class("lp", "ln")
        record = engine.simulate_class(fc)
        assert isinstance(record, DetectionRecord)
        assert record.count == fc.count
        assert record.fault_type == fc.fault_type
        # an output short is unmissable by the missing-code test
        assert record.voltage_detected

    def test_record_consistent_with_signature(self, engine):
        fc = short_class("phi1", "phi2")
        record = engine.simulate_class(fc)
        res = engine.simulate_class_signature(fc)
        assert record.voltage_signature == res.signature.voltage
        assert record.mechanisms == res.signature.mechanisms
