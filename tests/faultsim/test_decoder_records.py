"""Decoder records against golden output of the per-vector evaluator.

``fixtures/decoder_records.json`` holds ``DetectionRecord.to_dict()`` of
the records the scalar, one-vector-at-a-time decoder pass produced
before the pass became bit-parallel: the default sample, and a
15-bridge / 10-stuck-at sample drawn with ``default_rng(21)``.  The
records feed Table 1 and the coverage figures, so the bit-parallel
engine must reproduce both exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.digital import BridgingFault, LogicError, StuckAtFault
from repro.faultsim.macro_engines import DecoderFaultEngine

FIXTURE = Path(__file__).parent / "fixtures" / "decoder_records.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def encode(records):
    return [record.to_dict() for record in records]


def test_default_sample_matches_golden(golden):
    bridges, stuck = DecoderFaultEngine().run()
    assert encode(bridges) == golden["default"]["bridges"]
    assert encode(stuck) == golden["default"]["stuck"]


def test_explicit_rng_sample_matches_golden(golden):
    engine = DecoderFaultEngine(n_bridge_sample=15, n_stuck_sample=10)
    bridges, stuck = engine.run(rng=np.random.default_rng(21))
    assert encode(bridges) == golden["small_rng21"]["bridges"]
    assert encode(stuck) == golden["small_rng21"]["stuck"]


class TestUnknownNets:
    """A fault on a net the decoder lacks is an error, not an escape
    that silently lowers coverage."""

    @pytest.fixture(scope="class")
    def engine(self):
        return DecoderFaultEngine()

    def test_stuck_at(self, engine):
        with pytest.raises(LogicError, match="'b9'"):
            engine.simulate_class(StuckAtFault("b9", True))

    def test_bridge(self, engine):
        with pytest.raises(LogicError, match="'nope'"):
            engine.simulate_class(BridgingFault("b0", "nope"))

    def test_known_output_net_still_detected(self, engine):
        assert engine.simulate_class(StuckAtFault("b0", True)).detected
