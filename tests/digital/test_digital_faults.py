"""Tests for digital stuck-at and bridging fault machinery."""

import itertools

import pytest

from repro.digital import (BridgingFault, LogicError, LogicNetlist,
                           StuckAtFault, all_stuck_at_faults,
                           detects_stuck_at, iddq_bridge_coverage,
                           iddq_detects_bridge, logic_detects_bridge,
                           neighbouring_bridges, stuck_at_coverage)


def and_gate_netlist():
    n = LogicNetlist()
    n.add_input("a")
    n.add_input("b")
    n.add_gate("g", "AND2", ["a", "b"], "y")
    n.add_output("y")
    return n


def exhaustive_vectors(inputs):
    return [dict(zip(inputs, bits))
            for bits in itertools.product([False, True],
                                          repeat=len(inputs))]


class TestStuckAt:
    def test_fault_universe_size(self):
        n = and_gate_netlist()
        faults = all_stuck_at_faults(n)
        assert len(faults) == 2 * 3  # nets a, b, y

    def test_detects_output_sa0(self):
        n = and_gate_netlist()
        f = StuckAtFault("y", False)
        assert detects_stuck_at(n, f, {"a": True, "b": True})
        assert not detects_stuck_at(n, f, {"a": False, "b": True})

    def test_detects_input_sa1(self):
        n = and_gate_netlist()
        f = StuckAtFault("a", True)
        assert detects_stuck_at(n, f, {"a": False, "b": True})
        assert not detects_stuck_at(n, f, {"a": False, "b": False})

    def test_exhaustive_coverage_is_full(self):
        n = and_gate_netlist()
        cov, undet = stuck_at_coverage(n, exhaustive_vectors(["a", "b"]))
        assert cov == 1.0
        assert undet == []

    def test_single_vector_partial_coverage(self):
        n = and_gate_netlist()
        cov, undet = stuck_at_coverage(n, [{"a": True, "b": True}])
        assert 0.0 < cov < 1.0
        assert StuckAtFault("y", True) in undet

    def test_str_form(self):
        assert str(StuckAtFault("net1", True)) == "net1/SA1"


class TestBridging:
    def test_iddq_detect_requires_opposite_values(self):
        n = and_gate_netlist()
        f = BridgingFault("a", "b")
        assert iddq_detects_bridge(n, f, {"a": True, "b": False})
        assert not iddq_detects_bridge(n, f, {"a": True, "b": True})

    def test_internal_bridge(self):
        n = and_gate_netlist()
        f = BridgingFault("a", "y")
        # a=1, b=0 -> y=0, a=1: opposite -> IDDQ detected
        assert iddq_detects_bridge(n, f, {"a": True, "b": False})

    def test_logic_detect_wired_and(self):
        n = and_gate_netlist()
        f = BridgingFault("a", "b")
        # a=1,b=0: wired-AND forces both 0, output unchanged (0) -> not
        # logic-detected even though IDDQ sees it.
        assert not logic_detects_bridge(n, f, {"a": True, "b": False})

    def test_iddq_beats_logic_on_redundant_bridge(self):
        """The mechanism behind the paper's IDDQ observations: bridges
        detectable by current but not by logic values."""
        n = and_gate_netlist()
        f = BridgingFault("a", "b")
        vecs = exhaustive_vectors(["a", "b"])
        iddq = any(iddq_detects_bridge(n, f, v) for v in vecs)
        logic = any(logic_detects_bridge(n, f, v) for v in vecs)
        assert iddq and not logic

    def test_iddq_bridge_coverage(self):
        n = and_gate_netlist()
        bridges = neighbouring_bridges(n)
        cov, undet = iddq_bridge_coverage(n, exhaustive_vectors(["a", "b"]),
                                          bridges)
        assert cov == 1.0
        assert undet == []

    def test_neighbouring_bridges_enumeration(self):
        n = and_gate_netlist()
        bridges = neighbouring_bridges(n)
        pairs = {(b.net_a, b.net_b) for b in bridges}
        assert pairs == {("a", "b"), ("a", "y"), ("b", "y")}

    def test_max_pairs_limit(self):
        n = and_gate_netlist()
        assert len(neighbouring_bridges(n, max_pairs=2)) == 2


class TestUnknownNets:
    """Faults on nets the netlist lacks raise instead of escaping."""

    VECTOR = {"a": True, "b": True}

    def test_stuck_at(self):
        with pytest.raises(LogicError, match="'typo'"):
            detects_stuck_at(and_gate_netlist(), StuckAtFault("typo", True),
                             self.VECTOR)

    def test_stuck_at_coverage(self):
        with pytest.raises(LogicError, match="'typo'"):
            stuck_at_coverage(and_gate_netlist(), [self.VECTOR],
                              [StuckAtFault("typo", False)])

    @pytest.mark.parametrize("check", [iddq_detects_bridge,
                                       logic_detects_bridge])
    def test_bridge(self, check):
        with pytest.raises(LogicError, match="'nope'"):
            check(and_gate_netlist(), BridgingFault("a", "nope"),
                  self.VECTOR)

    def test_forced_net(self):
        with pytest.raises(LogicError, match="'typo'"):
            and_gate_netlist().outputs(self.VECTOR,
                                       forced_nets={"typo": False})
