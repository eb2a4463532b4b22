"""Tests for the gate library and logic netlist."""

import pytest
from hypothesis import given, strategies as st

from repro.digital import (LIBRARY, LogicError, LogicNetlist, gate_type)


class TestGateLibrary:
    def test_basic_functions(self):
        assert gate_type("INV").evaluate([True]) is False
        assert gate_type("NAND2").evaluate([True, True]) is False
        assert gate_type("NAND2").evaluate([True, False]) is True
        assert gate_type("XOR2").evaluate([True, False]) is True
        assert gate_type("MUX2").evaluate([True, False, False]) is True
        assert gate_type("MUX2").evaluate([True, False, True]) is False
        assert gate_type("AOI21").evaluate([True, True, False]) is False

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            gate_type("NAND2").evaluate([True])

    def test_unknown_gate(self):
        with pytest.raises(KeyError):
            gate_type("NAND9")

    @given(st.sampled_from(sorted(LIBRARY)),
           st.lists(st.booleans(), min_size=1, max_size=3))
    def test_all_gates_return_bool(self, name, bits):
        gt = LIBRARY[name]
        if len(bits) != gt.arity:
            return
        assert gt.evaluate(bits) in (True, False)


def half_adder():
    n = LogicNetlist("ha")
    n.add_input("a")
    n.add_input("b")
    n.add_gate("gx", "XOR2", ["a", "b"], "sum")
    n.add_gate("ga", "AND2", ["a", "b"], "carry")
    n.add_output("sum")
    n.add_output("carry")
    return n


class TestLogicNetlist:
    def test_half_adder_truth_table(self):
        n = half_adder()
        for a in (False, True):
            for b in (False, True):
                out = n.outputs({"a": a, "b": b})
                assert out["sum"] == (a != b)
                assert out["carry"] == (a and b)

    def test_multiple_drivers_rejected(self):
        n = half_adder()
        with pytest.raises(LogicError):
            n.add_gate("g2", "AND2", ["a", "b"], "sum")

    def test_duplicate_gate_name_rejected(self):
        n = half_adder()
        with pytest.raises(LogicError):
            n.add_gate("gx", "AND2", ["a", "b"], "other")

    def test_driving_primary_input_rejected(self):
        n = half_adder()
        with pytest.raises(LogicError):
            n.add_gate("g3", "INV", ["sum"], "a")

    def test_missing_input_value_rejected(self):
        n = half_adder()
        with pytest.raises(LogicError):
            n.outputs({"a": True})

    def test_levelize_deep_chain(self):
        n = LogicNetlist()
        n.add_input("x")
        prev = "x"
        for k in range(20):
            n.add_gate(f"i{k}", "INV", [prev], f"n{k}")
            prev = f"n{k}"
        n.add_output(prev)
        assert n.outputs({"x": True})[prev] is True  # even inversions

    def test_combinational_loop_detected(self):
        n = LogicNetlist()
        n.add_input("x")
        n.add_gate("g1", "AND2", ["x", "b"], "a")
        n.add_gate("g2", "INV", ["a"], "b")
        n.add_output("a")
        with pytest.raises(LogicError, match="loop"):
            n.levelize()

    def test_undriven_net_detected(self):
        n = LogicNetlist()
        n.add_input("x")
        n.add_gate("g1", "AND2", ["x", "ghost"], "y")
        n.add_output("y")
        with pytest.raises(LogicError, match="undriven"):
            n.outputs({"x": True})

    def test_transistor_count(self):
        n = half_adder()
        assert n.transistor_count() == 8 + 6

    def test_forced_nets_override(self):
        n = half_adder()
        out = n.outputs({"a": True, "b": True},
                        forced_nets={"carry": False})
        assert out["carry"] is False

    def test_nets_enumeration(self):
        n = half_adder()
        assert n.nets() == {"a", "b", "sum", "carry"}

    def test_compiled_program_follows_edits(self):
        n = half_adder()
        first = n.compile()
        assert n.compile() is first
        assert n.outputs({"a": True, "b": True}) == {"sum": False,
                                                    "carry": True}
        n.add_gate("gn", "NOR2", ["sum", "carry"], "none")
        n.add_output("none")
        assert n.compile() is not first
        assert n.outputs({"a": False, "b": False}) == {
            "sum": False, "carry": False, "none": True}
