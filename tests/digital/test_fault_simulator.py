"""Property test: the bit-parallel fault simulator against a per-vector
dict-walk reference.

The reference below is the scalar evaluator the lane-word program
replaced: one vector at a time, a dict of net values in level order,
with its own boolean truth table (independent of the library's word
functions).  Random levelised netlists over every library gate, 1–300
vectors (word widths across 64 and 256) and random stuck-at and bridge
faults — forced primary inputs and bridges into the first net's own
fanout cone included — must give the same packed words and the same
probe-capped verdicts.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.digital import (LIBRARY, BridgingFault, LogicNetlist,
                           StuckAtFault)
from repro.digital.faults import FaultSimulator, lowest_set_bits

REFERENCE = {
    "BUF": lambda a: a,
    "INV": lambda a: not a,
    "AND2": lambda a, b: a and b,
    "AND3": lambda a, b, c: a and b and c,
    "OR2": lambda a, b: a or b,
    "OR3": lambda a, b, c: a or b or c,
    "NAND2": lambda a, b: not (a and b),
    "NAND3": lambda a, b, c: not (a and b and c),
    "NOR2": lambda a, b: not (a or b),
    "NOR3": lambda a, b, c: not (a or b or c),
    "XOR2": lambda a, b: a != b,
    "XNOR2": lambda a, b: a == b,
    "MUX2": lambda d0, d1, sel: d1 if sel else d0,
    "AOI21": lambda a, b, c: not ((a and b) or c),
}

#: word widths on and around the 64- and 256-lane boundaries
WIDTHS = st.one_of(st.sampled_from([1, 63, 64, 65, 255, 256, 257, 300]),
                   st.integers(1, 300))


def walk(netlist, vector, forced=None):
    """Every net's value under one vector, forced nets held after their
    driver evaluates."""
    forced = forced or {}
    values = {net: forced.get(net, bool(vector[net]))
              for net in netlist.primary_inputs}
    for name in netlist.levelize():
        gate = netlist.gates[name]
        out = REFERENCE[gate.gtype.name](*(values[i] for i in gate.inputs))
        values[gate.output] = forced.get(gate.output, bool(out))
    return values


def reference_detects(netlist, good, vector, fault):
    """Does *vector* change a primary output under *fault*?"""
    if isinstance(fault, StuckAtFault):
        forced = {fault.net: fault.value}
    else:
        wired = good[fault.net_a] and good[fault.net_b]
        forced = {fault.net_a: wired, fault.net_b: wired}
    bad = walk(netlist, vector, forced)
    return any(good[o] != bad[o] for o in netlist.primary_outputs)


def reference_activates(good, fault):
    if isinstance(fault, StuckAtFault):
        return good[fault.net] != fault.value
    return good[fault.net_a] != good[fault.net_b]


def pack(bits):
    return sum(1 << k for k, bit in enumerate(bits) if bit)


def fanout_cone(netlist, net):
    """Nets transitively driven by *net*."""
    cone, frontier = set(), [net]
    while frontier:
        source = frontier.pop()
        for gate in netlist.gates.values():
            if source in gate.inputs and gate.output not in cone:
                cone.add(gate.output)
                frontier.append(gate.output)
    return cone


@st.composite
def netlists(draw):
    n_inputs = draw(st.integers(1, 6))
    n_gates = draw(st.integers(1, 24))
    inputs = [f"i{k}" for k in range(n_inputs)]
    nets = list(inputs)
    gates = []
    for k in range(n_gates):
        type_name = draw(st.sampled_from(sorted(LIBRARY)))
        arity = LIBRARY[type_name].arity
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity,
                            max_size=arity))
        gates.append((f"g{k}", type_name, ins, f"n{k}"))
        nets.append(f"n{k}")
    netlist = LogicNetlist("random")
    for net in inputs:
        netlist.add_input(net)
    # insertion order is not level order: levelize must sort it out
    for gate in draw(st.permutations(gates)):
        netlist.add_gate(*gate)
    for net in draw(st.lists(st.sampled_from(nets), min_size=1,
                             max_size=4, unique=True)):
        netlist.add_output(net)
    return netlist


@st.composite
def cases(draw):
    netlist = draw(netlists())
    width = draw(WIDTHS)
    inputs = netlist.primary_inputs
    codes = draw(st.lists(st.integers(0, 2 ** len(inputs) - 1),
                          min_size=width, max_size=width))
    vectors = [{net: bool(code >> i & 1) for i, net in enumerate(inputs)}
               for code in codes]
    nets = sorted(netlist.nets())
    stuck = st.builds(StuckAtFault, st.sampled_from(nets), st.booleans())
    faults = draw(st.lists(stuck, min_size=1, max_size=4))
    faults.append(StuckAtFault(draw(st.sampled_from(inputs)),
                               draw(st.booleans())))
    pairs = st.lists(st.sampled_from(nets), min_size=2, max_size=2,
                     unique=True)
    faults += [BridgingFault(a, b)
               for a, b in draw(st.lists(pairs, max_size=3))]
    driving = [net for net in nets if fanout_cone(netlist, net)]
    first = draw(st.sampled_from(driving))
    second = draw(st.sampled_from(sorted(fanout_cone(netlist, first))))
    faults.append(BridgingFault(first, second))
    return netlist, vectors, faults


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(cases())
def test_simulator_matches_per_vector_reference(case):
    netlist, vectors, faults = case
    simulator = FaultSimulator(netlist, vectors)
    goods = [walk(netlist, vector) for vector in vectors]

    for net in netlist.nets():
        assert simulator.word(net) == pack(g[net] for g in goods), net

    for fault in faults:
        detects = [reference_detects(netlist, good, vector, fault)
                   for good, vector in zip(goods, vectors)]
        activating = [k for k, good in enumerate(goods)
                      if reference_activates(good, fault)]
        assert simulator.detection(fault) == pack(detects), fault
        assert simulator.activation(fault) == \
            pack(k in activating for k in range(len(vectors))), fault
        for probes in (1, 3, len(vectors)):
            want = any(detects[k] for k in activating[:probes])
            assert simulator.detected_within(fault, probes) is want, \
                (fault, probes)


@settings(max_examples=40, deadline=None)
@given(netlists(), st.data())
def test_one_lane_evaluate_matches_reference(netlist, data):
    inputs = netlist.primary_inputs
    vector = {net: data.draw(st.booleans()) for net in inputs}
    nets = sorted(netlist.nets())
    forced = data.draw(st.dictionaries(st.sampled_from(nets),
                                       st.booleans(), max_size=3))
    assert netlist.evaluate(vector, forced) == walk(netlist, vector, forced)


@given(st.integers(0, 2 ** 300 - 1), st.integers(0, 310))
def test_lowest_set_bits(word, count):
    low = lowest_set_bits(word, count)
    set_bits = [k for k in range(word.bit_length()) if word >> k & 1]
    assert low == pack(k in set_bits[:count]
                       for k in range(word.bit_length()))


def test_reference_covers_the_library():
    assert set(REFERENCE) == set(LIBRARY)
