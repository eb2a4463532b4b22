"""Gate-level netlist with levelised, bit-parallel evaluation.

The digital decoder macro of the Flash ADC is combinational
(thermometer -> binary); we levelise once and compile the gates into a
:class:`LogicProgram` over lane words (bit k of a net's word is its
value under vector k), so one pass evaluates a whole vector set.
Sequential elements (the comparator flipflops) live in the analog
domain, so the digital substrate stays purely combinational plus an
optional output register abstraction at the behavioural level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .gates import GateType, gate_type


class LogicError(Exception):
    """Raised for malformed gate-level netlists."""


@dataclass
class Gate:
    """One gate instance.

    Attributes:
        name: unique instance name.
        gtype: the :class:`GateType`.
        inputs: driving net names, in gate-input order.
        output: driven net name.
    """

    name: str
    gtype: GateType
    inputs: List[str]
    output: str


class LogicNetlist:
    """A combinational gate-level netlist.

    Nets are strings; primary inputs are declared explicitly, every other
    net must be driven by exactly one gate.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self._driver: Dict[str, str] = {}
        self._order: Optional[List[str]] = None
        self._program: Optional[LogicProgram] = None

    # -- construction ------------------------------------------------------

    def add_input(self, net: str) -> None:
        """Declare a primary input net."""
        if net in self._driver:
            raise LogicError(f"net {net!r} already driven by a gate")
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)
        self._order = None
        self._program = None

    def add_output(self, net: str) -> None:
        """Declare a primary output net (may also feed other gates)."""
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)
        self._program = None

    def add_gate(self, name: str, type_name: str, inputs: Sequence[str],
                 output: str) -> Gate:
        """Add a gate instance.

        Raises:
            LogicError: duplicate instance name or multiply-driven net.
        """
        if name in self.gates:
            raise LogicError(f"duplicate gate name {name!r}")
        if output in self._driver:
            raise LogicError(f"net {output!r} driven by both "
                             f"{self._driver[output]!r} and {name!r}")
        if output in self.primary_inputs:
            raise LogicError(f"net {output!r} is a primary input")
        gt = gate_type(type_name)
        if len(inputs) != gt.arity:
            raise LogicError(f"{name}: {type_name} needs {gt.arity} inputs")
        gate = Gate(name=name, gtype=gt, inputs=list(inputs), output=output)
        self.gates[name] = gate
        self._driver[output] = name
        self._order = None
        self._program = None
        return gate

    # -- analysis ------------------------------------------------------------

    def nets(self) -> Set[str]:
        """All nets referenced by the netlist."""
        result = set(self.primary_inputs)
        for g in self.gates.values():
            result.update(g.inputs)
            result.add(g.output)
        return result

    def transistor_count(self) -> int:
        """Total CMOS transistor estimate."""
        return sum(g.gtype.transistors for g in self.gates.values())

    def levelize(self) -> List[str]:
        """Topological gate ordering (cached).

        Raises:
            LogicError: on combinational loops or undriven nets.
        """
        if self._order is not None:
            return self._order
        known: Set[str] = set(self.primary_inputs)
        remaining = dict(self.gates)
        order: List[str] = []
        while remaining:
            ready = [name for name, g in remaining.items()
                     if all(i in known for i in g.inputs)]
            if not ready:
                undriven = {i for g in remaining.values() for i in g.inputs
                            if i not in known and i not in self._driver}
                if undriven:
                    raise LogicError(f"undriven nets: {sorted(undriven)}")
                raise LogicError(
                    f"combinational loop among {sorted(remaining)}")
            for name in ready:
                order.append(name)
                known.add(remaining.pop(name).output)
        self._order = order
        return order

    # -- evaluation ------------------------------------------------------------

    def compile(self) -> "LogicProgram":
        """The levelised gates as a lane-word program (cached).

        Raises:
            LogicError: as :meth:`levelize`, or for an undriven primary
                output.
        """
        if self._program is None:
            self._program = LogicProgram(self)
        return self._program

    def evaluate(self, input_values: Mapping[str, bool],
                 forced_nets: Optional[Mapping[str, bool]] = None
                 ) -> Dict[str, bool]:
        """Evaluate all nets for one input vector (the 1-lane program).

        Args:
            input_values: value per primary input (all must be present).
            forced_nets: optional overrides applied after each gate
                evaluates (used for stuck-at fault injection).

        Returns:
            Dict of every net's value.

        Raises:
            LogicError: for a missing input value or a forced net the
                netlist lacks.
        """
        program = self.compile()
        forced = {program.net_id(net): int(bool(value))
                  for net, value in (forced_nets or {}).items()}
        words = program.run(program.pack([input_values]), 1, forced)
        return {net: bool(word) for net, word in zip(program.names, words)}

    def outputs(self, input_values: Mapping[str, bool],
                forced_nets: Optional[Mapping[str, bool]] = None
                ) -> Dict[str, bool]:
        """Primary-output values for one input vector."""
        values = self.evaluate(input_values, forced_nets)
        return {net: values[net] for net in self.primary_outputs}


class LogicProgram:
    """A netlist compiled for evaluation over lane words.

    A lane word is a Python int whose bit k is a net's value under
    vector k; ``mask`` has one bit per lane.  Nets are numbered primary
    inputs first, then gate outputs in level order, and ``steps[s]`` is
    the s-th gate as ``(func, input_ids, output_id)``: every step reads
    only nets driven by earlier steps.

    Attributes:
        names: net name per id.
        n_inputs: primary-input count (ids ``0 .. n_inputs - 1``).
        outputs: primary-output ids.
        steps: the gates in level order.
        fanout: per net id, the steps reading that net, ascending.
    """

    def __init__(self, netlist: LogicNetlist) -> None:
        order = netlist.levelize()
        self.names: List[str] = list(netlist.primary_inputs) + \
            [netlist.gates[g].output for g in order]
        self._ids = {net: i for i, net in enumerate(self.names)}
        self.n_inputs = len(netlist.primary_inputs)
        fanout: List[List[int]] = [[] for _ in self.names]
        self.steps: List[Tuple] = []
        for s, gname in enumerate(order):
            gate = netlist.gates[gname]
            ins = tuple(self._ids[net] for net in gate.inputs)
            for i in set(ins):
                fanout[i].append(s)
            self.steps.append((gate.gtype.func, ins,
                               self._ids[gate.output]))
        self.fanout: List[Tuple[int, ...]] = [tuple(f) for f in fanout]
        self.outputs = tuple(self.net_id(net)
                             for net in netlist.primary_outputs)

    def net_id(self, net: str) -> int:
        """Id of *net*.

        Raises:
            LogicError: naming *net* when the netlist lacks it.
        """
        try:
            return self._ids[net]
        except KeyError:
            raise LogicError(f"net {net!r} is not in the netlist") \
                from None

    def pack(self, vectors: Sequence[Mapping[str, bool]]) -> List[int]:
        """Primary-input words of a vector set (lane k = ``vectors[k]``).

        Raises:
            LogicError: listing the inputs some vector has no value for.
        """
        inputs = self.names[:self.n_inputs]
        try:
            return [sum(1 << k for k, vector in enumerate(vectors)
                        if vector[net])
                    for net in inputs]
        except KeyError:
            missing = [net for net in inputs
                       if any(net not in vector for vector in vectors)]
            raise LogicError(f"missing input values for {missing}") \
                from None

    def run(self, input_words: Sequence[int], mask: int,
            forced: Optional[Mapping[int, int]] = None) -> List[int]:
        """Every net's word, indexed by net id.

        Args:
            input_words: one word per primary input (see :meth:`pack`).
            mask: the lane mask, ``(1 << lanes) - 1``.
            forced: net id -> word held on that net in place of its
                driver's value (fault injection).
        """
        held = forced or {}
        words = [held.get(i, word) for i, word in enumerate(input_words)]
        words.extend([0] * (len(self.names) - len(words)))
        for func, ins, out in self.steps:
            words[out] = held[out] if out in held else \
                func([words[i] for i in ins], mask)
        return words
