"""Digital fault models: stuck-at and bridging faults with IDDQ.

The paper's decoder macro is digital, so its defect-oriented analysis uses
the classic digital machinery: stuck-at faults for voltage (logic)
detection and bridging faults for IDDQ detection.  A bridging fault is
IDDQ-detectable by any vector that drives the two bridged nets to opposite
values — the defining observation of IDDQ testing (the quiescent current
of a static CMOS circuit is otherwise negligible).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (Callable, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .netlist import LogicNetlist


@dataclass(frozen=True)
class StuckAtFault:
    """Net stuck at a constant value."""

    net: str
    value: bool

    def __str__(self) -> str:
        return f"{self.net}/SA{int(self.value)}"


@dataclass(frozen=True)
class BridgingFault:
    """Resistive bridge between two nets (wired behaviour irrelevant for
    IDDQ; logic behaviour approximated as wired-AND)."""

    net_a: str
    net_b: str

    def __str__(self) -> str:
        return f"bridge({self.net_a},{self.net_b})"


DigitalFault = Union[StuckAtFault, BridgingFault]


def all_stuck_at_faults(netlist: LogicNetlist) -> List[StuckAtFault]:
    """Both stuck-at polarities on every net."""
    faults = []
    for net in sorted(netlist.nets()):
        faults.append(StuckAtFault(net, False))
        faults.append(StuckAtFault(net, True))
    return faults


class FaultSimulator:
    """Bit-parallel fault simulation over one vector set.

    The vectors are packed once into lane words (bit k of a net's word
    is its value under ``vectors[k]``) and the fault-free words of every
    net are kept.  A fault then re-evaluates only the fanout cone of the
    nets it forces, and within the cone only the gates an input change
    reaches; the answer is a word of the vectors that detect it.
    """

    def __init__(self, netlist: LogicNetlist,
                 vectors: Sequence[Mapping[str, bool]]) -> None:
        self.program = netlist.compile()
        self.mask = (1 << len(vectors)) - 1
        self.good = self.program.run(self.program.pack(vectors),
                                     self.mask)

    def word(self, net: str) -> int:
        """Fault-free word of *net* (raises LogicError if unknown)."""
        return self.good[self.program.net_id(net)]

    def detect(self, forced: Mapping[str, int]) -> int:
        """Vectors whose primary outputs change while each net in
        *forced* is held at its word."""
        program, good, mask = self.program, self.good, self.mask
        held = {program.net_id(net): word & mask
                for net, word in forced.items()}
        words = list(good)
        queued = set()
        for i, word in held.items():
            if word != good[i]:
                words[i] = word
                queued.update(program.fanout[i])
        # ascending step order is level order: a step runs after every
        # step driving its inputs
        pending = sorted(queued)
        steps, fanout = program.steps, program.fanout
        while pending:
            func, ins, out = steps[heapq.heappop(pending)]
            if out in held:
                continue
            word = func([words[i] for i in ins], mask)
            if word != good[out]:
                words[out] = word
                for step in fanout[out]:
                    if step not in queued:
                        queued.add(step)
                        heapq.heappush(pending, step)
        diff = 0
        for out in program.outputs:
            diff |= words[out] ^ good[out]
        return diff

    def activation(self, fault: DigitalFault) -> int:
        """Vectors that drive a stuck-at's net to the other value, or a
        bridge's nets to opposite values (its IDDQ detections)."""
        if isinstance(fault, StuckAtFault):
            return self.word(fault.net) ^ self._constant(fault.value)
        if isinstance(fault, BridgingFault):
            return self.word(fault.net_a) ^ self.word(fault.net_b)
        raise TypeError(f"unsupported digital fault {fault!r}")

    def detection(self, fault: DigitalFault) -> int:
        """Vectors that detect *fault* at the primary outputs (a bridge
        as wired-AND of the good values)."""
        if isinstance(fault, StuckAtFault):
            return self.detect({fault.net: self._constant(fault.value)})
        if isinstance(fault, BridgingFault):
            wired = self.word(fault.net_a) & self.word(fault.net_b)
            return self.detect({fault.net_a: wired, fault.net_b: wired})
        raise TypeError(f"unsupported digital fault {fault!r}")

    def detected_within(self, fault: DigitalFault, probes: int) -> bool:
        """True if one of the first *probes* activating vectors detects
        *fault* at the outputs."""
        return bool(self.detection(fault) &
                    lowest_set_bits(self.activation(fault), probes))

    def _constant(self, value: bool) -> int:
        return self.mask if value else 0


def lowest_set_bits(word: int, count: int) -> int:
    """The *count* lowest set bits of *word* (all of them if fewer)."""
    low = 0
    for _ in range(count):
        if not word:
            break
        bit = word & -word
        low |= bit
        word ^= bit
    return low


def detects_stuck_at(netlist: LogicNetlist, fault: StuckAtFault,
                     vector: Mapping[str, bool]) -> bool:
    """True if *vector* produces a primary-output difference."""
    return bool(FaultSimulator(netlist, [vector]).detection(fault))


def stuck_at_coverage(netlist: LogicNetlist,
                      vectors: Iterable[Mapping[str, bool]],
                      faults: Optional[Sequence[StuckAtFault]] = None
                      ) -> Tuple[float, List[StuckAtFault]]:
    """Fault coverage of a vector set.

    Returns:
        ``(coverage_fraction, undetected_faults)``.
    """
    faults = list(faults if faults is not None
                  else all_stuck_at_faults(netlist))
    simulator = FaultSimulator(netlist, list(vectors))
    return _coverage(faults, simulator.detection)


def iddq_detects_bridge(netlist: LogicNetlist, fault: BridgingFault,
                        vector: Mapping[str, bool]) -> bool:
    """A vector IDDQ-detects a bridge iff it drives the nets opposite."""
    return bool(FaultSimulator(netlist, [vector]).activation(fault))


def logic_detects_bridge(netlist: LogicNetlist, fault: BridgingFault,
                         vector: Mapping[str, bool]) -> bool:
    """Wired-AND approximation for logic detection of a bridge."""
    return bool(FaultSimulator(netlist, [vector]).detection(fault))


def iddq_bridge_coverage(netlist: LogicNetlist,
                         vectors: Iterable[Mapping[str, bool]],
                         faults: Sequence[BridgingFault]
                         ) -> Tuple[float, List[BridgingFault]]:
    """IDDQ coverage of bridging faults for a vector set."""
    simulator = FaultSimulator(netlist, list(vectors))
    return _coverage(list(faults), simulator.activation)


def _coverage(faults: List[DigitalFault],
              detected: Callable[[DigitalFault], int]
              ) -> Tuple[float, List[DigitalFault]]:
    undetected = [fault for fault in faults if not detected(fault)]
    covered = len(faults) - len(undetected)
    coverage = covered / len(faults) if faults else 1.0
    return coverage, undetected


def neighbouring_bridges(netlist: LogicNetlist,
                         max_pairs: Optional[int] = None
                         ) -> List[BridgingFault]:
    """Plausible bridge list: nets sharing a gate (schematic adjacency).

    Layout-accurate bridges come from the defect simulator; this is the
    schematic-level fallback used for quick digital-only analyses.
    """
    pairs = set()
    for g in netlist.gates.values():
        nets = list(g.inputs) + [g.output]
        for a, b in itertools.combinations(sorted(set(nets)), 2):
            pairs.add((a, b))
    bridges = [BridgingFault(a, b) for a, b in sorted(pairs)]
    if max_pairs is not None:
        bridges = bridges[:max_pairs]
    return bridges
