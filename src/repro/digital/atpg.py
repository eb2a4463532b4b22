"""Random-greedy test generation for stuck-at faults (ATPG).

A pragmatic test generator for the gate-level substrate: draw candidate
vectors, fault-simulate with fault dropping, and keep every vector that
detects something new.  A final reverse-greedy compaction pass removes
vectors made redundant by later ones.  The helpers fault-simulate
through :class:`~repro.digital.faults.FaultSimulator`; fault simulation
and compaction pack the whole vector set into one word per net.

This exists for the decoder-macro analysis: in functional mode the
decoder only ever sees the 2^n thermometer codes, and the interesting
question (an ablation in the benchmark suite) is how much stuck-at
coverage those functional vectors leave on the table compared to
unconstrained test access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .faults import FaultSimulator, StuckAtFault, all_stuck_at_faults
from .netlist import LogicNetlist


@dataclass(frozen=True)
class TestSet:
    """Result of a test-generation run.

    Attributes:
        vectors: the selected test vectors.
        coverage: stuck-at coverage achieved on the fault universe.
        undetected: faults no candidate vector detected.
        candidates_tried: how many random candidates were drawn.
    """

    __test__ = False  # not a pytest class, despite the name

    vectors: Tuple[Dict[str, bool], ...]
    coverage: float
    undetected: Tuple[StuckAtFault, ...]
    candidates_tried: int


def fault_simulate(netlist: LogicNetlist,
                   vectors: Sequence[Dict[str, bool]],
                   faults: Optional[Sequence[StuckAtFault]] = None
                   ) -> Dict[StuckAtFault, Optional[int]]:
    """Fault simulation of a vector set.

    Returns:
        fault -> index of the first detecting vector (None if escaped).
    """
    faults = list(faults if faults is not None
                  else all_stuck_at_faults(netlist))
    simulator = FaultSimulator(netlist, vectors)
    result: Dict[StuckAtFault, Optional[int]] = {}
    for fault in faults:
        word = simulator.detection(fault)
        result[fault] = (word & -word).bit_length() - 1 if word else None
    return result


def generate_tests(netlist: LogicNetlist,
                   faults: Optional[Sequence[StuckAtFault]] = None,
                   max_candidates: int = 256,
                   target_coverage: float = 1.0,
                   seed: int = 0,
                   seed_vectors: Optional[Sequence[Dict[str, bool]]]
                   = None,
                   rng: Optional[np.random.Generator] = None
                   ) -> TestSet:
    """Random-greedy ATPG with fault dropping.

    Args:
        max_candidates: candidate-vector budget.
        target_coverage: stop early once reached.
        seed_vectors: candidates tried first — e.g. a block's
            functional vectors, which random patterns often cannot
            reproduce (a thermometer decoder's monotone inputs).
        rng: explicit generator; *seed* is ignored when given.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError("target_coverage must be in (0, 1]")
    faults = list(faults if faults is not None
                  else all_stuck_at_faults(netlist))
    rng = rng if rng is not None else np.random.default_rng(seed)
    inputs = list(netlist.primary_inputs)
    remaining: Set[StuckAtFault] = set(faults)
    selected: List[Dict[str, bool]] = []
    tried = 0

    # seeds first, then the all-zero/all-one corners, then random
    def candidates() -> Iterable[Dict[str, bool]]:
        for vector in seed_vectors or ():
            yield dict(vector)
        yield {i: False for i in inputs}
        yield {i: True for i in inputs}
        while True:
            bits = rng.random(len(inputs)) < 0.5
            yield dict(zip(inputs, (bool(b) for b in bits)))

    for vector in candidates():
        if tried >= max_candidates or not remaining:
            break
        tried += 1
        simulator = FaultSimulator(netlist, [vector])
        newly = [f for f in remaining if simulator.detection(f)]
        if newly:
            selected.append(vector)
            remaining.difference_update(newly)
        covered = 1.0 - len(remaining) / len(faults)
        if covered >= target_coverage:
            break

    coverage = 1.0 - len(remaining) / len(faults) if faults else 1.0
    return TestSet(vectors=tuple(selected), coverage=coverage,
                   undetected=tuple(sorted(remaining, key=str)),
                   candidates_tried=tried)


def compact_tests(netlist: LogicNetlist,
                  vectors: Sequence[Dict[str, bool]],
                  faults: Optional[Sequence[StuckAtFault]] = None
                  ) -> List[Dict[str, bool]]:
    """Reverse-greedy compaction: drop vectors that cost no coverage."""
    faults = list(faults if faults is not None
                  else all_stuck_at_faults(netlist))
    simulator = FaultSimulator(netlist, vectors)
    words = [simulator.detection(fault) for fault in faults]

    def detected(kept: int) -> int:
        return sum(1 for word in words if word & kept)

    kept = simulator.mask
    baseline = detected(kept)
    for index in range(len(vectors) - 1, -1, -1):
        trial = kept & ~(1 << index)
        if detected(trial) == baseline:
            kept = trial
    return [vector for index, vector in enumerate(vectors)
            if kept >> index & 1]
