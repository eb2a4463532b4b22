"""Gate-level digital substrate (decoder macro analysis).

Public API: :class:`LogicNetlist` and its compiled lane-word
:class:`LogicProgram`, the gate :data:`LIBRARY`, stuck-at and bridging
fault models with logic/IDDQ detectability, and the bit-parallel
:class:`FaultSimulator` they all go through.
"""

from .atpg import TestSet, compact_tests, fault_simulate, generate_tests
from .faults import (BridgingFault, FaultSimulator, StuckAtFault,
                     all_stuck_at_faults, detects_stuck_at,
                     iddq_bridge_coverage, iddq_detects_bridge,
                     logic_detects_bridge, neighbouring_bridges,
                     stuck_at_coverage)
from .gates import LIBRARY, GateType, gate_type
from .netlist import Gate, LogicError, LogicNetlist, LogicProgram

__all__ = [
    "TestSet", "compact_tests", "fault_simulate", "generate_tests",
    "BridgingFault", "FaultSimulator", "StuckAtFault",
    "all_stuck_at_faults", "detects_stuck_at", "iddq_bridge_coverage",
    "iddq_detects_bridge", "logic_detects_bridge", "neighbouring_bridges",
    "stuck_at_coverage", "LIBRARY", "GateType", "gate_type", "Gate",
    "LogicError", "LogicNetlist", "LogicProgram",
]
