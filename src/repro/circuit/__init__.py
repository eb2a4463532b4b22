"""Analog circuit simulation substrate (SPICE-equivalent for this repo).

Public API:

* :class:`Circuit` - netlist container.
* Elements: :class:`Resistor`, :class:`Capacitor`, :class:`VoltageSource`,
  :class:`CurrentSource`, :class:`VCCS`, :class:`VCVS`, :class:`Switch`,
  :class:`Diode`, :class:`Mosfet` / :class:`MosParams`.
* Analyses: :func:`operating_point`, :func:`dc_sweep`, :func:`transient`,
  :func:`ac_analysis`.
* Batched kernel: :func:`transient_lanes`, :func:`transient_batch`,
  :func:`operating_point_lanes`, :func:`structure_signature` (see
  ``docs/ENGINE.md``).
* Waveforms: :class:`DC`, :class:`Pulse`, :class:`Triangle`, :class:`PWL`,
  :class:`Sin`, :func:`three_phase_clocks`.
"""

from .ac import ACResult, ac_analysis, bandwidth_3db, log_frequencies
from .batch import (BatchUnsupported, LaneResult, operating_point_lanes,
                    structure_signature, transient_batch, transient_lanes)
from .dc import ConvergenceError, DCResult, dc_sweep, operating_point
from .elements import (Capacitor, CurrentSource, Diode, Element, Resistor,
                       Switch, VCCS, VCVS, VoltageSource)
from .mna import MNASystem, StampContext
from .hierarchy import Subcircuit, flatten, instantiate
from .measure import (crossing_times, duty_cycle, fall_time,
                      overshoot, period as measured_period, rise_time,
                      settling_time, slew_rate)
from .mosfet import Mosfet, MosParams
from .netlist import Circuit, CircuitError, CompiledCircuit, canonical_node
from .spicefmt import (SpiceFormatError, parse_netlist, parse_value,
                       write_netlist)
from .transient import TransientResult, supply_current, transient
from .waveforms import DC, PWL, Pulse, Sin, Triangle, three_phase_clocks

__all__ = [
    "ACResult", "ac_analysis", "bandwidth_3db", "log_frequencies",
    "BatchUnsupported", "LaneResult", "operating_point_lanes",
    "structure_signature", "transient_batch", "transient_lanes",
    "ConvergenceError", "DCResult", "dc_sweep", "operating_point",
    "Capacitor", "CurrentSource", "Diode", "Element", "Resistor", "Switch",
    "VCCS", "VCVS", "VoltageSource", "MNASystem", "StampContext",
    "Mosfet", "MosParams", "Circuit", "CircuitError", "CompiledCircuit",
    "canonical_node", "TransientResult", "supply_current", "transient",
    "DC", "PWL", "Pulse", "Sin", "Triangle", "three_phase_clocks",
    "SpiceFormatError", "parse_netlist", "parse_value", "write_netlist",
    "crossing_times", "duty_cycle", "fall_time", "overshoot",
    "measured_period", "rise_time", "settling_time", "slew_rate",
    "Subcircuit", "flatten", "instantiate",
]
