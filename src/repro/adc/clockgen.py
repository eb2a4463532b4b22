"""Clock generator macro: three-phase clock buffers.

A digital macro: each phase's pre-driver signal goes through a two-stage
CMOS buffer whose final stage drives the long clock distribution line
(modelled as a lumped capacitance) across the comparator array.

Its key test property, central to the paper: as a static CMOS block its
**quiescent supply current (IDDQ) is essentially zero**, so any fault
that loads a clock line resistively — including faults physically inside
the *comparator* cells that short a clock line — shows up as elevated
IDDQ of this macro.  The paper found 10-11 % of all faults detectable
*only* this way.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuit.elements import Capacitor, Resistor, VoltageSource
from ..circuit.mosfet import Mosfet
from ..circuit.netlist import Circuit
from ..circuit.transient import TransientResult, supply_current
from ..layout.synth import SynthOptions, synthesize
from .comparator import CLOCK_PERIOD, comparator_clocks, \
    phase_measure_times
from .process import Process, typical

PHASES = ("phi1", "phi2", "phi3")
PORTS = ("vddd", "gnd") + PHASES + tuple(f"{p}_in" for p in PHASES)
GLOBAL_NETS = ("gnd", "phi1", "phi2", "phi3", "vddd")

#: lumped capacitance of one clock distribution line across 256
#: comparators (gate loads plus wire)
CLOCK_LINE_CAP = 2e-12


def add_clockgen_devices(circuit: Circuit, process: Optional[Process]
                         = None, prefix: str = "") -> None:
    """Two-stage buffer per phase: <phase>_in -> <phase>."""
    p = process or typical()

    def node(name: str) -> str:
        return "gnd" if name == "gnd" else prefix + name

    for phase in PHASES:
        mid = f"{phase}_b"
        circuit.add(Mosfet(prefix + f"MP_{phase}_1", node(mid),
                           node(f"{phase}_in"), node("vddd"),
                           node("vddd"), p.pmos, w=12e-6, l=1e-6,
                           polarity="p"))
        circuit.add(Mosfet(prefix + f"MN_{phase}_1", node(mid),
                           node(f"{phase}_in"), "gnd", "gnd", p.nmos,
                           w=6e-6, l=1e-6))
        circuit.add(Mosfet(prefix + f"MP_{phase}_2", node(phase),
                           node(mid), node("vddd"), node("vddd"), p.pmos,
                           w=48e-6, l=1e-6, polarity="p"))
        circuit.add(Mosfet(prefix + f"MN_{phase}_2", node(phase),
                           node(mid), "gnd", "gnd", p.nmos, w=24e-6,
                           l=1e-6))
        circuit.add(Capacitor(prefix + f"CL_{phase}", node(phase), "gnd",
                              CLOCK_LINE_CAP))


def build_clockgen(process: Optional[Process] = None) -> Circuit:
    """Bare clock generator netlist."""
    c = Circuit("clockgen")
    add_clockgen_devices(c, process)
    return c


def clockgen_layout():
    """Synthesised layout of the clock generator macro."""
    return synthesize(build_clockgen(), SynthOptions(
        global_nets=list(GLOBAL_NETS), ports=list(PORTS)))


def clockgen_testbench(process: Optional[Process] = None,
                       period: float = CLOCK_PERIOD) -> Circuit:
    """Clock generator driven by ideal pre-driver phases.

    The digital supply source is named ``VDDD``: IDDQ is its quiescent
    branch current (inverted buffers: the *inputs* are the complements of
    the wanted phases, so the pre-drivers below invert).
    """
    p = process or typical()
    c = build_clockgen(p)
    c.add(VoltageSource("VDDD", "vddd", "gnd", p.vdd))
    phases = comparator_clocks(period, p.vdd)
    for phase, wave in zip(PHASES, phases):
        # two inversions in the buffer: feed the true phase
        c.add(VoltageSource(f"V{phase.upper()}IN", f"{phase}_in", "gnd",
                            wave))
    return c


def iddq(result: TransientResult, times: Optional[List[float]] = None,
         period: float = CLOCK_PERIOD, cycle: int = 0) -> float:
    """Worst-case quiescent VDDD current over the measurement instants."""
    times = times or phase_measure_times(period, cycle)
    current = supply_current(result, "VDDD")
    samples = [abs(current[int(np.argmin(np.abs(result.times - t)))])
               for t in times]
    return max(samples)


def clock_levels(result: TransientResult, period: float = CLOCK_PERIOD,
                 cycle: int = 0) -> dict:
    """High level of each phase in its own active window (for detecting
    degraded clock amplitudes — the paper's 'clock value' signatures)."""
    centres = {"phi1": 0.17, "phi2": 0.50, "phi3": 0.88}
    return {phase: result.at_time(phase, (cycle + frac) * period)
            for phase, frac in centres.items()}
