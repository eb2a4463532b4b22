"""Linear and source circuit elements with MNA stamps.

Every element implements :meth:`stamp`, which adds its linearised
companion model into the MNA system for the current Newton iterate, and
optionally :meth:`stamp_ac` for small-signal analysis.  The stamp context
(:class:`repro.circuit.mna.StampContext`) carries the analysis mode,
timestep and previous solution, so elements themselves stay stateless.

Sign convention for branch currents (voltage sources): the unknown is the
current flowing *from the positive terminal through the source to the
negative terminal*.  A supply that is sourcing current therefore reports a
negative branch current, exactly as SPICE does; use
:func:`repro.circuit.transient.supply_current` for the load current.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

ValueOrWaveform = Union[float, "object"]


class BatchUnsupported(Exception):
    """This element (or lane combination) cannot be stamped batched.

    The batched kernel treats it as a soft failure and falls back to
    the scalar per-lane path.
    """


def _value_at(value: ValueOrWaveform, time: float) -> float:
    """Evaluate a constant or a waveform object at *time*."""
    if hasattr(value, "at"):
        return value.at(time)
    if callable(value):
        return value(time)
    return float(value)


def _batch_values(lanes) -> Callable[[float], np.ndarray]:
    """Per-lane source evaluator for the batched kernel.

    Constant sources are folded into one array up front; waveform lanes
    are evaluated per call through the very same :func:`_value_at` the
    scalar stamp uses, keeping the values bit-identical.
    """
    if all(not hasattr(lane.value, "at") and not callable(lane.value)
           for lane in lanes):
        const = np.array([float(lane.value) for lane in lanes])
        return lambda time: const
    return lambda time: np.array([lane.value_at(time) for lane in lanes])


class Element:
    """Base class: a named element with an ordered node list."""

    branches = 0

    def __init__(self, name: str, nodes: Sequence[str]) -> None:
        self.name = name
        self.nodes = list(nodes)

    def stamp(self, system, x, ctx) -> None:
        raise NotImplementedError

    def stamp_ac(self, system, x_op, ctx) -> None:
        """Default small-signal stamp: nothing (open circuit)."""

    # -- batched stamping --------------------------------------------------
    #
    # The batched transient kernel (:mod:`repro.circuit.batch`) runs B
    # structurally identical circuits in lockstep.  ``batch_slot`` is
    # called once per element position with the B per-lane sibling
    # elements and precomputes index tuples and per-lane parameter
    # arrays; the kernel's compiled contribution program then replays
    # ``stamp`` per lane from those slots, bit for bit.

    def batch_slot(self, system, lanes) -> dict:
        raise BatchUnsupported(type(self).__name__)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.nodes})"


class Resistor(Element):
    """Linear resistor.

    Args:
        name: unique element name.
        a, b: terminal nodes.
        resistance: ohms; must be > 0.
    """

    def __init__(self, name: str, a: str, b: str, resistance: float) -> None:
        super().__init__(name, [a, b])
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive, "
                             f"got {resistance}")
        self.resistance = float(resistance)

    def stamp(self, system, x, ctx) -> None:
        i, j = system.indices(self.nodes)
        system.add_conductance(i, j, 1.0 / self.resistance)

    def stamp_ac(self, system, x_op, ctx) -> None:
        i, j = system.indices(self.nodes)
        system.add_conductance(i, j, 1.0 / self.resistance)

    def batch_slot(self, system, lanes) -> dict:
        i, j = system.indices(self.nodes)
        return {"ij": (i, j),
                "g": np.array([1.0 / lane.resistance for lane in lanes])}


class Capacitor(Element):
    """Linear capacitor.

    In DC it is an open circuit; in transient it stamps a backward-Euler
    (or trapezoidal) companion model using the previous accepted solution.
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float) -> None:
        super().__init__(name, [a, b])
        if capacitance < 0:
            raise ValueError(f"{name}: capacitance must be >= 0")
        self.capacitance = float(capacitance)

    def stamp(self, system, x, ctx) -> None:
        if ctx.mode != "tran" or ctx.dt is None or self.capacitance == 0.0:
            return
        i, j = system.indices(self.nodes)
        geq = self.capacitance / ctx.dt
        v_prev = system.voltage(ctx.x_prev, i, j)
        if ctx.method == "trap":
            geq *= 2.0
            i_prev = ctx.cap_currents.get(self.name, 0.0)
            ieq = geq * v_prev + i_prev
        else:
            ieq = geq * v_prev
        system.add_conductance(i, j, geq)
        system.add_current(i, ieq)
        system.add_current(j, -ieq)

    def charge_current(self, system, x_new, x_prev, ctx) -> float:
        """Capacitor current at the newly accepted timepoint (for trap)."""
        i, j = system.indices(self.nodes)
        v_new = system.voltage(x_new, i, j)
        v_prev = system.voltage(x_prev, i, j)
        if ctx.method == "trap":
            i_prev = ctx.cap_currents.get(self.name, 0.0)
            return (2.0 * self.capacitance / ctx.dt) * (v_new - v_prev) - i_prev
        return self.capacitance * (v_new - v_prev) / ctx.dt

    def stamp_ac(self, system, x_op, ctx) -> None:
        i, j = system.indices(self.nodes)
        system.add_susceptance(i, j, self.capacitance)

    def batch_slot(self, system, lanes) -> dict:
        i, j = system.indices(self.nodes)
        return {"ij": (i, j),
                "c": np.array([lane.capacitance for lane in lanes])}

    def charge_current_batch(self, system, X_new, X_prev, ctx, slot):
        """Per-lane capacitor currents at the accepted timepoint."""
        i, j = slot["ij"]
        v_new = system.voltage(X_new, i, j)
        v_prev = system.voltage(X_prev, i, j)
        c = slot["c"]
        if ctx.method == "trap":
            i_prev = ctx.cap_currents.get(self.name, 0.0)
            return (2.0 * c / ctx.dt) * (v_new - v_prev) - i_prev
        return c * (v_new - v_prev) / ctx.dt


class VoltageSource(Element):
    """Independent voltage source; value may be a constant or waveform.

    Adds one branch-current unknown.  ``ac`` sets the small-signal
    magnitude used by AC analysis (default 0).
    """

    branches = 1

    def __init__(self, name: str, pos: str, neg: str,
                 value: ValueOrWaveform, ac: float = 0.0) -> None:
        super().__init__(name, [pos, neg])
        self.value = value
        self.ac = float(ac)

    def value_at(self, time: float) -> float:
        return _value_at(self.value, time)

    def stamp(self, system, x, ctx) -> None:
        p, n = system.indices(self.nodes)
        br = system.branch(self.name)
        system.add_entry(p, br, 1.0)
        system.add_entry(n, br, -1.0)
        system.add_entry(br, p, 1.0)
        system.add_entry(br, n, -1.0)
        v = self.value_at(ctx.time) * ctx.source_scale
        system.add_rhs(br, v)

    def stamp_ac(self, system, x_op, ctx) -> None:
        p, n = system.indices(self.nodes)
        br = system.branch(self.name)
        system.add_entry(p, br, 1.0)
        system.add_entry(n, br, -1.0)
        system.add_entry(br, p, 1.0)
        system.add_entry(br, n, -1.0)
        system.add_rhs(br, self.ac)

    def batch_slot(self, system, lanes) -> dict:
        p, n = system.indices(self.nodes)
        return {"pn": (p, n), "br": system.branch(self.name),
                "values": _batch_values(lanes)}


class CurrentSource(Element):
    """Independent current source flowing from *pos* to *neg* externally.

    Positive value pushes current into the *neg* node (i.e. conventional
    SPICE polarity: current flows from ``pos`` through the source to
    ``neg``).
    """

    def __init__(self, name: str, pos: str, neg: str,
                 value: ValueOrWaveform, ac: float = 0.0) -> None:
        super().__init__(name, [pos, neg])
        self.value = value
        self.ac = float(ac)

    def value_at(self, time: float) -> float:
        return _value_at(self.value, time)

    def stamp(self, system, x, ctx) -> None:
        p, n = system.indices(self.nodes)
        i = self.value_at(ctx.time) * ctx.source_scale
        system.add_current(p, -i)
        system.add_current(n, i)

    def stamp_ac(self, system, x_op, ctx) -> None:
        p, n = system.indices(self.nodes)
        system.add_rhs(p, -self.ac)
        system.add_rhs(n, self.ac)

    def batch_slot(self, system, lanes) -> dict:
        p, n = system.indices(self.nodes)
        return {"pn": (p, n), "values": _batch_values(lanes)}


class VCCS(Element):
    """Voltage-controlled current source: ``i(out) = gm * v(cp, cn)``."""

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gm: float) -> None:
        super().__init__(name, [out_pos, out_neg, ctrl_pos, ctrl_neg])
        self.gm = float(gm)

    def stamp(self, system, x, ctx) -> None:
        p, n, cp, cn = system.indices(self.nodes)
        system.add_transconductance(p, n, cp, cn, self.gm)

    def stamp_ac(self, system, x_op, ctx) -> None:
        p, n, cp, cn = system.indices(self.nodes)
        system.add_transconductance(p, n, cp, cn, self.gm)

    def batch_slot(self, system, lanes) -> dict:
        return {"idx": tuple(system.indices(self.nodes)),
                "gm": np.array([lane.gm for lane in lanes])}


class VCVS(Element):
    """Voltage-controlled voltage source: ``v(out) = gain * v(cp, cn)``."""

    branches = 1

    def __init__(self, name: str, out_pos: str, out_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float) -> None:
        super().__init__(name, [out_pos, out_neg, ctrl_pos, ctrl_neg])
        self.gain = float(gain)

    def stamp(self, system, x, ctx) -> None:
        p, n, cp, cn = system.indices(self.nodes)
        br = system.branch(self.name)
        system.add_entry(p, br, 1.0)
        system.add_entry(n, br, -1.0)
        system.add_entry(br, p, 1.0)
        system.add_entry(br, n, -1.0)
        system.add_entry(br, cp, -self.gain)
        system.add_entry(br, cn, self.gain)

    stamp_ac = stamp

    def batch_slot(self, system, lanes) -> dict:
        return {"idx": tuple(system.indices(self.nodes)),
                "br": system.branch(self.name),
                "gain": np.array([lane.gain for lane in lanes])}


class Switch(Element):
    """Voltage-controlled switch: ``ron`` when v(ctrl) > vt else ``roff``.

    A smooth (logistic) transition keeps the Newton iteration stable.
    """

    def __init__(self, name: str, a: str, b: str, ctrl: str,
                 vt: float = 2.5, ron: float = 100.0,
                 roff: float = 1e9, sharpness: float = 20.0) -> None:
        super().__init__(name, [a, b, ctrl])
        self.vt = float(vt)
        self.ron = float(ron)
        self.roff = float(roff)
        self.sharpness = float(sharpness)

    def conductance(self, v_ctrl: float) -> float:
        """Smoothly interpolated conductance for a control voltage."""
        import math
        arg = self.sharpness * (v_ctrl - self.vt)
        arg = max(-60.0, min(60.0, arg))
        frac = 1.0 / (1.0 + math.exp(-arg))
        g_on = 1.0 / self.ron
        g_off = 1.0 / self.roff
        return g_off + (g_on - g_off) * frac

    def stamp(self, system, x, ctx) -> None:
        i, j, c = system.indices(self.nodes)
        v_ctrl = system.voltage(x, c, -1)
        system.add_conductance(i, j, self.conductance(v_ctrl))

    def stamp_ac(self, system, x_op, ctx) -> None:
        i, j, c = system.indices(self.nodes)
        v_ctrl = system.voltage(x_op, c, -1)
        system.add_conductance(i, j, self.conductance(v_ctrl))

    def batch_slot(self, system, lanes) -> dict:
        return {"idx": tuple(system.indices(self.nodes)),
                "lanes": list(lanes)}


class Diode(Element):
    """Junction diode with exponential law and internal limiting.

    Used for junction-pinhole fault models and ESD-style clamps.
    """

    def __init__(self, name: str, anode: str, cathode: str,
                 isat: float = 1e-14, n: float = 1.0) -> None:
        super().__init__(name, [anode, cathode])
        self.isat = float(isat)
        self.n = float(n)
        self.vt = 0.02585

    def _iv(self, vd: float):
        import math
        nvt = self.n * self.vt
        vd_lim = min(vd, 0.9)
        e = math.exp(vd_lim / nvt)
        i = self.isat * (e - 1.0)
        g = self.isat * e / nvt
        if vd > vd_lim:
            i += g * (vd - vd_lim)
        return i, max(g, 1e-12)

    def stamp(self, system, x, ctx) -> None:
        a, c = system.indices(self.nodes)
        vd = system.voltage(x, a, c)
        i, g = self._iv(vd)
        ieq = i - g * vd
        system.add_conductance(a, c, g)
        system.add_current(a, -ieq)
        system.add_current(c, ieq)

    def stamp_ac(self, system, x_op, ctx) -> None:
        a, c = system.indices(self.nodes)
        vd = system.voltage(x_op, a, c)
        _, g = self._iv(vd)
        system.add_conductance(a, c, g)

    def batch_slot(self, system, lanes) -> dict:
        a, c = system.indices(self.nodes)
        return {"ac": (a, c), "lanes": list(lanes)}
