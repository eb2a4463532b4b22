"""Level-1 (Shichman-Hodges) MOSFET model with body effect.

This is the classic SPICE level-1 model: square-law saturation, triode
region, channel-length modulation (lambda) and body effect (gamma).  It is
entirely adequate for the paper's purpose — determining whether a spot
defect's circuit-level fault model perturbs DC levels, clocked transient
decisions or quiescent currents of ~20-transistor analog macros.

The device is symmetric: when the applied ``vds`` is negative the source
and drain are swapped internally, so pass transistors conduct both ways.

Constant gate capacitances (Cgs, Cgd from Cox plus overlap) are stamped in
transient analysis so dynamic nodes (sampling caps, latch nodes) have
realistic memory without the complexity of Meyer capacitances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .elements import BatchUnsupported, Element


@dataclass(frozen=True)
class MosParams:
    """Electrical parameters for one device polarity.

    Attributes:
        kp: transconductance parameter KP = u0*Cox (A/V^2).
        vto: zero-bias threshold voltage (positive for NMOS, negative
            for PMOS, as in SPICE).
        lam: channel-length modulation (1/V).
        gamma: body-effect coefficient (sqrt(V)).
        phi: surface potential (V).
        cox: gate-oxide capacitance per area (F/m^2).
        cov: gate overlap capacitance per width (F/m).
    """

    kp: float
    vto: float
    lam: float
    gamma: float
    phi: float
    cox: float
    cov: float

    def scaled(self, kp_scale: float = 1.0, vto_shift: float = 0.0
               ) -> "MosParams":
        """Return params for a process/temperature corner."""
        return replace(self, kp=self.kp * kp_scale, vto=self.vto + vto_shift)


class Mosfet(Element):
    """Four-terminal MOSFET: (drain, gate, source, bulk).

    Args:
        name: unique element name.
        d, g, s, b: node names.
        params: :class:`MosParams` for the device polarity.
        w, l: channel width and length in metres.
        polarity: ``"n"`` or ``"p"``.
    """

    def __init__(self, name: str, d: str, g: str, s: str, b: str,
                 params: MosParams, w: float, l: float,
                 polarity: str = "n") -> None:
        super().__init__(name, [d, g, s, b])
        if polarity not in ("n", "p"):
            raise ValueError(f"{name}: polarity must be 'n' or 'p'")
        if w <= 0 or l <= 0:
            raise ValueError(f"{name}: W and L must be positive")
        self.params = params
        self.w = float(w)
        self.l = float(l)
        self.polarity = polarity

    # -- device equations -------------------------------------------------

    @property
    def beta(self) -> float:
        """Gain factor KP * W / L."""
        return self.params.kp * self.w / self.l

    def threshold(self, vsb: float) -> float:
        """Threshold voltage including body effect (in device polarity)."""
        p = self.params
        vto = abs(p.vto)
        if p.gamma == 0.0:
            return vto
        arg = p.phi + max(vsb, 0.0)
        return vto + p.gamma * (math.sqrt(arg) - math.sqrt(p.phi))

    def ids(self, vgs: float, vds: float, vbs: float):
        """Drain current and partial derivatives.

        All voltages are in *device polarity* (already sign-flipped for
        PMOS and source/drain-swapped for vds < 0 by the caller).

        Returns:
            Tuple ``(ids, gm, gds, gmb)``.
        """
        p = self.params
        vsb = -vbs
        vth = self.threshold(vsb)
        vov = vgs - vth
        beta = self.beta
        # dVth/dVbs (negative of dVth/dVsb)
        if p.gamma > 0.0:
            arg = p.phi + max(vsb, 0.0)
            dvth_dvsb = 0.5 * p.gamma / math.sqrt(arg)
        else:
            dvth_dvsb = 0.0
        if vov <= 0.0:
            # Subthreshold leakage is modelled as a tiny conductance only,
            # which is sufficient because explicit "leaker" devices model
            # the flipflop leakage the paper discusses.
            return 0.0, 0.0, 0.0, 0.0
        clm = 1.0 + p.lam * vds
        if vds < vov:
            # triode
            i = beta * (vov - 0.5 * vds) * vds * clm
            gm = beta * vds * clm
            gds = beta * (vov - vds) * clm + beta * (
                vov - 0.5 * vds) * vds * p.lam
            gmb = gm * dvth_dvsb
        else:
            # saturation
            i = 0.5 * beta * vov * vov * clm
            gm = beta * vov * clm
            gds = 0.5 * beta * vov * vov * p.lam
            gmb = gm * dvth_dvsb
        return i, gm, gds, gmb

    def operating_point(self, vd: float, vg: float, vs: float, vb: float):
        """Drain current (external polarity) at given terminal voltages.

        Handles the PMOS sign flip and source/drain swap.

        Returns:
            Tuple ``(id_external, region)`` where region is one of
            ``"off"``, ``"triode"``, ``"sat"``.
        """
        i, _, _, _, swapped, sign = self._solve_terminal(vd, vg, vs, vb)
        vgs, vds, vbs = self._device_voltages(vd, vg, vs, vb, swapped, sign)
        vth = self.threshold(-vbs)
        if vgs - vth <= 0:
            region = "off"
        elif vds < vgs - vth:
            region = "triode"
        else:
            region = "sat"
        return i, region

    # -- internal helpers --------------------------------------------------

    def _device_voltages(self, vd, vg, vs, vb, swapped, sign):
        if swapped:
            vd, vs = vs, vd
        vgs = sign * (vg - vs)
        vds = sign * (vd - vs)
        vbs = sign * (vb - vs)
        return vgs, vds, vbs

    def _solve_terminal(self, vd, vg, vs, vb):
        """Evaluate the model, returning current into the external drain."""
        sign = 1.0 if self.polarity == "n" else -1.0
        swapped = sign * (vd - vs) < 0.0
        vgs, vds, vbs = self._device_voltages(vd, vg, vs, vb, swapped, sign)
        i, gm, gds, gmb = self.ids(vgs, vds, vbs)
        i_ext = sign * i
        if swapped:
            i_ext = -i_ext
        return i_ext, gm, gds, gmb, swapped, sign

    # -- MNA stamps ---------------------------------------------------------

    def stamp(self, system, x, ctx) -> None:
        nd, ng, ns, nb = system.indices(self.nodes)
        vd = system.voltage(x, nd, -1)
        vg = system.voltage(x, ng, -1)
        vs = system.voltage(x, ns, -1)
        vb = system.voltage(x, nb, -1)

        sign = 1.0 if self.polarity == "n" else -1.0
        swapped = sign * (vd - vs) < 0.0
        d_idx, s_idx = (ns, nd) if swapped else (nd, ns)
        vgs, vds, vbs = self._device_voltages(vd, vg, vs, vb, swapped, sign)
        i, gm, gds, gmb = self.ids(vgs, vds, vbs)

        # Companion model: I = i0 + gm*dvgs + gds*dvds + gmb*dvbs, all in
        # device polarity.  Because both the controlling voltages and the
        # current pick up the same sign flip for PMOS, the conductance
        # stamps are polarity-independent; only the equivalent current
        # source needs the sign.
        ieq = i - gm * vgs - gds * vds - gmb * vbs
        ieq_ext = sign * ieq

        system.add_transconductance(d_idx, s_idx, ng if not swapped else ng,
                                    s_idx, gm)
        system.add_conductance(d_idx, s_idx, gds)
        system.add_transconductance(d_idx, s_idx, nb, s_idx, gmb)
        system.add_current(d_idx, -ieq_ext)
        system.add_current(s_idx, ieq_ext)

        # Convergence aid: gmin from drain and source to ground.
        if ctx.gmin > 0.0:
            system.add_conductance(nd, -1, ctx.gmin)
            system.add_conductance(ns, -1, ctx.gmin)

        # Gate capacitances in transient.
        if ctx.mode == "tran" and ctx.dt is not None:
            self._stamp_gate_caps(system, ctx, nd, ng, ns)

    def _gate_caps(self):
        # Meyer-style saturation split: the channel charge belongs to the
        # source side; the drain sees only the overlap capacitance.  This
        # keeps switched-capacitor nodes from being swamped by phantom
        # drain kickback.
        p = self.params
        c_ch = p.cox * self.w * self.l
        c_ov = p.cov * self.w
        cgs = (2.0 / 3.0) * c_ch + c_ov
        cgd = c_ov
        return cgs, cgd

    def _stamp_gate_caps(self, system, ctx, nd, ng, ns) -> None:
        cgs, cgd = self._gate_caps()
        for (a, b, c) in ((ng, ns, cgs), (ng, nd, cgd)):
            geq = c / ctx.dt
            v_prev = system.voltage(ctx.x_prev, a, b)
            ieq = geq * v_prev
            system.add_conductance(a, b, geq)
            system.add_current(a, ieq)
            system.add_current(b, -ieq)

    def stamp_ac(self, system, x_op, ctx) -> None:
        nd, ng, ns, nb = system.indices(self.nodes)
        vd = system.voltage(x_op, nd, -1)
        vg = system.voltage(x_op, ng, -1)
        vs = system.voltage(x_op, ns, -1)
        vb = system.voltage(x_op, nb, -1)
        sign = 1.0 if self.polarity == "n" else -1.0
        swapped = sign * (vd - vs) < 0.0
        d_idx, s_idx = (ns, nd) if swapped else (nd, ns)
        vgs, vds, vbs = self._device_voltages(vd, vg, vs, vb, swapped, sign)
        _, gm, gds, gmb = self.ids(vgs, vds, vbs)
        system.add_transconductance(d_idx, s_idx, ng, s_idx, gm)
        system.add_conductance(d_idx, s_idx, gds)
        system.add_transconductance(d_idx, s_idx, nb, s_idx, gmb)
        cgs, cgd = self._gate_caps()
        system.add_susceptance(ng, ns, cgs)
        system.add_susceptance(ng, nd, cgd)

    # -- batched kernel -----------------------------------------------------

    def batch_slot(self, system, lanes) -> dict:
        if any(lane.polarity != self.polarity for lane in lanes):
            raise BatchUnsupported(f"{self.name}: mixed polarity lanes")
        caps = [lane._gate_caps() for lane in lanes]
        # Per-lane derived parameters are computed with the same scalar
        # Python arithmetic the scalar stamp uses (beta property,
        # math.sqrt(phi)), so the vectorised model evaluates every lane
        # bit-identically to Mosfet.ids.
        return {
            "idx": tuple(system.indices(self.nodes)),
            "sign": 1.0 if self.polarity == "n" else -1.0,
            "beta": np.array([lane.params.kp * lane.w / lane.l
                              for lane in lanes]),
            "vto": np.array([abs(lane.params.vto) for lane in lanes]),
            "lam": np.array([lane.params.lam for lane in lanes]),
            "gamma": np.array([lane.params.gamma for lane in lanes]),
            "phi": np.array([lane.params.phi for lane in lanes]),
            "sqrt_phi": np.array([math.sqrt(lane.params.phi)
                                  for lane in lanes]),
            "cgs": np.array([c[0] for c in caps]),
            "cgd": np.array([c[1] for c in caps]),
        }


def _ids_arrays(beta, vto, lam, gamma, phi, sqrt_phi, vgs, vds, vbs):
    """Vectorised :meth:`Mosfet.ids` over any broadcastable shape.

    The batched kernel calls this with ``(B, n_devices)`` arrays — all
    lanes of all MOSFETs in one evaluation.  Every expression mirrors
    the scalar model's operation order exactly (IEEE sqrt/mul/add are
    deterministic), so each lane's result is bit-identical to the scalar
    evaluation at the same voltages.
    """
    vsb = -vbs
    arg = phi + np.maximum(vsb, 0.0)
    sq = np.sqrt(arg)
    vth = vto + gamma * (sq - sqrt_phi)
    vov = vgs - vth
    dvth_dvsb = np.where(gamma > 0.0, 0.5 * gamma / sq, 0.0)
    clm = 1.0 + lam * vds
    triode = vds < vov
    i_tri = beta * (vov - 0.5 * vds) * vds * clm
    gm_tri = beta * vds * clm
    gds_tri = beta * (vov - vds) * clm + beta * (
        vov - 0.5 * vds) * vds * lam
    i_sat = 0.5 * beta * vov * vov * clm
    gm_sat = beta * vov * clm
    gds_sat = 0.5 * beta * vov * vov * lam
    i = np.where(triode, i_tri, i_sat)
    gm = np.where(triode, gm_tri, gm_sat)
    gds = np.where(triode, gds_tri, gds_sat)
    gmb = gm * dvth_dvsb
    off = vov <= 0.0
    return (np.where(off, 0.0, i), np.where(off, 0.0, gm),
            np.where(off, 0.0, gds), np.where(off, 0.0, gmb))
