"""DC operating-point and sweep analysis.

Newton-Raphson iteration with voltage-step damping, falling back to gmin
stepping and then source stepping when the plain iteration fails — the
standard SPICE continuation ladder, which matters here because fault
injection produces badly conditioned circuits (0.2-ohm shorts across
supplies, floating gates behind opens) that must still converge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .mna import MNASystem, StampContext
from .netlist import Circuit, CompiledCircuit


class ConvergenceError(Exception):
    """Newton iteration failed to converge after all continuation steps."""


#: voltage-step limit of the damped Newton iteration (volts).  The
#: batched kernel (:mod:`repro.circuit.batch`) replicates the scalar
#: iteration lane by lane, so both must read the same constants.
MAX_NEWTON_STEP = 1.0
#: convergence tolerance on the damped voltage step (volts)
NEWTON_VTOL = 1e-6
#: gmin continuation ladder tried when plain Newton fails (the final
#: step is always the caller's target gmin).  Shared with the batched
#: kernel's :func:`~repro.circuit.batch.operating_point_lanes`.
GMIN_LADDER = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10)
#: number of source-stepping continuation points (0.05 .. 1.0)
SOURCE_STEPS = 20
#: relaxed gmin ladder tried at each source step (plus the target gmin)
SOURCE_GMIN_LADDER = (1e-4, 1e-8)


@dataclass
class DCResult:
    """Solved DC operating point.

    Attributes:
        x: raw solution vector.
        compiled: index map used to interpret *x*.
    """

    x: np.ndarray
    compiled: CompiledCircuit

    def voltage(self, node: str) -> float:
        """Node voltage (0.0 for ground)."""
        idx = self.compiled.index_of(node)
        return 0.0 if idx < 0 else float(self.x[idx])

    def current(self, source_name: str) -> float:
        """Branch current of a voltage source (positive -> flows from the
        + terminal through the source to the - terminal)."""
        return float(self.x[self.compiled.branch_index[source_name]])

    def voltages(self) -> Dict[str, float]:
        """All node voltages by name."""
        return {node: float(self.x[idx])
                for node, idx in self.compiled.node_index.items()}


def _newton(circuit: Circuit, system: MNASystem, ctx: StampContext,
            x0: np.ndarray, max_iter: int = 120, vtol: float = NEWTON_VTOL,
            damping: float = 1.0) -> Optional[np.ndarray]:
    """One Newton-Raphson run; returns the solution or None."""
    x = x0.copy()
    for _ in range(max_iter):
        system.assemble(circuit, x, ctx)
        try:
            x_new = system.solve()
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x_new)):
            return None
        delta = x_new - x
        # Voltage-step limiting keeps exponential/square-law devices from
        # overshooting into non-physical regions.
        max_step = MAX_NEWTON_STEP
        scale = damping
        biggest = np.max(np.abs(delta)) if delta.size else 0.0
        if biggest > max_step:
            scale = min(scale, max_step / biggest)
        x = x + scale * delta
        if biggest * scale < vtol:
            return x
    return None


def operating_point(circuit: Circuit, x0: Optional[np.ndarray] = None,
                    gmin: float = 1e-12, time: float = 0.0,
                    max_iter: int = 120) -> DCResult:
    """Solve the DC operating point of *circuit*.

    Tries plain Newton first, then gmin stepping, then source stepping.

    Args:
        circuit: the netlist to solve.
        x0: optional initial guess (e.g. the previous timepoint).
        gmin: final gmin value left in the circuit.
        time: time at which time-varying sources are evaluated.

    Raises:
        ConvergenceError: when every strategy fails.
    """
    compiled = circuit.compile()
    system = MNASystem(compiled)
    if x0 is None or len(x0) != compiled.size:
        x0 = np.zeros(compiled.size)

    # 1. plain Newton
    ctx = StampContext(mode="dc", time=time, gmin=gmin)
    x = _newton(circuit, system, ctx, x0, max_iter=max_iter)
    if x is not None:
        return DCResult(x=x, compiled=compiled)

    # 2. gmin stepping
    x_cont = x0.copy()
    ok = True
    for g in GMIN_LADDER + (gmin,):
        ctx = StampContext(mode="dc", time=time, gmin=g)
        x_next = _newton(circuit, system, ctx, x_cont, max_iter=max_iter)
        if x_next is None:
            ok = False
            break
        x_cont = x_next
    if ok:
        return DCResult(x=x_cont, compiled=compiled)

    # 3. source stepping (with a relaxed gmin ladder at each step)
    x_cont = np.zeros(compiled.size)
    for scale in np.linspace(0.05, 1.0, SOURCE_STEPS):
        solved = None
        for g in SOURCE_GMIN_LADDER + (gmin,):
            ctx = StampContext(mode="dc", time=time, gmin=g,
                               source_scale=float(scale))
            attempt = _newton(circuit, system, ctx, x_cont,
                              max_iter=max_iter, damping=0.7)
            if attempt is not None:
                solved = attempt
        if solved is None:
            raise ConvergenceError(
                f"source stepping failed at scale={scale:.2f} "
                f"for circuit {circuit.title!r}")
        x_cont = solved
    return DCResult(x=x_cont, compiled=compiled)


def dc_sweep(circuit: Circuit, source_name: str, values,
             gmin: float = 1e-12):
    """Sweep the value of a voltage/current source and solve at each point.

    Returns:
        List of :class:`DCResult`, one per sweep value, each solved with
        the previous solution as the initial guess.
    """
    results = []
    source = circuit.element(source_name)
    original = source.value
    x_prev: Optional[np.ndarray] = None
    try:
        for v in values:
            source.value = float(v)
            res = operating_point(circuit, x0=x_prev, gmin=gmin)
            results.append(res)
            x_prev = res.x
    finally:
        source.value = original
    return results
