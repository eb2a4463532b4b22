"""DC operating-point and sweep analysis.

Newton-Raphson iteration with voltage-step damping, falling back to gmin
stepping and then source stepping when the plain iteration fails — the
standard SPICE continuation ladder, which matters here because fault
injection produces badly conditioned circuits (0.2-ohm shorts across
supplies, floating gates behind opens) that must still converge.  The
ladder runs on the compiled lane program
(:func:`~repro.circuit.batch.operating_point_lanes`); a single circuit
is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .netlist import Circuit, CompiledCircuit


class ConvergenceError(Exception):
    """Newton iteration failed to converge after all continuation steps."""


#: voltage-step limit of the damped Newton iteration (volts)
MAX_NEWTON_STEP = 1.0
#: convergence tolerance on the damped voltage step (volts)
NEWTON_VTOL = 1e-6
#: gmin continuation ladder tried when plain Newton fails (the final
#: step is always the caller's target gmin)
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
        BatchUnsupported: if an element type cannot be compiled.
    """
    # deferred import: batch imports this module
    from .batch import operating_point_lanes

    (result,) = operating_point_lanes([circuit], gmin=gmin, time=time,
                                      max_iter=max_iter, x0_guesses=[x0])
    if isinstance(result, ConvergenceError):
        raise result
    return result


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
