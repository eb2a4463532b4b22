"""Modified nodal analysis system assembly.

:class:`MNASystem` is a dense real (or complex, for AC) linear system
``G x = b`` that elements stamp themselves into.  Index -1 denotes the
ground node and is silently dropped by all stamping helpers, which keeps
element code free of ground special-casing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .backend import phase_timer


class SingularSystemError(np.linalg.LinAlgError):
    """Singular MNA system, annotated with the suspect unknowns.

    Raised by :meth:`MNASystem.solve`, i.e. by
    :func:`~repro.circuit.ac.ac_analysis`, whose per-frequency solve
    has no continuation ladder to absorb it; it names the offending
    nodes/branches instead of just saying "Singular matrix".  Subclasses
    ``numpy.linalg.LinAlgError``.  DC and transient solves run on the
    lane program, where a singular lane is a Newton failure that ends
    in a :class:`~repro.circuit.dc.ConvergenceError`.
    """


@dataclass
class StampContext:
    """Analysis state passed to every element stamp.

    Attributes:
        mode: ``"dc"``, ``"tran"`` or ``"ac"``.
        time: current simulation time (seconds).
        dt: timestep for transient companion models (None in DC).
        x_prev: previous accepted solution (transient) or zeros.
        gmin: convergence conductance applied at MOSFET terminals.
        source_scale: scale factor for independent sources (source
            stepping continuation).
        method: integration method, ``"be"`` or ``"trap"``.
        cap_currents: per-capacitor branch currents from the previous
            accepted timepoint (trapezoidal integration state).
    """

    mode: str = "dc"
    time: float = 0.0
    dt: Optional[float] = None
    x_prev: Optional[np.ndarray] = None
    gmin: float = 0.0
    source_scale: float = 1.0
    method: str = "be"
    cap_currents: Dict[str, float] = field(default_factory=dict)


class MNASystem:
    """Dense MNA matrix with stamping helpers.

    Built from a :class:`repro.circuit.netlist.CompiledCircuit`.  AC
    analysis solves through it, and :meth:`assemble` (one
    :meth:`Element.stamp` per element) is the reference that the
    compiled lane program of :mod:`repro.circuit.batch` reproduces bit
    for bit.
    """

    def __init__(self, compiled, dtype=float) -> None:
        self.compiled = compiled
        self.n = compiled.size
        self.dtype = dtype
        self.G = np.zeros((self.n, self.n), dtype=dtype)
        self.b = np.zeros(self.n, dtype=dtype)
        if dtype is complex:
            self.C = np.zeros((self.n, self.n), dtype=float)
        else:
            self.C = None

    # -- index helpers -----------------------------------------------------

    def indices(self, nodes: Sequence[str]) -> List[int]:
        """Matrix indices for a list of node names (-1 for ground)."""
        return [self.compiled.index_of(n) for n in nodes]

    def branch(self, element_name: str) -> int:
        """Branch-current row for a voltage-source-like element."""
        return self.compiled.branch_index[element_name]

    @staticmethod
    def voltage(x: Optional[np.ndarray], i: int, j: int) -> float:
        """Voltage between matrix indices *i* and *j* in solution *x*."""
        if x is None:
            return 0.0
        vi = 0.0 if i < 0 else x[i]
        vj = 0.0 if j < 0 else x[j]
        return vi - vj

    # -- stamping helpers ---------------------------------------------------

    def reset(self) -> None:
        """Zero the matrix and RHS for a new assembly pass."""
        self.G[:] = 0.0
        self.b[:] = 0.0
        if self.C is not None:
            self.C[:] = 0.0

    def add_entry(self, row: int, col: int, value: float) -> None:
        """Raw matrix entry (ignored if either index is ground)."""
        if row >= 0 and col >= 0:
            self.G[row, col] += value

    def add_rhs(self, row: int, value: float) -> None:
        """Raw RHS entry (ignored for ground)."""
        if row >= 0:
            self.b[row] += value

    def add_conductance(self, i: int, j: int, g: float) -> None:
        """Two-terminal conductance between indices *i* and *j*."""
        if i >= 0:
            self.G[i, i] += g
        if j >= 0:
            self.G[j, j] += g
        if i >= 0 and j >= 0:
            self.G[i, j] -= g
            self.G[j, i] -= g

    def add_susceptance(self, i: int, j: int, c: float) -> None:
        """Two-terminal capacitance into the AC C matrix."""
        if self.C is None:
            raise RuntimeError("susceptance stamps require a complex system")
        if i >= 0:
            self.C[i, i] += c
        if j >= 0:
            self.C[j, j] += c
        if i >= 0 and j >= 0:
            self.C[i, j] -= c
            self.C[j, i] -= c

    def add_current(self, node: int, value: float) -> None:
        """Equivalent current *into* the node (companion-model source)."""
        if node >= 0:
            self.b[node] += value

    def add_transconductance(self, p: int, n: int, cp: int, cn: int,
                             g: float) -> None:
        """Current ``g * v(cp, cn)`` flowing out of *p* into *n*."""
        for row, sign_r in ((p, 1.0), (n, -1.0)):
            if row < 0:
                continue
            if cp >= 0:
                self.G[row, cp] += sign_r * g
            if cn >= 0:
                self.G[row, cn] -= sign_r * g

    # -- assembly ------------------------------------------------------------

    def assemble(self, circuit, x: Optional[np.ndarray],
                 ctx: StampContext) -> None:
        """Stamp every element for the given iterate and context."""
        with phase_timer("assemble"):
            self.reset()
            for el in circuit.elements:
                el.stamp(self, x, ctx)

    def assemble_ac(self, circuit, x_op: np.ndarray, omega: float,
                    ctx: StampContext) -> None:
        """Stamp the small-signal system at angular frequency *omega*."""
        self.reset()
        for el in circuit.elements:
            el.stamp_ac(self, x_op, ctx)
        self.G += 1j * omega * self.C

    def solve(self) -> np.ndarray:
        """Solve ``G x = b`` with one dense LAPACK ``numpy.linalg.solve``.

        Raises :class:`SingularSystemError` (a
        ``numpy.linalg.LinAlgError``) on singular systems, annotated
        with the node/branch names whose matrix rows vanished.
        """
        try:
            with phase_timer("solve"):
                return np.linalg.solve(self.G, self.b)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                self._describe_singular()) from exc

    def _describe_singular(self) -> str:
        """Human-readable diagnosis of a singular assembled matrix.

        Names the unknowns whose rows are (numerically) all zero —
        typically a floating node behind an open-circuit fault or a
        degenerate source loop — so campaign failure records point at
        circuit topology instead of at LAPACK.
        """
        names: Dict[int, str] = {
            idx: f"node {name!r}"
            for name, idx in self.compiled.node_index.items()}
        names.update(
            (idx, f"branch {name!r}")
            for name, idx in self.compiled.branch_index.items())
        msg = f"singular MNA system ({self.n} unknowns)"
        if not self.n:
            return msg
        row_peak = np.abs(self.G).max(axis=1)
        floor = float(row_peak.max()) * 1e-15
        suspects = [names.get(int(i), f"unknown {int(i)}")
                    for i in np.flatnonzero(row_peak <= floor)]
        if suspects:
            shown = ", ".join(suspects[:8])
            if len(suspects) > 8:
                shown += f", ... ({len(suspects)} total)"
            msg += f"; vanished rows: {shown}"
        return msg
