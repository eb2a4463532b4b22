"""Transient analysis (fixed-step backward Euler / trapezoidal).

The paper's fault simulations are clocked comparisons over a handful of
clock periods; a fixed-step implicit integrator with a Newton solve per
timepoint is robust against the stiff circuits fault injection creates
(sub-ohm shorts next to femtofarad capacitors).  The time loop runs on
the compiled lane program (:func:`~repro.circuit.batch.transient_batch`);
a single circuit is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dc import ConvergenceError
from .netlist import Circuit


@dataclass
class TransientResult:
    """Sampled waveforms from a transient run.

    Attributes:
        times: array of timepoints (including t=0 from the initial OP).
        compiled: index map for interpreting the raw solution matrix.
        xs: solution matrix, shape (len(times), n_unknowns).
    """

    times: np.ndarray
    compiled: "object"
    xs: np.ndarray

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of a node voltage."""
        idx = self.compiled.index_of(node)
        if idx < 0:
            return np.zeros(len(self.times))
        return self.xs[:, idx]

    def current(self, source_name: str) -> np.ndarray:
        """Waveform of a voltage-source branch current (+ -> through the
        source from + to -)."""
        return self.xs[:, self.compiled.branch_index[source_name]]

    def at_time(self, node: str, time: float) -> float:
        """Node voltage at the timepoint closest to *time*."""
        k = int(np.argmin(np.abs(self.times - time)))
        return float(self.voltage(node)[k])

    def window(self, t0: float, t1: float) -> np.ndarray:
        """Boolean mask of timepoints in [t0, t1]."""
        return (self.times >= t0) & (self.times <= t1)


def supply_current(result, source_name: str):
    """Current *drawn from* a supply (positive when the supply sources).

    Works for both :class:`TransientResult` (returns an array) and
    :class:`repro.circuit.dc.DCResult` (returns a float).
    """
    i = result.current(source_name)
    return -i


def transient(circuit: Circuit, tstop: float, dt: float,
              method: str = "be", x0: Optional[np.ndarray] = None,
              record_every: int = 1,
              fine_windows: Optional[Sequence] = None,
              x0_guess: Optional[np.ndarray] = None,
              guide: Optional[tuple] = None) -> TransientResult:
    """Run a transient analysis from a DC operating point at t=0.

    Args:
        circuit: netlist to simulate.
        tstop: end time.
        dt: fixed timestep.
        method: ``"be"`` (backward Euler, default) or ``"trap"``.
        x0: optional initial solution; if None an operating point at t=0
            is computed first.
        record_every: keep every k-th timepoint (memory control).
        fine_windows: optional list of ``(t0, t1, dt_fine)`` intervals in
            which the finer step is used.  Essential for regenerative
            latches: backward Euler with a step much larger than C/gm
            numerically *stabilises* the latch's unstable mode (the BE
            amplification 1/(1 - lambda*h) has magnitude < 1 for
            lambda*h > 2), which would freeze comparators at their
            metastable point.
        x0_guess: optional warm Newton guess for the t=0 operating
            point (e.g. the good-circuit solution of a faulty variant).
            It only changes where plain Newton and gmin stepping start;
            source stepping stays cold.
        guide: optional ``(times, xs)`` reference trajectory aligned to
            this circuit's unknown ordering and recorded on the same
            ``tstop/dt/fine_windows`` schedule at ``record_every=1``.
            Each timepoint's first Newton stage is seeded with the
            previous solution plus the guide's known step increment; the
            retry stage still restarts from the previous solution, so a
            lane that drifts off the guide converges exactly as before.

    Raises:
        ConvergenceError: if the operating point or a timepoint fails
            to converge even after local step halving.
        BatchUnsupported: if an element type cannot be compiled.
    """
    # deferred import: batch imports this module
    from .batch import _stack_guesses, transient_batch

    size = circuit.compile().size
    if guide is not None:
        guide_times, guide_xs = guide
        guide = (guide_times, guide_xs[None]) \
            if guide_xs.ndim == 2 and guide_xs.shape[1] == size else None
    (result,) = transient_batch(
        [circuit], tstop=tstop, dt=dt, method=method,
        x0s=None if x0 is None else np.asarray(x0, dtype=float)[None],
        record_every=record_every, fine_windows=fine_windows,
        op_x0=_stack_guesses([x0_guess], size), guide=guide)
    if isinstance(result, ConvergenceError):
        raise result
    return result


#: Newton retry ladder for one implicit timepoint, as ``(gmin,
#: max_iter, damping)`` stages: the first starts from the warm-start
#: seed (else the previous solution), the retry from the previous
#: solution with a stronger gmin and damping.
TIMEPOINT_STAGES = ((1e-12, 80, 1.0), (1e-9, 120, 0.7))


def _step_at(t: float, dt: float, windows) -> float:
    """Timestep at time *t*: the finest window covering t, else *dt*.

    If t is just before a window start, the step is clipped so the next
    timepoint lands on the window boundary.
    """
    h = dt
    for t0, t1, dtf in windows:
        if t0 <= t < t1:
            h = min(h, dtf)
        elif t < t0:
            h = min(h, t0 - t)
            break
    return h
