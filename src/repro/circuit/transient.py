"""Transient analysis (fixed-step backward Euler / trapezoidal).

The paper's fault simulations are clocked comparisons over a handful of
clock periods; a fixed-step implicit integrator with a Newton solve per
timepoint is robust against the stiff circuits fault injection creates
(sub-ohm shorts next to femtofarad capacitors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dc import ConvergenceError, operating_point, _newton
from .elements import Capacitor
from .mna import MNASystem, StampContext
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
            The full gmin/source stepping ladder stays as fallback, so
            this only changes where the first plain Newton starts.
        guide: optional ``(times, xs)`` reference trajectory aligned to
            this circuit's unknown ordering and recorded on the same
            ``tstop/dt/fine_windows`` schedule at ``record_every=1``.
            Each timepoint's first Newton stage is seeded with the
            previous solution plus the guide's known step increment; the
            retry stage still restarts from the previous solution, so a
            lane that drifts off the guide converges exactly as before.

    Raises:
        ConvergenceError: if a timepoint fails to converge even after
            local step halving.
    """
    if method not in ("be", "trap"):
        raise ValueError(f"unknown integration method {method!r}")
    if dt <= 0 or tstop <= 0:
        raise ValueError("dt and tstop must be positive")
    windows = sorted(fine_windows or [])
    for t0, t1, dtf in windows:
        if dtf <= 0 or t1 <= t0:
            raise ValueError(f"malformed fine window ({t0}, {t1}, {dtf})")

    compiled = circuit.compile()
    system = MNASystem(compiled)
    if x0 is None:
        op = operating_point(circuit, x0=x0_guess, time=0.0)
        x = op.x
    else:
        x = np.asarray(x0, dtype=float).copy()
        if len(x) != compiled.size:
            raise ValueError("x0 has the wrong size for this circuit")
    if guide is not None:
        guide_times, guide_xs = guide
        if guide_xs.ndim != 2 or guide_xs.shape[1] != compiled.size:
            guide = None

    caps: List[Capacitor] = [el for el in circuit.elements
                             if isinstance(el, Capacitor)]
    cap_currents: Dict[str, float] = {c.name: 0.0 for c in caps}

    times = [0.0]
    xs = [x.copy()]
    t = 0.0
    step = 0
    while t < tstop - 1e-15:
        h = min(_step_at(t, dt, windows), tstop - t)
        x_seed = None
        if guide is not None and step + 1 < len(guide_times) \
                and guide_times[step] == t \
                and guide_times[step + 1] == t + h:
            # seed with the guide's increment over this very step; the
            # schedules are deterministic, so a mismatch simply means
            # the guide no longer applies (and the seed is skipped)
            x_seed = x + (guide_xs[step + 1] - guide_xs[step])
        x_next = _solve_timepoint(circuit, system, x, t, h, method,
                                  cap_currents, x_seed=x_seed)
        if x_next is None:
            # local step halving, two levels deep
            x_half = x
            sub_t = t
            converged = True
            for _ in range(2):
                x_try = _solve_timepoint(circuit, system, x_half, sub_t,
                                         h / 2.0, method, cap_currents)
                if x_try is None:
                    converged = False
                    break
                sub_t += h / 2.0
                x_half = x_try
            if not converged:
                raise ConvergenceError(
                    f"transient failed at t={t + h:.3e} for circuit "
                    f"{circuit.title!r}")
            x_next = x_half
        if method == "trap":
            ctx = StampContext(mode="tran", time=t + h, dt=h, x_prev=x,
                               method=method, cap_currents=cap_currents)
            new_currents = {}
            for c in caps:
                new_currents[c.name] = c.charge_current(system, x_next, x,
                                                        ctx)
            cap_currents.update(new_currents)
        t += h
        x = x_next
        step += 1
        if step % record_every == 0 or t >= tstop - 1e-15:
            times.append(t)
            xs.append(x.copy())

    return TransientResult(times=np.array(times), compiled=compiled,
                           xs=np.array(xs))


#: Newton retry ladder for one implicit timepoint, as ``(gmin,
#: max_iter, damping)`` stages.  The batched kernel
#: (:mod:`repro.circuit.batch`) re-runs stalled lanes through the same
#: ladder, so scalar and batched paths must share these values for the
#: bit-identical-fallback guarantee to hold.
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


def _solve_timepoint(circuit, system, x_prev, t, h, method, cap_currents,
                     x_seed=None):
    """Newton solve for one implicit timepoint; None on failure.

    ``x_seed`` optionally replaces ``x_prev`` as the first stage's
    Newton start (warm-start guides); the retry stage always restarts
    from ``x_prev``.
    """
    ctx = StampContext(mode="tran", time=t + h, dt=h, x_prev=x_prev,
                       gmin=TIMEPOINT_STAGES[0][0], method=method,
                       cap_currents=cap_currents)
    x = _newton(circuit, system, ctx,
                x_prev if x_seed is None else x_seed,
                max_iter=TIMEPOINT_STAGES[0][1])
    if x is None:
        # retry with a stronger gmin, then without a warm start
        ctx.gmin = TIMEPOINT_STAGES[1][0]
        x = _newton(circuit, system, ctx, x_prev,
                    max_iter=TIMEPOINT_STAGES[1][1],
                    damping=TIMEPOINT_STAGES[1][2])
    return x
