"""The scalar Newton ladder, kept as the lane program's oracle.

This is the one-circuit DC and transient solver that ran in production
before every solve moved onto the compiled lane program
(:mod:`repro.circuit.batch`), kept verbatim apart from its imports.  It
stamps through :meth:`Element.stamp` and :meth:`MNASystem.assemble` and
solves one dense system per Newton iterate, so it shares no code with
the kernel beyond the device equations and the ladder constants.  The
kernel tests require every lane to match it byte for byte, failures
included.
"""

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuit.dc import (ConvergenceError, DCResult, GMIN_LADDER,
                              MAX_NEWTON_STEP, NEWTON_VTOL,
                              SOURCE_GMIN_LADDER, SOURCE_STEPS)
from repro.circuit.elements import Capacitor
from repro.circuit.mna import MNASystem, StampContext
from repro.circuit.netlist import Circuit
from repro.circuit.transient import (TIMEPOINT_STAGES, TransientResult,
                                     _step_at)


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
