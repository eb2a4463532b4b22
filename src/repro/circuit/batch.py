"""Batched MNA transient kernel.

Fault simulation runs the *same* circuit topology many times with
different source values and device parameters: above/below input probes,
reduced process corners, fault-model variants.  This module stacks B such
lanes into one ``(B, n, n)`` system and solves the whole stack with one
``numpy.linalg.solve`` call per Newton iteration (LAPACK runs the same
``dgesv`` per slice as the scalar path, so per-lane solutions are
bit-identical).

Assembly is a *compiled contribution program*: at batch setup the element
list is flattened — in element insertion order, contribution by
contribution — into index/value buffers covering every matrix and RHS
entry any element would stamp.  Each Newton iteration then

1. refreshes the dynamic segments with array math vectorised across
   *both* lanes and devices (all MOSFETs evaluate their square-law model
   in one ``(B, n_devices)`` call), and
2. scatters each lane's contribution list with one ``numpy.bincount``
   (which accumulates duplicate indices strictly in order).

Because the contribution order equals the scalar stamp order and
``bincount`` sums sequentially from +0.0, every matrix entry is the very
same floating-point sum the scalar assembly computes — batched results
are bit-identical, at a fraction of the per-element call overhead that a
naive "stamp each element with (B,) arrays" approach pays.

Per-lane convergence masking: lanes that converge are frozen, lanes that
fail a Newton stage retry through the scalar path's exact gmin/damping
ladder, and lanes that fail a timepoint retry it with two halved steps —
all without stalling the remaining lanes.  A lane that still fails is
reported as a :class:`~repro.circuit.dc.ConvergenceError`; callers
(see :func:`transient_lanes`) re-run such lanes through the scalar
:func:`~repro.circuit.transient.transient`, which guarantees the overall
results are bit-identical to an all-scalar run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .backend import (SparsePattern, phase_timer, record_matrix,
                      resolve_solver)
from .dc import (ConvergenceError, DCResult, GMIN_LADDER, MAX_NEWTON_STEP,
                 NEWTON_VTOL, SOURCE_GMIN_LADDER, SOURCE_STEPS,
                 operating_point)
from .elements import (BatchUnsupported, Capacitor, CurrentSource, Diode,
                       Resistor, Switch, VCCS, VCVS, VoltageSource)
from .mna import StampContext
from .mosfet import Mosfet, _ids_arrays
from .netlist import Circuit
from .transient import TIMEPOINT_STAGES, TransientResult, _step_at

__all__ = ["BatchUnsupported", "BatchedMNASystem", "LaneResult",
           "SparseBatchedMNASystem", "clear_kernel_cache",
           "operating_point_lanes", "structure_signature",
           "transient_batch", "transient_lanes"]

#: what one lane of a batched run yields: waveforms, or the error that
#: lane would have raised
LaneResult = Union[TransientResult, ConvergenceError]


def structure_signature(circuit: Circuit) -> tuple:
    """Hashable topology fingerprint of a circuit.

    Two circuits with equal signatures compile to the same unknown
    ordering and stamp the same matrix slots, so they can share a batch
    (their element *values* may differ freely).
    """
    return tuple(
        (type(el).__name__, el.name, tuple(el.nodes), el.branches,
         getattr(el, "polarity", None))
        for el in circuit.elements)


class BatchedMNASystem:
    """Dense ``(B, n, n)`` MNA stack of one lane group.

    The compiled contribution program (:class:`_BatchProgram`) writes
    ``G``/``b`` directly; the system owns the buffers, the stacked
    solve and the index helpers the elements' ``batch_slot`` reads.
    """

    #: which linear backend this system solves through
    kind = "dense"

    def __init__(self, compiled, nlanes: int) -> None:
        self.compiled = compiled
        self.n = compiled.size
        self.nlanes = nlanes
        self.G = np.zeros((nlanes, self.n, self.n))
        self.b = np.zeros((nlanes, self.n))
        self._eye: Optional[np.ndarray] = None

    def solve_stack(self, program, active: np.ndarray):
        """Solve the active lanes; ``(X_new, ok)`` like ``_solve_stack``.

        ``program`` is unused on the dense path (assembly already wrote
        ``self.G``/``self.b``); the sparse system needs it for the
        pattern-order data.  The identity used to neutralise inactive
        lanes is cached — it is only materialised once some lane has
        converged or died, so a single-lane solve never allocates it.
        """
        if self._eye is None and not active.all():
            self._eye = np.eye(self.n)
        with phase_timer("solve"):
            return _solve_stack(self.G, self.b, active, self._eye)

    # -- index helpers -----------------------------------------------------

    def indices(self, nodes: Sequence[str]) -> List[int]:
        return [self.compiled.index_of(n) for n in nodes]

    def branch(self, element_name: str) -> int:
        return self.compiled.branch_index[element_name]

    def voltage(self, X: Optional[np.ndarray], i: int, j: int):
        """Per-lane voltage between matrix indices *i* and *j*."""
        if X is None or (i < 0 and j < 0):
            return np.zeros(self.nlanes)
        vi = X[:, i] if i >= 0 else 0.0
        vj = X[:, j] if j >= 0 else 0.0
        return vi - vj


class SparseBatchedMNASystem(BatchedMNASystem):
    """Sparse counterpart of :class:`BatchedMNASystem`.

    Holds no dense ``(B, n, n)`` stack — at full-chip size one lane's
    dense matrix alone is hundreds of megabytes.  The compiled program
    scatters each lane's contributions onto its fixed
    :class:`~repro.circuit.backend.SparsePattern` (stored on the
    program, since transient and DC programs of one batch have
    different patterns) and :meth:`solve_stack` factors each active
    lane with SuperLU, falling back to a dense per-lane solve exactly
    like ``_solve_stack`` when a factorisation is singular or
    ill-conditioned.

    The index helpers (``indices``/``branch``/``voltage``) are
    inherited.
    """

    kind = "sparse"

    def __init__(self, compiled, nlanes: int) -> None:
        self.compiled = compiled
        self.n = compiled.size
        self.nlanes = nlanes
        self.b = np.zeros((nlanes, self.n))
        self._eye = None

    def solve_stack(self, program, active: np.ndarray):
        pattern = program.pattern
        data = program.data
        X_new = np.zeros_like(self.b)
        ok = np.zeros(self.nlanes, dtype=bool)
        for k in np.flatnonzero(active):
            x, good = pattern.solve_lane(data[k], self.b[k])
            if not good:
                # per-lane dense fallback: same contract as
                # _solve_stack's LinAlgError retry loop
                try:
                    with phase_timer("solve"):
                        x = np.linalg.solve(pattern.densify(data[k]),
                                            self.b[k])
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(x)):
                    continue
            X_new[k] = x
            ok[k] = True
        return X_new, ok


# -- compiled contribution program -------------------------------------------


class _NodeGather:
    """Vectorised ``X[:, idx]`` lookup with ground indices reading 0.0."""

    def __init__(self, idx) -> None:
        self.idx = np.asarray(idx, dtype=np.intp)
        self.clipped = np.where(self.idx < 0, 0, self.idx)
        self.ground = self.idx < 0
        self.any_ground = bool(self.ground.any())

    def __call__(self, X: np.ndarray) -> np.ndarray:
        v = X[:, self.clipped]
        if self.any_ground:
            v = np.where(self.ground, 0.0, v)
        return v


def _cols(starts: np.ndarray, lo: int, hi: int):
    """Device-major buffer columns ``[start+lo, start+hi)`` per device.

    Returns a slice when the result is one contiguous run (the common
    case: elements of one type appear consecutively in the netlist),
    which makes the per-iteration buffer writes plain memcpys.
    """
    cols = (starts[:, None] + np.arange(lo, hi)[None, :]).ravel()
    if len(cols) and np.array_equal(cols,
                                    np.arange(cols[0], cols[0] + len(cols))):
        return slice(int(cols[0]), int(cols[0] + len(cols)))
    return cols


class _ProgramBuilder:
    """Accumulates the flat contribution list during program build.

    ``g``/``b`` contributions are appended strictly in scalar stamp
    order.  Ground-guarded entries either drop out entirely (static
    values) or redirect to a dump slot past the end of the matrix
    (dynamic segments must stay rectangular per device).
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.dump_g = n * n
        self.dump_b = n
        self.g_idx: List[int] = []
        self.g_val: List[object] = []  # float | (B,) array | None=dynamic
        self.b_idx: List[int] = []
        self.b_val: List[object] = []

    # matrix contributions

    def static_g(self, row: int, col: int, value) -> None:
        """Static index and value; dropped entirely on a ground index."""
        if row < 0 or col < 0:
            return
        self.g_idx.append(row * self.n + col)
        self.g_val.append(value)

    def fixed_g(self, row: int, col: int) -> int:
        """Static index, per-iteration value; ground redirects to dump."""
        pos = len(self.g_idx)
        if row >= 0 and col >= 0:
            self.g_idx.append(row * self.n + col)
        else:
            self.g_idx.append(self.dump_g)
        self.g_val.append(None)
        return pos

    def dyn_g(self, count: int) -> int:
        """Per-iteration index *and* value (MOSFET source/drain swap)."""
        start = len(self.g_idx)
        self.g_idx.extend([self.dump_g] * count)
        self.g_val.extend([None] * count)
        return start

    # RHS contributions

    def static_b(self, row: int, value) -> None:
        if row < 0:
            return
        self.b_idx.append(row)
        self.b_val.append(value)

    def fixed_b(self, row: int) -> int:
        pos = len(self.b_idx)
        self.b_idx.append(row if row >= 0 else self.dump_b)
        self.b_val.append(None)
        return pos

    def dyn_b(self, count: int) -> int:
        start = len(self.b_idx)
        self.b_idx.extend([self.dump_b] * count)
        self.b_val.extend([None] * count)
        return start


class _VoltageSourceGroup:
    """RHS values for all voltage sources; the ±1 pattern is static."""

    def __init__(self) -> None:
        self.evals = []
        self.b_starts: List[int] = []

    def add(self, slot, builder: _ProgramBuilder) -> None:
        p, n = slot["pn"]
        br = slot["br"]
        builder.static_g(p, br, 1.0)
        builder.static_g(n, br, -1.0)
        builder.static_g(br, p, 1.0)
        builder.static_g(br, n, -1.0)
        self.b_starts.append(builder.fixed_b(br))
        self.evals.append(slot["values"])

    def finalize(self, nlanes: int) -> None:
        starts = np.asarray(self.b_starts, dtype=np.intp)
        self.cols_b = _cols(starts, 0, 1)

    def refresh(self, prog, X, ctx) -> None:
        vals = np.stack([ev(ctx.time) for ev in self.evals], axis=1)
        prog.VB[:, self.cols_b] = vals * ctx.source_scale


class _CurrentSourceGroup:
    """RHS-only stamps ``(p, -i), (n, +i)`` for current sources."""

    def __init__(self) -> None:
        self.evals = []
        self.b_starts: List[int] = []

    def add(self, slot, builder: _ProgramBuilder) -> None:
        p, n = slot["pn"]
        self.b_starts.append(builder.fixed_b(p))
        builder.fixed_b(n)
        self.evals.append(slot["values"])

    def finalize(self, nlanes: int) -> None:
        starts = np.asarray(self.b_starts, dtype=np.intp)
        self.cols_b = _cols(starts, 0, 2)
        self._buf = np.empty((nlanes, len(self.evals), 2))

    def refresh(self, prog, X, ctx) -> None:
        vals = np.stack([ev(ctx.time) for ev in self.evals], axis=1)
        i = vals * ctx.source_scale
        V = self._buf
        V[..., 0] = -i
        V[..., 1] = i
        prog.VB[:, self.cols_b] = V.reshape(len(V), -1)


class _CapacitorGroup:
    """Companion-model values for all capacitors (transient only)."""

    def __init__(self) -> None:
        self.slots = []
        self.names: List[str] = []
        self.g_starts: List[int] = []
        self.b_starts: List[int] = []

    def add(self, el, slot, builder: _ProgramBuilder) -> None:
        i, j = slot["ij"]
        self.g_starts.append(builder.fixed_g(i, i))
        builder.fixed_g(j, j)
        builder.fixed_g(i, j)
        builder.fixed_g(j, i)
        self.b_starts.append(builder.fixed_b(i))
        builder.fixed_b(j)
        self.slots.append(slot)
        self.names.append(el.name)

    def finalize(self, nlanes: int) -> None:
        self.nlanes = nlanes
        self.c = np.stack([s["c"] for s in self.slots], axis=1)
        self.gi = _NodeGather([s["ij"][0] for s in self.slots])
        self.gj = _NodeGather([s["ij"][1] for s in self.slots])
        gs = np.asarray(self.g_starts, dtype=np.intp)
        bs = np.asarray(self.b_starts, dtype=np.intp)
        self.cols_g = _cols(gs, 0, 4)
        self.cols_b = _cols(bs, 0, 2)
        ndev = len(self.slots)
        self._vg = np.empty((nlanes, ndev, 4))
        self._vb = np.empty((nlanes, ndev, 2))

    def refresh(self, prog, X, ctx) -> None:
        geq = self.c / ctx.dt
        v_prev = self.gi(ctx.x_prev) - self.gj(ctx.x_prev)
        if ctx.method == "trap":
            geq = geq * 2.0
            rows = []
            for name in self.names:
                cur = ctx.cap_currents.get(name, 0.0)
                if not isinstance(cur, np.ndarray):
                    cur = np.full(self.nlanes, float(cur))
                rows.append(cur)
            i_prev = np.stack(rows, axis=1)
            ieq = geq * v_prev + i_prev
        else:
            ieq = geq * v_prev
        V = self._vg
        ngeq = -geq
        V[..., 0] = geq
        V[..., 1] = geq
        V[..., 2] = ngeq
        V[..., 3] = ngeq
        prog.VG[:, self.cols_g] = V.reshape(len(V), -1)
        Vb = self._vb
        Vb[..., 0] = ieq
        Vb[..., 1] = -ieq
        prog.VB[:, self.cols_b] = Vb.reshape(len(Vb), -1)


def _conductance_block(builder: _ProgramBuilder, i: int, j: int) -> int:
    """Reserve the four ``add_conductance(i, j, g)`` slots; returns start."""
    start = builder.fixed_g(i, i)
    builder.fixed_g(j, j)
    builder.fixed_g(i, j)
    builder.fixed_g(j, i)
    return start


class _SwitchGroup:
    """Per-lane logistic conductances (scalar ``math.exp`` for parity)."""

    def __init__(self) -> None:
        self.lanes = []
        self.ctrl: List[int] = []
        self.g_starts: List[int] = []

    def add(self, slot, builder: _ProgramBuilder) -> None:
        i, j, c = slot["idx"]
        self.g_starts.append(_conductance_block(builder, i, j))
        self.ctrl.append(c)
        self.lanes.append(slot["lanes"])

    def finalize(self, nlanes: int) -> None:
        self.nlanes = nlanes
        self.gc = _NodeGather(self.ctrl)
        gs = np.asarray(self.g_starts, dtype=np.intp)
        self.cols_g = _cols(gs, 0, 4)
        self._vg = np.empty((nlanes, len(self.lanes), 4))

    def refresh(self, prog, X, ctx) -> None:
        vc = self.gc(X)
        g = np.empty((self.nlanes, len(self.lanes)))
        for d, lanes in enumerate(self.lanes):
            for k, lane in enumerate(lanes):
                g[k, d] = lane.conductance(float(vc[k, d]))
        V = self._vg
        ng = -g
        V[..., 0] = g
        V[..., 1] = g
        V[..., 2] = ng
        V[..., 3] = ng
        prog.VG[:, self.cols_g] = V.reshape(len(V), -1)


class _DiodeGroup:
    """Per-lane exponential I/V (scalar ``math.exp`` for parity)."""

    def __init__(self) -> None:
        self.lanes = []
        self.g_starts: List[int] = []
        self.b_starts: List[int] = []
        self.anodes: List[int] = []
        self.cathodes: List[int] = []

    def add(self, slot, builder: _ProgramBuilder) -> None:
        a, c = slot["ac"]
        self.g_starts.append(_conductance_block(builder, a, c))
        self.b_starts.append(builder.fixed_b(a))
        builder.fixed_b(c)
        self.anodes.append(a)
        self.cathodes.append(c)
        self.lanes.append(slot["lanes"])

    def finalize(self, nlanes: int) -> None:
        self.nlanes = nlanes
        self.ga = _NodeGather(self.anodes)
        self.gc = _NodeGather(self.cathodes)
        gs = np.asarray(self.g_starts, dtype=np.intp)
        bs = np.asarray(self.b_starts, dtype=np.intp)
        self.cols_g = _cols(gs, 0, 4)
        self.cols_b = _cols(bs, 0, 2)
        ndev = len(self.lanes)
        self._vg = np.empty((nlanes, ndev, 4))
        self._vb = np.empty((nlanes, ndev, 2))

    def refresh(self, prog, X, ctx) -> None:
        vd = self.ga(X) - self.gc(X)
        ndev = len(self.lanes)
        i = np.empty((self.nlanes, ndev))
        g = np.empty((self.nlanes, ndev))
        for d, lanes in enumerate(self.lanes):
            for k, lane in enumerate(lanes):
                i[k, d], g[k, d] = lane._iv(float(vd[k, d]))
        ieq = i - g * vd
        V = self._vg
        ng = -g
        V[..., 0] = g
        V[..., 1] = g
        V[..., 2] = ng
        V[..., 3] = ng
        prog.VG[:, self.cols_g] = V.reshape(len(V), -1)
        Vb = self._vb
        Vb[..., 0] = -ieq
        Vb[..., 1] = ieq
        prog.VB[:, self.cols_b] = Vb.reshape(len(Vb), -1)


#: contribution slots per MOSFET whose matrix position depends on the
#: per-lane source/drain swap: gm (4), gds (4), gmb (4) — see
#: :meth:`Mosfet.stamp` for the scalar order they mirror
_MOS_DYN_G = 12


class _MosfetGroup:
    """All MOSFETs of a batch evaluated as one ``(B, D)`` array model."""

    def __init__(self, tran: bool) -> None:
        self.tran = tran
        self.slots = []
        self.g_starts: List[int] = []
        self.b_starts: List[int] = []

    def add(self, slot, builder: _ProgramBuilder) -> None:
        nd, ng, ns, nb = slot["idx"]
        self.g_starts.append(builder.dyn_g(_MOS_DYN_G))
        # gmin at drain and source: add_conductance(nd, -1, gmin) stamps
        # the diagonal only
        builder.fixed_g(nd, nd)
        builder.fixed_g(ns, ns)
        if self.tran:
            # gate caps: add_conductance(ng, ns, geq) then (ng, nd, geq)
            for other in (ns, nd):
                builder.fixed_g(ng, ng)
                builder.fixed_g(other, other)
                builder.fixed_g(ng, other)
                builder.fixed_g(other, ng)
        self.b_starts.append(builder.dyn_b(2))
        if self.tran:
            builder.fixed_b(ng)
            builder.fixed_b(ns)
            builder.fixed_b(ng)
            builder.fixed_b(nd)
        self.slots.append(slot)

    def finalize(self, nlanes: int) -> None:
        self.nlanes = nlanes
        slots = self.slots
        ndev = len(slots)
        stack = lambda key: np.stack([s[key] for s in slots], axis=1)
        self.beta = stack("beta")
        self.vto = stack("vto")
        self.lam = stack("lam")
        self.gamma = stack("gamma")
        self.phi = stack("phi")
        self.sqrt_phi = stack("sqrt_phi")
        self.cgs = stack("cgs")
        self.cgd = stack("cgd")
        self.sign = np.array([s["sign"] for s in slots])
        nd = [s["idx"][0] for s in slots]
        ng = [s["idx"][1] for s in slots]
        ns = [s["idx"][2] for s in slots]
        nb = [s["idx"][3] for s in slots]
        self.g_d = _NodeGather(nd)
        self.g_g = _NodeGather(ng)
        self.g_s = _NodeGather(ns)
        self.g_b = _NodeGather(nb)

        # Flat matrix indices of the swap-dependent contributions, for
        # the normal (d=drain) and swapped (d=source) orientations, in
        # the scalar stamp's exact order:
        #   add_transconductance(d, s, ng, s, gm)  -> (d,ng)(d,s)(s,ng)(s,s)
        #   add_conductance(d, s, gds)             -> (d,d)(s,s)(d,s)(s,d)
        #   add_transconductance(d, s, nb, s, gmb) -> (d,nb)(d,s)(s,nb)(s,s)
        def pairs(d, s, g, b):
            return [(d, g), (d, s), (s, g), (s, s),
                    (d, d), (s, s), (d, s), (s, d),
                    (d, b), (d, s), (s, b), (s, s)]

        self.FN = np.empty((ndev, _MOS_DYN_G), dtype=np.intp)
        self.FS = np.empty((ndev, _MOS_DYN_G), dtype=np.intp)
        self.FNb = np.empty((ndev, 2), dtype=np.intp)
        self.FSb = np.empty((ndev, 2), dtype=np.intp)
        #: pattern-position twins of FN/FS (sparse programs only)
        self.PN: Optional[np.ndarray] = None
        self.PS: Optional[np.ndarray] = None
        self._ndev = ndev
        self._pairs = pairs
        gs = np.asarray(self.g_starts, dtype=np.intp)
        bs = np.asarray(self.b_starts, dtype=np.intp)
        self.cols_dyn = _cols(gs, 0, _MOS_DYN_G)
        self.cols_gmin = _cols(gs, _MOS_DYN_G, _MOS_DYN_G + 2)
        if self.tran:
            self.cols_cap = _cols(gs, _MOS_DYN_G + 2, _MOS_DYN_G + 10)
            self.cols_capb = _cols(bs, 2, 6)
        self.cols_ieq = _cols(bs, 0, 2)
        self._vg = np.empty((nlanes, ndev, _MOS_DYN_G))
        self._vb = np.empty((nlanes, ndev, 2))
        if self.tran:
            self._vgc = np.empty((nlanes, ndev, 8))
            self._vbc = np.empty((nlanes, ndev, 4))

    def bind(self, n: int, dump_g: int, dump_b: int) -> None:
        """Resolve the flat normal/swapped index tables for matrix size."""
        def flat(row, col):
            return row * n + col if (row >= 0 and col >= 0) else dump_g

        for dev, slot in enumerate(self.slots):
            nd, ng, ns, nb = slot["idx"]
            self.FN[dev] = [flat(r, c) for r, c in
                            self._pairs(nd, ns, ng, nb)]
            self.FS[dev] = [flat(r, c) for r, c in
                            self._pairs(ns, nd, ng, nb)]
            self.FNb[dev] = [nd if nd >= 0 else dump_b,
                             ns if ns >= 0 else dump_b]
            self.FSb[dev] = [ns if ns >= 0 else dump_b,
                             nd if nd >= 0 else dump_b]

    def bind_pattern(self, pattern) -> None:
        """Precompute the pattern positions of both swap orientations.

        Lets :meth:`refresh` keep the program's position table current
        with the same ``np.where`` that rewrites the slot indices — no
        per-iterate ``searchsorted`` on the sparse path.
        """
        self.PN = pattern.positions(self.FN)
        self.PS = pattern.positions(self.FS)

    def refresh(self, prog, X, ctx) -> None:
        vd = self.g_d(X)
        vg = self.g_g(X)
        vs = self.g_s(X)
        vb = self.g_b(X)
        sign = self.sign
        swapped = sign * (vd - vs) < 0.0
        vdx = np.where(swapped, vs, vd)
        vsx = np.where(swapped, vd, vs)
        vgs = sign * (vg - vsx)
        vds = sign * (vdx - vsx)
        vbs = sign * (vb - vsx)
        i, gm, gds, gmb = _ids_arrays(self.beta, self.vto, self.lam,
                                      self.gamma, self.phi, self.sqrt_phi,
                                      vgs, vds, vbs)
        ieq = i - gm * vgs - gds * vds - gmb * vbs
        ieq_ext = sign * ieq

        V = self._vg
        ngm = -gm
        ngds = -gds
        ngmb = -gmb
        V[..., 0] = gm
        V[..., 1] = ngm
        V[..., 2] = ngm
        V[..., 3] = gm
        V[..., 4] = gds
        V[..., 5] = gds
        V[..., 6] = ngds
        V[..., 7] = ngds
        V[..., 8] = gmb
        V[..., 9] = ngmb
        V[..., 10] = ngmb
        V[..., 11] = gmb
        B = len(V)
        prog.VG[:, self.cols_dyn] = V.reshape(B, -1)
        choose = swapped[..., None]
        prog.IG[:, self.cols_dyn] = np.where(
            choose, self.FS, self.FN).reshape(B, -1)
        if prog.POS is not None:
            prog.POS[:, self.cols_dyn] = np.where(
                choose, self.PS, self.PN).reshape(B, -1)
        prog.VG[:, self.cols_gmin] = ctx.gmin

        Vb = self._vb
        Vb[..., 0] = -ieq_ext
        Vb[..., 1] = ieq_ext
        prog.VB[:, self.cols_ieq] = Vb.reshape(B, -1)
        prog.IB[:, self.cols_ieq] = np.where(
            swapped[..., None], self.FSb, self.FNb).reshape(B, -1)

        if self.tran:
            x_prev = ctx.x_prev
            vpg = self.g_g(x_prev)
            geq_gs = self.cgs / ctx.dt
            geq_gd = self.cgd / ctx.dt
            vp_gs = vpg - self.g_s(x_prev)
            vp_gd = vpg - self.g_d(x_prev)
            ieq_gs = geq_gs * vp_gs
            ieq_gd = geq_gd * vp_gd
            Vc = self._vgc
            ngs = -geq_gs
            ngd = -geq_gd
            Vc[..., 0] = geq_gs
            Vc[..., 1] = geq_gs
            Vc[..., 2] = ngs
            Vc[..., 3] = ngs
            Vc[..., 4] = geq_gd
            Vc[..., 5] = geq_gd
            Vc[..., 6] = ngd
            Vc[..., 7] = ngd
            prog.VG[:, self.cols_cap] = Vc.reshape(B, -1)
            Vbc = self._vbc
            Vbc[..., 0] = ieq_gs
            Vbc[..., 1] = -ieq_gs
            Vbc[..., 2] = ieq_gd
            Vbc[..., 3] = -ieq_gd
            prog.VB[:, self.cols_capb] = Vbc.reshape(B, -1)


class _BatchProgram:
    """Compiled contribution program for one lane group.

    Built once per batch (per analysis mode); :meth:`assemble` replaces
    the per-element stamping loop with a handful of vectorised group
    refreshes and one ordered ``bincount`` scatter per lane.
    """

    def __init__(self, circuits: Sequence[Circuit],
                 system: BatchedMNASystem, tran: bool) -> None:
        per_lane = [list(c.elements) for c in circuits]
        nlanes = len(circuits)
        n = system.n
        builder = _ProgramBuilder(n)
        groups: Dict[type, object] = {}
        self.slots = []

        def group(cls, factory):
            grp = groups.get(cls)
            if grp is None:
                grp = groups[cls] = factory()
            return grp

        for pos, el in enumerate(per_lane[0]):
            lanes = [elements[pos] for elements in per_lane]
            slot = el.batch_slot(system, lanes)
            self.slots.append((el, slot))
            t = type(el)
            if t is Resistor:
                i, j = slot["ij"]
                g = slot["g"]
                builder.static_g(i, i, g)
                builder.static_g(j, j, g)
                builder.static_g(i, j, -g)
                builder.static_g(j, i, -g)
            elif t is Capacitor:
                if tran:
                    group(Capacitor, _CapacitorGroup).add(el, slot, builder)
            elif t is VoltageSource:
                group(VoltageSource, _VoltageSourceGroup).add(slot, builder)
            elif t is CurrentSource:
                group(CurrentSource, _CurrentSourceGroup).add(slot, builder)
            elif t is VCCS:
                p, q, cp, cn = slot["idx"]
                g = slot["gm"]
                builder.static_g(p, cp, g)
                builder.static_g(p, cn, -g)
                builder.static_g(q, cp, -g)
                builder.static_g(q, cn, g)
            elif t is VCVS:
                p, q, cp, cn = slot["idx"]
                br = slot["br"]
                gain = slot["gain"]
                builder.static_g(p, br, 1.0)
                builder.static_g(q, br, -1.0)
                builder.static_g(br, p, 1.0)
                builder.static_g(br, q, -1.0)
                builder.static_g(br, cp, -gain)
                builder.static_g(br, cn, gain)
            elif t is Switch:
                group(Switch, _SwitchGroup).add(slot, builder)
            elif t is Diode:
                group(Diode, _DiodeGroup).add(slot, builder)
            elif t is Mosfet:
                group(Mosfet, lambda: _MosfetGroup(tran)).add(slot, builder)
            else:
                # exact-type dispatch: a subclass may override stamp(),
                # which the program cannot know about
                raise BatchUnsupported(t.__name__)

        self.nlanes = nlanes
        self.n = n
        self.NN = n * n
        self.groups = list(groups.values())
        for grp in self.groups:
            grp.finalize(nlanes)
            if isinstance(grp, _MosfetGroup):
                grp.bind(n, builder.dump_g, builder.dump_b)

        self.IG = np.empty((nlanes, len(builder.g_idx)), dtype=np.intp)
        self.IG[:] = np.asarray(builder.g_idx, dtype=np.intp)[None, :]
        self.VG = np.zeros((nlanes, len(builder.g_idx)))
        for col, value in enumerate(builder.g_val):
            if value is not None:
                self.VG[:, col] = value
        self.IB = np.empty((nlanes, len(builder.b_idx)), dtype=np.intp)
        self.IB[:] = np.asarray(builder.b_idx, dtype=np.intp)[None, :]
        self.VB = np.zeros((nlanes, len(builder.b_idx)))
        for col, value in enumerate(builder.b_val):
            if value is not None:
                self.VB[:, col] = value

        self.pattern: Optional[SparsePattern] = None
        self.data: Optional[np.ndarray] = None
        #: pattern positions of every IG slot, maintained incrementally
        #: by the MOSFET refresh (sparse programs only)
        self.POS: Optional[np.ndarray] = None
        if system.kind == "sparse":
            self._bind_sparse(builder)
        else:
            record_matrix("dense", n, n * n, nlanes)

    def _bind_sparse(self, builder: _ProgramBuilder) -> None:
        """Compute the fixed sparsity pattern of this program.

        The slot union is static: the builder's template covers every
        static and ground-redirected index, and each MOSFET's two
        swap orientations (``FN``/``FS``) are folded in up front, so
        the pattern — and the fill-reducing ordering derived from it —
        is computed exactly once per program and reused by every lane,
        Newton iteration and timepoint.
        """
        candidates = [np.asarray(builder.g_idx, dtype=np.intp)]
        for grp in self.groups:
            if isinstance(grp, _MosfetGroup):
                candidates.append(grp.FN.ravel())
                candidates.append(grp.FS.ravel())
        pattern = SparsePattern(self.n, np.concatenate(candidates)
                                if candidates else np.empty(0, np.intp),
                                builder.dump_g)
        # defensive: every slot the program can emit must hit the
        # pattern (or the dump sentinel), else scatter would silently
        # mis-bin contributions
        pos0 = pattern.positions(self.IG[0])
        if not np.array_equal(pattern.lookup[pos0], self.IG[0]):
            raise BatchUnsupported("sparse pattern missed program slots")
        self.pattern = pattern
        self.data = np.zeros((self.nlanes, pattern.nnz))
        self.POS = pattern.positions(self.IG)
        for grp in self.groups:
            if isinstance(grp, _MosfetGroup):
                grp.bind_pattern(pattern)
        record_matrix("sparse", self.n, pattern.nnz, self.nlanes)

    def assemble(self, system: BatchedMNASystem, X: np.ndarray,
                 ctx: StampContext) -> None:
        with phase_timer("assemble"):
            for grp in self.groups:
                grp.refresh(self, X, ctx)
            NN = self.NN
            n = self.n
            IG, VG, IB, VB = self.IG, self.VG, self.IB, self.VB
            b = system.b
            if system.kind == "sparse":
                pattern = self.pattern
                data = self.data
                # POS tracks IG incrementally (the MOSFET refresh is
                # the only writer of dynamic slots), so assembly needs
                # no per-iterate searchsorted
                pos = self.POS
                for k in range(self.nlanes):
                    # same ordered bincount accumulation as the dense
                    # path, scattered onto the pattern instead of the
                    # full matrix — shared-slot sums stay bit-identical
                    data[k] = pattern.scatter(pos[k], VG[k])
                    b[k] = np.bincount(IB[k], weights=VB[k],
                                       minlength=n + 1)[:n]
                return
            Gflat = system.G.reshape(self.nlanes, NN)
            for k in range(self.nlanes):
                # bincount accumulates duplicate indices sequentially
                # in list order, which is exactly the scalar stamping
                # order — every entry is the same floating-point sum
                # the scalar assembly produces
                Gflat[k] = np.bincount(IG[k], weights=VG[k],
                                       minlength=NN + 1)[:NN]
                b[k] = np.bincount(IB[k], weights=VB[k],
                                   minlength=n + 1)[:n]


# -- batched Newton ---------------------------------------------------------


def _solve_stack(G: np.ndarray, b: np.ndarray, active: np.ndarray,
                 eye: Optional[np.ndarray]):
    """Solve the active lanes of a stacked system.

    Inactive lanes are neutralised to the identity so a converged (or
    dead) lane's garbage iterate can never poison the batched
    factorisation.  If the batch solve still fails (one active lane
    exactly singular), each active lane is solved separately — the same
    LAPACK routine, so per-lane results are unchanged.  ``eye`` may be
    None only when every lane is active (nothing to neutralise).
    """
    for k in np.flatnonzero(~active):
        G[k] = eye
        b[k] = 0.0
    try:
        # the explicit RHS column keeps numpy's gufunc dispatch on the
        # (B, n, n) @ (B, n, 1) stacked form; nrhs=1 dgesv per slice is
        # the very computation the scalar path runs
        return np.linalg.solve(G, b[..., None])[..., 0], active.copy()
    except np.linalg.LinAlgError:
        X_new = np.zeros_like(b)
        ok = np.zeros(len(b), dtype=bool)
        for k in np.flatnonzero(active):
            try:
                X_new[k] = np.linalg.solve(G[k], b[k])
                ok[k] = True
            except np.linalg.LinAlgError:
                pass
        return X_new, ok


def _newton_batch(program: _BatchProgram, system: BatchedMNASystem,
                  ctx: StampContext, X0: np.ndarray, active0: np.ndarray,
                  max_iter: int, vtol: float = NEWTON_VTOL,
                  damping: float = 1.0):
    """Masked-lane Newton iteration, replicating ``dc._newton`` per lane.

    Returns ``(X, converged, failed)``; lanes outside ``active0`` are
    left untouched and belong to neither output mask.
    """
    X = X0.copy()
    active = active0.copy()
    converged = np.zeros(len(X), dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        program.assemble(system, X, ctx)
        X_new, ok = system.solve_stack(program, active)
        ok &= np.isfinite(X_new).all(axis=1)
        active &= ok  # lanes with a dead solve fail out immediately
        if not active.any():
            break
        with phase_timer("convergence_check"):
            delta = X_new - X
            biggest = np.max(np.abs(delta), axis=1)
            scale = np.full(len(X), damping)
            over = active & (biggest > MAX_NEWTON_STEP)
            scale[over] = np.minimum(scale[over],
                                     MAX_NEWTON_STEP / biggest[over])
            X[active] = X[active] + scale[active, None] * delta[active]
            done = active & (biggest * scale < vtol)
            converged |= done
            active &= ~done
    failed = active0 & ~converged
    return X, converged, failed


def _solve_timepoint_batch(program, system, X_prev, t, h, method,
                           cap_currents, want: np.ndarray,
                           X_seed: Optional[np.ndarray] = None):
    """Batched twin of ``transient._solve_timepoint``.

    ``X_seed`` optionally replaces ``X_prev`` as the first stage's
    Newton start (warm-start guides); the retry stage always restarts
    from ``X_prev``.  Returns ``(X_next, solved)``; unsolved lanes keep
    their previous iterate in ``X_next``.
    """
    gmin0, iters0, damp0 = TIMEPOINT_STAGES[0]
    ctx = StampContext(mode="tran", time=t + h, dt=h, x_prev=X_prev,
                       gmin=gmin0, method=method,
                       cap_currents=cap_currents)
    X1, conv1, fail1 = _newton_batch(program, system, ctx,
                                     X_prev if X_seed is None else X_seed,
                                     want, max_iter=iters0, damping=damp0)
    X_next = X_prev.copy()
    X_next[conv1] = X1[conv1]
    solved = conv1
    if fail1.any():
        gmin1, iters1, damp1 = TIMEPOINT_STAGES[1]
        ctx = StampContext(mode="tran", time=t + h, dt=h, x_prev=X_prev,
                           gmin=gmin1, method=method,
                           cap_currents=cap_currents)
        X2, conv2, _ = _newton_batch(program, system, ctx, X_prev, fail1,
                                     max_iter=iters1, damping=damp1)
        X_next[conv2] = X2[conv2]
        solved = solved | conv2
    return X_next, solved


# -- batched operating point -------------------------------------------------


def _operating_point_batch(program: _BatchProgram, system: BatchedMNASystem,
                           circuits: Sequence[Circuit], gmin: float = 1e-12,
                           time: float = 0.0, max_iter: int = 120,
                           X0: Optional[np.ndarray] = None):
    """Per-lane replication of ``dc.operating_point``'s continuation
    ladder: plain Newton, then gmin stepping, then source stepping with a
    relaxed gmin ladder at each step (keeping the *last* gmin that
    converges, as the scalar code does).

    ``X0`` optionally warm-starts the plain-Newton stage (mirroring the
    scalar ``operating_point(x0=...)``); the gmin and source ladders
    always restart cold from zeros, so a bad guess costs nothing but
    the first stage.

    Returns ``(X, errors)`` where ``errors[k]`` is the
    :class:`ConvergenceError` lane *k* would have raised, or None.
    """
    nlanes = len(circuits)
    nsize = system.n
    errors: List[Optional[ConvergenceError]] = [None] * nlanes
    X_out = np.zeros((nlanes, nsize))

    ctx = StampContext(mode="dc", time=time, gmin=gmin)
    X1, conv1, fail1 = _newton_batch(program, system, ctx,
                                     np.zeros((nlanes, nsize))
                                     if X0 is None
                                     else np.array(X0, dtype=float),
                                     np.ones(nlanes, dtype=bool),
                                     max_iter=max_iter)
    X_out[conv1] = X1[conv1]
    if not fail1.any():
        return X_out, errors

    # gmin stepping; a lane drops to source stepping at its first
    # failed rung, exactly like the scalar ladder's break (which also
    # starts from the caller's guess when one is given)
    Xc = np.zeros((nlanes, nsize)) if X0 is None \
        else np.array(X0, dtype=float)
    trying = fail1.copy()
    for g in GMIN_LADDER + (gmin,):
        if not trying.any():
            break
        ctx = StampContext(mode="dc", time=time, gmin=g)
        Xn, conv, _ = _newton_batch(program, system, ctx, Xc, trying,
                                    max_iter=max_iter)
        Xc[conv] = Xn[conv]
        trying &= conv
    X_out[trying] = Xc[trying]
    remaining = fail1 & ~trying
    if not remaining.any():
        return X_out, errors

    # source stepping
    Xc = np.zeros((nlanes, nsize))
    alive = remaining.copy()
    for scale in np.linspace(0.05, 1.0, SOURCE_STEPS):
        if not alive.any():
            break
        Xsol = np.zeros((nlanes, nsize))
        solved = np.zeros(nlanes, dtype=bool)
        for g in SOURCE_GMIN_LADDER + (gmin,):
            ctx = StampContext(mode="dc", time=time, gmin=g,
                               source_scale=float(scale))
            Xa, conv, _ = _newton_batch(program, system, ctx, Xc, alive,
                                        max_iter=max_iter, damping=0.7)
            Xsol[conv] = Xa[conv]
            solved |= conv
        dead = alive & ~solved
        for k in np.flatnonzero(dead):
            errors[k] = ConvergenceError(
                f"source stepping failed at scale={scale:.2f} "
                f"for circuit {circuits[k].title!r}")
        alive &= solved
        Xc[alive] = Xsol[alive]
    X_out[alive] = Xc[alive]
    return X_out, errors


def _batch_group(solver: str, nmembers: int) -> bool:
    """Shared group-size policy of the ``*_lanes`` entry points.

    ``dense`` (what ``auto`` resolves to) batches groups of two or
    more and solves singletons on the scalar path; ``sparse`` batches
    every group *including singletons* — a single full-chip lane is
    exactly where the sparse backend pays.
    """
    if solver == "sparse":
        return nmembers >= 1
    return nmembers > 1


def operating_point_lanes(circuits: Sequence[Circuit], gmin: float = 1e-12,
                          time: float = 0.0, max_iter: int = 120,
                          x0_guesses: Optional[Sequence] = None,
                          solver: str = "auto"
                          ) -> List[Union[DCResult, ConvergenceError]]:
    """DC operating points for arbitrary lanes, batched where possible.

    The batched counterpart of calling
    :func:`~repro.circuit.dc.operating_point` per circuit (corner
    sweeps, DC macro engines).  Lanes are grouped by
    :func:`structure_signature`; groups of two or more solve through the
    batched Newton ladder, and any lane the kernel cannot finish is
    re-run scalar — results per lane are bit-identical to an all-scalar
    sweep.  Failed lanes yield the :class:`ConvergenceError` the scalar
    call raises instead of a :class:`~repro.circuit.dc.DCResult`.

    Args:
        x0_guesses: optional per-lane warm Newton guesses (None entries
            start cold); threaded to both the batched ladder and any
            scalar fallback so the two paths see the same inputs.
        solver: linear backend (see
            :data:`~repro.circuit.backend.SOLVERS`).  ``sparse``
            batches every group including singletons; failed sparse
            lanes still retry on the scalar path.
    """
    circuits = list(circuits)
    if x0_guesses is None:
        x0_guesses = [None] * len(circuits)
    resolved = resolve_solver(solver)
    kind = "sparse" if resolved == "sparse" else "dense"

    def scalar(k: int):
        try:
            return operating_point(circuits[k], x0=x0_guesses[k],
                                   gmin=gmin, time=time,
                                   max_iter=max_iter)
        except ConvergenceError as exc:
            return exc

    results: List[Optional[Union[DCResult, ConvergenceError]]] = \
        [None] * len(circuits)
    groups: Dict[tuple, List[int]] = {}
    for k, c in enumerate(circuits):
        groups.setdefault(structure_signature(c), []).append(k)

    for members in groups.values():
        lane_circuits = [circuits[k] for k in members]
        solved = False
        if _batch_group(resolved, len(members)):
            try:
                compiled = lane_circuits[0].compile()
                system = _get_system(compiled, len(members), kind)
                program = _BatchProgram(lane_circuits, system, tran=False)
                X0 = _stack_guesses([x0_guesses[k] for k in members],
                                    compiled.size)
                with np.errstate(all="ignore"):
                    X, errors = _operating_point_batch(
                        program, system, lane_circuits, gmin=gmin,
                        time=time, max_iter=max_iter, X0=X0)
            except BatchUnsupported:
                pass
            else:
                solved = True
                for i, k in enumerate(members):
                    if errors[i] is None:
                        results[k] = DCResult(x=X[i], compiled=compiled)
                    else:
                        # scalar retry keeps the all-scalar contract
                        results[k] = scalar(k)
        if not solved:
            for k in members:
                results[k] = scalar(k)
    return results


def _stack_guesses(guesses: Sequence, nsize: int) -> Optional[np.ndarray]:
    """Per-lane optional guesses -> a ``(B, n)`` stack or None.

    Lanes without a guess (or with a stale, wrong-sized one) get a zero
    row — exactly the cold start they would use anyway.
    """
    if all(g is None for g in guesses):
        return None
    X0 = np.zeros((len(guesses), nsize))
    for k, g in enumerate(guesses):
        if g is not None and len(g) == nsize:
            X0[k] = g
    return X0


# -- system buffer cache ----------------------------------------------------

#: per-process reuse of the system buffers across calls — fault
#: campaigns solve thousands of same-shaped batches, and reallocating
#: the stack each time is measurable.  Cleared alongside the campaign
#: engine cache (see ``repro.campaign.tasks.clear_engine_cache``).
_SYSTEM_CACHE: Dict[Tuple[int, int, str], BatchedMNASystem] = {}
_SYSTEM_CACHE_MAX = 16


def _get_system(compiled, nlanes: int,
                kind: str = "dense") -> BatchedMNASystem:
    key = (compiled.size, nlanes, kind)
    system = _SYSTEM_CACHE.get(key)
    if system is None:
        cls = SparseBatchedMNASystem if kind == "sparse" \
            else BatchedMNASystem
        system = cls(compiled, nlanes)
        if len(_SYSTEM_CACHE) >= _SYSTEM_CACHE_MAX:
            _SYSTEM_CACHE.pop(next(iter(_SYSTEM_CACHE)))
        _SYSTEM_CACHE[key] = system
    else:
        system.compiled = compiled
    return system


def clear_kernel_cache() -> None:
    """Drop cached batch-system buffers (tests / memory pressure)."""
    _SYSTEM_CACHE.clear()


# -- batched transient -------------------------------------------------------


def transient_batch(circuits: Sequence[Circuit], tstop: float, dt: float,
                    method: str = "be",
                    x0s: Optional[np.ndarray] = None,
                    record_every: int = 1,
                    fine_windows: Optional[Sequence] = None,
                    op_x0: Optional[np.ndarray] = None,
                    guide: Optional[tuple] = None,
                    solver: str = "auto"
                    ) -> List[LaneResult]:
    """Run B structurally identical circuits through one lockstep
    transient.

    Mirrors :func:`~repro.circuit.transient.transient` exactly per lane:
    same initial operating-point ladder, same step schedule, same
    per-timepoint Newton ladder, same two-level step halving.  Lanes
    that exhaust the ladder get a :class:`ConvergenceError` entry (and
    the surviving lanes keep marching).

    Args:
        op_x0: optional ``(B, n)`` warm guess for the t=0 operating
            point's plain-Newton stage (continuation ladders keep their
            cold fallbacks).
        guide: optional ``(times, G)`` warm-start guide where ``G`` is
            a ``(B, len(times), n)`` reference trajectory recorded on
            the same step schedule; each timepoint's first Newton stage
            is seeded with the previous solution plus the per-lane
            guide increment (a zero guide row leaves a lane on the
            classic ``x_prev`` seed).
        solver: linear backend; ``sparse`` skips the dense stack
            entirely (full-chip netlists) with per-lane dense
            fallback on singular factorisations.

    Raises:
        ValueError: if the circuits' structures differ (they cannot
            share a batch).
        BatchUnsupported: if an element cannot stamp batched.
    """
    if method not in ("be", "trap"):
        raise ValueError(f"unknown integration method {method!r}")
    if dt <= 0 or tstop <= 0:
        raise ValueError("dt and tstop must be positive")
    windows = sorted(fine_windows or [])
    for t0, t1, dtf in windows:
        if dtf <= 0 or t1 <= t0:
            raise ValueError(f"malformed fine window ({t0}, {t1}, {dtf})")
    circuits = list(circuits)
    if not circuits:
        return []
    sig = structure_signature(circuits[0])
    for c in circuits[1:]:
        if structure_signature(c) != sig:
            raise ValueError("circuits differ structurally; "
                             "group lanes by structure_signature()")

    nlanes = len(circuits)
    compiled = circuits[0].compile()
    kind = "sparse" if resolve_solver(solver) == "sparse" else "dense"
    system = _get_system(compiled, nlanes, kind)
    program = _BatchProgram(circuits, system, tran=True)

    lane_error: List[Optional[ConvergenceError]] = [None] * nlanes
    if guide is not None:
        guide_times, guide_stack = guide
        if guide_stack.shape[0] != nlanes \
                or guide_stack.shape[2] != compiled.size:
            guide = None
    with np.errstate(all="ignore"):
        if x0s is None:
            program_dc = _BatchProgram(circuits, system, tran=False)
            X, op_errors = _operating_point_batch(program_dc, system,
                                                  circuits, X0=op_x0)
            lane_error = list(op_errors)
        else:
            X = np.array(x0s, dtype=float)
            if X.shape != (nlanes, compiled.size):
                raise ValueError("x0s has the wrong shape for this batch")
        alive = np.array([err is None for err in lane_error])

        caps = [(el, slot) for el, slot in program.slots
                if type(el) is Capacitor]
        cap_currents: Dict[str, np.ndarray] = {
            el.name: np.zeros(nlanes) for el, _ in caps}

        times = [0.0]
        stack = [X.copy()]
        t = 0.0
        step = 0
        while t < tstop - 1e-15 and alive.any():
            h = min(_step_at(t, dt, windows), tstop - t)
            X_seed = None
            if guide is not None and step + 1 < len(guide_times) \
                    and guide_times[step] == t \
                    and guide_times[step + 1] == t + h:
                X_seed = X + (guide_stack[:, step + 1]
                              - guide_stack[:, step])
            if X_seed is None:
                X_next, solved = _solve_timepoint_batch(
                    program, system, X, t, h, method, cap_currents,
                    alive)
            else:
                X_next, solved = _solve_timepoint_batch(
                    program, system, X, t, h, method, cap_currents,
                    alive, X_seed=X_seed)
            stuck = alive & ~solved
            if stuck.any():
                # local step halving, two levels deep, batched over the
                # stuck lanes only
                X_half = X.copy()
                sub_t = t
                ok = stuck.copy()
                for _ in range(2):
                    X_try, sub_solved = _solve_timepoint_batch(
                        program, system, X_half, sub_t, h / 2.0, method,
                        cap_currents, ok)
                    X_half[sub_solved] = X_try[sub_solved]
                    ok &= sub_solved
                    if not ok.any():
                        break
                    sub_t += h / 2.0
                X_next[ok] = X_half[ok]
                dead = stuck & ~ok
                for k in np.flatnonzero(dead):
                    lane_error[k] = ConvergenceError(
                        f"transient failed at t={t + h:.3e} for circuit "
                        f"{circuits[k].title!r}")
                alive &= ~dead
            if method == "trap":
                ctx = StampContext(mode="tran", time=t + h, dt=h,
                                   x_prev=X, method=method,
                                   cap_currents=cap_currents)
                new_currents = {
                    el.name: el.charge_current_batch(system, X_next, X,
                                                     ctx, slot)
                    for el, slot in caps}
                cap_currents.update(new_currents)
            t += h
            X = X_next
            step += 1
            if step % record_every == 0 or t >= tstop - 1e-15:
                times.append(t)
                stack.append(X.copy())

    times_arr = np.array(times)
    results: List[LaneResult] = []
    for k in range(nlanes):
        if lane_error[k] is not None:
            results.append(lane_error[k])
        else:
            results.append(TransientResult(
                times=times_arr, compiled=compiled,
                xs=np.array([frame[k] for frame in stack])))
    return results


def transient_lanes(circuits: Sequence[Circuit], tstop: float, dt: float,
                    method: str = "be", record_every: int = 1,
                    fine_windows: Optional[Sequence] = None,
                    guides: Optional[Sequence] = None,
                    solver: str = "auto") -> List[LaneResult]:
    """Transients for arbitrary lanes, batched where structure allows.

    Lanes are grouped by :func:`structure_signature`; each group of two
    or more runs through :func:`transient_batch`, singletons (and any
    lane the kernel gives up on) run through the scalar
    :func:`~repro.circuit.transient.transient`.  The scalar fallback is
    unconditional on failure, so the output per lane is exactly what an
    all-scalar run would produce — a failed lane yields the
    :class:`ConvergenceError` the scalar path raises.

    Args:
        guides: optional per-lane ``(times, xs)`` warm-start guides
            (None entries run cold) already aligned to each lane's
            unknown ordering; ``xs[0]`` doubles as the t=0 operating
            point's warm guess.  Threaded identically to the batched
            kernel and the scalar fallback.
        solver: linear backend.  ``sparse`` batches every group
            including singletons; lanes the sparse kernel gives up on
            still retry through the scalar path.
    """
    from .transient import transient

    circuits = list(circuits)
    if guides is None:
        guides = [None] * len(circuits)
    resolved = resolve_solver(solver)

    def scalar(k: int) -> LaneResult:
        g = guides[k]
        try:
            return transient(circuits[k], tstop=tstop, dt=dt,
                             method=method, record_every=record_every,
                             fine_windows=fine_windows,
                             x0_guess=None if g is None else g[1][0],
                             guide=g)
        except ConvergenceError as exc:
            return exc

    results: List[Optional[LaneResult]] = [None] * len(circuits)
    groups: Dict[tuple, List[int]] = {}
    for k, c in enumerate(circuits):
        groups.setdefault(structure_signature(c), []).append(k)

    for members in groups.values():
        if _batch_group(resolved, len(members)):
            try:
                op_x0, guide = _stack_guides(
                    [guides[k] for k in members],
                    circuits[members[0]].compile().size)
                outcomes = transient_batch(
                    [circuits[k] for k in members], tstop=tstop, dt=dt,
                    method=method, record_every=record_every,
                    fine_windows=fine_windows, op_x0=op_x0, guide=guide,
                    solver=resolved)
            except BatchUnsupported:
                outcomes = [None] * len(members)
            for k, outcome in zip(members, outcomes):
                if isinstance(outcome, TransientResult):
                    results[k] = outcome
                else:
                    # kernel could not finish this lane — scalar retry
                    # keeps the all-scalar contract (including which
                    # error, if any, the lane reports)
                    results[k] = scalar(k)
        else:
            for k in members:
                results[k] = scalar(k)
    return results


def _stack_guides(guides: Sequence, nsize: int):
    """Per-lane optional ``(times, xs)`` guides -> batched form.

    Returns ``(op_x0, guide)`` for :func:`transient_batch`.  Unguided
    lanes get zero guide rows (a zero increment seeds with the classic
    ``x_prev``) and a zero operating-point guess (the cold start).
    Guides whose time axes disagree with the first guided lane are
    dropped — schedules are deterministic, so this only filters stale
    baselines.
    """
    usable = [(k, g) for k, g in enumerate(guides)
              if g is not None and g[1].ndim == 2
              and g[1].shape[1] == nsize]
    if not usable:
        return None, None
    times = usable[0][1][0]
    usable = [(k, g) for k, g in usable
              if len(g[0]) == len(times) and np.array_equal(g[0], times)]
    if not usable:
        return None, None
    op_x0 = np.zeros((len(guides), nsize))
    G = np.zeros((len(guides), len(times), nsize))
    for k, (times_k, xs) in usable:
        op_x0[k] = xs[0]
        G[k] = xs
    return op_x0, (times, G)
