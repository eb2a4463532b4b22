"""Tests for the batched MNA kernel.

The kernel's contract is *bit-identity* with the scalar Newton ladder
kept in :mod:`scalar_reference` (the oracle): a batched run produces
exactly the bytes the oracle's ``transient`` / ``operating_point``
called lane by lane would, for every lane, including which lanes fail
and with what error.  These tests exercise that contract on linear
lanes (property-based), on the real nonlinear comparator testbench, on
one-lane groups, on mixed-structure lane sets, on lanes that fail, on
concurrent callers, and at the assembly level (compiled contribution
program vs each lane's :meth:`MNASystem.assemble`).
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adc.comparator import (CLOCK_PERIOD, build_testbench,
                                  regeneration_windows)
from repro.adc.process import reduced_corners
from repro.circuit import (Capacitor, Circuit, CurrentSource, Diode,
                           Mosfet, MosParams, Pulse, Resistor, Switch,
                           VCCS, VCVS, VoltageSource, operating_point,
                           transient)
from repro.circuit import batch as batch_mod
from repro.circuit.batch import (BatchedMNASystem, BatchUnsupported,
                                 operating_point_lanes,
                                 structure_signature, transient_batch,
                                 transient_lanes)
from repro.circuit.batch import _BatchProgram
from repro.circuit.dc import ConvergenceError
from repro.circuit.mna import MNASystem, StampContext
from repro.circuit.transient import TransientResult

from . import scalar_reference

NMOS = MosParams(kp=60e-6, vto=0.7, lam=0.05, gamma=0.4, phi=0.6,
                 cox=1.7e-3, cov=3e-10)
PMOS = MosParams(kp=25e-6, vto=-0.8, lam=0.06, gamma=0.5, phi=0.6,
                 cox=1.7e-3, cov=3e-10)


def rc_lane(r, c_val, amp):
    c = Circuit("rc")
    c.add(VoltageSource("V1", "in", "gnd",
                        Pulse(0, amp, 0, 1e-9, 1e-9, 10e-3, 20e-3)))
    c.add(Resistor("R1", "in", "out", r))
    c.add(Capacitor("C1", "out", "gnd", c_val))
    return c


def inverter_lane(nmos=NMOS, pmos=PMOS, load=50e-15):
    c = Circuit("inv")
    c.add(VoltageSource("VDD", "vdd", "gnd", 5.0))
    c.add(VoltageSource("VIN", "in", "gnd",
                        Pulse(0, 5.0, 2e-9, 1e-9, 1e-9, 10e-9, 20e-9)))
    c.add(Mosfet("MN", "out", "in", "gnd", "gnd", nmos, w=4e-6,
                 l=1e-6))
    c.add(Mosfet("MP", "out", "in", "vdd", "vdd", pmos, w=8e-6,
                 l=1e-6))
    c.add(Capacitor("CL", "out", "gnd", load))
    return c


def nine_type_lane(k):
    """Every element type the program compiles, with lane-*k* values:
    a ``Pulse``-driven source, a current source, both controlled
    sources, a switch, a diode and an NMOS pass transistor between
    ``a`` and ``b`` whose source and drain swap with the iterate."""
    c = Circuit("nine")
    c.add(VoltageSource("VDD", "vdd", "gnd", 5.0 - 0.1 * k))
    c.add(VoltageSource("VIN", "in", "gnd",
                        Pulse(0.0, 3.0 + 0.5 * k, 1e-9, 2e-9, 2e-9,
                              5e-9, 20e-9)))
    c.add(CurrentSource("I1", "vdd", "a", 1e-4 * (k + 1)))
    c.add(Resistor("R1", "in", "a", 1e3 + 250.0 * k))
    c.add(Capacitor("C1", "a", "b", 1e-12 * (k + 1)))
    c.add(VCCS("G1", "b", "c", "a", "in", 1e-3 * (k + 1)))
    c.add(VCVS("E1", "d", "b", "a", "c", 2.0 + k))
    c.add(Resistor("RL", "d", "gnd", 1e4))
    c.add(Switch("S1", "c", "b", "in", vt=1.5 + 0.1 * k, ron=50.0 + k))
    c.add(Diode("D1", "b", "c", isat=1e-14 * (k + 1)))
    c.add(Mosfet("MPASS", "a", "vdd", "b", "gnd",
                 NMOS.scaled(kp_scale=1.0 + 0.1 * k), w=2e-6, l=1e-6))
    c.add(Mosfet("MP", "c", "in", "vdd", "vdd",
                 PMOS.scaled(vto_shift=0.05 * k), w=4e-6, l=1e-6,
                 polarity="p"))
    return c


def clash_lane(v2=2.0):
    """Two parallel voltage sources of different value: no operating
    point exists, so every rung of the DC ladder fails."""
    c = Circuit("clash")
    c.add(VoltageSource("V1", "a", "gnd", 1.0))
    c.add(VoltageSource("V2", "a", "gnd", v2))
    c.add(Resistor("R1", "a", "gnd", 1e3))
    c.add(Capacitor("C1", "a", "gnd", 1e-12))
    return c


def oracle(solve, circuits, **kwargs):
    """The oracle's *solve* lane by lane, a failing lane yielding the
    ConvergenceError it raises."""
    out = []
    for c in circuits:
        try:
            out.append(solve(c, **kwargs))
        except ConvergenceError as exc:
            out.append(exc)
    return out


def scalar_lanes(circuits, **kwargs):
    """The oracle's :func:`transient` lane by lane."""
    return oracle(scalar_reference.transient, circuits, **kwargs)


def assert_lanes_identical(batched, scalar):
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        if isinstance(s, ConvergenceError):
            assert isinstance(b, ConvergenceError)
            assert str(b) == str(s)
            continue
        assert not isinstance(b, ConvergenceError), str(b)
        if isinstance(s, TransientResult):
            assert b.times.tobytes() == s.times.tobytes()
            assert b.xs.tobytes() == s.xs.tobytes()
        else:
            assert b.x.tobytes() == s.x.tobytes()


class TestLinearLanesBitIdentical:
    @given(st.lists(st.tuples(
        st.floats(min_value=100.0, max_value=1e5),
        st.floats(min_value=1e-9, max_value=1e-6),
        st.floats(min_value=-5.0, max_value=5.0)),
        min_size=2, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_random_rc_lanes(self, lanes):
        """Same topology, random per-lane values: batched == scalar,
        bit for bit."""
        circuits = [rc_lane(*lane) for lane in lanes]
        batched = transient_lanes(circuits, tstop=2e-4, dt=2e-6)
        scalar = scalar_lanes(circuits, tstop=2e-4, dt=2e-6)
        assert_lanes_identical(batched, scalar)

    def test_trap_method(self):
        circuits = [rc_lane(1e3, 1e-7, a) for a in (1.0, -2.0, 0.5)]
        batched = transient_lanes(circuits, tstop=1e-4, dt=1e-6,
                                  method="trap")
        scalar = scalar_lanes(circuits, tstop=1e-4, dt=1e-6,
                              method="trap")
        assert_lanes_identical(batched, scalar)


class TestNonlinearLanesBitIdentical:
    def test_inverter_model_variants(self):
        """Mosfet lanes with per-lane model parameters (the reduced
        corner sweep's shape) stay bit-identical through the sharp
        switching transients."""
        variants = [
            inverter_lane(),
            inverter_lane(nmos=NMOS.scaled(kp_scale=1.3,
                                           vto_shift=-0.1)),
            inverter_lane(pmos=PMOS.scaled(kp_scale=0.8,
                                           vto_shift=0.1)),
            inverter_lane(load=200e-15),
        ]
        batched = transient_lanes(variants, tstop=20e-9, dt=0.2e-9)
        scalar = scalar_lanes(variants, tstop=20e-9, dt=0.2e-9)
        assert_lanes_identical(batched, scalar)

    def test_comparator_corner_sweep(self):
        """The engine's real workload: comparator testbenches over
        corners x polarities, with regeneration fine windows."""
        circuits = []
        for process in reduced_corners()[:2]:
            for offset in (0.1, -0.1):
                tb = build_testbench(process=process, vin=2.5 + offset,
                                     vref=2.5)
                circuits.append(tb.circuit)
        windows = regeneration_windows(CLOCK_PERIOD, 1)
        batched = transient_lanes(circuits, tstop=CLOCK_PERIOD,
                                  dt=1e-9, fine_windows=windows)
        scalar = scalar_lanes(circuits, tstop=CLOCK_PERIOD, dt=1e-9,
                              fine_windows=windows)
        assert_lanes_identical(batched, scalar)

    def test_one_lane_comparator(self):
        """A one-lane group runs on the same program: ``transient`` and
        ``transient_lanes`` of one comparator testbench both match the
        oracle."""
        circuit = build_testbench(vin=2.6, vref=2.5).circuit
        windows = regeneration_windows(CLOCK_PERIOD, 1)
        kwargs = dict(tstop=CLOCK_PERIOD, dt=1e-9, fine_windows=windows)
        scalar = scalar_lanes([circuit], **kwargs)
        assert_lanes_identical(transient_lanes([circuit], **kwargs),
                               scalar)
        assert_lanes_identical([transient(circuit, **kwargs)], scalar)


class TestConvergenceMasking:
    def test_stiff_lane_masks_independently(self):
        """One lane orders of magnitude stiffer than the rest: its
        Newton iterations converge later, and per-lane masking must
        keep every lane identical to its scalar run."""
        circuits = [rc_lane(1e3, 1e-7, 1.0),
                    rc_lane(1e3, 1e-12, 1.0),  # tau 1e5 x smaller
                    rc_lane(1e5, 1e-6, -3.0)]
        batched = transient_lanes(circuits, tstop=1e-4, dt=1e-6)
        scalar = scalar_lanes(circuits, tstop=1e-4, dt=1e-6)
        assert_lanes_identical(batched, scalar)

    def test_failed_lane_reports_convergence_error(self, monkeypatch):
        """A lane the kernel gives up on reports its ConvergenceError
        (there is no second solver to retry it on), and the lanes
        beside it stay identical to the oracle."""
        real = batch_mod._solve_timepoint_batch

        def sabotaged(program, system, X_prev, t, h, method,
                      cap_currents, want):
            X_next, solved = real(program, system, X_prev, t, h,
                                  method, cap_currents, want)
            solved = solved.copy()
            solved[0] = False  # lane 0 never converges in the kernel
            return X_next, solved

        monkeypatch.setattr(batch_mod, "_solve_timepoint_batch",
                            sabotaged)
        circuits = [rc_lane(1e3, 1e-7, a) for a in (1.0, 2.0, -1.0)]
        batched = transient_lanes(circuits, tstop=1e-4, dt=1e-6)
        scalar = scalar_lanes(circuits, tstop=1e-4, dt=1e-6)
        assert isinstance(batched[0], ConvergenceError)
        assert str(batched[0]) == \
            "transient failed at t=1.000e-06 for circuit 'rc'"
        assert_lanes_identical(batched[1:], scalar[1:])

    def test_failing_group_matches_oracle(self):
        """Lanes with no operating point fail in the kernel exactly
        where and how they fail in the oracle, DC and transient."""
        circuits = [clash_lane(2.0), clash_lane(3.0)]
        lanes = operating_point_lanes(circuits)
        scalar = oracle(scalar_reference.operating_point, circuits)
        assert_lanes_identical(lanes, scalar)
        assert str(lanes[0]) == ("source stepping failed at scale=0.05 "
                                 "for circuit 'clash'")
        assert_lanes_identical(
            transient_lanes(circuits, tstop=1e-9, dt=1e-10),
            scalar_lanes(circuits, tstop=1e-9, dt=1e-10))
        with pytest.raises(ConvergenceError, match="scale=0.05"):
            operating_point(circuits[0])


class TestLaneGrouping:
    def test_mixed_structures_keep_order(self):
        """Lanes of different topologies group independently and come
        back in submission order."""
        circuits = [rc_lane(1e3, 1e-7, 1.0), inverter_lane(),
                    rc_lane(2e3, 2e-7, -1.0), inverter_lane(load=1e-13),
                    rc_lane(5e2, 1e-8, 2.0)]
        batched = transient_lanes(circuits, tstop=5e-9, dt=0.5e-9)
        scalar = scalar_lanes(circuits, tstop=5e-9, dt=0.5e-9)
        assert_lanes_identical(batched, scalar)

    def test_structure_signature_values_irrelevant(self):
        assert structure_signature(rc_lane(1e3, 1e-7, 1.0)) == \
            structure_signature(rc_lane(9e4, 3e-8, -2.0))
        assert structure_signature(rc_lane(1e3, 1e-7, 1.0)) != \
            structure_signature(inverter_lane())

    def test_batch_rejects_mixed_structures(self):
        with pytest.raises(ValueError):
            transient_batch([rc_lane(1e3, 1e-7, 1.0), inverter_lane()],
                            tstop=1e-6, dt=1e-7)


class TestOperatingPointLanes:
    def test_dc_parity_with_scalar(self):
        circuits = [inverter_lane(),
                    inverter_lane(nmos=NMOS.scaled(kp_scale=1.2,
                                                   vto_shift=-0.05)),
                    inverter_lane(load=1e-13)]
        assert_lanes_identical(
            operating_point_lanes(circuits),
            oracle(scalar_reference.operating_point, circuits))

    def test_one_lane_dc(self):
        """``operating_point`` is a one-lane group of the program."""
        circuit = build_testbench(vin=2.6, vref=2.5).circuit
        scalar = oracle(scalar_reference.operating_point, [circuit])
        assert_lanes_identical(operating_point_lanes([circuit]), scalar)
        assert_lanes_identical([operating_point(circuit)], scalar)


class TestConcurrentCallers:
    def test_threads_match_serial(self):
        """Threads solving same-shaped groups at once get the bytes of
        serial runs: no solve shares matrix buffers with another."""
        nthreads = (os.cpu_count() or 1) + 2

        def lanes(i):
            return [inverter_lane(load=50e-15 * (1 + i)),
                    inverter_lane(nmos=NMOS.scaled(kp_scale=1 + 0.1 * i))]

        def run(i):
            return transient_lanes(lanes(i), tstop=20e-9, dt=0.1e-9)

        serial = [run(i) for i in range(nthreads)]
        threaded = {}

        def work(i):
            threaded[i] = [run(i) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,),
                                        daemon=True)
                       for i in range(nthreads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(nthreads):
            for rerun in threaded[i]:
                assert_lanes_identical(rerun, serial[i])


def comparator_lanes():
    return [build_testbench(process=process, vin=2.6, vref=2.5).circuit
            for process in reduced_corners()[:2]]


def batched_contexts(rng, circuits, n):
    """A DC, a backward-Euler and a trapezoidal stamp context, the
    transient ones at random previous iterates and capacitor
    currents."""
    nlanes = len(circuits)
    caps = [el.name for el in circuits[0].elements
            if type(el) is Capacitor]
    yield False, StampContext(mode="dc", time=2e-9, gmin=1e-4,
                              source_scale=0.6)
    for method in ("be", "trap"):
        yield True, StampContext(
            mode="tran", time=4.5e-9, dt=1e-9,
            x_prev=rng.normal(scale=2.0, size=(nlanes, n)),
            gmin=1e-12, method=method,
            cap_currents={name: rng.normal(size=nlanes) * 1e-6
                          for name in caps})


def lane_context(ctx, k):
    """Lane *k*'s scalar view of a batched stamp context."""
    return StampContext(
        mode=ctx.mode, time=ctx.time, dt=ctx.dt,
        x_prev=None if ctx.x_prev is None else ctx.x_prev[k],
        gmin=ctx.gmin, source_scale=ctx.source_scale, method=ctx.method,
        cap_currents={name: float(cur[k])
                      for name, cur in ctx.cap_currents.items()})


def assert_program_matches_scalar(circuits, rng):
    """Assemble random iterates through the program and through each
    lane's scalar ``MNASystem``; returns the iterates used."""
    compiled = circuits[0].compile()
    nlanes, n = len(circuits), compiled.size
    system = BatchedMNASystem(compiled, nlanes)
    iterates = []
    for tran, ctx in batched_contexts(rng, circuits, n):
        program = _BatchProgram(circuits, system, tran=tran)
        for _ in range(3):
            X = rng.normal(scale=2.0, size=(nlanes, n))
            iterates.append(X)
            program.assemble(system, X, ctx)
            for k, circuit in enumerate(circuits):
                ref = MNASystem(circuit.compile())
                ref.assemble(circuit, X[k], lane_context(ctx, k))
                assert ref.G.tobytes() == system.G[k].tobytes(), \
                    (circuit.title, ctx.mode, ctx.method, k)
                assert ref.b.tobytes() == system.b[k].tobytes(), \
                    (circuit.title, ctx.mode, ctx.method, k)
    return iterates


class TestProgramAssembly:
    def test_program_matches_reference_stamping(self):
        """The compiled contribution program reproduces every lane's
        scalar ``MNASystem.assemble`` bit for bit — DC, backward Euler
        and trapezoidal — on the comparator testbench and on a lane
        family with all nine element types."""
        rng = np.random.default_rng(7)
        assert_program_matches_scalar(comparator_lanes(), rng)
        lanes = [nine_type_lane(k) for k in range(4)]
        iterates = assert_program_matches_scalar(lanes, rng)
        compiled = lanes[0].compile()
        d, s = compiled.index_of("a"), compiled.index_of("b")
        # the pass transistor ran in both source/drain orientations
        assert {bool(x[d] < x[s]) for X in iterates for x in X} == \
            {True, False}

    def test_unknown_element_unsupported(self):
        class Weird(Resistor):
            pass

        c = Circuit("weird")
        c.add(VoltageSource("V1", "a", "gnd", 1.0))
        c.add(Weird("R1", "a", "gnd", 1e3))
        compiled = c.compile()
        system = BatchedMNASystem(compiled, 2)
        with pytest.raises(BatchUnsupported):
            _BatchProgram([c, c], system, tran=False)
        # the entry points raise it too: there is no second solver
        for lanes in ([c], [c, c]):
            with pytest.raises(BatchUnsupported):
                operating_point_lanes(lanes)
            with pytest.raises(BatchUnsupported):
                transient_lanes(lanes, tstop=1e-9, dt=1e-10)
