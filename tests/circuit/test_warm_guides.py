"""Warm-start continuation: guided solves land on the same solution.

``transient`` and ``transient_lanes`` accept an ``x0_guess`` / ``guide``
(baseline trajectory) that seeds each Newton solve.  Newton iterates
to a fixed tolerance, so a guided run reproduces the unguided solution
to within that tolerance (bitwise identity is *not* promised — a
different start converges to a numerically different point inside the
tolerance ball; the engine-level tests pin that detection *verdicts*
are exactly identical).  These tests pin solution agreement plus the
degraded cases (mis-shaped guides ignored, unguided lanes stay cold).
"""

import numpy as np

from repro.adc.comparator import (CLOCK_PERIOD, build_testbench,
                                  regeneration_windows)
from repro.circuit import operating_point, transient
from repro.circuit.batch import transient_lanes, operating_point_lanes
from repro.faultsim.baseline import (Trajectory, align_guide, align_x0,
                                     coerce_payload, MacroBaseline)


def comparator_circuit(vin=2.6):
    return build_testbench(vin=vin, vref=2.5).circuit


def same_solution(a, b, atol=1e-5):
    """Timepoints identical; solutions equal to solver tolerance."""
    return np.array_equal(a.times, b.times) and \
        np.allclose(a.xs, b.xs, rtol=1e-6, atol=atol)


def run(circuit, guide=None, x0_guess=None):
    return transient(circuit, tstop=CLOCK_PERIOD, dt=1e-9,
                     fine_windows=regeneration_windows(CLOCK_PERIOD, 1),
                     guide=guide, x0_guess=x0_guess)


class TestGuidedTransient:
    def test_self_guided_identical(self):
        cold = run(comparator_circuit())
        traj = Trajectory.from_result(cold)
        compiled = comparator_circuit().compile()
        warm = run(comparator_circuit(), guide=align_guide(compiled, traj),
                   x0_guess=align_x0(compiled, traj))
        assert same_solution(cold, warm)

    def test_cross_circuit_guide_identical(self):
        """A guide from a *different* (good) circuit still reproduces
        the target's own solution — the fault-simulation case."""
        cold = run(comparator_circuit(vin=2.4))
        good = Trajectory.from_result(run(comparator_circuit(vin=2.6)))
        compiled = comparator_circuit(vin=2.4).compile()
        warm = run(comparator_circuit(vin=2.4),
                   guide=align_guide(compiled, good),
                   x0_guess=align_x0(compiled, good))
        assert same_solution(cold, warm)

    def test_malformed_guide_ignored(self):
        cold = run(comparator_circuit())
        bad = (np.array([0.0, 1e-9]), np.zeros((3, 2)))  # wrong shape
        warm = run(comparator_circuit(), guide=bad)
        assert same_solution(cold, warm)


class TestGuidedBatch:
    def test_mixed_guided_and_cold_lanes_identical(self):
        circuits = [comparator_circuit(2.6), comparator_circuit(2.4)]
        cold = transient_lanes(circuits, tstop=CLOCK_PERIOD, dt=1e-9,
                               fine_windows=regeneration_windows(
                                   CLOCK_PERIOD, 1))
        traj = Trajectory.from_result(cold[0])
        guides = [align_guide(c.compile(), traj) for c in circuits[:1]]
        guides.append(None)  # second lane stays cold
        warm = transient_lanes(circuits, tstop=CLOCK_PERIOD, dt=1e-9,
                               fine_windows=regeneration_windows(
                                   CLOCK_PERIOD, 1),
                               guides=guides)
        for c, w in zip(cold, warm):
            assert same_solution(c, w)

    def test_warm_dc_lanes_identical(self):
        circuits = [comparator_circuit(2.6)]
        cold = operating_point_lanes(circuits)
        guess = cold[0].x.copy()
        warm = operating_point_lanes(circuits, x0_guesses=[guess])
        assert np.allclose(cold[0].x, warm[0].x, rtol=1e-6, atol=1e-5)


class TestTrajectoryRoundtrip:
    def test_json_roundtrip_bit_exact(self):
        result = run(comparator_circuit())
        traj = Trajectory.from_result(result)
        back = Trajectory.from_dict(traj.to_dict())
        assert np.array_equal(traj.times, back.times)
        assert np.array_equal(traj.xs, back.xs)
        assert traj.node_cols == back.node_cols
        assert traj.branch_cols == back.branch_cols

    def test_dc_result_captured(self):
        circuit = comparator_circuit()
        op = operating_point(circuit)
        traj = Trajectory.from_result(op)
        assert traj.xs.shape == (1, op.x.shape[0])
        assert traj.times.tolist() == [0.0]

    def test_align_guide_fills_unknowns_with_zero(self):
        result = run(comparator_circuit())
        traj = Trajectory.from_result(result)
        other = comparator_circuit(vin=2.4).compile()
        times, xs = align_guide(other, traj)
        assert xs.shape == (traj.xs.shape[0], other.size)

    def test_coerce_payload_forms(self):
        mb = MacroBaseline(macro="m", payload={"k": 1})
        assert coerce_payload(mb) == {"k": 1}
        assert coerce_payload(mb.to_dict()) == {"k": 1}
        assert coerce_payload({"k": 1}) == {"k": 1}
        stale = dict(mb.to_dict(), baseline_version=-1)
        assert coerce_payload(stale) is None
        assert coerce_payload("junk") is None
