"""Tests for the pluggable linear-solve backends.

Covers the solver knob resolution, the sparse pattern machinery
(scatter equivalence against the dense kernel, the reusable CSC
template, singular-lane verdicts), the per-lane dense fallback
contract, the per-phase timing counters and the full-chip netlist that
motivates the sparse backend.
"""

import numpy as np
import pytest

from repro.adc.fullchip import (build_fullchip, decode_at,
                                fullchip_transient)
from repro.circuit import backend
from repro.circuit.backend import (HAVE_SPARSE, SOLVERS, SparsePattern,
                                   resolve_solver)
from repro.circuit.batch import (SparseBatchedMNASystem, _BatchProgram,
                                 transient_batch, transient_lanes)
from repro.circuit.elements import Resistor, VoltageSource
from repro.circuit.mosfet import Mosfet
from repro.circuit.netlist import Circuit
from repro.adc.process import typical

needs_scipy = pytest.mark.skipif(not HAVE_SPARSE,
                                 reason="scipy not installed")


class TestResolveSolver:
    def test_auto_is_dense(self):
        assert resolve_solver("auto") == "dense"

    def test_identity_for_dense_family(self):
        assert resolve_solver("dense") == "dense"

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            resolve_solver("cholesky")

    def test_every_knob_value_resolves(self):
        for solver in SOLVERS:
            assert resolve_solver(solver) in SOLVERS

    @needs_scipy
    def test_sparse_resolves_sparse_with_scipy(self):
        assert resolve_solver("sparse") == "sparse"

    def test_sparse_degrades_without_scipy(self, monkeypatch):
        monkeypatch.setattr(backend, "HAVE_SPARSE", False)
        assert resolve_solver("sparse") == "dense"


def _inverter_pair() -> Circuit:
    """A small nonlinear circuit with MOSFET swap dynamics."""
    p = typical()
    c = Circuit("inv2")
    c.add(VoltageSource("VDD", "vdd", "gnd", p.vdd))
    c.add(VoltageSource("VIN", "a", "gnd", 1.3))
    c.add(Mosfet("MP1", "y", "a", "vdd", "vdd", p.pmos,
                 w=4e-6, l=1e-6, polarity="p"))
    c.add(Mosfet("MN1", "y", "a", "gnd", "gnd", p.nmos,
                 w=2e-6, l=1e-6, polarity="n"))
    c.add(Mosfet("MP2", "z", "y", "vdd", "vdd", p.pmos,
                 w=4e-6, l=1e-6, polarity="p"))
    c.add(Mosfet("MN2", "z", "y", "gnd", "gnd", p.nmos,
                 w=2e-6, l=1e-6, polarity="n"))
    c.add(Resistor("RL", "z", "gnd", 1e6))
    return c


@needs_scipy
class TestSparsePattern:
    def _program(self):
        circuit = _inverter_pair()
        compiled = circuit.compile()
        system = SparseBatchedMNASystem(compiled, 2)
        return _BatchProgram([circuit, circuit.copy()], system,
                             tran=False), system, compiled

    def test_scatter_matches_dense_assembly(self):
        """Pattern-order data densified == the dense kernel's matrix."""
        from repro.circuit.batch import BatchedMNASystem, StampContext
        circuit = _inverter_pair()
        compiled = circuit.compile()
        lanes = [circuit, circuit.copy()]
        dense_sys = BatchedMNASystem(compiled, 2)
        dense_prog = _BatchProgram(lanes, dense_sys, tran=False)
        sparse_sys = SparseBatchedMNASystem(compiled, 2)
        sparse_prog = _BatchProgram(lanes, sparse_sys, tran=False)
        X = np.full((2, compiled.size), 0.5)
        ctx = StampContext(gmin=1e-9, time=0.0, x_prev=None, dt=None)
        dense_prog.assemble(dense_sys, X, ctx)
        sparse_prog.assemble(sparse_sys, X, ctx)
        for k in range(2):
            G = sparse_prog.pattern.densify(sparse_prog.data[k])
            np.testing.assert_array_equal(G, dense_sys.G[k])
            np.testing.assert_array_equal(sparse_sys.b[k],
                                          dense_sys.b[k])

    def test_incremental_positions_track_swaps(self):
        """POS stays equal to a from-scratch searchsorted after the
        MOSFET refresh rewrites the swap columns."""
        from repro.circuit.batch import StampContext
        prog, system, compiled = self._program()
        rng = np.random.default_rng(7)
        for trial in range(4):
            X = rng.uniform(0.0, 5.0, size=(2, compiled.size))
            ctx = StampContext(gmin=1e-9, time=0.0, x_prev=None,
                               dt=None)
            prog.assemble(system, X, ctx)
            np.testing.assert_array_equal(
                prog.POS, prog.pattern.positions(prog.IG))

    def test_factor_reuses_template(self):
        prog, system, compiled = self._program()
        from repro.circuit.batch import StampContext
        ctx = StampContext(gmin=1e-9, time=0.0, x_prev=None, dt=None)
        prog.assemble(system, np.zeros((2, compiled.size)), ctx)
        pat = prog.pattern
        pat.factor(prog.data[0])
        template = pat._csc
        pat.factor(prog.data[1])
        assert pat._csc is template

    def test_solve_lane_reports_singular(self):
        prog, system, compiled = self._program()
        zeros = np.zeros(prog.pattern.nnz)
        x, ok = prog.pattern.solve_lane(zeros,
                                        np.ones(compiled.size))
        assert not ok and x is None

    def test_solve_lane_roundtrip(self):
        from repro.circuit.batch import StampContext
        prog, system, compiled = self._program()
        ctx = StampContext(gmin=1e-9, time=0.0, x_prev=None, dt=None)
        prog.assemble(system, np.zeros((2, compiled.size)), ctx)
        data = prog.data[0]
        b = system.b[0]
        x, ok = prog.pattern.solve_lane(data, b)
        assert ok
        G = prog.pattern.densify(data)
        np.testing.assert_allclose(G @ x, b, atol=1e-9)


@needs_scipy
class TestSparseFallback:
    def test_singular_sparse_lane_falls_back_to_dense(self, monkeypatch):
        """A lane the sparse factorization gives up on must still
        solve through the per-lane dense fallback — same contract as
        the batched kernel's LinAlgError retry."""
        circuit = _inverter_pair()
        baseline = transient_batch([circuit], tstop=2e-9, dt=1e-9,
                                   solver="dense")[0]
        monkeypatch.setattr(
            SparsePattern, "solve_lane",
            lambda self, data, b: (None, False))
        fallback = transient_batch([circuit], tstop=2e-9, dt=1e-9,
                                   solver="sparse")[0]
        np.testing.assert_array_equal(baseline.times, fallback.times)
        np.testing.assert_allclose(np.array(fallback.xs),
                                   np.array(baseline.xs),
                                   atol=1e-6)


class TestPhaseTimers:
    def test_phase_timer_accumulates(self):
        backend.reset_timings()
        with backend.phase_timer("assemble"):
            pass
        with backend.phase_timer("assemble"):
            pass
        timings = backend.snapshot_timings()
        assert set(timings) == {"assemble"}
        assert timings["assemble"] >= 0.0
        backend.reset_timings()
        assert backend.snapshot_timings() == {}

    def test_record_matrix_keeps_largest(self):
        backend.reset_matrix()
        backend.record_matrix("sparse", 100, 500, 4)
        backend.record_matrix("dense", 10, 100, 1)
        info = backend.snapshot_matrix()
        assert info["n"] == 100 and info["backend"] == "sparse"
        backend.reset_matrix()
        assert backend.snapshot_matrix() == {}

    def test_dense_record_survives_reset(self):
        """Every dense lane group records its matrix, not only the
        first call that allocates a system of that shape."""
        lanes = [_inverter_pair(), _inverter_pair()]
        for _ in range(2):
            backend.reset_matrix()
            transient_lanes(lanes, tstop=2e-9, dt=1e-9)
            info = backend.snapshot_matrix()
            assert info["backend"] == "dense"
            assert info["n"] == lanes[0].compile().size
            assert info["nlanes"] == 2
        backend.reset_matrix()

    def test_solve_records_phases(self):
        backend.reset_timings()
        transient_batch([_inverter_pair()], tstop=2e-9, dt=1e-9,
                        solver="dense")
        timings = backend.snapshot_timings()
        assert "solve" in timings and "assemble" in timings
        assert "convergence_check" in timings
        backend.reset_timings()


class TestFullChip:
    def test_vbn2_is_layout_only(self):
        """vbn2 crosses the comparator as a routed track but no
        fault-free device connects to it — the chip still carries the
        distribution line for defect statistics."""
        chip = build_fullchip(n_bits=4)
        names = {el.name for el in chip.circuit.elements}
        assert "VBN2S" in names and "RBN2" in names

    def test_counts_scale_with_n_bits(self):
        chip = build_fullchip(n_bits=4)
        assert chip.n_taps == 16
        assert len(chip.comparator_outputs) == 16
        assert len(chip.decoder_outputs) == 4

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="pitch"):
            build_fullchip(n_bits=3)

    def test_without_decoder(self):
        chip = build_fullchip(n_bits=4, with_decoder=False)
        assert chip.decoder_outputs == ()

    @needs_scipy
    def test_startup_march_dense_vs_sparse_agree(self):
        """The tentpole acceptance check at crossover-test size: the
        sparse march of the stitched chip matches the dense march
        within Newton tolerance, timepoint for timepoint."""
        chip = build_fullchip(n_bits=4)
        out = {s: fullchip_transient(chip, tstop=3e-9, dt=1e-9,
                                     solver=s)
               for s in ("sparse", "dense")}
        np.testing.assert_array_equal(out["sparse"].times,
                                      out["dense"].times)
        diff = np.max(np.abs(np.array(out["sparse"].xs)
                             - np.array(out["dense"].xs)))
        assert diff < 1e-6
        code = decode_at(chip, out["sparse"], out["sparse"].times[-1])
        assert 0 <= code < 2 ** chip.n_bits
