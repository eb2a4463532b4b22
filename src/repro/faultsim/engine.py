"""Analog fault-simulation engine for the comparator macro.

For every fault class: inject each circuit-level model variant into the
comparator testbench, run clocked transients with the analog input above
and below the reference (plus +/- 8 mV probes when needed), extract the
quiescent currents in each clock phase and the flipflop decision, and
classify the macro-level fault signature.  Gate-oxide pinholes keep the
*worst-case* (least detectable) of their three variants, as in the
paper.

All transients go through the batched MNA kernel
(:func:`~repro.circuit.batch.transient_lanes`): the good-space corner
sweep and a fault class's variant runs are structurally identical
circuits differing only in source values and device parameters, so they
solve as one stacked Newton iteration.  A lane the kernel cannot finish
reports a ``ConvergenceError`` (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

import numpy as np

from ..adc.comparator import (CLOCK_PERIOD, build_testbench,
                              phase_measure_times, regeneration_windows)
from ..adc.process import Process, reduced_corners, typical
from ..circuit.batch import transient_lanes
from ..circuit.dc import ConvergenceError
from ..circuit.transient import TransientResult, supply_current
from ..defects.collapse import FaultClass
from .baseline import (MacroBaseline, Trajectory, align_guide,
                       coerce_payload)
from .goodspace import GoodSpace, compile_good_space
from .models import FaultModel, fault_models, inject
from .noncat import NearMissShortFault, near_miss_model
from .signatures import (CurrentMechanism, Measurement, SignatureResult,
                         VoltageSignature, classify_voltage)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..macrotest.coverage import DetectionRecord


@dataclass(frozen=True)
class EngineConfig:
    """Fault-simulation engine settings.

    Attributes:
        dt: coarse transient step.
        period: clock period.
        dft: simulate the DfT comparator variant.
        vref: reference voltage of the instance under test.
        big_probe: input offset for the main above/below runs (volts).
        small_probe: input offset for the offset-detection probes.
        process: the corner the faulty instance is evaluated at.
        corners: corners the good space is compiled over (None: the
            reduced corner set).
        dynamic_test: run the at-speed missing-code test during
            propagation (consumed by :meth:`simulate_class`).
        warm_start: seed faulty Newton solves from the good-circuit
            baseline trajectory (the full gmin/source stepping ladder
            stays as fallback).  Detection records are identical either
            way; False forces the historical cold start.
        drop: stop a fault class's stimulus schedule once its boundary
            signature has left the good space (skip the small offset
            probes when the big probes already classify).  Verdicts are
            identical either way — the skipped probes are exactly the
            ones :func:`~repro.faultsim.signatures.classify_voltage`
            never consults; False forces the exhaustive schedule.
        solver: linear backend for the kernel (see
            :data:`~repro.circuit.backend.SOLVERS`).  ``auto`` and
            ``dense`` name the same stacked LAPACK kernel; ``sparse``
            trades bit identity for full-chip-scale wall-clock (results
            agree within Newton tolerance, and a lane that fails on it
            retries on the dense program).
    """

    dt: float = 1e-9
    period: float = CLOCK_PERIOD
    dft: bool = False
    vref: float = 2.5
    big_probe: float = 0.1
    small_probe: float = 8e-3
    process: Process = field(default_factory=typical)
    corners: Optional[Tuple[Process, ...]] = None
    dynamic_test: bool = False
    warm_start: bool = True
    drop: bool = True
    solver: str = "auto"


@dataclass(frozen=True)
class FaultClassResult:
    """Signature of one fault class (worst-case over model variants).

    Attributes:
        fault_class: the simulated class.
        signature: its macro-level signature.
        variant: name of the chosen (worst-case) model variant.
    """

    fault_class: FaultClass
    signature: SignatureResult
    variant: str


#: one requested measurement run: (fault model or None, input offset,
#: process corner)
_Run = Tuple[Optional[FaultModel], float, Process]


class ComparatorFaultEngine:
    """Runs the fault-simulation step of the defect-oriented test path.

    Implements the :class:`~repro.faultsim.FaultEngine` protocol:
    :meth:`simulate_class` takes a collapsed fault class and returns a
    :class:`~repro.macrotest.coverage.DetectionRecord`.  The richer
    per-class signature is available via
    :meth:`simulate_class_signature`.
    """

    def __init__(self, config: Optional[EngineConfig] = None,
                 corners: Optional[Sequence[Process]] = None) -> None:
        self.config = config or EngineConfig()
        if corners is not None:
            self._corners = list(corners)
        elif self.config.corners is not None:
            self._corners = list(self.config.corners)
        else:
            self._corners = reduced_corners()
        self._good_space: Optional[GoodSpace] = None
        self._good_decisions: Dict[float, bool] = {}
        #: good-circuit trajectories at the faulty-evaluation corner,
        #: polarity -> Trajectory (the warm-start guides)
        self._trajectories: Dict[str, Trajectory] = {}
        #: per-corner fault-free measurements (the exportable baseline)
        self._corner_measurements: Optional[
            Dict[str, Dict[str, Measurement]]] = None
        #: where the good space came from: "computed" or "adopted"
        self.baseline_source = "computed"
        #: transient lanes actually simulated (accounting)
        self.runs_simulated = 0
        #: small-probe lanes skipped by detection-driven dropping
        self.probes_dropped = 0

    # -- measurement -------------------------------------------------------

    def _guide_for(self, circuit, offset: float, process: Process):
        """Warm-start guide for one run, when the baseline covers it.

        Guides only exist for the corner the faulty instances are
        evaluated at; the big-probe trajectory of the matching polarity
        also seeds the same-polarity small probe (the fault-free
        waveforms barely differ between the two offsets).
        """
        if process.name != self.config.process.name:
            return None
        trajectory = self._trajectories.get(
            "above" if offset > 0 else "below")
        if trajectory is None:
            return None
        return align_guide(circuit.compile(), trajectory)

    def _transients(self, runs: Sequence[_Run]):
        """Run a batch of transients; returns (testbenches, outcomes).

        Builds one testbench per run; structurally identical lanes (the
        corner sweep, a class's model variants) stack into one batched
        transient, the rest run as one-lane groups.  When ``config.warm_start`` and
        a baseline trajectory exists, every lane's Newton solves are
        seeded from the good-circuit solution.
        """
        tbs = []
        circuits = []
        for model, offset, process in runs:
            tb = build_testbench(process=process,
                                 vin=self.config.vref + offset,
                                 vref=self.config.vref,
                                 dft=self.config.dft,
                                 period=self.config.period)
            tbs.append(tb)
            circuits.append(tb.circuit if model is None
                            else inject(tb.circuit, model))
        guides = None
        if self.config.warm_start and self._trajectories:
            guides = [self._guide_for(circuit, offset, process)
                      for circuit, (model, offset, process)
                      in zip(circuits, runs)]
            if not any(g is not None for g in guides):
                guides = None
        windows = regeneration_windows(self.config.period, 1)
        outcomes = transient_lanes(circuits, tstop=self.config.period,
                                   dt=self.config.dt,
                                   fine_windows=windows,
                                   guides=guides,
                                   solver=self.config.solver)
        self.runs_simulated += len(runs)
        return tbs, outcomes

    def _measure_runs(self, runs: Sequence[_Run]) -> List[Measurement]:
        """Measure a batch of runs through the batched kernel.

        A lane that fails to converge measures as unresolved.
        """
        tbs, outcomes = self._transients(runs)
        measurements = []
        for (model, offset, process), tb, outcome in zip(runs, tbs,
                                                         outcomes):
            if isinstance(outcome, ConvergenceError):
                measurements.append(self._unresolved_measurement())
            else:
                measurements.append(self._measure(tb, outcome, process))
        return measurements

    def _measure(self, tb, tr: TransientResult,
                 process: Process) -> Measurement:
        times = phase_measure_times(self.config.period, 0)

        def at(array: np.ndarray, t: float) -> float:
            return float(array[int(np.argmin(np.abs(tr.times - t)))])

        ivdd = supply_current(tr, tb.supply_source)
        iddq_arrays = [np.abs(tr.current(name))
                       for name in tb.clock_sources]
        iin = np.abs(tr.current("VIN"))
        ivref = np.abs(tr.current("VREFS"))
        ibias = np.abs(tr.current("VBN1S")) + np.abs(tr.current("VBN2S"))

        decision = tr.at_time("ffout", 0.97 * self.config.period) > \
            process.vdd / 2.0
        clock_dev = self._clock_deviation(tr, process)
        return Measurement(
            decision=bool(decision),
            ivdd=tuple(at(ivdd, t) for t in times),
            iddq=tuple(sum(at(a, t) for a in iddq_arrays) for t in times),
            iin=tuple(at(iin, t) for t in times),
            ivref=tuple(at(ivref, t) for t in times),
            ibias=tuple(at(ibias, t) for t in times),
            clock_deviation=clock_dev)

    def _clock_deviation(self, tr: TransientResult,
                         process: Process) -> float:
        """Worst deviation of the clock lines from their nominal levels
        at the quiescent instants of each phase."""
        period = self.config.period
        expected = {
            "phi1": (process.vdd, 0.0, 0.0),
            "phi2": (0.0, process.vdd, 0.0),
            "phi3": (0.0, 0.0, process.vdd),
        }
        worst = 0.0
        for phase_idx, t in enumerate(phase_measure_times(period, 0)):
            for line, levels in expected.items():
                actual = tr.at_time(line, t)
                worst = max(worst, abs(actual - levels[phase_idx]))
        return worst

    def _unresolved_measurement(self) -> Measurement:
        zeros = (0.0, 0.0, 0.0)
        return Measurement(decision=False, ivdd=zeros, iddq=zeros,
                           iin=zeros, ivref=zeros, ibias=zeros,
                           clock_deviation=0.0, resolved=False)

    # -- good space ---------------------------------------------------------

    def good_space(self) -> GoodSpace:
        """Compile (and cache) the good signature space over corners.

        All ``len(corners) * 2`` fault-free runs share one circuit
        structure, so the whole sweep is a single batched transient.
        When a baseline was adopted (:meth:`adopt_baseline`), no
        simulation happens at all — the space is rebuilt from the
        cached per-corner measurements.
        """
        if self._good_space is None:
            if self._corner_measurements is None:
                self._compute_baseline()
            per_corner = self._corner_measurements
            name = self._corners[0].name
            if "typical" in per_corner:
                name = "typical"
            self._good_space = compile_good_space(per_corner,
                                                  typical_name=name)
        return self._good_space

    def _compute_baseline(self) -> None:
        """Simulate the fault-free corner sweep, keeping trajectories."""
        runs: List[_Run] = []
        for p in self._corners:
            runs.append((None, +self.config.big_probe, p))
            runs.append((None, -self.config.big_probe, p))
        tbs, outcomes = self._transients(runs)
        per_corner: Dict[str, Dict[str, Measurement]] = {}
        for k, p in enumerate(self._corners):
            polarity_meas: Dict[str, Measurement] = {}
            for j, pol in ((0, "above"), (1, "below")):
                outcome = outcomes[2 * k + j]
                if isinstance(outcome, ConvergenceError):
                    polarity_meas[pol] = self._unresolved_measurement()
                    continue
                polarity_meas[pol] = self._measure(tbs[2 * k + j],
                                                   outcome, p)
                if p.name == self.config.process.name:
                    self._trajectories[pol] = \
                        Trajectory.from_result(outcome)
            per_corner[p.name] = polarity_meas
        self._corner_measurements = per_corner
        self.baseline_source = "computed"

    def export_baseline(self) -> MacroBaseline:
        """The fault-free results as a shareable baseline blob.

        Computes the good-space sweep first if it has not run yet.
        """
        self.good_space()
        payload = {
            "corners": {name: {pol: m.to_dict()
                               for pol, m in meas.items()}
                        for name, meas
                        in self._corner_measurements.items()},
            "process": self.config.process.name,
            "trajectories": {pol: t.to_dict()
                             for pol, t in self._trajectories.items()},
        }
        return MacroBaseline(macro="comparator", payload=payload)

    def adopt_baseline(self, baseline) -> bool:
        """Reuse a previously exported baseline instead of simulating.

        Accepts a :class:`~repro.faultsim.baseline.MacroBaseline` or
        its payload dict.  Returns False (and changes nothing) when the
        baseline does not cover this engine's corner set or evaluation
        process — a stale blob can never poison a run.
        """
        payload = coerce_payload(baseline)
        if payload is None:
            return False
        try:
            corners = {str(name): {pol: Measurement.from_dict(m)
                                   for pol, m in meas.items()}
                       for name, meas in payload["corners"].items()}
            trajectories = {str(pol): Trajectory.from_dict(t)
                            for pol, t
                            in payload.get("trajectories", {}).items()}
            process_name = payload.get("process")
        except (KeyError, TypeError, ValueError):
            return False
        if set(corners) != {p.name for p in self._corners}:
            return False
        if any(set(meas) != {"above", "below"}
               for meas in corners.values()):
            return False
        self._corner_measurements = corners
        if process_name == self.config.process.name:
            self._trajectories = trajectories
        self._good_space = None
        self.baseline_source = "adopted"
        return True

    # -- fault simulation ---------------------------------------------------

    def _variants(self, fault_class: FaultClass) -> List[FaultModel]:
        fault = fault_class.representative
        if isinstance(fault, NearMissShortFault):
            return [near_miss_model(fault)]
        return fault_models(fault, process=self.config.process)

    def _signatures(self, models: Sequence[FaultModel]
                    ) -> List[SignatureResult]:
        """Signatures of several model variants, batched.

        Phase one runs every variant's above/below pair in one
        :func:`transient_lanes` call (variants that share a topology —
        e.g. the three pinhole conductances — stack into one batch).
        Variants that still resolve correctly get a second, smaller
        batch at the +/- ``small_probe`` offsets.
        """
        good = self.good_space()
        runs: List[_Run] = []
        for model in models:
            runs.append((model, +self.config.big_probe,
                         self.config.process))
            runs.append((model, -self.config.big_probe,
                         self.config.process))
        measured = self._measure_runs(runs)

        # second pass: offset probes.  The stimulus schedule is ordered
        # by detectability — the big probes classify most faults — so
        # with ``drop`` a variant whose boundary signature already left
        # the good space (wrong/unresolved decisions) never sees the
        # small probes; those are exactly the probes classify_voltage
        # would ignore, so the verdict is unchanged.  Without ``drop``
        # every variant runs the full schedule (offset faults hide at
        # the big probes).
        if self.config.drop:
            need_small = []
            for k, model in enumerate(models):
                above, below = measured[2 * k], measured[2 * k + 1]
                if above.resolved and below.resolved and \
                        above.decision is True and \
                        below.decision is False:
                    need_small.append(k)
            self.probes_dropped += 2 * (len(models) - len(need_small))
        else:
            need_small = list(range(len(models)))
        small_runs: List[_Run] = []
        for k in need_small:
            small_runs.append((models[k], +self.config.small_probe,
                               self.config.process))
            small_runs.append((models[k], -self.config.small_probe,
                               self.config.process))
        small_measured = self._measure_runs(small_runs) if small_runs \
            else []
        small_by_variant = {
            k: (small_measured[2 * j].decision,
                small_measured[2 * j + 1].decision)
            for j, k in enumerate(need_small)}

        results = []
        for k, model in enumerate(models):
            above, below = measured[2 * k], measured[2 * k + 1]
            unresolved = not (above.resolved and below.resolved)
            small_above, small_below = small_by_variant.get(k,
                                                            (None, None))
            if unresolved:
                voltage, sign = VoltageSignature.OUTPUT_STUCK_AT, 0
            else:
                clock_dev = max(above.clock_deviation,
                                below.clock_deviation)
                voltage, sign = classify_voltage(
                    above.decision, below.decision, small_above,
                    small_below, clock_dev)
            measurements = {"above": above, "below": below}
            violated = good.violated_measurements(measurements)
            from .goodspace import mechanism_of
            mechanisms = {mechanism_of(key) for key in violated}
            results.append(SignatureResult(
                voltage=voltage, offset_sign=sign,
                mechanisms=frozenset(mechanisms),
                measurements=measurements,
                violated_keys=frozenset(violated),
                unresolved=unresolved))
        return results

    def simulate_model(self, model: FaultModel) -> SignatureResult:
        """Signature of one model variant."""
        return self._signatures([model])[0]

    def simulate_class_signature(self, fault_class: FaultClass
                                 ) -> FaultClassResult:
        """Worst-case signature over the class's model variants."""
        variants = self._variants(fault_class)
        signatures = self._signatures(variants)
        results = [(sig, v.name)
                   for sig, v in zip(signatures, variants)]
        results.sort(key=lambda pair: pair[0].detectability_rank())
        signature, variant = results[0]
        return FaultClassResult(fault_class=fault_class,
                                signature=signature, variant=variant)

    def simulate_class(self, fault_class: FaultClass
                       ) -> "DetectionRecord":
        """Detection record of one fault class (the
        :class:`~repro.faultsim.FaultEngine` contract).

        Simulates the class's worst-case signature and propagates it to
        the macro-level missing-code verdict, honouring
        ``config.dynamic_test``.
        """
        from ..macrotest.coverage import DetectionRecord
        from ..macrotest.propagate import propagate_comparator_fault

        res = self.simulate_class_signature(fault_class)
        voltage = propagate_comparator_fault(
            res.signature, fault_class.representative,
            at_speed=self.config.dynamic_test)
        # which stimulus detects the class first, in schedule order:
        # the current measurements ride on the big-probe runs (the
        # cheapest stimulus), the missing-code test comes after
        detected_by = None
        if res.signature.mechanisms:
            detected_by = "current"
        elif voltage:
            detected_by = "voltage"
        return DetectionRecord(
            count=fault_class.count, voltage_detected=voltage,
            mechanisms=res.signature.mechanisms,
            voltage_signature=res.signature.voltage,
            fault_type=fault_class.fault_type,
            violated_keys=res.signature.violated_keys,
            detected_by=detected_by)
