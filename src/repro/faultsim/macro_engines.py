"""Fault-simulation engines for the non-comparator macros.

Each engine mirrors the comparator engine's contract: given collapsed
fault classes from the defect simulator, produce per-class
:class:`~repro.macrotest.coverage.DetectionRecord` entries (voltage
detectability via behavioral propagation, current mechanisms via the
good-space windows).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..adc.biasgen import biasgen_testbench
from ..adc.clockgen import (PHASES as CLOCK_PHASES, clock_levels,
                            clockgen_testbench, iddq)
from ..adc.comparator import CLOCK_PERIOD, build_testbench, \
    phase_measure_times, regeneration_windows
from ..adc.ladder import (N_TAPS, SEGMENTS_PER_COARSE, ladder_testbench,
                          tap_voltages)
from ..adc.process import Process, reduced_corners, typical
from ..adc.behavioral import ComparatorBehavior
from ..circuit.batch import operating_point_lanes, transient_lanes
from ..circuit.dc import ConvergenceError, DCResult
from ..circuit.elements import VoltageSource
from ..circuit.transient import TransientResult, supply_current
from ..defects.collapse import FaultClass
from ..defects.faults import (Fault, GateOxidePinholeFault,
                              JunctionPinholeFault, NewDeviceFault,
                              OpenFault, ShortedDeviceFault)
from ..digital.faults import (BridgingFault, FaultSimulator, StuckAtFault,
                              neighbouring_bridges)
from ..digital.netlist import LogicNetlist
from ..macrotest.coverage import DetectionRecord
from ..macrotest.propagate import (propagate_bank_behavior,
                                   propagate_clock_fault,
                                   propagate_ladder_fault)
from .baseline import (MacroBaseline, Trajectory, align_guide,
                       align_x0, coerce_payload)
from .goodspace import FLOOR_IDDQ, FLOOR_IVREF
from .models import fault_models, inject
from .noncat import NearMissShortFault, near_miss_model
from .signatures import CurrentMechanism


def _detected_by(voltage: bool, mechanisms) -> Optional[str]:
    """First detecting stimulus in schedule order (current first —
    the quiescent measurements ride on runs already made)."""
    if mechanisms:
        return "current"
    if voltage:
        return "voltage"
    return None


def translate_fault(fault: Fault, net_map: Dict[str, str],
                    device_map: Dict[str, str]) -> Fault:
    """Rename a fault's nets/devices (slice coordinates -> full-circuit
    coordinates)."""
    def net(n: str) -> str:
        return net_map.get(n, n)

    def dev(d: str) -> str:
        return device_map.get(d, d)

    def group(g):
        out = []
        for label in g:
            device, _, term = label.partition(":")
            out.append(f"{dev(device)}:{term}")
        return frozenset(out)

    kwargs = {}
    if hasattr(fault, "nets"):
        kwargs["nets"] = frozenset(net(n) for n in fault.nets)
    if hasattr(fault, "net"):
        kwargs["net"] = net(fault.net)
    if hasattr(fault, "bulk_net"):
        kwargs["bulk_net"] = net(fault.bulk_net)
    if hasattr(fault, "device"):
        kwargs["device"] = dev(fault.device)
    if hasattr(fault, "gate_net") and fault.gate_net is not None:
        kwargs["gate_net"] = net(fault.gate_net)
    if hasattr(fault, "partition"):
        kwargs["partition"] = frozenset(group(g)
                                        for g in fault.partition)
    return dataclasses.replace(fault, **kwargs)


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------

#: the analysed slice stands for the span starting at this tap — it
#: must be a coarse-pin multiple so the slice's coarse segment lands on
#: a real coarse segment of the full ladder
LADDER_SLICE_BASE = 128


@dataclass
class LadderFaultEngine:
    """DC fault simulation of the ladder macro.

    The defect campaign runs on a one-span slice; its faults are
    translated into the middle span of the full dual ladder, solved at
    DC, and judged on reference-terminal current, supply loading and
    the propagated tap voltages (missing-code test).

    Attributes:
        ivdd_window_halfwidth: chip-level IVdd acceptance half-width
            (from the comparator good space) for supply-loading faults.
        warm_start: seed the faulty DC Newton solves from the good
            ladder solution (gmin/source stepping stays as fallback).
        drop: reuse the fault-free missing-code verdict for variants
            whose tap vector is bit-identical to the good one (their
            behavioral propagation is the same pure function call).
    """

    process: Process = field(default_factory=typical)
    corners: Sequence[Process] = field(default_factory=reduced_corners)
    ivdd_window_halfwidth: float = 20e-3
    #: resolution of the terminal-difference current measurement
    iref_diff_floor: float = 200e-6
    warm_start: bool = True
    drop: bool = True
    #: linear backend for the batched solves (see
    #: :func:`repro.circuit.backend.resolve_solver`)
    solver: str = "auto"

    def __post_init__(self) -> None:
        self._window: Optional[Tuple[float, float]] = None
        self._typ: Optional[Tuple[float, np.ndarray]] = None
        self._guide: Optional[Trajectory] = None
        self._good_voltage: Optional[bool] = None
        self.baseline_source = "computed"

    def _testbench(self, process: Process):
        tb = ladder_testbench(process)
        tb.add(VoltageSource("VDD", "vdd", "gnd", process.vdd))
        return tb

    def _extract(self, op: DCResult) -> dict:
        taps = np.array([op.voltage(f"tap{k}")
                         for k in range(N_TAPS + 1)])
        return {
            # both reference terminals are measured separately: a short
            # to a rail pulls extra current from one terminal and
            # starves the other, which would cancel in a summed metric
            "ivrefp": -op.current("VREFP"),
            "ivrefn": op.current("VREFN"),
            "ivdd": -op.current("VDD"),
            "taps": taps,
        }

    def _solve_raw(self, circuits, warm: bool = False):
        """Raw DC outcomes, optionally warm-started off the baseline."""
        guesses = None
        if warm and self.warm_start and self._guide is not None:
            guesses = [align_x0(c.compile(), self._guide)
                       for c in circuits]
        return operating_point_lanes(circuits, x0_guesses=guesses,
                                     solver=self.solver)

    def _solve_many(self, circuits, warm: bool = False):
        """Solve several circuits, batching identical structures.

        Returns per-circuit dicts, or the lane's
        :class:`ConvergenceError` where the solve failed.
        """
        return [out if isinstance(out, ConvergenceError)
                else self._extract(out)
                for out in self._solve_raw(circuits, warm=warm)]

    def _net_map(self) -> Dict[str, str]:
        mapping = {f"tap{k}": f"tap{LADDER_SLICE_BASE + k}"
                   for k in range(SEGMENTS_PER_COARSE + 1)}
        return mapping

    def _device_map(self) -> Dict[str, str]:
        mapping = {f"RF{k}": f"RF{LADDER_SLICE_BASE + k}"
                   for k in range(SEGMENTS_PER_COARSE)}
        mapping["RC0"] = f"RC{LADDER_SLICE_BASE}"
        return mapping

    def good(self):
        """Typical solution plus per-terminal current windows over
        corners.

        The typical and corner testbenches are structurally identical,
        so the whole fault-free sweep solves as one batched DC ladder.
        """
        if self._typ is None:
            circuits = [self._testbench(self.process)] + \
                [self._testbench(p) for p in self.corners]
            raw = self._solve_raw(circuits)
            for out in raw:
                if isinstance(out, ConvergenceError):
                    raise out
            self._guide = Trajectory.from_result(raw[0])
            solved = [self._extract(out) for out in raw]
            self._typ = solved[0]
            solutions = solved[1:]
            self._window = {}
            for key in ("ivrefp", "ivrefn"):
                values = [s[key] for s in solutions]
                self._window[key] = (min(values) - FLOOR_IVREF,
                                     max(values) + FLOOR_IVREF)
        return self._typ, self._window

    def export_baseline(self) -> MacroBaseline:
        """The fault-free sweep as a shareable baseline blob."""
        typ, windows = self.good()
        payload = {
            "typ": {"ivrefp": typ["ivrefp"], "ivrefn": typ["ivrefn"],
                    "ivdd": typ["ivdd"],
                    "taps": [float(v) for v in typ["taps"]]},
            "window": {key: [lo, hi]
                       for key, (lo, hi) in windows.items()},
            "guide": self._guide.to_dict() if self._guide else None,
        }
        return MacroBaseline(macro="ladder", payload=payload)

    def adopt_baseline(self, baseline) -> bool:
        """Reuse an exported baseline; False if it does not fit."""
        payload = coerce_payload(baseline)
        if payload is None:
            return False
        try:
            typ = {"ivrefp": float(payload["typ"]["ivrefp"]),
                   "ivrefn": float(payload["typ"]["ivrefn"]),
                   "ivdd": float(payload["typ"]["ivdd"]),
                   "taps": np.array([float(v)
                                     for v in payload["typ"]["taps"]])}
            window = {str(k): (float(v[0]), float(v[1]))
                      for k, v in payload["window"].items()}
            guide = (Trajectory.from_dict(payload["guide"])
                     if payload.get("guide") else None)
        except (KeyError, TypeError, ValueError):
            return False
        if set(window) != {"ivrefp", "ivrefn"} or \
                len(typ["taps"]) != N_TAPS + 1:
            return False
        self._typ = typ
        self._window = window
        self._guide = guide
        self.baseline_source = "adopted"
        return True

    def _propagate(self, taps: np.ndarray, typ: dict) -> bool:
        """Missing-code verdict, dropping bit-identical-to-good taps.

        :func:`propagate_ladder_fault` is a pure function of the tap
        vector, so reusing the fault-free verdict for an identical
        vector cannot change any record.
        """
        if self.drop and np.array_equal(taps, typ["taps"]):
            if self._good_voltage is None:
                self._good_voltage = propagate_ladder_fault(typ["taps"])
            return self._good_voltage
        return propagate_ladder_fault(taps)

    def simulate_class(self, fault_class: FaultClass) -> DetectionRecord:
        typ, windows = self.good()
        fault = translate_fault(fault_class.representative,
                                self._net_map(), self._device_map())
        if isinstance(fault, NearMissShortFault):
            variants = [near_miss_model(fault)]
        else:
            variants = fault_models(fault, process=self.process)
        solutions = self._solve_many(
            [inject(self._testbench(self.process), model)
             for model in variants], warm=True)
        records = []
        for sol in solutions:
            if isinstance(sol, ConvergenceError):
                records.append((True, {CurrentMechanism.IVDD}))
                continue
            mechanisms: Set[CurrentMechanism] = set()
            for key in ("ivrefp", "ivrefn"):
                lo, hi = windows[key]
                if not lo <= sol[key] <= hi:
                    mechanisms.add(CurrentMechanism.IINPUT)
            # terminal-difference measurement: the sheet-resistance
            # spread cancels between the two terminals, so any leak
            # from the ladder into another net is visible far below
            # the absolute-current window
            diff = abs(sol["ivrefp"] - sol["ivrefn"])
            typ_diff = abs(typ["ivrefp"] - typ["ivrefn"])
            if abs(diff - typ_diff) > self.iref_diff_floor:
                mechanisms.add(CurrentMechanism.IINPUT)
            if abs(sol["ivdd"] - typ["ivdd"]) > \
                    self.ivdd_window_halfwidth:
                mechanisms.add(CurrentMechanism.IVDD)
            voltage = self._propagate(sol["taps"], typ)
            records.append((voltage, mechanisms))
        # worst case (least detectable) variant, as for the comparator
        records.sort(key=lambda r: (len(r[1]), r[0]))
        voltage, mechanisms = records[0]
        return DetectionRecord(count=fault_class.count,
                               voltage_detected=voltage,
                               mechanisms=frozenset(mechanisms),
                               fault_type=fault_class.fault_type,
                               detected_by=_detected_by(voltage,
                                                        mechanisms))


# ---------------------------------------------------------------------------
# clock generator
# ---------------------------------------------------------------------------


@dataclass
class ClockgenFaultEngine:
    """Transient fault simulation of the clock generator macro.

    Attributes:
        warm_start: seed faulty transients from the good trajectory.
        drop: memoise the chip-level missing-code propagation on the
            (phase-alive, degraded) signature — once a signature is
            known to stay inside (or leave) the good space, identical
            signatures reuse the verdict instead of re-running the
            behavioral ADC.
    """

    process: Process = field(default_factory=typical)
    dt: float = 1e-9
    period: float = CLOCK_PERIOD
    iddq_floor: float = FLOOR_IDDQ
    warm_start: bool = True
    drop: bool = True
    #: linear backend for the batched solves (see
    #: :func:`repro.circuit.backend.resolve_solver`)
    solver: str = "auto"

    def __post_init__(self) -> None:
        self._good: Optional[dict] = None
        self._guide: Optional[Trajectory] = None
        self._propagate_memo: Dict[Tuple, bool] = {}
        self.baseline_source = "computed"

    def _extract(self, tr: TransientResult) -> dict:
        return {
            "iddq": iddq(tr, period=self.period),
            "levels": clock_levels(tr, period=self.period),
            "lows": {phase: tr.at_time(phase, frac * self.period)
                     for phase, frac in (("phi1", 0.50), ("phi2", 0.88),
                                         ("phi3", 0.17))},
        }

    def _run_raw(self, circuits, warm: bool = False):
        guides = None
        if warm and self.warm_start and self._guide is not None:
            guides = [align_guide(c.compile(), self._guide)
                      for c in circuits]
        return transient_lanes(circuits, tstop=self.period,
                               dt=self.dt, guides=guides,
                               solver=self.solver)

    def _run_many(self, circuits, warm: bool = False):
        """Transients for several circuits, batching identical
        structures (e.g. a class's conductance-only model variants)."""
        return [out if isinstance(out, ConvergenceError)
                else self._extract(out)
                for out in self._run_raw(circuits, warm=warm)]

    def good(self) -> dict:
        if self._good is None:
            out = self._run_raw([clockgen_testbench(self.process,
                                                    self.period)])[0]
            if isinstance(out, ConvergenceError):
                raise out
            self._guide = Trajectory.from_result(out)
            self._good = self._extract(out)
        return self._good

    def export_baseline(self) -> MacroBaseline:
        """The fault-free run as a shareable baseline blob."""
        good = self.good()
        payload = {
            "good": {"iddq": good["iddq"],
                     "levels": {k: float(v)
                                for k, v in good["levels"].items()},
                     "lows": {k: float(v)
                              for k, v in good["lows"].items()}},
            "guide": self._guide.to_dict() if self._guide else None,
        }
        return MacroBaseline(macro="clockgen", payload=payload)

    def adopt_baseline(self, baseline) -> bool:
        """Reuse an exported baseline; False if it does not fit."""
        payload = coerce_payload(baseline)
        if payload is None:
            return False
        try:
            good = {"iddq": float(payload["good"]["iddq"]),
                    "levels": {str(k): float(v) for k, v
                               in payload["good"]["levels"].items()},
                    "lows": {str(k): float(v) for k, v
                             in payload["good"]["lows"].items()}}
            guide = (Trajectory.from_dict(payload["guide"])
                     if payload.get("guide") else None)
        except (KeyError, TypeError, ValueError):
            return False
        if set(good["levels"]) != set(CLOCK_PHASES) or \
                set(good["lows"]) != set(CLOCK_PHASES):
            return False
        self._good = good
        self._guide = guide
        self.baseline_source = "adopted"
        return True

    def _propagate(self, alive: dict, degraded: bool) -> bool:
        """Missing-code verdict, memoised per signature under drop.

        :func:`propagate_clock_fault` is a pure function of the
        signature, so the memo cannot change any record.
        """
        if not self.drop:
            return propagate_clock_fault(alive, degraded)
        key = (tuple(sorted(alive.items())), degraded)
        verdict = self._propagate_memo.get(key)
        if verdict is None:
            verdict = propagate_clock_fault(alive, degraded)
            self._propagate_memo[key] = verdict
        return verdict

    def simulate_class(self, fault_class: FaultClass) -> DetectionRecord:
        good = self.good()
        fault = fault_class.representative
        if isinstance(fault, NearMissShortFault):
            variants = [near_miss_model(fault)]
        else:
            variants = fault_models(fault, process=self.process)
        solutions = self._run_many(
            [inject(clockgen_testbench(self.process, self.period), model)
             for model in variants], warm=True)
        outcomes = []
        for sol in solutions:
            if isinstance(sol, ConvergenceError):
                outcomes.append((True, {CurrentMechanism.IDDQ}))
                continue
            mechanisms: Set[CurrentMechanism] = set()
            if sol["iddq"] > good["iddq"] + self.iddq_floor:
                mechanisms.add(CurrentMechanism.IDDQ)
            vdd = self.process.vdd
            alive = {}
            degraded = False
            for phase in CLOCK_PHASES:
                high = sol["levels"][phase]
                low = sol["lows"][phase]
                alive[phase] = high > 0.7 * vdd and low < 0.3 * vdd
                if alive[phase] and (abs(high - vdd) > 0.15 or
                                     abs(low) > 0.15):
                    degraded = True
            voltage = self._propagate(alive, degraded)
            outcomes.append((voltage, mechanisms))
        outcomes.sort(key=lambda r: (len(r[1]), r[0]))
        voltage, mechanisms = outcomes[0]
        return DetectionRecord(count=fault_class.count,
                               voltage_detected=voltage,
                               mechanisms=frozenset(mechanisms),
                               fault_type=fault_class.fault_type,
                               detected_by=_detected_by(voltage,
                                                        mechanisms))


# ---------------------------------------------------------------------------
# bias generator
# ---------------------------------------------------------------------------


@dataclass
class BiasgenFaultEngine:
    """DC + comparator-bank fault simulation of the bias generator.

    A biasgen fault shifts vbn1/vbn2 for *every* comparator.  Each fault
    class is DC-solved; when the bias lines move more than a dead-band
    the comparator testbench is re-run with the faulty bias values to
    judge the bank's behaviour and the (x256) supply-current shift.
    """

    process: Process = field(default_factory=typical)
    dt: float = 1e-9
    period: float = CLOCK_PERIOD
    ivdd_window_halfwidth: float = 20e-3
    #: bias shifts below this provably change nothing measurable
    dead_band: float = 0.02
    #: seed faulty solves from the good bias point / comparator runs
    warm_start: bool = True
    #: skip the comparator-bank re-run for dead-band bias shifts
    drop: bool = True
    #: linear backend for the batched solves (see
    #: :func:`repro.circuit.backend.resolve_solver`)
    solver: str = "auto"

    def __post_init__(self) -> None:
        self._good: Optional[dict] = None
        self._bias_guide: Optional[Trajectory] = None
        self._comp_guides: Dict[str, Trajectory] = {}
        self.baseline_source = "computed"

    def _solve_bias(self, circuit, warm: bool = False) -> dict:
        guesses = None
        if warm and self.warm_start and self._bias_guide is not None:
            guesses = [align_x0(circuit.compile(), self._bias_guide)]
        out = operating_point_lanes([circuit], x0_guesses=guesses,
                                    solver=self.solver)[0]
        if isinstance(out, ConvergenceError):
            raise out
        return {"vbn1": out.voltage("vbn1"), "vbn2": out.voltage("vbn2"),
                "ivdd": -out.current("VDD")}

    def _comparator_raw(self, vbn1: float, vbn2: float,
                        vin_offsets: Sequence[float],
                        warm: bool = False):
        """Raw comparator-bank transients at several input offsets with
        shifted bias lines — one batched transient (the lanes differ
        only in source values)."""
        circuits = []
        guides = [] if warm and self.warm_start and self._comp_guides \
            else None
        for off in vin_offsets:
            tb = build_testbench(process=self.process,
                                 vin=2.5 + off, vref=2.5,
                                 period=self.period)
            tb.circuit.element("VBN1S").value = vbn1
            tb.circuit.element("VBN2S").value = vbn2
            circuits.append(tb.circuit)
            if guides is not None:
                trajectory = self._comp_guides.get(
                    "above" if off > 0 else "below")
                guides.append(align_guide(tb.circuit.compile(),
                                          trajectory))
        return transient_lanes(
            circuits, tstop=self.period, dt=self.dt,
            fine_windows=regeneration_windows(self.period, 1),
            guides=guides, solver=self.solver)

    def _extract_comparator(self, tr: TransientResult) -> dict:
        times = phase_measure_times(self.period, 0)
        ivdd = supply_current(tr, "VDD")
        samples = [float(ivdd[int(np.argmin(np.abs(tr.times - t)))])
                   for t in times]
        decision = tr.at_time("ffout", 0.97 * self.period) > \
            self.process.vdd / 2.0
        return {"ivdd": samples, "decision": bool(decision)}

    def _comparator_runs(self, vbn1: float, vbn2: float,
                         vin_offsets: Sequence[float],
                         warm: bool = False) -> List[dict]:
        results = []
        for tr in self._comparator_raw(vbn1, vbn2, vin_offsets,
                                       warm=warm):
            if isinstance(tr, ConvergenceError):
                raise tr
            results.append(self._extract_comparator(tr))
        return results

    def good(self) -> dict:
        if self._good is None:
            bias_circuit = biasgen_testbench(self.process)
            guesses = None
            if self.warm_start and self._bias_guide is not None:
                guesses = [align_x0(bias_circuit.compile(),
                                    self._bias_guide)]
            out = operating_point_lanes([bias_circuit],
                                        x0_guesses=guesses,
                                        solver=self.solver)[0]
            if isinstance(out, ConvergenceError):
                raise out
            self._bias_guide = Trajectory.from_result(out)
            bias = {"vbn1": out.voltage("vbn1"),
                    "vbn2": out.voltage("vbn2"),
                    "ivdd": -out.current("VDD")}
            raws = self._comparator_raw(bias["vbn1"], bias["vbn2"],
                                        [0.1, -0.1])
            results = []
            for pol, tr in zip(("above", "below"), raws):
                if isinstance(tr, ConvergenceError):
                    raise tr
                self._comp_guides[pol] = Trajectory.from_result(tr)
                results.append(self._extract_comparator(tr))
            self._good = {"bias": bias, "above": results[0],
                          "below": results[1]}
        return self._good

    def export_baseline(self) -> MacroBaseline:
        """The fault-free solves as a shareable baseline blob."""
        good = self.good()
        payload = {
            "bias": dict(good["bias"]),
            "above": {"ivdd": list(good["above"]["ivdd"]),
                      "decision": good["above"]["decision"]},
            "below": {"ivdd": list(good["below"]["ivdd"]),
                      "decision": good["below"]["decision"]},
            "bias_guide": (self._bias_guide.to_dict()
                           if self._bias_guide else None),
            "comp_guides": {pol: t.to_dict()
                            for pol, t in self._comp_guides.items()},
        }
        return MacroBaseline(macro="biasgen", payload=payload)

    def adopt_baseline(self, baseline) -> bool:
        """Reuse an exported baseline; False if it does not fit."""
        payload = coerce_payload(baseline)
        if payload is None:
            return False
        try:
            bias = {k: float(payload["bias"][k])
                    for k in ("vbn1", "vbn2", "ivdd")}
            runs = {pol: {"ivdd": [float(v)
                                   for v in payload[pol]["ivdd"]],
                          "decision": bool(payload[pol]["decision"])}
                    for pol in ("above", "below")}
            bias_guide = (Trajectory.from_dict(payload["bias_guide"])
                          if payload.get("bias_guide") else None)
            comp_guides = {str(pol): Trajectory.from_dict(t)
                           for pol, t
                           in payload.get("comp_guides", {}).items()}
        except (KeyError, TypeError, ValueError):
            return False
        self._good = {"bias": bias, "above": runs["above"],
                      "below": runs["below"]}
        self._bias_guide = bias_guide
        self._comp_guides = comp_guides
        self.baseline_source = "adopted"
        return True

    def simulate_class(self, fault_class: FaultClass) -> DetectionRecord:
        good = self.good()
        fault = fault_class.representative
        if isinstance(fault, NearMissShortFault):
            variants = [near_miss_model(fault)]
        else:
            variants = fault_models(fault, process=self.process)
        outcomes = []
        for model in variants:
            tb = biasgen_testbench(self.process)
            try:
                bias = self._solve_bias(inject(tb, model), warm=True)
            except ConvergenceError:
                outcomes.append((True, {CurrentMechanism.IVDD}))
                continue
            mechanisms: Set[CurrentMechanism] = set()
            d_own = bias["ivdd"] - good["bias"]["ivdd"]
            shift = max(abs(bias["vbn1"] - good["bias"]["vbn1"]),
                        abs(bias["vbn2"] - good["bias"]["vbn2"]))
            if self.drop and shift < self.dead_band:
                # detection-driven drop: the bias lines stayed inside
                # the dead band, so the bank re-run cannot move any
                # decision; only the macro's own supply draw remains
                if abs(d_own) > self.ivdd_window_halfwidth:
                    mechanisms.add(CurrentMechanism.IVDD)
                outcomes.append((False, mechanisms))
                continue
            try:
                above, below = self._comparator_runs(
                    bias["vbn1"], bias["vbn2"], [0.1, -0.1],
                    warm=True)
            except ConvergenceError:
                outcomes.append((True, {CurrentMechanism.IVDD}))
                continue
            d_bank = max(
                abs(256 * (a - g))
                for a, g in zip(above["ivdd"] + below["ivdd"],
                                good["above"]["ivdd"] +
                                good["below"]["ivdd"]))
            if d_bank + abs(d_own) > self.ivdd_window_halfwidth:
                mechanisms.add(CurrentMechanism.IVDD)
            behavior = ComparatorBehavior()
            if above["decision"] == below["decision"]:
                behavior = ComparatorBehavior(stuck=above["decision"])
            elif above["decision"] is False:
                behavior = ComparatorBehavior(mixed_band=0.2)
            voltage = propagate_bank_behavior(behavior)
            outcomes.append((voltage, mechanisms))
        outcomes.sort(key=lambda r: (len(r[1]), r[0]))
        voltage, mechanisms = outcomes[0]
        return DetectionRecord(count=fault_class.count,
                               voltage_detected=voltage,
                               mechanisms=frozenset(mechanisms),
                               fault_type=fault_class.fault_type,
                               detected_by=_detected_by(voltage,
                                                        mechanisms))


# ---------------------------------------------------------------------------
# decoder (digital)
# ---------------------------------------------------------------------------


@dataclass
class DecoderFaultEngine:
    """Digital fault analysis of the thermometer decoder.

    Universe: bridging faults (the metallisation-short population, IDDQ
    plus wired-AND logic detection) and a stuck-at sample (the open /
    pinhole population, logic detection).  Vectors are exactly the 256
    thermometer codes that the triangular missing-code stimulus applies.
    """

    netlist: Optional[LogicNetlist] = None
    n_bridge_sample: int = 400
    n_stuck_sample: int = 200
    #: logic detection scores only this many activating codes per
    #: fault (underestimates logic coverage; the cost is measured in
    #: EXPERIMENTS.md)
    max_logic_probes: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.netlist is None:
            from ..adc.decoder import build_decoder
            self.netlist = build_decoder(8)
        self._simulator: Optional[FaultSimulator] = None

    def simulator(self) -> FaultSimulator:
        """The 256 thermometer codes, packed once (lane k = code k)."""
        if self._simulator is None:
            from ..adc.decoder import thermometer_vector
            self._simulator = FaultSimulator(
                self.netlist,
                [thermometer_vector(code, 8) for code in range(256)])
        return self._simulator

    def simulate_class(self, fault) -> DetectionRecord:
        """Detection record of one digital fault (the
        :class:`~repro.faultsim.FaultEngine` contract).

        Accepts a :class:`~repro.digital.faults.BridgingFault` or
        :class:`~repro.digital.faults.StuckAtFault` (the decoder's
        fault universe is digital, not a collapsed analog class).  Logic
        detection is scored on the first ``max_logic_probes`` codes
        that activate the fault; a bridge any code activates is IDDQ
        detected.

        Raises:
            LogicError: naming a faulted net the netlist lacks.
        """
        if isinstance(fault, BridgingFault):
            fault_type = "short"
        elif isinstance(fault, StuckAtFault):
            fault_type = "open"
        else:
            raise TypeError(f"unsupported decoder fault {fault!r}")
        simulator = self.simulator()
        logic_det = simulator.detected_within(fault,
                                              self.max_logic_probes)
        mechanisms = frozenset()
        if fault_type == "short" and simulator.activation(fault):
            mechanisms = frozenset({CurrentMechanism.IDDQ})
        return DetectionRecord(
            count=1, voltage_detected=logic_det, mechanisms=mechanisms,
            fault_type=fault_type,
            detected_by=_detected_by(logic_det, mechanisms))

    def run(self, rng: Optional[np.random.Generator] = None
            ) -> Tuple[List[DetectionRecord], List[DetectionRecord]]:
        """Returns (bridge_records, stuck_records).

        ``self.seed`` is ignored when an explicit *rng* is given.
        """
        rng = rng if rng is not None else np.random.default_rng(self.seed)

        bridges = neighbouring_bridges(self.netlist)
        if len(bridges) > self.n_bridge_sample:
            idx = rng.choice(len(bridges), self.n_bridge_sample,
                             replace=False)
            bridges = [bridges[int(i)] for i in sorted(idx)]
        bridge_records = [self.simulate_class(b) for b in bridges]

        nets = sorted(self.netlist.nets())
        stuck_universe = [StuckAtFault(net, value)
                          for net in nets for value in (False, True)]
        if len(stuck_universe) > self.n_stuck_sample:
            idx = rng.choice(len(stuck_universe), self.n_stuck_sample,
                             replace=False)
            stuck_universe = [stuck_universe[int(i)]
                              for i in sorted(idx)]
        stuck_records = [self.simulate_class(f) for f in stuck_universe]
        return bridge_records, stuck_records
