"""Pure, picklable per-class simulation tasks.

:func:`simulate_class` is the unit of work a campaign dispatches: one
collapsed fault class plus an :class:`EngineSpec` in, one
:class:`~repro.macrotest.coverage.DetectionRecord` out.  It holds no
references to the planner or runner, so a
``concurrent.futures.ProcessPoolExecutor`` can ship it to worker
processes; the (expensive, good-space-compiling) engines are built
lazily and cached per worker process keyed by their spec.

:func:`run_task` wraps it with the campaign's failure contract: any
exception — a :class:`~repro.circuit.dc.ConvergenceError` escaping an
engine, a bad fault model, a crashed solver — is captured into the
returned :class:`TaskOutcome` instead of propagating, so one sick
class can never take the campaign down.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..adc.process import Process, typical
from ..circuit.dc import ConvergenceError
from ..defects.collapse import FaultClass
from ..faultsim.engine import ComparatorFaultEngine, EngineConfig
from ..faultsim.macro_engines import (BiasgenFaultEngine,
                                      ClockgenFaultEngine,
                                      LadderFaultEngine)
from ..macrotest.coverage import DetectionRecord

#: macros whose classes are dispatched as pool tasks (the digital
#: decoder is analysed whole in the parent: one bit-parallel fault
#: simulation over its 256 codes, not thousands of analog transients)
ANALOG_MACROS = ("comparator", "ladder", "biasgen", "clockgen")


@dataclass(frozen=True)
class EngineSpec:
    """Everything needed to rebuild a macro's fault engine anywhere.

    Attributes:
        macro: one of :data:`ANALOG_MACROS`.
        process: corner the faulty instances are evaluated at.
        dft_flipflop: comparator flipflop-redesign DfT variant.
        dynamic_test: run the at-speed missing-code test during
            comparator propagation.
        ivdd_window_halfwidth: chip-level IVdd acceptance half-width
            (ladder / biasgen engines; derived from the comparator
            good space by the planner).
        dt: transient timestep of the comparator / clockgen / biasgen
            engines.
        big_probe: comparator above/below input offset (volts).
        small_probe: comparator offset-detection probe (volts).
        corners: good-space corner set (None: the reduced corners).
        warm_start: seed faulty Newton solves from the good-circuit
            baseline (results identical; performance knob only —
            excluded from content keys).
        drop: stop a class's stimulus schedule once its signature has
            left the good space (results identical; performance knob
            only — excluded from content keys).
        solver: linear backend (:data:`repro.circuit.backend.SOLVERS`).
            ``auto`` and ``dense`` name the same dense kernel and share
            content keys; ``sparse`` trades bit identity for
            wall-clock and keys separately.
    """

    macro: str
    process: Process = field(default_factory=typical)
    dft_flipflop: bool = False
    dynamic_test: bool = False
    ivdd_window_halfwidth: float = 0.0
    dt: float = 1e-9
    big_probe: float = 0.1
    small_probe: float = 8e-3
    corners: Optional[Tuple[Process, ...]] = None
    warm_start: bool = True
    drop: bool = True
    solver: str = "auto"


def build_engine(spec: EngineSpec):
    """Construct the fault engine described by a spec.

    Every engine satisfies the :class:`~repro.faultsim.FaultEngine`
    protocol, so callers dispatch classes without per-macro cases.
    """
    if spec.macro == "comparator":
        return ComparatorFaultEngine(EngineConfig(
            dft=spec.dft_flipflop, process=spec.process,
            dynamic_test=spec.dynamic_test, dt=spec.dt,
            big_probe=spec.big_probe, small_probe=spec.small_probe,
            corners=spec.corners, warm_start=spec.warm_start,
            drop=spec.drop, solver=spec.solver))
    if spec.macro == "ladder":
        return LadderFaultEngine(
            process=spec.process,
            corners=list(spec.corners) if spec.corners else
            _default_corners(),
            ivdd_window_halfwidth=spec.ivdd_window_halfwidth,
            warm_start=spec.warm_start, drop=spec.drop,
            solver=spec.solver)
    if spec.macro == "clockgen":
        return ClockgenFaultEngine(process=spec.process, dt=spec.dt,
                                   warm_start=spec.warm_start,
                                   drop=spec.drop, solver=spec.solver)
    if spec.macro == "biasgen":
        return BiasgenFaultEngine(
            process=spec.process, dt=spec.dt,
            ivdd_window_halfwidth=spec.ivdd_window_halfwidth,
            warm_start=spec.warm_start, drop=spec.drop,
            solver=spec.solver)
    raise ValueError(f"no engine for macro {spec.macro!r}")


def _default_corners():
    from ..adc.process import reduced_corners
    return reduced_corners()


#: per-process engine cache — workers compile each good space once
_ENGINES: Dict[EngineSpec, object] = {}

#: per-process good-circuit baselines, baseline key (the store's
#: normalised-spec digest) -> payload dict.  Keyed by the full spec
#: digest, not the macro name, so a baseline can only ever reach an
#: engine whose spec it was computed for — a DfT comparator never
#: adopts the standard comparator's good space.  Installed by
#: :func:`adopt_baselines` (the runner's pool initializer ships them
#: to every worker); engines built afterwards adopt them instead of
#: re-simulating the fault-free circuit.
_BASELINES: Dict[str, Dict] = {}


def _baseline_for(spec: EngineSpec):
    if not _BASELINES:
        return None
    from .store import baseline_key
    return _BASELINES.get(baseline_key(spec))


def adopt_baselines(payloads: Dict[str, Dict]) -> None:
    """Install spec-keyed baselines for this process's future engines.

    Picklable (plain dicts), so it doubles as a
    ``ProcessPoolExecutor`` initializer argument.  Engines already in
    the cache are updated in place when they support adoption.
    """
    _BASELINES.update(payloads or {})
    for spec, engine in _ENGINES.items():
        payload = _baseline_for(spec)
        if payload is not None and hasattr(engine, "adopt_baseline"):
            engine.adopt_baseline(payload)


def get_engine(spec: EngineSpec):
    """Engine for a spec, cached per process.

    A freshly built engine adopts the process's baseline for its spec
    (when one was installed), skipping the good-circuit simulation.
    """
    engine = _ENGINES.get(spec)
    if engine is None:
        engine = build_engine(spec)
        payload = _baseline_for(spec)
        if payload is not None and hasattr(engine, "adopt_baseline"):
            engine.adopt_baseline(payload)
        _ENGINES[spec] = engine
    return engine


def clear_engine_cache() -> None:
    """Drop cached engines and baselines (tests / memory pressure)."""
    _ENGINES.clear()
    _BASELINES.clear()


def simulate_class(fault_class: FaultClass,
                   spec: EngineSpec) -> DetectionRecord:
    """Simulate one fault class: the campaign's pure unit of work.

    Deterministic in its arguments, independent of global state (apart
    from the per-process engine cache, which only memoises), and
    picklable end to end.  Every engine implements the
    :class:`~repro.faultsim.FaultEngine` protocol, so no macro needs a
    special case here — the comparator engine propagates its own
    signature to the missing-code verdict.
    """
    return get_engine(spec).simulate_class(fault_class)


@dataclass(frozen=True)
class ClassTask:
    """One dispatchable simulation.

    Attributes:
        task_id: stable identity, ``"<macro>:<kind>:<index>"``.
        macro: macro name.
        kind: ``"cat"`` or ``"noncat"``.
        index: class index within (macro, kind).
        fault_class: the class to simulate.
        spec: engine specification.
        store_key: content hash for the results store (empty when no
            store is configured).
    """

    task_id: str
    macro: str
    kind: str
    index: int
    fault_class: FaultClass
    spec: EngineSpec
    store_key: str = ""


@dataclass(frozen=True)
class TaskOutcome:
    """What came back from one attempt at a task.

    Attributes:
        task_id: the task's identity.
        record: the detection record (None when the attempt failed).
        error: captured traceback text of a failed attempt.
        error_type: exception class name of a failed attempt.
        wall: attempt wall time in seconds.
        solver_phases: per-phase solver wall time (assemble / factor /
            solve / convergence_check seconds) accumulated during this
            attempt, for the campaign metrics.
    """

    task_id: str
    record: Optional[DetectionRecord] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    wall: float = 0.0
    solver_phases: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.record is not None

    @property
    def convergence_failure(self) -> bool:
        return self.error_type == ConvergenceError.__name__


def run_task(task: ClassTask) -> TaskOutcome:
    """Execute one task, trapping any failure into the outcome."""
    from ..circuit import backend as _backend
    started = time.perf_counter()
    _backend.reset_timings()
    try:
        record = simulate_class(task.fault_class, task.spec)
    except BaseException as exc:  # noqa: BLE001 — the contract
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return TaskOutcome(task_id=task.task_id,
                           error=traceback.format_exc(),
                           error_type=type(exc).__name__,
                           wall=time.perf_counter() - started,
                           solver_phases=_backend.snapshot_timings())
    return TaskOutcome(task_id=task.task_id, record=record,
                       wall=time.perf_counter() - started,
                       solver_phases=_backend.snapshot_timings())


def degraded_record(fault_class: FaultClass) -> DetectionRecord:
    """Pessimistic record for a class that failed twice.

    The class is counted as undetected — degrading coverage rather
    than inflating it — so a sick simulation can only make the
    reported test look worse, never better.
    """
    return DetectionRecord(count=fault_class.count,
                           voltage_detected=False,
                           mechanisms=frozenset(),
                           fault_type=fault_class.fault_type)
