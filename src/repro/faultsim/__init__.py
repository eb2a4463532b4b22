"""Analog fault simulation: models, injection, good space, signatures.

Pipeline: :func:`fault_models` builds circuit-level models per fault,
:class:`ComparatorFaultEngine` simulates each class against the
comparator testbench and classifies the macro-level
:class:`SignatureResult` against the compiled :class:`GoodSpace`.

Every macro's engine implements the :class:`FaultEngine` protocol —
one contract, ``simulate_class(fault_class) -> DetectionRecord`` — so
the campaign runner and the test path drive all of them identically
(no per-macro special cases).
"""

from __future__ import annotations

from typing import Protocol, TYPE_CHECKING, runtime_checkable

from .baseline import (BASELINE_VERSION, MacroBaseline, Trajectory,
                       align_guide, align_x0)
from .engine import (ComparatorFaultEngine, EngineConfig,
                     FaultClassResult)
from .goodspace import (GoodSpace, N_COMPARATORS, Window,
                        compile_good_space)
from .models import (FLOAT_LEAK_RESISTANCE, FaultModel, ModelError,
                     fault_models, inject)
from .noncat import (NearMissShortFault, derive_noncatastrophic,
                     near_miss_model)
from .signatures import (CLOCK_DEVIATION_THRESHOLD, CurrentMechanism,
                         Measurement, OFFSET_THRESHOLD, PHASES,
                         POLARITIES, SIGNATURE_QUANTITIES,
                         SignatureResult, VoltageSignature,
                         classify_voltage, signature_feature_names,
                         signature_vector)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..defects.collapse import FaultClass
    from ..macrotest.coverage import DetectionRecord


@runtime_checkable
class FaultEngine(Protocol):
    """The one contract every macro fault engine satisfies.

    A fault engine turns one collapsed fault class into one
    :class:`~repro.macrotest.coverage.DetectionRecord`.  The comparator,
    ladder, clock-generator and bias-generator engines all implement
    it, and :meth:`simulate_class` is the only way a class is
    simulated: :mod:`repro.campaign.tasks` dispatches any macro's
    classes through it.

    ``runtime_checkable`` only verifies the method exists — it cannot
    check the signature — but that is enough for the isinstance guards
    in tests and the campaign planner.
    """

    def simulate_class(self, fault_class: "FaultClass"
                       ) -> "DetectionRecord":
        """Simulate one fault class and report how it is detected."""
        ...


__all__ = [
    "FaultEngine",
    "BASELINE_VERSION", "MacroBaseline", "Trajectory", "align_guide",
    "align_x0",
    "ComparatorFaultEngine", "EngineConfig", "FaultClassResult",
    "GoodSpace", "N_COMPARATORS", "Window", "compile_good_space",
    "FLOAT_LEAK_RESISTANCE", "FaultModel", "ModelError", "fault_models",
    "inject", "NearMissShortFault", "derive_noncatastrophic",
    "near_miss_model", "CLOCK_DEVIATION_THRESHOLD", "CurrentMechanism",
    "Measurement", "OFFSET_THRESHOLD", "PHASES", "POLARITIES",
    "SIGNATURE_QUANTITIES", "SignatureResult", "VoltageSignature",
    "classify_voltage", "signature_feature_names", "signature_vector",
]
