"""Test-plan vocabulary (paper section 3.2, closing remark).

"The overlap between different detection mechanisms gives room for the
optimization of the test method and fault detection."

This module owns only the measurement *vocabulary* — the candidate
set, the :class:`TestPlan` result type and the tester-time cost model.
The selection logic lives in :mod:`repro.optimize`: the greedy
weighted set cover is :func:`repro.optimize.seeding.greedy_test_plan`,
where it seeds generation 0 of the evolutionary search
(``python -m repro optimize``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .stimuli import (CURRENT_MEASUREMENT_SETTLE, MissingCodeStimulus)

#: pseudo-measurement representing the whole missing-code test
MISSING_CODE = ("missing_codes", "*", "*")

Measure = Tuple[str, str, str]


@dataclass(frozen=True)
class TestPlan:
    """An ordered measurement selection.

    Attributes:
        measurements: chosen measurements, in selection order.
        coverage: weighted fault coverage the plan achieves.
        achievable: coverage with *every* candidate applied.
        cost: tester time in seconds.
        resolution: expected diagnostic resolution of the selection
            (see :func:`repro.diagnosis.expected_resolution`); None
            when the plan was optimized without a dictionary.
    """

    __test__ = False  # not a pytest class, despite the name

    measurements: Tuple[Measure, ...]
    coverage: float
    achievable: float
    cost: float
    resolution: Optional[float] = None

    def describe(self) -> str:
        lines = [f"{'measurement':34s} {'cumulative cost':>16s}"]
        cost = 0.0
        for m in self.measurements:
            cost += measurement_cost(m)
            label = "missing-code test" if m == MISSING_CODE else \
                f"{m[0]} @ {m[1]}, input {m[2]}"
            lines.append(f"{label:34s} {1000 * cost:13.3f} ms")
        lines.append(f"coverage: {100 * self.coverage:.1f}% of "
                     f"{100 * self.achievable:.1f}% achievable")
        if self.resolution is not None:
            lines.append(f"diagnostic resolution: "
                         f"{100 * self.resolution:.1f}%")
        return "\n".join(lines)


def measurement_cost(measure: Measure) -> float:
    """Tester time of one candidate measurement (seconds)."""
    if measure == MISSING_CODE:
        return MissingCodeStimulus().test_time()
    return CURRENT_MEASUREMENT_SETTLE


def full_plan_cost() -> float:
    """Cost of applying every candidate measurement (the naive plan)."""
    return MissingCodeStimulus().test_time() + \
        24 * CURRENT_MEASUREMENT_SETTLE
