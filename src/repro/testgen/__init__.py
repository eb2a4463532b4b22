"""Test stimuli, detection mechanisms, DfT measures, baselines, costs."""

from .cost import (TestCost, current_only_cost, defect_oriented_cost,
                   specification_oriented_cost)
from .detection import (MissingCodeResult, dynamic_missing_code_test,
                        histogram, missing_code_test)
from .optimize import (MISSING_CODE, TestPlan, full_plan_cost,
                       measurement_cost)
from .dft import (DfTConfig, FULL_DFT, NO_DFT, comparator_layout_for)
from .spec import SpecMeasurement, measure_static, spec_test_detects
from .stimuli import (CURRENT_MEASUREMENTS, CurrentTestStimulus,
                      MISSING_CODE_SAMPLES, MissingCodeStimulus,
                      SAMPLE_RATE)

__all__ = [
    "TestCost", "current_only_cost", "defect_oriented_cost",
    "specification_oriented_cost", "MissingCodeResult", "histogram",
    "missing_code_test", "DfTConfig", "FULL_DFT", "NO_DFT",
    "comparator_layout_for", "SpecMeasurement", "measure_static",
    "spec_test_detects", "CURRENT_MEASUREMENTS", "CurrentTestStimulus",
    "MISSING_CODE_SAMPLES", "MissingCodeStimulus", "SAMPLE_RATE",
    "dynamic_missing_code_test", "MISSING_CODE", "TestPlan",
    "full_plan_cost", "measurement_cost",
]
