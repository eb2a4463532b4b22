"""Analog fault records against golden output of the scalar kernel.

``fixtures/analog_records.json`` holds ``DetectionRecord.to_dict()`` of
the catastrophic and non-catastrophic classes that
``plan_macro(macro, CONFIG)`` plans for the four analog macros,
recorded while one-lane groups still ran on the scalar Newton ladder.
These classes pass through one-lane DC and transient solves, so the
records pin that running every group on the compiled lane program
changes no verdict, signature or count.

To re-record (only for a deliberate record change)::

    PYTHONPATH=src python tests/faultsim/test_analog_records.py
"""

import json
from pathlib import Path

import pytest

from repro.campaign.plan import plan_macro
from repro.campaign.tasks import clear_engine_cache, simulate_class
from repro.core.path import PathConfig

FIXTURE = Path(__file__).parent / "fixtures" / "analog_records.json"
CONFIG = PathConfig(n_defects=600, max_classes=3, seed=1995,
                    include_noncat=True)
MACROS = ("comparator", "ladder", "clockgen", "biasgen")


def records(macro):
    """``{"cat": [...], "noncat": [...]}`` record dicts of one macro."""
    plan = plan_macro(macro, CONFIG)
    return {kind: [simulate_class(fc, plan.spec).to_dict()
                   for fc in classes]
            for kind, classes in (("cat", plan.classes),
                                  ("noncat", plan.noncat_classes))}


@pytest.fixture(scope="module")
def golden():
    clear_engine_cache()
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("macro", MACROS)
def test_records_match_golden(golden, macro):
    assert records(macro) == golden[macro]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({m: records(m) for m in MACROS},
                                  indent=1, sort_keys=True) + "\n")
