"""Close the loop: optimized test plan + DfT advice from one run.

Runs the comparator macro through the path at a reduced budget, then:

1. chooses the cheapest measurement subset that keeps the achievable
   coverage (the paper: "the overlap between different detection
   mechanisms gives room for the optimization of the test method");
2. diagnoses every escaped fault class and prints the resulting DfT
   recommendations (the paper's section 3.4 analysis, automated).

Takes a few minutes.  Usage::

    python examples/test_plan_and_advice.py
"""

from repro.core import DefectOrientedTestPath, PathConfig, render_advice
from repro.macrotest import macro_breakdown
from repro.optimize import greedy_test_plan
from repro.testgen import full_plan_cost


def main() -> None:
    print("running the comparator macro through the path ...")
    config = PathConfig(n_defects=9000, max_classes=22,
                        include_noncat=False)
    result = DefectOrientedTestPath(config).run(macros=["comparator"])
    analysis = result.macros["comparator"]
    comparator = analysis.result
    breakdown = macro_breakdown(comparator)
    print(f"coverage: voltage {100 * breakdown.voltage:.1f}%  "
          f"current {100 * breakdown.current:.1f}%  "
          f"total {100 * breakdown.total:.1f}%\n")

    plan = greedy_test_plan(comparator)
    print("optimized measurement plan "
          f"(naive plan: {1000 * full_plan_cost():.2f} ms):")
    print(plan.describe())

    print("\n" + render_advice(list(analysis.classes),
                               list(comparator.records),
                               comparator.total_faults))


if __name__ == "__main__":
    main()
