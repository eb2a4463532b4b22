"""Test-plan optimization (paper §3.2: "The overlap between different
detection mechanisms gives room for the optimization of the test
method").

Greedy minimum-cost selection over 25 candidate measurements (the
missing-code test plus 24 individual current measurements).  Shape
checks: the optimized plan preserves the macro's achievable coverage at
a fraction of the naive all-measurements cost.
"""

from conftest import emit

from repro.macrotest import macro_breakdown
from repro.optimize import greedy_test_plan
from repro.testgen import full_plan_cost


def test_plan_optimization(benchmark, std_path_result):
    comparator = std_path_result.macros["comparator"].result
    plan = benchmark.pedantic(greedy_test_plan, (comparator,),
                              rounds=1, iterations=1)
    breakdown = macro_breakdown(comparator)

    emit("test_plan_optimization", plan.describe() + "\n\n" + "\n".join([
        f"naive plan (all 25 measurements): "
        f"{1000 * full_plan_cost():.3f} ms",
        f"optimized plan: {1000 * plan.cost:.3f} ms "
        f"({len(plan.measurements)} measurements)",
        f"cost reduction: {full_plan_cost() / plan.cost:.1f}x",
    ]))

    # the optimizer must not lose any achievable coverage
    assert plan.coverage >= breakdown.total - 1e-9
    # and must beat the naive plan's cost
    assert plan.cost < full_plan_cost()
    assert len(plan.measurements) < 25
