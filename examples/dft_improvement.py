"""The paper's DfT story at a reduced Monte Carlo budget.

Runs the comparator macro through the defect-oriented path twice — once
as designed, once with both DfT measures (flipflop leak removed, bias
lines separated) — and prints the coverage improvement plus the
chip-level sampling-phase IVdd window, whose shrinkage is the mechanism.

Takes about half a minute on a 2-core host.  Usage::

    python examples/dft_improvement.py
"""

from repro.campaign import get_engine
from repro.campaign.plan import comparator_spec
from repro.core import DefectOrientedTestPath, PathConfig
from repro.macrotest import macro_breakdown
from repro.testgen import FULL_DFT, NO_DFT


def run(dft):
    config = PathConfig(n_defects=8000, max_classes=25,
                        include_noncat=False, dft=dft)
    analysis = DefectOrientedTestPath(config).run(
        ["comparator"]).macros["comparator"]
    # the comparator engine the run used, good space already compiled
    window = get_engine(comparator_spec(config)).good_space().windows[
        ("ivdd", "sampling", "above")]
    return analysis, window


def main() -> None:
    results = {}
    for dft in (NO_DFT, FULL_DFT):
        print(f"running comparator path with {dft.label} ...")
        results[dft.label] = run(dft)

    print("\nchip-level IVdd acceptance window (sampling phase):")
    for label, (_, window) in results.items():
        width = 1000 * (window.hi - window.lo)
        print(f"  {label:14s} [{1000 * window.lo:7.2f}, "
              f"{1000 * window.hi:7.2f}] mA  (width {width:6.2f} mA)")

    print("\ncomparator-macro coverage:")
    print(f"  {'variant':14s} {'voltage':>8s} {'current':>8s} "
          f"{'total':>8s} {'escape':>8s}")
    for label, (analysis, _) in results.items():
        b = macro_breakdown(analysis.result)
        print(f"  {label:14s} {100 * b.voltage:8.1f} "
              f"{100 * b.current:8.1f} {100 * b.total:8.1f} "
              f"{100 * b.undetected:8.1f}")

    base = macro_breakdown(results["dft:none"][0].result)
    dft = macro_breakdown(results["dft:ff+bias"][0].result)
    print(f"\ncoverage gain from DfT: "
          f"{100 * (dft.total - base.total):+.1f} percentage points "
          f"(paper: 93.3% -> 99.1% globally)")


if __name__ == "__main__":
    main()
