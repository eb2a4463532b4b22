"""Incremental-engine benchmark: exhaustive vs incremental campaign.

The incremental campaign engine promises two things: per-class
detection verdicts identical to the exhaustive reference, and a
wall-clock win from (1) reusing the good-circuit baseline instead of
re-simulating it, (2) warm-starting every faulty Newton solve from the
cached good trajectories and (3) dropping the remaining stimulus
schedule once a class's signature has left the good space.  This
benchmark measures both on the comparator fault-class campaign — the
macro that dominates full-campaign wall time — and persists the
numbers machine-readable to
``benchmarks/output/BENCH_incremental.json`` so the performance
trajectory is tracked across PRs (``scripts/bench_compare.py`` diffs
two such files).  A speedup below :data:`MIN_SPEEDUP` or any verdict
divergence fails the run.

The exhaustive reference runs ``--cold-start --no-drop`` semantics on
a fresh engine; the incremental run adopts a pre-exported baseline
(what the campaign runner's baseline cache provides on every run after
the first) with warm start and dropping enabled.

Runs standalone (``python benchmarks/bench_incremental.py``, engine
knobs on the command line) or under pytest with the other benchmarks.
"""

import argparse
import json
import pathlib
import sys
import time

from repro.campaign import EngineSpec, build_engine, clear_engine_cache
from repro.campaign.plan import discover_classes
from repro.core import PathConfig, add_engine_arguments, engine_knobs
from repro.testgen import NO_DFT, comparator_layout_for

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: the acceptance floor: the incremental engine must at least halve
#: the wall time of the exhaustive reference on the comparator campaign
MIN_SPEEDUP = 2.0

#: class-discovery budget of the benchmark campaign (kept moderate so
#: the benchmark finishes in CI minutes; REPRO_FULL-scale numbers come
#: from the campaign benchmarks)
N_DEFECTS = 4000
MAX_CLASSES = 8


def comparator_classes(n_defects=N_DEFECTS, max_classes=MAX_CLASSES):
    """The benchmark workload: collapsed comparator fault classes."""
    config = PathConfig(n_defects=n_defects, max_classes=max_classes,
                        include_noncat=False)
    return discover_classes(comparator_layout_for(NO_DFT), config)


def _spec(knobs, warm_start, drop) -> EngineSpec:
    return EngineSpec(macro="comparator", dt=knobs["dt"],
                      big_probe=knobs["big_probe"],
                      small_probe=knobs["small_probe"],
                      corners=knobs["corners"],
                      warm_start=warm_start, drop=drop)


def run_bench(knobs=None, n_defects=N_DEFECTS,
              max_classes=MAX_CLASSES) -> dict:
    """Time exhaustive vs incremental and verify verdict identity."""
    knobs = knobs or engine_knobs(argparse.Namespace())
    classes = comparator_classes(n_defects, max_classes)

    # the baseline the incremental run adopts — computed once, exactly
    # as the campaign runner computes (or loads) it before dispatching
    baseline = build_engine(
        _spec(knobs, warm_start=True, drop=True)).export_baseline() \
        .to_dict()

    def campaign(spec, adopt):
        clear_engine_cache()
        engine = build_engine(spec)
        if adopt:
            assert engine.adopt_baseline(baseline), \
                "exported baseline rejected by a fresh engine"
        started = time.perf_counter()
        records = [engine.simulate_class(fc) for fc in classes]
        return time.perf_counter() - started, records, engine

    exhaustive_wall, exhaustive, ex_engine = campaign(
        _spec(knobs, warm_start=False, drop=False), adopt=False)
    incremental_wall, incremental, inc_engine = campaign(
        _spec(knobs, warm_start=True, drop=True), adopt=True)

    identical = [a.to_dict() for a in exhaustive] == \
        [b.to_dict() for b in incremental]
    return {
        "workload": f"comparator campaign ({len(classes)} classes, "
                    f"{n_defects} defects)",
        "classes": len(classes),
        "exhaustive_wall": exhaustive_wall,
        "incremental_wall": incremental_wall,
        "speedup": exhaustive_wall / incremental_wall,
        "min_speedup": MIN_SPEEDUP,
        "records_identical": identical,
        "runs_exhaustive": ex_engine.runs_simulated,
        "runs_incremental": inc_engine.runs_simulated,
        "probes_dropped": inc_engine.probes_dropped,
        "baseline_source": inc_engine.baseline_source,
    }


def emit_incremental_json(payload: dict) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_incremental.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_incremental_speedup():
    """Incremental engine: verdict-identical and >= MIN_SPEEDUP on the
    comparator campaign."""
    payload = run_bench()
    emit_incremental_json(payload)
    assert payload["records_identical"], \
        "incremental campaign diverges from the exhaustive reference"
    assert payload["baseline_source"] == "adopted"
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"incremental speedup {payload['speedup']:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x floor")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_engine_arguments(parser)
    parser.add_argument("--defects", type=int, default=N_DEFECTS,
                        help="class-discovery defect budget "
                             "(default: %(default)d)")
    parser.add_argument("--max-classes", type=int, default=MAX_CLASSES,
                        help="class cap (default: %(default)d)")
    args = parser.parse_args()
    payload = run_bench(knobs=engine_knobs(args),
                        n_defects=args.defects,
                        max_classes=args.max_classes)
    emit_incremental_json(payload)
    print(json.dumps(payload, indent=1, sort_keys=True))
    if not payload["records_identical"]:
        print("FAIL: incremental records diverge from exhaustive",
              file=sys.stderr)
        return 1
    if payload["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {payload['speedup']:.2f}x < "
              f"{MIN_SPEEDUP:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
