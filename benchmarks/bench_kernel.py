"""Batched-kernel benchmark: one lane at a time vs one batch.

The MNA kernel (:mod:`repro.circuit.batch`) solves a group of
structurally identical lanes as one stacked Newton iteration, and a
lane's bytes must not depend on which lanes share its batch.  This
benchmark measures both on the workload the comparator engine actually
runs — the fault-free testbench over the reduced corner set with the
above/below input probes — timing each lane as its own one-lane kernel
run (``unbatched_wall``) against all lanes in one batch
(``batched_wall``), and persists the numbers machine-readable to
``benchmarks/output/BENCH_kernel.json`` so the performance trajectory
is tracked across PRs.  A ``batch_speedup`` below :data:`MIN_SPEEDUP`
fails the run.

Runs standalone (``python benchmarks/bench_kernel.py``, engine knobs
on the command line) or under pytest with the other benchmarks.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.adc.comparator import (CLOCK_PERIOD, build_testbench,
                                  regeneration_windows)
from repro.adc.process import reduced_corners
from repro.circuit.batch import transient_lanes
from repro.circuit.transient import TransientResult
from repro.core import add_engine_arguments, engine_knobs

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: the acceptance floor: one batch must at least halve the wall time of
#: the same lanes run one at a time on the comparator workload
MIN_SPEEDUP = 2.0


def comparator_workload(corners=None, big_probe=0.1, vref=2.5):
    """The engine's good-space workload: corners x {above, below}."""
    circuits = []
    for process in corners or reduced_corners():
        for offset in (+big_probe, -big_probe):
            tb = build_testbench(process=process, vin=vref + offset,
                                 vref=vref)
            circuits.append(tb.circuit)
    return circuits


def _lanes_identical(unbatched, batched) -> bool:
    if len(unbatched) != len(batched):
        return False
    for s, b in zip(unbatched, batched):
        if not (isinstance(s, TransientResult)
                and isinstance(b, TransientResult)):
            return type(s) is type(b)
        if not (np.array_equal(s.times, b.times)
                and np.array_equal(s.xs, b.xs)):
            return False
    return True


def run_bench(dt=1e-9, big_probe=0.1, corners=None) -> dict:
    """Time one-lane vs batched kernel runs and verify bit-identity."""
    circuits = comparator_workload(corners=corners,
                                   big_probe=big_probe)
    windows = regeneration_windows(CLOCK_PERIOD, 1)

    def lanes(group):
        return transient_lanes(group, tstop=CLOCK_PERIOD, dt=dt,
                               fine_windows=windows)

    def run(solve):
        started = time.perf_counter()
        results = solve()
        return time.perf_counter() - started, results

    unbatched_wall, unbatched = run(
        lambda: [lane for c in circuits for lane in lanes([c])])
    batched_wall, batched = run(lambda: lanes(circuits))
    return {
        "workload": "comparator good-space "
                    f"({len(circuits)} lanes, dt={dt:g})",
        "lanes": len(circuits),
        "dt": dt,
        "unbatched_wall": unbatched_wall,
        "batched_wall": batched_wall,
        "batch_speedup": unbatched_wall / batched_wall,
        "min_speedup": MIN_SPEEDUP,
        "bit_identical": _lanes_identical(unbatched, batched),
    }


def emit_kernel_json(payload: dict) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_kernel.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_kernel_speedup():
    """Batched kernel: bit-identical to one-lane runs and >=
    MIN_SPEEDUP on the comparator workload."""
    payload = run_bench()
    emit_kernel_json(payload)
    assert payload["bit_identical"], \
        "batched lanes diverge from one-lane runs"
    assert payload["batch_speedup"] >= MIN_SPEEDUP, (
        f"batch speedup {payload['batch_speedup']:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x floor")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_engine_arguments(parser)
    args = parser.parse_args()
    knobs = engine_knobs(args)
    payload = run_bench(dt=knobs["dt"], big_probe=knobs["big_probe"],
                        corners=knobs["corners"])
    emit_kernel_json(payload)
    print(json.dumps(payload, indent=1, sort_keys=True))
    if not payload["bit_identical"]:
        print("FAIL: batched lanes diverge from one-lane runs",
              file=sys.stderr)
        return 1
    if payload["batch_speedup"] < MIN_SPEEDUP:
        print(f"FAIL: batch speedup {payload['batch_speedup']:.2f}x < "
              f"{MIN_SPEEDUP:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
