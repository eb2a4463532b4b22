"""Batched-kernel benchmark: batched vs scalar transient wall time.

The batched MNA kernel (:mod:`repro.circuit.batch`) promises two
things: bit-identical results to the scalar solver and a wall-time win
on real fault-simulation workloads.  This benchmark measures both on
the workload the comparator engine actually runs — the fault-free
testbench over the reduced corner set with the above/below input
probes — and persists the numbers machine-readable to
``benchmarks/output/BENCH_kernel.json`` so the performance trajectory
is tracked across PRs.  A speedup below :data:`MIN_SPEEDUP` fails the
run.

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
from repro.circuit.batch import clear_kernel_cache, transient_lanes
from repro.circuit.dc import ConvergenceError
from repro.circuit.transient import TransientResult, transient
from repro.core import add_engine_arguments, engine_knobs

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: the acceptance floor: the batched kernel must at least halve the
#: wall time of the scalar path on the comparator workload
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


def _lanes_identical(scalar, batched) -> bool:
    if len(scalar) != len(batched):
        return False
    for s, b in zip(scalar, batched):
        if not (isinstance(s, TransientResult)
                and isinstance(b, TransientResult)):
            return type(s) is type(b)
        if not (np.array_equal(s.times, b.times)
                and np.array_equal(s.xs, b.xs)):
            return False
    return True


def run_bench(dt=1e-9, big_probe=0.1, corners=None) -> dict:
    """Time scalar vs batched lanes and verify bit-identity."""
    circuits = comparator_workload(corners=corners,
                                   big_probe=big_probe)
    windows = regeneration_windows(CLOCK_PERIOD, 1)

    def scalar_lane(circuit):
        try:
            return transient(circuit, tstop=CLOCK_PERIOD, dt=dt,
                             fine_windows=windows)
        except ConvergenceError as exc:
            return exc

    def run(solve):
        clear_kernel_cache()
        started = time.perf_counter()
        lanes = solve()
        return time.perf_counter() - started, lanes

    scalar_wall, scalar = run(
        lambda: [scalar_lane(c) for c in circuits])
    batched_wall, batched = run(
        lambda: transient_lanes(circuits, tstop=CLOCK_PERIOD, dt=dt,
                                fine_windows=windows))
    return {
        "workload": "comparator good-space "
                    f"({len(circuits)} lanes, dt={dt:g})",
        "lanes": len(circuits),
        "dt": dt,
        "scalar_wall": scalar_wall,
        "batched_wall": batched_wall,
        "speedup": scalar_wall / batched_wall,
        "min_speedup": MIN_SPEEDUP,
        "bit_identical": _lanes_identical(scalar, batched),
    }


def emit_kernel_json(payload: dict) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_kernel.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_kernel_speedup():
    """Batched kernel: bit-identical and >= MIN_SPEEDUP on the
    comparator workload."""
    payload = run_bench()
    emit_kernel_json(payload)
    assert payload["bit_identical"], \
        "batched lanes diverge from the scalar solver"
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"batched kernel speedup {payload['speedup']:.2f}x below the "
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
        print("FAIL: batched lanes diverge from scalar",
              file=sys.stderr)
        return 1
    if payload["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {payload['speedup']:.2f}x < "
              f"{MIN_SPEEDUP:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
