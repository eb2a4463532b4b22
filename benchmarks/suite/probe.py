"""How fast the host's cores run while the benchmark measures.

On a shared virtual machine the speed of a core moves by up to about
2x over tens of seconds as other tenants load the physical host, and
the two cores of the reference host move apart as well as together.
CPU time slows as much as wall time (it is not steal time), so a time
taken at one moment compares the host as much as the program.

This module runs a fixed piece of work, sharing no code with the
program, every :data:`PERIOD` seconds in one process pinned to each
core the benchmark uses, and records the CPU time each sample took.
:class:`HostSpeed` starts those processes around a measured phase;
:meth:`HostSpeed.slowdown` is the probes' trimmed-mean CPU time over
an interval, averaged across the cores, divided by
:data:`REFERENCE_S`.  The benchmark divides each measured time by it,
so the times it reports are seconds at the reference host's unloaded
speed.

    python probe.py CPU      # pins to CPU, prints "ready",
                             # samples until a line arrives on stdin
"""

from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Tuple

import numpy as np

#: seconds between the starts of two samples; at about 5 ms of work
#: each, a probe takes ~5 % of its core
PERIOD = 0.1

#: CPU seconds one :func:`work` takes on a quiet reference host (the
#: 2-core virtual machine of the README's baseline); a constant, so
#: scaled times compare across runs and commits
REFERENCE_S = 5.5e-3

#: half-width of the window around an interval whose samples count,
#: the fewest samples an estimate rests on, and the share of samples
#: dropped from each end before averaging
WINDOW_S = 0.5
MIN_SAMPLES = 5
TRIM = 0.1

_MATRIX = np.random.default_rng(0).random((400, 400)) + 400 * np.eye(400)
_ITEMS = list(range(20_000))


def work() -> None:
    """The fixed probe workload: interpreter loop, dict updates, a
    sort and a dense solve, in about the mix the program runs."""
    total, table = 0, {}
    for i in range(15_000):
        total += i * i % 7
        table[i % 613] = table.get(i % 311, 0) + 1
    sorted(_ITEMS, key=lambda x: -x)
    np.linalg.solve(_MATRIX, _MATRIX[0])


def sample_until_stopped() -> List[Tuple[float, float]]:
    """``(perf_counter at the end, CPU seconds)`` per sample until a
    line or end of file arrives on stdin."""
    samples = []
    while True:
        start = time.perf_counter()
        cpu = time.process_time()
        work()
        cpu = time.process_time() - cpu
        end = time.perf_counter()
        samples.append((end, cpu))
        wait = max(0.0, PERIOD - (end - start))
        if select.select([sys.stdin], [], [], wait)[0]:
            return samples


def trimmed_mean(values: List[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    """One probe process per core around a measured phase.

    Used as a context manager; :meth:`slowdown` is valid after exit.
    """

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)
        self.samples: List[Tuple[List[float], List[float]]] = []
        self._children: List[subprocess.Popen] = []

    def __enter__(self) -> "HostSpeed":
        try:
            for cpu in self.cpus:
                self._children.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()),
                     str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True))
            for child in self._children:
                ready, _, _ = select.select([child.stdout], [], [], 60)
                line = child.stdout.readline().strip() if ready else ""
                if line != "ready":
                    raise RuntimeError(f"host-speed probe failed to "
                                       f"start: {line!r}")
        except BaseException:
            for child in self._children:
                child.kill()
                child.wait()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for child in self._children:
            child.stdin.write("stop\n")
            child.stdin.flush()
        for child in self._children:
            try:
                out, _ = child.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise
            pairs = json.loads(out.splitlines()[-1])
            self.samples.append(([t for t, _ in pairs],
                                 [c for _, c in pairs]))

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference the cores ran over
        ``[start, end]``: per core, the trimmed mean of the samples
        within :data:`WINDOW_S` of the interval (widened until there
        are :data:`MIN_SAMPLES`); then the mean across cores."""
        per_core = []
        for times, cpu in self.samples:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, end + WINDOW_S)
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
                lo, hi = max(0, lo - 1), min(len(times), hi + 1)
            if hi == lo:
                raise RuntimeError("a host-speed probe took no samples")
            per_core.append(trimmed_mean(cpu[lo:hi]))
        return statistics.fmean(per_core) / REFERENCE_S


def main(argv: List[str]) -> int:
    os.sched_setaffinity(0, {int(argv[1])})
    work()
    print("ready", flush=True)
    print(json.dumps(sample_until_stopped()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
