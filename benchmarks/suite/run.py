"""Run the repository benchmark: time the paper path, its warm recount,
the full-chip march and diagnosis serving, and check their outputs.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--update-fixtures]

With ``--workload`` the run makes that workload's seeded inputs, sets
up three times, repeats the workload's operation for ``run_seconds``
of ``BENCHMARK.json`` and prints every end-to-end metric with its
unit.  Every timed interval is divided by how slow the host ran
during it (``probe.py``), so the times read as seconds on the
reference host; the wall-clock values are printed beside them.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

Without ``--workload`` every workload runs the same way in its own
interpreter, one after another, so no workload's memory or imported
state reaches the next; the last line is then one JSON object with
each workload's result under its name.

``--seconds`` lets a caller state the run length it expects; any
value other than ``run_seconds`` is refused, so every run of every
commit measures equally long.

``--trace 1`` then sets up once more and repeats the operation for
half the seconds with the program wrapped at its layer boundaries
(``spans.py``).  The spans go to ``results/trace-<workload>.json``;
the report lists each layer's self time and the tracing overhead, and
the JSON line carries the per-layer metrics instead of the end-to-end
ones, which only untraced runs measure.

``--out FILE`` writes the full result with a host block, for
``compare.py``.  ``--update-fixtures`` records this run's outputs as
the fixtures the default seed is checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: BLAS pools sized by these would oversubscribe the two cores the
#: campaign pool already uses
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> list:
    """Pin unset BLAS thread counts to 1 (before NumPy loads) and put
    the program's sources on the path; returns the variables set."""
    pinned = [var for var in BLAS_VARS if var not in os.environ]
    for var in pinned:
        os.environ[var] = "1"
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return pinned


def host_block(blas_pinned: list) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "blas_threads_pinned_by_runner": blas_pinned,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited
    for (Linux reports kilobytes)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


@contextmanager
def pinned(cores: int):
    """Keep this process, and the children it starts, on its first
    ``cores`` CPUs, so the probe measures the cores the work runs
    on; yields those CPUs."""
    before = os.sched_getaffinity(0)
    cpus = sorted(before)[:cores]
    os.sched_setaffinity(0, cpus)
    try:
        yield cpus
    finally:
        os.sched_setaffinity(0, before)


def timed_values(samples, setups, slowdown) -> dict:
    """``latency_ms``, ``throughput`` and ``setup_s`` with every
    interval divided by ``slowdown(start, end)``."""
    def length(start, end):
        return (end - start) / slowdown(start, end)

    return {
        "latency_ms": 1e3 * statistics.median(
            length(*interval) for interval in samples.latencies),
        "throughput": sum(items for _, _, items in samples.periods) /
        sum(length(start, end) for start, end, _ in samples.periods),
        "setup_s": statistics.median(length(*s) for s in setups),
    }


def layer_metrics(names: list, summary: dict, counters: dict,
                  jobs: int) -> dict:
    """Every per-layer metric in ``names`` from span self times plus
    the counters the program keeps; layers a workload never enters
    read 0."""
    import numpy as np
    from workloads import pct

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0,
                                  "total_s": 0.0, "count": 0,
                                  "durations": []})

    def self_s(name):
        return row(name)["self_s"]

    def p_ms(name, q):
        return pct(np.asarray(row(name)["durations"]) * 1e3, q)

    def mean_ms(name):
        durations = row(name)["durations"]
        return 1e3 * float(np.mean(durations)) if durations else 0.0

    defects, faults = row("defects.sprinkle")["count"], \
        row("defects.extract")["count"]
    out = dict.fromkeys(names, 0.0)
    out.update({
        "defects.sprinkle_s": self_s("defects.sprinkle"),
        "defects.extract_s": self_s("defects.extract"),
        "defects.collapse_s": self_s("defects.collapse"),
        "defects.defects_n": defects,
        "defects.faults_n": faults,
        "defects.fault_yield": faults / defects if defects else 0.0,
        "digital.decoder_s": self_s("digital.decoder"),
        "digital.decoder_calls": row("digital.decoder")["calls"],
        "faultsim.goodspace_s": self_s("faultsim.goodspace"),
        "campaign.prepare_s": self_s("campaign.prepare"),
        "campaign.execute_s": self_s("campaign.execute"),
        # worker capacity the pool held but did not simulate with
        "campaign.pool_wait_s": max(
            0.0, jobs * row("campaign.execute")["total_s"] -
            counters.get("faultsim.class_busy_s", 0.0)),
        "campaign.store_read_s": self_s("campaign.store_read"),
        "campaign.store_read_n": row("campaign.store_read")["calls"],
        "campaign.store_write_s": self_s("campaign.store_write"),
        "campaign.store_write_n": row("campaign.store_write")["calls"],
        "campaign.journal_s": self_s("campaign.journal"),
        "adc.fullchip_build_s": self_s("adc.fullchip_build"),
        "diagnosis.compile_s": self_s("diagnosis.compile"),
        "diagnosis.batcher_p50_ms": p_ms("diagnosis.batcher", 50),
        "diagnosis.batcher_p99_ms": p_ms("diagnosis.batcher", 99),
        "diagnosis.match_p50_ms": p_ms("diagnosis.match", 50),
        "diagnosis.db_p50_ms": p_ms("diagnosis.db", 50),
        "diagnosis.db_writes_n": row("diagnosis.db")["calls"],
        "diagnosis.http_mean_ms": mean_ms("http.transport") -
        mean_ms("diagnosis.batcher") - mean_ms("diagnosis.db"),
    })
    out.update(counters)
    unknown = set(out) - set(names)
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from "
                           f"BENCHMARK.json: {sorted(unknown)}")
    return out


def traced_pass(wl, seconds: float, untraced_latency_ms: float,
                spec) -> dict:
    """Set up and measure once more with the layers wrapped."""
    from probe import HostSpeed
    from spans import Tracer, layer_summary, self_times, write_trace
    from workloads import JOBS

    tracer = Tracer()
    with pinned(wl.cores) as cpus, HostSpeed(cpus) as speed, \
            tracer.installed(wl.sites):
        with tracer.span(f"{wl.name}.setup"):
            t0 = time.perf_counter()
            state = wl.setup(traced=True)
            setup = (t0, time.perf_counter())
        try:
            samples = wl.measure(state, seconds, tracer)
            wl.after_measure(state, samples)
        finally:
            wl.teardown(state, tracer)
    summary = layer_summary(tracer.spans)
    values = layer_metrics([m["name"] for m in spec["per_layer"]],
                           summary, wl.layers(state, samples), JOBS)

    # how much of the operations' wall the wrapped layers explain
    own = self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.name == f"{wl.name}.op"]
    root_wall = sum(s.duration for s in roots)
    coverage = 1.0 - sum(own[s.span_id] for s in roots) / root_wall
    overhead = timed_values(samples, [setup], speed.slowdown)[
        "latency_ms"] - untraced_latency_ms
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{wl.name}.json"
    write_trace(path, tracer.spans, summary)
    return {
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in spec["per_layer"]},
        "layers": {name: {"self_s": r["self_s"], "calls": r["calls"]}
                   for name, r in summary.items()},
        "layer_coverage": coverage,
        "overhead_ms": overhead,
        "traced_ops": len(roots),
        "trace_file": str(path.relative_to(ROOT)),
        "failed": samples.failed,
    }


def run_workload(wl, seconds: float, traced: bool, spec: dict,
                 setup_reps: int = 3, update_fixtures: bool = False
                 ) -> dict:
    """Inputs, set-ups, measured phase, checks (and the traced pass);
    returns the full record of the run."""
    from probe import HostSpeed

    t0 = time.perf_counter()
    wl.inputs()
    inputs_s = time.perf_counter() - t0

    with pinned(wl.cores) as cpus, HostSpeed(cpus) as speed:
        setups, state = [], None
        for _ in range(setup_reps):
            if state is not None:
                wl.teardown(state)
            t0 = time.perf_counter()
            state = wl.setup()
            setups.append((t0, time.perf_counter()))
        try:
            samples = wl.measure(state, seconds)
            wl.after_measure(state, samples)
        finally:
            wl.teardown(state)
        # before the probes are reaped, so their memory never counts
        rss_mb = peak_rss_mb()
    if update_fixtures:
        wl.write_fixture(samples)
    failures = wl.check(samples)

    values = timed_values(samples, setups, speed.slowdown)
    values["peak_rss_mb"] = rss_mb
    wall = timed_values(samples, setups, lambda start, end: 1.0)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {
        "workload": wl.name, "seed": wl.seed, "seconds": seconds,
        "trace": int(traced), "inputs_s": inputs_s,
        "setup_runs_s": [end - start for start, end in setups],
        "ops": len(samples.latencies), "extra": wl.extra(samples),
        "failures": failures,
        "host_slowdown": statistics.median(
            speed.slowdown(start, end) for start, end, _ in
            samples.periods),
        "end_to_end": {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()},
        "wall_clock": {name: {"value": value, "unit": units[name]}
                       for name, value in wall.items()},
    }
    if traced:
        record["trace_pass"] = traced_pass(
            wl, seconds / 2, values["latency_ms"], spec)
        record["per_layer"] = record["trace_pass"].pop("metrics")
    record["result"] = {
        "correct": not failures,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": record["per_layer" if traced else "end_to_end"],
    }
    return record


def report(record: dict) -> None:
    """Human-readable lines (the JSON line follows them)."""
    setups = ", ".join(f"{s:.2f}" for s in record["setup_runs_s"])
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['ops']} timed ops, inputs {record['inputs_s']:.2f} s, "
          f"set-ups {setups} s wall, host slowdown "
          f"{record['host_slowdown']:.2f})")
    for name, m in record["end_to_end"].items():
        wall = record["wall_clock"].get(name)
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}" +
              (f"   (wall clock {wall['value']:.6g})" if wall else ""))
    for name, value in record["extra"].items():
        print(f"  {name:34s} {value:>14.6g}")
    traced = record.get("trace_pass")
    if traced:
        print("  per-layer metrics (traced pass):")
        for name, m in record["per_layer"].items():
            print(f"    {name:32s} {m['value']:>14.6g} {m['unit']}")
        print(f"  layer self time ({traced['traced_ops']} traced ops, "
              f"{100 * traced['layer_coverage']:.1f}% of op wall in "
              f"wrapped layers, overhead {traced['overhead_ms']:+.3f} "
              f"ms per op, spans in {traced['trace_file']}):")
        for name, row in sorted(traced["layers"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:32s} {row['self_s']:>10.4f} s "
                  f"{row['calls']:>7d} calls")
    for failure in record["failures"]:
        print(f"  FAIL: {failure}")
    print(f"  {'correct' if not record['failures'] else 'INCORRECT'}")


def run_one(args, seconds: float, spec: dict) -> int:
    blas_pinned = prepare_environment()
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.update_fixtures and seed != DEFAULT_SEED:
        raise SystemExit(f"fixtures are recorded at seed {DEFAULT_SEED}")
    host = host_block(blas_pinned)
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))

    scratch = RESULTS / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](seed, scratch)
        record = run_workload(wl, seconds, bool(args.trace), spec,
                              update_fixtures=args.update_fixtures)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(record)
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"host": host, "runs": [record]}, indent=1,
            sort_keys=True) + "\n")
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Each workload through this script in its own interpreter; the
    last line gathers their results by workload."""
    results, runs, host = {}, [], None
    RESULTS.mkdir(exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        out = RESULTS / f"run-{os.getpid()}-{workload}.json"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--trace", str(args.trace),
                   "--out", str(out)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        if args.update_fixtures:
            command.append("--update-fixtures")
        child = subprocess.Popen(command, stdout=subprocess.PIPE,
                                 text=True)
        last = ""
        for line in child.stdout:
            print(line, end="", flush=True)
            last = line
        if child.wait() not in (0, 1) or not out.exists():
            return 2
        payload = json.loads(out.read_text())
        out.unlink()
        host = payload["host"]
        runs += payload["runs"]
        results[workload] = json.loads(last)
    if args.out is not None:
        args.out.write_text(json.dumps({"host": host, "runs": runs},
                                       indent=1, sort_keys=True) + "\n")
    print(json.dumps(results), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        help="run only this workload (default: all, "
                             "each in its own interpreter)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the fixtures' seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds; must equal run_seconds "
                             "of BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add a traced pass and report per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path,
                        help="write the full result here")
    parser.add_argument("--update-fixtures", action="store_true",
                        help="record this run's outputs as the fixtures "
                             "(default seed only)")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(names)}")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be run_seconds of BENCHMARK.json "
                     f"({spec['run_seconds']})")
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec["run_seconds"], spec)


if __name__ == "__main__":
    sys.exit(main())
