"""The benchmark's four workloads.

Each workload is a job a user of this repository runs:

* ``campaign_cold`` — the paper path (sprinkle, extract, collapse,
  fault-simulate, detect) over the four analog macros, without DfT and
  then with it, into a fresh results store, each time on a fresh
  defect sample;
* ``recount_warm`` — the pair over all five macros with a large
  magnitude recount, re-run against a store that already holds every
  simulated class;
* ``fullchip_march`` — a start-up transient of the stitched 8-bit
  converter through the sparse backend;
* ``diagnose_serving`` — fault-dictionary diagnosis over HTTP, one
  die's signature per request and then 256 per request, from two
  closed-loop clients (a tester waits for each verdict).

A workload has four parts.  Its *inputs* come from the seed and are
made once, untimed.  Its *set-up* is what a fresh invocation pays
before the measured work: a new interpreter importing the program,
plus building the chip or compiling and loading the dictionary.  Its
*operation* is repeated for the measured seconds.  Its *checks*
compare outputs with the seed-commit fixtures (at the default seed)
and with invariants that hold at every seed.

Measured phases record the ``perf_counter`` interval of every
operation rather than its duration, so the runner can scale each one
by how fast the host ran during it (``probe.py``).

Load never exceeds two of anything: the campaign pool has
:data:`JOBS` workers and the serving workload runs :data:`CLIENTS`
client threads with one keep-alive connection each, because the
reference host has two cores.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.adc import fullchip
from repro.campaign.events import ClassCompleted, EventBus
from repro.campaign.runner import CampaignOptions, CampaignRunner
from repro.campaign.tasks import ANALOG_MACROS, clear_engine_cache
from repro.circuit import backend
from repro.core.path import PathConfig
from repro.diagnosis.build import dictionary_for_campaign
from repro.testgen.dft import FULL_DFT, NO_DFT

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
FIXTURES = HERE / "fixtures"

#: the seed the fixtures were recorded at
DEFAULT_SEED = 1995

#: campaign pool workers and serving client threads (2-core host)
JOBS = 2
CLIENTS = 2

#: distance between the sprinkle seeds of successive operations that
#: draw a fresh defect population
SEED_STRIDE = 7919

#: full-chip solutions agree within Newton tolerance across commits
#: (``benchmarks/bench_fullchip.py`` uses the same bound)
AGREE_ATOL = 1e-6

SOLVER_PHASES = ("assemble", "factor", "solve", "convergence_check")

Interval = Tuple[float, float]


@dataclass
class Samples:
    """What one measured phase produced.

    ``latencies`` are the intervals whose median is ``latency_ms``;
    ``periods`` are ``(start, end, items)`` stretches of work whose
    item total over their summed length is ``throughput``.
    """

    latencies: List[Interval] = field(default_factory=list)
    periods: List[Tuple[float, float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: List = field(default_factory=list)


def fresh_import(module: str) -> None:
    """Import ``module`` in a new interpreter, as every command-line
    invocation of the program does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                   check=True)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _add(totals: Dict[str, float], more: Dict[str, float]) -> None:
    for key, value in more.items():
        totals[key] = totals.get(key, 0.0) + value


class Workload:
    """Inputs, set-up, measured phase and checks of one workload."""

    name = ""
    #: where the traced pass wraps the program (see ``spans.py``)
    sites: tuple = ()
    #: cores the measured phase keeps busy; the runner pins the
    #: workload to that many and probes their speed (``probe.py``)
    cores = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def inputs(self) -> None:
        """Make the seeded inputs (untimed)."""

    def setup(self, traced: bool = False):
        raise NotImplementedError

    def teardown(self, state, tracer=None) -> None:
        """Release what :meth:`setup` made."""

    def measure(self, state, seconds: float, tracer=None) -> Samples:
        raise NotImplementedError

    def after_measure(self, state, samples: Samples) -> None:
        """Collect the program's own counters before tear-down."""

    def check(self, samples: Samples) -> List[str]:
        """Failure messages; empty when the outputs are correct."""
        raise NotImplementedError

    def layers(self, state, samples: Samples) -> Dict[str, float]:
        """Per-layer numbers the program counts itself."""
        return {}

    def extra(self, samples: Samples) -> Dict:
        """Informational numbers for the human-readable report."""
        return {}

    def write_fixture(self, samples: Samples) -> None:
        """Record this run's outputs as the default-seed fixture."""


class BatchWorkload(Workload):
    """A job run back to back within the measured seconds."""

    #: operations every run measures, however long they take
    min_ops = 1

    def op(self, state, tracer=None):
        """One operation: ``(items, attempted, failed, output)``."""
        raise NotImplementedError

    def after_op(self, state) -> None:
        """Untimed clean-up between operations."""

    def measure(self, state, seconds: float, tracer=None) -> Samples:
        """Operations back to back: :attr:`min_ops`, then another
        while it is expected to end within ``seconds``."""
        samples = Samples()
        busy = 0.0
        while len(samples.latencies) < self.min_ops or \
                busy + busy / len(samples.latencies) <= seconds:
            t0 = time.perf_counter()
            if tracer is None:
                out = self.op(state)
            else:
                with tracer.span(f"{self.name}.op"):
                    out = self.op(state, tracer)
            t1 = time.perf_counter()
            busy += t1 - t0
            items, attempted, failed, output = out
            samples.latencies.append((t0, t1))
            samples.periods.append((t0, t1, items))
            samples.attempted += attempted
            samples.failed += failed
            samples.outputs.append(output)
            self.after_op(state)
        return samples


# -- the paper path ---------------------------------------------------------


def summarize(path_result) -> Dict:
    """Per-class verdicts, mechanisms and magnitudes plus global
    coverage — what the fixtures pin."""
    out = {}
    for name, analysis in sorted(path_result.macros.items()):
        for kind, result in (("cat", analysis.result),
                             ("noncat", analysis.noncat_result)):
            if result is None or (kind == "noncat" and
                                  result is analysis.result):
                continue
            out[f"{name}:{kind}"] = [
                [r.voltage_detected, sorted(m.value for m in r.mechanisms),
                 r.count] for r in result.records]
    out["coverage"] = path_result.global_coverage().as_percentages()
    return out


def same_summary(a: Dict, b: Dict) -> bool:
    """Records equal and coverage equal up to float round-off."""
    if set(a) != set(b):
        return False
    return all(
        all(abs(a[k][f] - b[k][f]) <= 1e-9 for f in a[k])
        if k == "coverage" else a[k] == b[k] for k in a)


class CampaignWorkload(BatchWorkload):
    """A NO_DFT then FULL_DFT campaign pair on one results store."""

    sites = spans.CAMPAIGN_SITES
    dfts = (NO_DFT, FULL_DFT)
    #: ``None`` is all five macros
    macros: Optional[Tuple[str, ...]] = None
    n_defects = 3000
    max_classes = 2
    include_noncat = True
    magnitude_defects: Optional[int] = None

    def config(self, dft, seed: int) -> PathConfig:
        return PathConfig(n_defects=self.n_defects,
                          max_classes=self.max_classes,
                          include_noncat=self.include_noncat,
                          magnitude_defects=self.magnitude_defects,
                          seed=seed, dft=dft)

    def op_seed(self, k: int) -> int:
        """The sprinkle seed of the ``k``-th operation."""
        return self.seed

    def run_pair(self, store: Path, seed: int, macros=None, state=None,
                 tracer=None) -> List:
        """Run the campaigns on ``store``; returns their results.

        Pool workers are outside the tracer's reach, so each class
        they simulated becomes a span rebuilt from its
        ``ClassCompleted`` event, ending when the parent handled it.
        """
        bus = EventBus()
        if state is not None:
            def on_event(event):
                if isinstance(event, ClassCompleted) and \
                        event.source == "computed":
                    state["class_walls"].append(event.wall)
                    if tracer is not None:
                        end = time.perf_counter()
                        tracer.record("faultsim.class", end - event.wall,
                                      end, tracer.current())
            bus.subscribe(on_event)
        return [CampaignRunner(self.config(dft, seed),
                               CampaignOptions(jobs=JOBS,
                                               cache_dir=store),
                               bus=bus).run(macros)
                for dft in self.dfts]

    def setup(self, traced: bool = False):
        fresh_import("repro.campaign.runner")
        return {"ops": 0, "class_walls": [], "metrics": [],
                "parent_phases": {}, "matrix": {}}

    def store_for(self, state) -> Path:
        raise NotImplementedError

    def op(self, state, tracer=None):
        seed = self.op_seed(state["ops"])
        state["ops"] += 1
        # a fresh invocation starts with no engines compiled
        clear_engine_cache()
        backend.reset_timings()
        backend.reset_matrix()
        results = self.run_pair(self.store_for(state), seed, self.macros,
                                state=state, tracer=tracer)
        _add(state["parent_phases"], backend.snapshot_timings())
        state["matrix"] = backend.snapshot_matrix() or state["matrix"]
        metrics = [r.metrics for r in results]
        state["metrics"].extend(metrics)
        completed = sum(m.completed for m in metrics)
        output = {
            "seed": seed,
            "summaries": [summarize(r.path_result) for r in results],
            "computed": sum(m.computed for m in metrics),
        }
        return completed, completed, sum(m.degraded for m in metrics), \
            output

    def fixture_path(self) -> Path:
        return FIXTURES / f"{self.name}.json"

    def write_fixture(self, samples: Samples) -> None:
        self.fixture_path().write_text(json.dumps(
            {"seed": self.seed,
             "summaries": samples.outputs[0]["summaries"]},
            sort_keys=True) + "\n")

    def check(self, samples: Samples) -> List[str]:
        failures = []
        if samples.failed:
            failures.append(f"{samples.failed} degraded classes")
        first: Dict[int, List] = {}
        for out in samples.outputs:
            seen = first.setdefault(out["seed"], out["summaries"])
            if not all(same_summary(a, b)
                       for a, b in zip(seen, out["summaries"])):
                failures.append(f"repeated campaigns at seed "
                                f"{out['seed']} disagree")
        if self.seed == DEFAULT_SEED:
            expected = json.loads(self.fixture_path().read_text())
            for dft, want, got in zip(self.dfts, expected["summaries"],
                                      first[self.seed]):
                if not same_summary(want, got):
                    failures.append(
                        f"{dft.label} records or coverage differ from "
                        f"{self.fixture_path().name}")
        return failures

    def layers(self, state, samples: Samples) -> Dict[str, float]:
        metrics = state["metrics"]
        phases = dict(state["parent_phases"])
        for m in metrics:
            _add(phases, m.solver_phases)
        completed = sum(m.completed for m in metrics)
        hits = sum(m.cache_hits + m.journal_hits for m in metrics)
        walls_ms = np.asarray(state["class_walls"]) * 1e3
        out = {
            "faultsim.class_busy_s": float(sum(state["class_walls"])),
            "faultsim.class_p50_ms": pct(walls_ms, 50),
            "faultsim.class_p90_ms": pct(walls_ms, 90),
            "faultsim.classes_n": sum(m.computed for m in metrics),
            "faultsim.degraded_n": sum(m.degraded for m in metrics),
            "faultsim.retried_n": sum(m.retries for m in metrics),
            "faultsim.convergence_failures_n":
                sum(m.convergence_failures for m in metrics),
            "campaign.cache_hit_ratio":
                hits / completed if completed else 0.0,
            "circuit.matrix_n": state["matrix"].get("n", 0),
            "circuit.matrix_nnz": state["matrix"].get("nnz", 0),
        }
        for phase in SOLVER_PHASES:
            out[f"circuit.{phase}_s"] = phases.get(phase, 0.0)
        return out

    def extra(self, samples: Samples) -> Dict:
        out = {"classes_per_op": samples.periods[0][2]}
        for dft, summary in zip(self.dfts,
                                samples.outputs[0]["summaries"]):
            out[f"coverage_{dft.label}_pct"] = summary["coverage"]["total"]
        return out


class CampaignCold(CampaignWorkload):
    """Every class simulated: the analog kernel carries the time.

    The decoder is left out: its logic pass costs the same whatever
    the budget, and ``recount_warm`` measures it.  Which classes the
    budget keeps depends on the sprinkle, and they differ in cost by
    up to 10x, so each operation sprinkles with its own seed drawn
    from ``--seed`` and every run measures at least two: a run then
    averages over several defect populations, and the large sample
    keeps each population's most likely classes much alike.
    """

    name = "campaign_cold"
    macros = ANALOG_MACROS
    cores = JOBS
    n_defects = 20_000
    min_ops = 2

    def op_seed(self, k: int) -> int:
        return self.seed + SEED_STRIDE * k

    def store_for(self, state) -> Path:
        return self.scratch / "cold-store"

    def after_op(self, state) -> None:
        shutil.rmtree(self.scratch / "cold-store", ignore_errors=True)


class RecountWarm(CampaignWorkload):
    """No class simulated: every record comes from the store, so the
    time goes to the magnitude recount's sprinkle/extract and the
    decoder's logic pass, all in the parent process (no pool starts
    without classes to simulate)."""

    name = "recount_warm"
    include_noncat = False
    magnitude_defects = 50_000

    def inputs(self) -> None:
        # the decoder is recomputed by every campaign and never
        # stored, so only the analog macros need to be in the store
        clear_engine_cache()
        self.store = self.scratch / "warm-store"
        self.populated = [summarize(r.path_result)
                          for r in self.run_pair(self.store, self.seed,
                                                 macros=ANALOG_MACROS)]

    def store_for(self, state) -> Path:
        return self.store

    def check(self, samples: Samples) -> List[str]:
        failures = super().check(samples)
        if any(out["computed"] for out in samples.outputs):
            failures.append("the warm recount simulated classes")
        for want, got in zip(self.populated,
                             samples.outputs[0]["summaries"]):
            failures += [f"{key} records differ from the populating pass"
                         for key, records in want.items()
                         if key != "coverage" and got.get(key) != records]
        return failures


# -- the full-chip march ----------------------------------------------------


class FullchipMarch(BatchWorkload):
    """One large sparse system: ``factor`` dominates."""

    name = "fullchip_march"
    sites = spans.FULLCHIP_SITES
    n_bits = 8
    tstop = 5e-11
    dt = 1e-11

    def inputs(self) -> None:
        self.vin = float(
            np.random.default_rng(self.seed).uniform(1.0, 4.0))

    def setup(self, traced: bool = False):
        fresh_import("repro.adc.fullchip")
        return {"chip": fullchip.build_fullchip(n_bits=self.n_bits,
                                                vin=self.vin),
                "phases": {}, "matrix": {}, "steps": 0, "march_s": 0.0}

    def op(self, state, tracer=None):
        backend.reset_timings()
        backend.reset_matrix()
        t0 = time.perf_counter()
        try:
            result = fullchip.fullchip_transient(
                state["chip"], tstop=self.tstop, dt=self.dt,
                solver="sparse")
        except Exception as exc:  # a failed march is a failed op
            return 0, 1, 1, f"{type(exc).__name__}: {exc}"
        state["march_s"] += time.perf_counter() - t0
        _add(state["phases"], backend.snapshot_timings())
        state["matrix"] = backend.snapshot_matrix()
        steps = len(result.times) - 1
        state["steps"] += steps
        return steps, 1, 0, np.array(result.xs[-1])

    def fixture_path(self) -> Path:
        return FIXTURES / f"{self.name}.npz"

    def write_fixture(self, samples: Samples) -> None:
        np.savez_compressed(self.fixture_path(), seed=self.seed,
                            vin=self.vin, x_final=samples.outputs[0])

    def check(self, samples: Samples) -> List[str]:
        failures = [f"march raised {x}" for x in samples.outputs
                    if isinstance(x, str)]
        finals = [x for x in samples.outputs if not isinstance(x, str)]
        if not finals:
            return failures
        if not np.all(np.isfinite(finals[0])):
            failures.append("march produced non-finite values")
        if any(not np.array_equal(finals[0], x) for x in finals[1:]):
            failures.append("repeated marches disagree")
        if self.seed == DEFAULT_SEED:
            with np.load(self.fixture_path()) as fixture:
                want = fixture["x_final"]
            if want.shape != finals[0].shape:
                failures.append(
                    f"solution has {finals[0].size} unknowns, the "
                    f"fixture {want.size}")
            else:
                err = float(np.max(np.abs(finals[0] - want)))
                if err > AGREE_ATOL:
                    failures.append(
                        f"final timepoint off the fixture by {err:.2e}")
        return failures

    def layers(self, state, samples: Samples) -> Dict[str, float]:
        out = {f"circuit.{phase}_s": state["phases"].get(phase, 0.0)
               for phase in SOLVER_PHASES}
        out["circuit.matrix_n"] = state["matrix"].get("n", 0)
        out["circuit.matrix_nnz"] = state["matrix"].get("nnz", 0)
        if state["steps"]:
            out["circuit.step_ms"] = \
                1e3 * state["march_s"] / state["steps"]
        return out

    def extra(self, samples: Samples) -> Dict:
        return {"vin": self.vin,
                "timepoints_per_op": samples.periods[0][2]}


# -- diagnosis serving ------------------------------------------------------


class _Client:
    """One keep-alive connection to the service."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=60)

    def request(self, method: str, path: str, body=None, headers=None):
        self.conn.request(method, path, body=body,
                          headers=headers or {})
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


class DiagnoseServing(Workload):
    """Dictionary diagnosis behind the HTTP service with the SQLite
    results log on; no simulation runs while it is measured.

    Two phases share the measured seconds: ``single`` sends one die's
    signature per request, ``block`` 256 per request.  ``latency_ms``
    is the single phase's median request latency (a tester waiting for
    one verdict) and ``throughput`` the block phase's signatures per
    second, so a gain for blocks that costs single-request latency
    shows.
    """

    name = "diagnose_serving"
    sites = spans.DICTIONARY_SITES
    #: the service's interpreter and the clients' interpreter
    cores = 2
    #: signatures per request in the two phases
    shapes = (("single", 1), ("block", 256))
    #: the campaign the dictionary is compiled from
    n_defects = 2000
    max_classes = 2
    campaign_macros = None
    #: distinct query rows made from the seed
    pool_rows = 4096
    #: probability of flipping each signature bit (tester noise)
    noise = 0.01
    #: share of query rows that are the all-pass vector
    pass_share = 0.05

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self._servers = 0

    def inputs(self) -> None:
        config = PathConfig(n_defects=self.n_defects,
                            max_classes=self.max_classes,
                            include_noncat=False, seed=self.seed)
        self.campaign = CampaignRunner(
            config, CampaignOptions(jobs=JOBS)).run(self.campaign_macros)
        dictionary = dictionary_for_campaign(self.campaign)
        labels = dictionary.labels
        groups = dictionary.ambiguity_groups()
        rng = np.random.default_rng(self.seed)
        picks = rng.integers(0, len(labels), self.pool_rows)
        rows = dictionary.matrix()[picks].copy()
        passing = rng.random(self.pool_rows) < self.pass_share
        rows[passing] = 0.0
        flips = rng.random(rows.shape) < self.noise
        rows[flips] = 1.0 - rows[flips]
        # rows the noise left alone are the controls: they must come
        # back as their own class (or its ambiguity group) or as pass
        expected = [None if flips[k].any() else
                    "pass" if passing[k] else
                    {labels[picks[k]], *groups.get(labels[picks[k]], ())}
                    for k in range(self.pool_rows)]
        self.bodies, self.expected = {}, {}
        for phase, n in self.shapes:
            self.bodies[phase] = [
                json.dumps({"queries": rows[i:i + n].tolist()}).encode()
                for i in range(0, self.pool_rows, n)]
            self.expected[phase] = [expected[i:i + n]
                                    for i in range(0, self.pool_rows, n)]

    def setup(self, traced: bool = False):
        """Compile the dictionary and start the service in its own
        interpreter; ready once it answers with its port."""
        self._servers += 1
        path = self.scratch / f"dictionary-{self._servers}.json"
        dictionary_for_campaign(self.campaign).save(path)
        command = [sys.executable, str(HERE / "serve_child.py"),
                   "--dictionary", str(path),
                   "--db", str(self.scratch /
                               f"results-{self._servers}.sqlite")]
        if traced:
            command.append("--trace")
        child = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)), text=True)
        ready, _, _ = select.select([child.stdout], [], [], 60)
        line = child.stdout.readline().split() if ready else []
        if line[:1] != ["ready"]:
            child.kill()
            child.wait()
            raise RuntimeError(f"server child failed to start: {line}")
        return {"child": child, "port": int(line[1])}

    def teardown(self, state, tracer=None) -> None:
        child = state["child"]
        try:
            out, _ = child.communicate("stop\n", timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise
        if tracer is not None:
            tracer.add(json.loads(out.splitlines()[-1])["spans"])

    def measure(self, state, seconds: float, tracer=None) -> Samples:
        phases = {phase: self._phase(state, phase, seconds / 2, tracer)
                  for phase, _ in self.shapes}
        single, block = phases["single"], phases["block"]
        return Samples(
            latencies=single["latencies"],
            periods=[(*block["interval"],
                      block["served"] * dict(self.shapes)["block"])],
            attempted=sum(len(p["latencies"]) for p in phases.values()),
            failed=sum(p["failed"] for p in phases.values()),
            outputs=[phases])

    def _phase(self, state, phase: str, seconds: float, tracer) -> Dict:
        """Two closed-loop clients, each on one keep-alive connection,
        cycling through the phase's request bodies until the
        deadline."""
        bodies = self.bodies[phase]
        latencies: List[List[Interval]] = [[] for _ in range(CLIENTS)]
        failures = [0] * CLIENTS
        # the first reply to each body, checked after the run; the
        # clients send disjoint bodies, so no two threads write one key
        replies: Dict[int, bytes] = {}
        errors: List[BaseException] = []
        barrier = threading.Barrier(CLIENTS + 1)
        deadline = time.perf_counter() + seconds

        def client_loop(i: int) -> None:
            client = _Client(state["port"])
            try:
                barrier.wait()
                for k in itertools.count(i, CLIENTS):
                    if time.perf_counter() >= deadline:
                        break
                    index = k % len(bodies)
                    t0 = time.perf_counter()
                    status, raw = self._post(client, bodies[index],
                                             tracer)
                    latencies[i].append((t0, time.perf_counter()))
                    if status != 200:
                        failures[i] += 1
                    elif index not in replies:
                        replies[index] = raw
            except Exception as exc:  # reported after the join
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        barrier.wait()
        started = time.perf_counter()
        for t in threads:
            t.join()
        ended = time.perf_counter()
        if errors:
            raise RuntimeError(f"{phase} client failed: {errors[0]!r}")
        flat = [x for lat in latencies for x in lat]
        return {"latencies": flat, "interval": (started, ended),
                "served": len(flat) - sum(failures),
                "failed": sum(failures), "replies": replies}

    def _post(self, client: _Client, body: bytes, tracer):
        if tracer is None:
            return client.request("POST", "/v1/diagnose", body)
        with tracer.span(f"{self.name}.op"):
            with tracer.span("http.transport") as span:
                return client.request(
                    "POST", "/v1/diagnose", body,
                    {spans.TRACE_HEADER: span.trace_id,
                     spans.PARENT_HEADER: span.span_id})

    def after_measure(self, state, samples: Samples) -> None:
        client = _Client(state["port"])
        try:
            status, body = client.request("GET", "/v1/metrics")
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"GET /v1/metrics answered {status}")
        samples.outputs.append(json.loads(body))

    def check(self, samples: Samples) -> List[str]:
        failures = []
        if samples.failed:
            failures.append(f"{samples.failed} requests failed")
        phases, metrics = samples.outputs
        wrong = 0
        for phase, result in phases.items():
            for index, raw in result["replies"].items():
                expected = self.expected[phase][index]
                diagnoses = json.loads(raw)["diagnoses"]
                if len(diagnoses) != len(expected):
                    failures.append(f"a {phase} reply has the wrong "
                                    f"number of diagnoses")
                    break
                for want, got in zip(expected, diagnoses):
                    if want == "pass":
                        wrong += got["verdict"] != "pass"
                    elif want is not None:
                        top = got["candidates"][0]["label"] \
                            if got["candidates"] else None
                        wrong += top not in want
        if wrong:
            failures.append(f"{wrong} control rows missed their own "
                            f"class")
        served = metrics["requests"].get("/v1/diagnose", 0)
        batches = metrics.get("db", {}).get("batches")
        if not batches == served == samples.attempted:
            failures.append(
                f"the results log holds {batches} batches for {served} "
                f"requests served and {samples.attempted} sent")
        return failures

    def layers(self, state, samples: Samples) -> Dict[str, float]:
        batching = samples.outputs[1]["batching"].values()
        blocks = sum(b["blocks"] for b in batching)
        requests = sum(b["requests"] for b in batching)
        return {"diagnosis.requests_per_block":
                requests / blocks if blocks else 0.0}

    def extra(self, samples: Samples) -> Dict:
        """Both phases' wall-clock rates and latency percentiles; each
        tail is the highest percentile with at least ten samples
        beyond it."""
        out = {}
        for (phase, n), tail in zip(self.shapes, (99, 90)):
            result = samples.outputs[0][phase]
            lat = 1e3 * np.asarray([t1 - t0
                                    for t0, t1 in result["latencies"]])
            started, ended = result["interval"]
            out[f"{phase}_requests"] = len(lat)
            out[f"{phase}_qps"] = result["served"] * n / (ended - started)
            out[f"{phase}_p50_ms"] = pct(lat, 50)
            out[f"{phase}_p{tail}_ms"] = pct(lat, tail)
            out[f"{phase}_beyond_p{tail}"] = int(np.sum(lat > pct(lat,
                                                                  tail)))
        return out


WORKLOADS = {cls.name: cls for cls in (CampaignCold, RecountWarm,
                                       FullchipMarch, DiagnoseServing)}
