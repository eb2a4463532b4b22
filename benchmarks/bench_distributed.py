"""Distributed-fabric benchmark: 3-worker campaign vs single host.

The distributed campaign fabric promises two things: a merged result
byte-identical to a single-host run with the same config and seed
(records are pure functions of (fault class, engine spec); the
coordinator assembles them in plan order), and a wall-clock win from
fanning the shard queue out to worker processes.  This benchmark
measures both on the full-path fault campaign (every macro, the
comparator classes dominating the wall) by running the identical
workload twice: once through a plain ``jobs=1``
:class:`CampaignRunner`, once
through a localhost :class:`Coordinator` with three spawned worker
processes (``LocalWorkerPool`` in process mode — the same machinery
``python -m repro campaign --coordinator --workers 3`` uses).

Identity is checked on the serialised detection records (byte
equality of the canonical JSON) and on the diagnosis dictionary
compiled from each result (same fingerprint, same entries) — always,
on any machine.  The :data:`MIN_SPEEDUP` floor is only enforced where
it can physically hold: three workers need at least three cores, so
on smaller hosts the payload carries ``floor_enforced: false`` and
the speedup is informational.  Both stores are pre-seeded with every
macro's good-circuit baseline (what any repeat campaign over the same
cache dir gets for free) so neither side pays the good-space sweeps
and the comparison isolates class-simulation fan-out.

Numbers persist machine-readable to
``benchmarks/output/BENCH_distributed.json`` so the performance
trajectory is tracked across PRs (``scripts/bench_compare.py`` diffs
two such files).

Runs standalone (``python benchmarks/bench_distributed.py``) or under
pytest with the other benchmarks.
"""

import argparse
import json
import os
import pathlib
import sys
import time

from repro.campaign import (CampaignOptions, CampaignRunner,
                            clear_engine_cache)
from repro.campaign.distributed import Coordinator
from repro.core import PathConfig
from repro.core.serialize import record_to_dict
from repro.diagnosis import dictionary_for_campaign

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: the acceptance floor: three workers must at least halve the
#: single-host wall time (enforced only where >= WORKERS cores exist)
MIN_SPEEDUP = 2.0

#: worker processes in the distributed run
WORKERS = 3

#: class-discovery budget of the benchmark campaign — sized so the
#: single-host reference takes CI-minutes-scale wall time and worker
#: start-up (interpreter + re-planning) stays small against it
N_DEFECTS = 2500
MAX_CLASSES = 32

#: small shards so the lease queue load-balances dynamically across
#: unequal class costs
SHARD_SIZE = 2


def bench_config(n_defects=N_DEFECTS,
                 max_classes=MAX_CLASSES) -> PathConfig:
    """The benchmark workload: the full-path fault campaign."""
    return PathConfig(n_defects=n_defects, max_classes=max_classes,
                      include_noncat=True)


def _seed_baselines(config: PathConfig, *dirs) -> None:
    """Publish every macro's good-circuit baseline to every store.

    ``prepare()`` resolves (and persists) the baselines without
    simulating a single fault class; the engine cache makes the
    second store's pass nearly free.  Seeding both sides keeps the
    good-space sweeps out of the measured walls.
    """
    for cache_dir in dirs:
        CampaignRunner(
            config,
            CampaignOptions(jobs=1, cache_dir=cache_dir)) \
            .prepare(None, jobs=1)


def _canonical_records(campaign) -> bytes:
    """Serialise every detection record of a campaign, plan order."""
    macros = {}
    for name, analysis in sorted(campaign.path_result.macros.items()):
        out = {"records": [record_to_dict(r)
                           for r in analysis.result.records]}
        if analysis.noncat_result is not None:
            out["noncat"] = [record_to_dict(r)
                             for r in analysis.noncat_result.records]
        macros[name] = out
    return json.dumps(macros, sort_keys=True).encode("utf-8")


def run_bench(n_defects=N_DEFECTS, max_classes=MAX_CLASSES,
              workers=WORKERS, work_dir=None) -> dict:
    """Time single host vs coordinator + workers, verify identity."""
    import tempfile
    config = bench_config(n_defects, max_classes)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        root = pathlib.Path(tmp)
        _seed_baselines(config, root / "single", root / "dist")

        clear_engine_cache()
        started = time.perf_counter()
        single = CampaignRunner(
            config,
            CampaignOptions(jobs=1, cache_dir=root / "single")) \
            .run(None)
        single_wall = time.perf_counter() - started

        clear_engine_cache()
        coordinator = Coordinator(
            config, CampaignOptions(jobs=1, cache_dir=root / "dist"),
            shard_size=SHARD_SIZE, lease=60.0)
        started = time.perf_counter()
        distributed = coordinator.run(workers=workers,
                                      worker_mode="process",
                                      timeout=1800)
        distributed_wall = time.perf_counter() - started

        records_identical = (
            distributed.fingerprint == single.fingerprint and
            _canonical_records(distributed) ==
            _canonical_records(single))
        single_dict = dictionary_for_campaign(single)
        dist_dict = dictionary_for_campaign(distributed)
        dictionary_identical = (
            dist_dict.meta["fingerprint"] ==
            single_dict.meta["fingerprint"] and
            dist_dict.entries == single_dict.entries)
        dashboard = coordinator.distributed.snapshot()

    speedup = single_wall / distributed_wall
    cpus = os.cpu_count() or 1
    return {
        "workload": f"full-path campaign "
                    f"({dashboard.shards_total} shards, "
                    f"{n_defects} defects)",
        "single_wall": single_wall,
        "distributed_wall": distributed_wall,
        "speedup": speedup,
        "scaling_efficiency": speedup / workers,
        "workers": workers,
        "min_speedup": MIN_SPEEDUP,
        "floor_enforced": cpus >= workers,
        "cpu_count": cpus,
        "records_identical": records_identical,
        "dictionary_identical": dictionary_identical,
        "shards": dashboard.shards_total,
        "reclaims": dashboard.reclaims,
        "duplicate_reports": dashboard.duplicate_reports,
    }


def emit_distributed_json(payload: dict) -> None:
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "BENCH_distributed.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_distributed_speedup():
    """Distributed fabric: byte-identical merge, and >= MIN_SPEEDUP
    with three workers wherever three cores exist."""
    payload = run_bench()
    emit_distributed_json(payload)
    assert payload["records_identical"], \
        "distributed merge diverges from the single-host reference"
    assert payload["dictionary_identical"], \
        "diagnosis dictionary diverges from the single-host reference"
    assert payload["reclaims"] == 0, \
        "healthy localhost workers lost a lease"
    if payload["floor_enforced"]:
        assert payload["speedup"] >= MIN_SPEEDUP, (
            f"distributed speedup {payload['speedup']:.2f}x below "
            f"the {MIN_SPEEDUP:.1f}x floor at "
            f"{payload['workers']} workers")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--defects", type=int, default=N_DEFECTS,
                        help="class-discovery defect budget "
                             "(default: %(default)d)")
    parser.add_argument("--max-classes", type=int, default=MAX_CLASSES,
                        help="class cap (default: %(default)d)")
    parser.add_argument("--workers", type=int, default=WORKERS,
                        help="worker processes (default: %(default)d)")
    args = parser.parse_args()
    payload = run_bench(n_defects=args.defects,
                        max_classes=args.max_classes,
                        workers=args.workers)
    emit_distributed_json(payload)
    print(json.dumps(payload, indent=1, sort_keys=True))
    if not payload["records_identical"]:
        print("FAIL: distributed records diverge from single host",
              file=sys.stderr)
        return 1
    if not payload["dictionary_identical"]:
        print("FAIL: diagnosis dictionary diverges from single host",
              file=sys.stderr)
        return 1
    if payload["floor_enforced"] and \
            payload["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {payload['speedup']:.2f}x < "
              f"{MIN_SPEEDUP:.1f}x at {payload['workers']} workers",
              file=sys.stderr)
        return 1
    if not payload["floor_enforced"]:
        print(f"note: {payload['cpu_count']} cores < "
              f"{payload['workers']} workers; speedup floor not "
              f"enforced on this host", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
