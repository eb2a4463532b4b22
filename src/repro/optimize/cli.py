"""``python -m repro optimize`` — run, resume, report.

Subcommands:

* ``run`` — seeded NSGA-II search over test-programme genomes.
  Prints the final Pareto front (knee point marked) and per-generation
  progress; ``--out`` writes the canonical front JSON, ``--metrics-out``
  the per-generation hypervolume / cache accounting, ``--cache-dir``
  turns every evaluation into a crash-safe journal entry and every
  repeated campaign into store hits.  ``--jobs N`` runs each fresh
  campaign over the local process pool.
* ``resume`` — continue an interrupted run from its journal
  (requires the same config; a finished run replays to the identical
  front without simulating anything).
* ``report`` — a journaled run's history and last front straight from
  the store, no simulation.

See ``docs/OPTIMIZE.md`` for the genome encoding and objectives.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..campaign import (CampaignOptions, DEFAULT_CACHE_DIR, EventBus,
                        GenerationCompleted, ResultsStore)
from ..core.path import PathConfig
from .journal import GenerationJournal
from .metrics import OptimizeMetricsCollector
from .operators import MutationRates
from .report import render_front, render_history
from .search import EvolutionarySearch, SearchConfig


def _add_campaign_arguments(p) -> None:
    p.add_argument("--defects", type=int, default=4000,
                   help="defect budget per candidate campaign "
                        "(default: %(default)s)")
    p.add_argument("--classes", type=int, default=8,
                   help="fault-class cap per macro "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=int, default=1995,
                   help="campaign Monte Carlo seed (the defect "
                        "population; independent of --search-seed)")
    p.add_argument("--macros", nargs="*", default=["comparator"],
                   help="macros the candidate campaigns simulate")
    p.add_argument("--jobs", type=int, default=None,
                   help="local worker processes per campaign "
                        "(default: all cores)")
    p.add_argument("--cache-dir", default=None,
                   help="results-store root: caches fault-class "
                        "records across candidates AND journals the "
                        "run for resume (default: none; resume "
                        f"defaults to {DEFAULT_CACHE_DIR})")


def _add_search_arguments(p) -> None:
    p.add_argument("--population", type=int, default=12,
                   help="NSGA-II population size "
                        "(default: %(default)s)")
    p.add_argument("--generations", type=int, default=4,
                   help="breeding generations after the seeded "
                        "generation 0 (default: %(default)s)")
    p.add_argument("--search-seed", type=int, default=7,
                   help="evolutionary-search RNG seed; same seed => "
                        "byte-identical front (default: %(default)s)")
    p.add_argument("--crossover-rate", type=float, default=0.9,
                   help="probability an offspring is bred from two "
                        "parents (default: %(default)s)")
    p.add_argument("--campaign-mutation", type=float, default=None,
                   help="per-offspring probability of mutating a "
                        "campaign gene (DfT/probe/corner; default: "
                        "MutationRates.campaign)")
    p.add_argument("--run-id", default=None,
                   help="journal namespace (default: derived from "
                        "the search identity digest)")


def _add_output_arguments(p) -> None:
    p.add_argument("--out", default=None,
                   help="write the canonical front JSON here")
    p.add_argument("--metrics-out", default=None,
                   help="write search metrics JSON here "
                        "(per-generation hypervolume, cache "
                        "accounting, warm-reuse speedup)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-generation progress lines")


def _add_run(sub, name: str, help_text: str) -> None:
    p = sub.add_parser(name, help=help_text)
    _add_campaign_arguments(p)
    _add_search_arguments(p)
    _add_output_arguments(p)


def _add_report(sub) -> None:
    p = sub.add_parser("report", help="journaled run history from "
                                      "the store (no simulation)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="results-store root holding the journal "
                        "(default: %(default)s)")
    p.add_argument("--run-id", default=None,
                   help="run to report (default: the only journaled "
                        "run; required when several exist)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")


def _search(args, bus: EventBus) -> EvolutionarySearch:
    config = PathConfig(n_defects=args.defects,
                        max_classes=args.classes, seed=args.seed)
    rates = MutationRates()
    if args.campaign_mutation is not None:
        rates = MutationRates(campaign=args.campaign_mutation)
    search = SearchConfig(population=args.population,
                          generations=args.generations,
                          seed=args.search_seed,
                          crossover_rate=args.crossover_rate,
                          rates=rates, run_id=args.run_id)
    options = CampaignOptions(jobs=args.jobs,
                              cache_dir=args.cache_dir)
    return EvolutionarySearch(config, search, options,
                              macros=tuple(args.macros), bus=bus)


def _progress(event) -> None:
    if isinstance(event, GenerationCompleted):
        print(f"  generation {event.generation}: "
              f"{event.evaluated} evaluated, "
              f"{event.fresh_simulations} fresh simulations, "
              f"{event.store_hits} store hits, "
              f"front {event.front_size}, "
              f"hypervolume {event.hypervolume:.6g} "
              f"({event.wall:.1f}s)", file=sys.stderr)


def _run(args, resume: bool) -> int:
    bus = EventBus()
    collector = OptimizeMetricsCollector()
    bus.subscribe(collector)
    if not args.quiet:
        bus.subscribe(_progress)
    if resume and args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    search = _search(args, bus)
    if not args.quiet:
        print(f"optimize run {search.run_id()}: population "
              f"{args.population}, generations {args.generations}, "
              f"search seed {args.search_seed}", file=sys.stderr)
    try:
        result = search.run(resume=resume)
    except ValueError as exc:
        print(f"optimize error: {exc}", file=sys.stderr)
        return 1
    print(f"run {result.run_id} — final Pareto front:")
    print(render_front(result.front))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.front_json())
        print(f"front JSON written to {args.out}")
    if args.metrics_out:
        metrics = collector.snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics.as_dict(), fh, indent=2, sort_keys=True)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _journaled_runs(store: ResultsStore) -> List[str]:
    runs = set()
    for key in store.iter_keys("optimize/"):
        parts = key.split("/")
        if len(parts) >= 3:
            runs.add(parts[1])
    return sorted(runs)


def _report(args) -> int:
    store = ResultsStore(args.cache_dir)
    run_id = args.run_id
    if run_id is None:
        runs = _journaled_runs(store)
        if not runs:
            print(f"no journaled optimize runs under "
                  f"{args.cache_dir}", file=sys.stderr)
            return 1
        if len(runs) > 1:
            print("several journaled runs — pick one with --run-id:",
                  file=sys.stderr)
            for rid in runs:
                print(f"  {rid}", file=sys.stderr)
            return 1
        run_id = runs[0]
    journal = GenerationJournal(store, run_id)
    done = journal.completed_generations()
    if not done:
        print(f"run {run_id}: no completed generations",
              file=sys.stderr)
        return 1
    payloads = [journal.load_generation(g) for g in done]
    payloads = [p for p in payloads if p is not None]
    if args.json:
        last = payloads[-1]
        front = [journal.load_evaluation(key) for key
                 in last.get("front", ())]
        print(json.dumps({
            "run_id": run_id,
            "generations": payloads,
            "front": [e.to_dict() for e in front if e is not None],
        }, indent=2, sort_keys=True))
        return 0
    print(f"run {run_id}: {len(payloads)} completed generations, "
          f"{len(journal.evaluation_keys())} journaled evaluations")
    print(render_history(payloads))
    last = payloads[-1]
    front = [journal.load_evaluation(key)
             for key in last.get("front", ())]
    front = [e for e in front if e is not None]
    if front:
        print("last journaled front:")
        print(render_front(front))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro optimize", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_run(sub, "run", "seeded NSGA-II search over test-programme "
                         "genomes")
    _add_run(sub, "resume", "continue an interrupted run from its "
                            "journal")
    _add_report(sub)
    args = parser.parse_args(argv)
    if args.subcommand == "report":
        return _report(args)
    return _run(args, resume=args.subcommand == "resume")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
