"""``python -m repro diagnose`` — build, query, report, serve.

Subcommands:

* ``build`` — run (or cache-hit) a campaign and compile its fault
  dictionary; ``--out`` writes the dictionary JSON, ``--cache-dir``
  additionally persists it in the campaign store.
* ``query`` — diagnose signature vectors from a JSON file against a
  dictionary; ``--self-test`` replays every dictionary entry's own
  signature (the closed-loop check) and reports top-1 accuracy.
* ``report`` — resolution analytics: ambiguity groups, expected
  diagnostic resolution, distinguishability summary; with ``--db`` it
  instead reports what a live service actually served (verdict mix,
  per-dictionary resolution, most-diagnosed classes) from the SQLite
  results backend.
* ``serve`` — the versioned HTTP service (``repro.diagnosis.server``):
  ``--dictionary NAME=PATH`` (repeatable; PATH is a dictionary JSON
  file or a campaign store root) builds the registry, ``--db`` attaches
  the persistent results backend.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..campaign.events import (DiagnosisMetricsCollector,
                               DictionaryBuilt, EventBus)
from ..campaign.runner import CampaignOptions
from ..core.options import add_engine_arguments, engine_knobs
from ..core.path import PathConfig
from ..testgen.dft import FULL_DFT, NO_DFT
from .analytics import distinguishability_matrix, expected_resolution
from .build import build_dictionary, build_from_store
from .db import DiagnosisDB, DiagnosisDBError
from .dictionary import DictionaryError, FaultDictionary
from .match import DictionaryMatcher, EmptyDictionaryError
from .registry import DictionaryRegistry, RegistryError


def _add_build(sub) -> None:
    p = sub.add_parser("build", help="compile a dictionary from a "
                                     "campaign")
    p.add_argument("--out", default=None,
                   help="write the dictionary JSON here")
    p.add_argument("--full", action="store_true",
                   help="paper-scale Monte Carlo budgets")
    p.add_argument("--defects", type=int, default=10000,
                   help="quick-mode defect budget")
    p.add_argument("--classes", type=int, default=30,
                   help="quick-mode class cap per macro")
    p.add_argument("--seed", type=int, default=1995,
                   help="Monte Carlo seed")
    p.add_argument("--dft", action="store_true",
                   help="apply full DfT")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: all cores)")
    p.add_argument("--cache-dir", default=None,
                   help="campaign store root; caches records and the "
                        "compiled dictionary")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted campaign")
    p.add_argument("--from-store", default=None, metavar="DIR",
                   help="skip the campaign: compile directly from a "
                        "populated store directory")
    p.add_argument("--macros", nargs="*", default=None,
                   help="restrict the campaign to these macros")
    add_engine_arguments(p)


def _add_query(sub) -> None:
    p = sub.add_parser("query", help="diagnose signatures against a "
                                     "dictionary")
    p.add_argument("--dictionary", required=True,
                   help="dictionary JSON file")
    p.add_argument("--input", default=None,
                   help="JSON file with {'queries': [...]} or "
                        "{'records': [...]} (default: stdin)")
    p.add_argument("--self-test", action="store_true",
                   help="replay every entry's own signature (closed-"
                        "loop diagnosis check)")
    p.add_argument("--top-k", type=int, default=5,
                   help="candidates reported per query")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")


def _add_report(sub) -> None:
    p = sub.add_parser("report", help="resolution analytics for a "
                                      "dictionary or a service's "
                                      "results db")
    p.add_argument("--dictionary", default=None,
                   help="dictionary JSON file")
    p.add_argument("--db", default=None,
                   help="diagnosis service SQLite results db: report "
                        "served verdicts instead of dictionary "
                        "analytics")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")


def _add_serve(sub) -> None:
    p = sub.add_parser("serve", help="versioned HTTP diagnosis "
                                     "service")
    p.add_argument("--dictionary", action="append", default=None,
                   metavar="NAME=PATH", required=True,
                   help="serve the dictionary at PATH under NAME "
                        "(repeatable; PATH is a dictionary JSON file "
                        "or a campaign store root)")
    p.add_argument("--default", default=None, metavar="NAME",
                   help="dictionary served when a request names none "
                        "(default: the first --dictionary)")
    p.add_argument("--db", default=None, metavar="PATH",
                   help="attach the SQLite results backend at PATH "
                        "(queries, verdicts and per-dictionary stats "
                        "are recorded for /v1/metrics and 'report "
                        "--db')")
    p.add_argument("--lazy", action="store_true",
                   help="load dictionaries on first use instead of "
                        "at startup")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8095)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--procs", default="1", metavar="N",
                   help="worker processes sharing the port (default "
                        "1: single-process in-line serving; 'auto' "
                        "uses all cores).  N>1 runs the pre-fork "
                        "fleet supervisor (repro.diagnosis.fleet): "
                        "crash restart, graceful drain, coordinated "
                        "hot-reload")
    p.add_argument("--verbose", action="store_true",
                   help="log every request to stderr")


def _build(args) -> int:
    bus = EventBus()
    built: List[DictionaryBuilt] = []
    bus.subscribe(lambda e: built.append(e)
                  if isinstance(e, DictionaryBuilt) else None)
    if args.from_store:
        from ..campaign.store import ResultsStore
        dictionary = build_from_store(ResultsStore(args.from_store),
                                      bus=bus)
    else:
        knobs = engine_knobs(args)
        dft = FULL_DFT if args.dft else NO_DFT
        if args.full:
            config = PathConfig(n_defects=25000,
                                magnitude_defects=2_000_000,
                                dft=dft, seed=args.seed, **knobs)
        else:
            config = PathConfig(n_defects=args.defects,
                                max_classes=args.classes,
                                dft=dft, seed=args.seed, **knobs)
        options = CampaignOptions(jobs=args.jobs,
                                  cache_dir=args.cache_dir,
                                  resume=args.resume)
        dictionary = build_dictionary(config, options, bus=bus,
                                      macros=args.macros)
    if args.out:
        dictionary.save(args.out)
        print(f"dictionary saved to {args.out}", file=sys.stderr)
    source = built[-1].source if built else "computed"
    wall = built[-1].wall if built else 0.0
    undetected = len(dictionary.meta.get("undetected", ()))
    print(f"dictionary: {len(dictionary)} classes over "
          f"{len(dictionary.macros)} macros "
          f"({undetected} undetectable), "
          f"{len(dictionary.features)} features, {source} in "
          f"{wall:.1f}s")
    return 0


def _load_dictionary(path: str) -> FaultDictionary:
    return FaultDictionary.load(path)


def _self_test(dictionary: FaultDictionary,
               matcher: DictionaryMatcher, as_json: bool) -> int:
    """Closed-loop check: every entry's own signature must rank its
    class (or its declared ambiguity group) top-1."""
    diagnoses = matcher.diagnose_batch(dictionary.matrix())
    failures = []
    ambiguous = 0
    for entry, diagnosis in zip(dictionary.entries, diagnoses):
        top = diagnosis.top
        ok = top is not None and (
            top.label == entry.label or
            entry.label in diagnosis.ambiguity_group)
        if diagnosis.verdict == "ambiguous":
            ambiguous += 1
        if not ok:
            failures.append((entry.label,
                             top.label if top else None))
    if as_json:
        print(json.dumps({
            "classes": len(dictionary),
            "top1": len(dictionary) - len(failures),
            "ambiguous": ambiguous,
            "failures": [list(f) for f in failures]},
            sort_keys=True))
    else:
        print(f"self-test: {len(dictionary) - len(failures)}/"
              f"{len(dictionary)} classes rank themselves (or their "
              f"ambiguity group) top-1; {ambiguous} sit in ambiguity "
              f"groups")
        for label, got in failures:
            print(f"  FAIL {label}: top-1 was {got}")
    return 1 if failures else 0


def _query(args) -> int:
    try:
        dictionary = _load_dictionary(args.dictionary)
        matcher = DictionaryMatcher(dictionary, top_k=args.top_k)
    except (DictionaryError, EmptyDictionaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        return _self_test(dictionary, matcher, args.json)
    from .server import BadRequest, _parse_queries
    try:
        body = (Path(args.input).read_bytes() if args.input
                else sys.stdin.buffer.read())
        queries = _parse_queries(body, len(dictionary.features))
    except (OSError, BadRequest) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diagnoses = matcher.diagnose_batch(queries)
    if args.json:
        print(json.dumps({"diagnoses": [d.to_dict()
                                        for d in diagnoses]},
                         sort_keys=True))
        return 0
    for k, diagnosis in enumerate(diagnoses):
        line = f"query {k}: {diagnosis.verdict}"
        if diagnosis.top is not None and diagnosis.verdict != "pass":
            top = diagnosis.top
            line += (f" -> {top.label} (distance {top.distance:.3f}, "
                     f"posterior {top.posterior:.3f})")
        if diagnosis.ambiguity_group:
            line += f" group={','.join(diagnosis.ambiguity_group)}"
        print(line)
    return 0


def _report_db(args) -> int:
    """``report --db``: what a live service actually served."""
    try:
        db = DiagnosisDB(args.db)
    except DiagnosisDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        summary = db.summary()
        per_dictionary = db.per_dictionary()
        top = db.top_classes(limit=10)
    finally:
        db.close()
    if args.json:
        print(json.dumps({"summary": summary,
                          "per_dictionary": per_dictionary,
                          "top_classes": top}, sort_keys=True))
        return 0
    print(f"served: {summary['queries']} queries in "
          f"{summary['batches']} batches "
          f"({summary['matched']} matched, "
          f"{summary['ambiguous']} ambiguous, "
          f"{summary['unmatched']} unmatched, "
          f"{summary['passed']} passed)")
    for row in per_dictionary:
        print(f"  {row['dictionary']} v{row['version']}: "
              f"{row['queries']} queries, resolution rate "
              f"{100 * row['resolution_rate']:.1f}%")
    if top:
        print("most-diagnosed classes:")
        for row in top:
            print(f"  {row['hits']:6d}  {row['label']}")
    return 0


def _report(args) -> int:
    if args.db is not None:
        return _report_db(args)
    if args.dictionary is None:
        print("error: report needs --dictionary or --db",
              file=sys.stderr)
        return 2
    try:
        dictionary = _load_dictionary(args.dictionary)
    except DictionaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = expected_resolution(dictionary)
    matrix = distinguishability_matrix(dictionary)
    ambiguous_groups = [g for g in report.groups if len(g) > 1]
    if args.json:
        payload = report.to_dict()
        payload["classes"] = len(dictionary)
        if len(dictionary) > 1:
            import numpy as np
            off = matrix[~np.eye(len(dictionary), dtype=bool)]
            payload["min_pair_distance"] = float(off.min())
            payload["mean_pair_distance"] = float(off.mean())
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"dictionary: {len(dictionary)} classes, "
          f"{report.n_groups} distinguishable groups")
    print(f"expected resolution: {100 * report.resolution:.1f}% "
          f"(prior-weighted chance a detected fault is pinned to "
          f"its exact class)")
    print(f"expected ambiguity-group size: "
          f"{report.expected_group_size:.2f}")
    if ambiguous_groups:
        print("ambiguity groups:")
        for group in ambiguous_groups:
            print(f"  {', '.join(group)}")
    else:
        print("ambiguity groups: none — every class is uniquely "
              "distinguishable")
    return 0


def parse_dictionary_specs(values: Sequence[str]
                           ) -> List[Tuple[str, str]]:
    """``NAME=PATH`` flags -> ``(name, path)`` pairs."""
    specs: List[Tuple[str, str]] = []
    taken = set()
    for value in values:
        name, sep, path = value.partition("=")
        name = name.strip()
        if not sep or not name or not path:
            raise RegistryError(
                f"--dictionary {value!r}: expected NAME=PATH")
        if name in taken:
            raise RegistryError(
                f"--dictionary name {name!r} given twice")
        taken.add(name)
        specs.append((name, path))
    return specs


def build_registry(values: Sequence[str], top_k: int = 5,
                   default: Optional[str] = None,
                   lazy: bool = False) -> DictionaryRegistry:
    """Registry from CLI ``--dictionary`` flags (shared with tests
    and benchmarks)."""
    registry = DictionaryRegistry(top_k=top_k)
    specs = parse_dictionary_specs(values)
    for name, path in specs:
        registry.register(name, source=path, lazy=lazy,
                          default=(name == default))
    if default is not None and default not in registry:
        raise RegistryError(
            f"--default {default!r} names no registered dictionary")
    return registry


def parse_procs(value: str) -> int:
    """``--procs`` flag -> worker count (``auto`` = all cores)."""
    import os
    if value == "auto":
        return os.cpu_count() or 1
    try:
        procs = int(value)
    except ValueError:
        raise RegistryError(
            f"--procs {value!r}: expected an integer or 'auto'")
    if procs < 1:
        raise RegistryError(f"--procs must be >= 1, got {procs}")
    return procs


def _serve_fleet(args, procs: int) -> int:
    """``serve --procs N`` for N>1: the pre-fork fleet."""
    from .fleet import DiagnosisFleet, FleetError
    try:
        fleet = DiagnosisFleet(
            args.dictionary, procs=procs, host=args.host,
            port=args.port, top_k=args.top_k, default=args.default,
            lazy=args.lazy, db_path=args.db, verbose=args.verbose)
        host, port = fleet.start()
    except (DictionaryError, RegistryError, FleetError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = ", ".join(name for name, _ in fleet.specs)
    mode = "SO_REUSEPORT" if fleet.reuseport else "shared listener"
    print(f"serving dictionaries [{names}] on http://{host}:{port} "
          f"with {procs} worker processes ({mode})"
          + (f"; results db {args.db}" if args.db else ""),
          file=sys.stderr)
    fleet.run_forever()
    return 0


def _serve(args) -> int:
    from .server import serve
    try:
        procs = parse_procs(args.procs)
    except RegistryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if procs > 1:
        return _serve_fleet(args, procs)
    try:
        registry = build_registry(args.dictionary, top_k=args.top_k,
                                  default=args.default,
                                  lazy=args.lazy)
    except (DictionaryError, RegistryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    db = None
    if args.db is not None:
        try:
            db = DiagnosisDB(args.db)
        except DiagnosisDBError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    server = serve(registry=registry, host=args.host, port=args.port,
                   verbose=args.verbose, db=db)
    host, port = server.server_address[:2]
    names = ", ".join(registry.names())
    print(f"serving dictionaries [{names}] on http://{host}:{port} "
          f"(POST /v1/diagnose, GET /v1/health, GET /v1/metrics, "
          f"GET /v1/dictionaries"
          + (f"; results db {args.db}" if args.db else "") + ")",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if db is not None:
            db.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro diagnose", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    _add_build(sub)
    _add_query(sub)
    _add_report(sub)
    _add_serve(sub)
    args = parser.parse_args(argv)
    if args.subcommand == "build":
        return _build(args)
    if args.subcommand == "query":
        return _query(args)
    if args.subcommand == "report":
        return _report(args)
    return _serve(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
