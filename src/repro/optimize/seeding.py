"""Generation 0: the fixed menu becomes the seed population.

The greedy weighted set cover that used to *be* the optimizer (paper
section 3.2) now seeds it: generation 0 contains the greedy coverage
plan, the advisor's recommended-DfT variants
(:func:`repro.core.advisor.recommended_gene_flags` turned into
campaign genes), the full menu and the bare missing-code test, topped
up with seeded mutations of those.  The search can only improve on
the fixed menu from there — which is exactly the dominance property
``bench_optimize.py`` gates.

:func:`greedy_test_plan` preserves the legacy algorithm bit-for-bit
(same tie-breaks, same stopping rules); ``tests/testgen/test_optimize.py``
pins its selections.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.advisor import diagnose_escapes, recommended_gene_flags
from ..core.path import PathResult
from ..macrotest.coverage import MacroResult
from .genome import PlanGenome
from .measures import (MISSING_CODE, Measure, TestPlan,
                       all_measurements, measurement_cost)
from .operators import MutationRates, mutate


def greedy_test_plan(result: MacroResult,
                     min_coverage: Optional[float] = None,
                     dictionary=None,
                     resolution_weight: float = 0.0,
                     rng: Optional[np.random.Generator] = None
                     ) -> TestPlan:
    """Greedy minimum-cost measurement selection for one macro.

    At each step take the measurement with the best newly-covered
    fault probability (optionally plus weighted resolution gain) per
    second of tester time; ties break toward the smallest measurement
    tuple.  Fully deterministic — ``rng`` is accepted for uniformity
    with the other plan producers (every stochastic entry point in
    :mod:`repro.optimize` takes an explicit generator) but never
    drawn from.

    Args:
        result: macro result whose records carry ``violated_keys``.
        min_coverage: stop once this weighted coverage is reached
            (default: everything achievable).
        dictionary: optional :class:`repro.diagnosis.FaultDictionary`;
            when given, the returned plan carries the expected
            diagnostic resolution of the selected measurements.
        resolution_weight: trade-off knob; with a dictionary, each
            greedy step scores ``coverage_gain + resolution_weight *
            resolution_gain`` per second, and selection continues past
            the coverage target while a measurement still improves
            resolution.  0.0 (the default) reproduces the
            coverage-only plan exactly.
        rng: unused; accepted per the explicit-Generator contract.
    """
    del rng  # deterministic: kept for the uniform RNG contract
    weights: Dict[int, float] = {}
    detections: Dict[int, Set[Measure]] = {}
    total = result.total_faults
    if total == 0:
        raise ValueError("macro has no faults to cover")
    for idx, record in enumerate(result.records):
        weights[idx] = record.count / total
        dets: Set[Measure] = set(record.violated_keys)
        if record.voltage_detected:
            dets.add(MISSING_CODE)
        detections[idx] = dets

    candidates: Set[Measure] = set()
    for dets in detections.values():
        candidates |= dets
    achievable = sum(w for idx, w in weights.items() if detections[idx])
    target = achievable if min_coverage is None \
        else min(min_coverage, achievable)

    diagnose = dictionary is not None and resolution_weight > 0.0
    if diagnose:
        from ..diagnosis import expected_resolution

        def resolution_of(measures: Sequence[Measure]) -> float:
            return expected_resolution(
                dictionary, measurements=measures).resolution

    chosen: List[Measure] = []
    covered: Set[int] = set()
    coverage = 0.0
    resolution = resolution_of(chosen) if diagnose else 0.0
    remaining = set(candidates)
    while remaining:
        covering = coverage < target - 1e-12

        def gain(measure: Measure) -> float:
            g = sum(weights[idx] for idx in weights
                    if idx not in covered and
                    measure in detections[idx])
            if diagnose:
                g += resolution_weight * \
                    (resolution_of(chosen + [measure]) - resolution)
            return g / measurement_cost(measure)

        best = max(sorted(remaining), key=gain)
        newly = {idx for idx in weights
                 if idx not in covered and best in detections[idx]}
        if covering:
            if not newly and not (diagnose and gain(best) > 1e-12):
                break
        else:
            # coverage target met: keep going only while a measurement
            # still buys diagnostic resolution
            if not diagnose or \
                    resolution_of(chosen + [best]) <= resolution + 1e-12:
                break
        remaining.discard(best)
        chosen.append(best)
        covered |= newly
        coverage = sum(weights[idx] for idx in covered)
        if diagnose:
            resolution = resolution_of(chosen)

    cost = sum(measurement_cost(m) for m in chosen)
    final_resolution: Optional[float] = None
    if dictionary is not None:
        from ..diagnosis import expected_resolution
        final_resolution = expected_resolution(
            dictionary, measurements=chosen).resolution
    return TestPlan(measurements=tuple(chosen), coverage=coverage,
                    achievable=achievable, cost=cost,
                    resolution=final_resolution)


def _greedy_schedule(result: PathResult,
                     macros: Sequence[str]) -> Tuple[Measure, ...]:
    """Greedy selection order over every macro the search evaluates.

    Single macro (the common case) reproduces the legacy plan exactly;
    several macros run one combined set cover over the concatenated
    records, weighted by class magnitude — a seed, not a score (the
    evaluator's area-scaled objectives decide what survives).
    """
    parts: List[MacroResult] = []
    for name in macros:
        analysis = result.macros.get(name)
        if analysis is None:
            continue
        for macro_result in (analysis.result, analysis.noncat_result):
            if macro_result is not None and macro_result.records:
                parts.append(macro_result)
    if len(parts) == 1:
        return greedy_test_plan(parts[0]).measurements
    records = tuple(r for part in parts for r in part.records)
    merged = MacroResult(name="merged", bbox_area=1.0, instances=1,
                         defects_sprinkled=sum(
                             p.defects_sprinkled for p in parts),
                         records=records)
    return greedy_test_plan(merged).measurements


def fixed_menu_genomes(result: PathResult,
                       macros: Sequence[str] = ("comparator",)
                       ) -> List[PlanGenome]:
    """The fixed-menu candidates, as genomes.

    Built from a *base* (no-DfT) campaign result:

    1. the greedy coverage plan (the legacy optimizer's answer);
    2. the advisor plans — escape analysis turned into DfT/dynamic
       genes, once with the greedy schedule (what a designer
       following ``render_advice`` would ship) and once with the
       full suite (the paper's section 4 scenario);
    3. the full menu (every measurement, maximal resolution);
    4. the bare missing-code test (the minimal go/no-go plan).
    """
    greedy = _greedy_schedule(result, macros)
    if not greedy:
        greedy = (MISSING_CODE,)
    genomes = [PlanGenome(schedule=greedy)]

    flags: Dict[str, bool] = {}
    for name in macros:
        analysis = result.macros.get(name)
        if analysis is None or analysis.classes is None:
            continue
        diagnoses = diagnose_escapes(analysis.classes,
                                     analysis.result.records)
        for gene, wanted in recommended_gene_flags(diagnoses).items():
            flags[gene] = flags.get(gene, False) or wanted
    if any(flags.values()):
        genomes.append(PlanGenome(
            flipflop_redesign=flags.get("flipflop_redesign", False),
            bias_line_reorder=flags.get("bias_line_reorder", False),
            dynamic_test=flags.get("dynamic_test", False),
            schedule=greedy))
        # the paper's section 4 scenario: adopt the DfT measures and
        # apply the entire measurement suite
        genomes.append(PlanGenome(
            flipflop_redesign=flags.get("flipflop_redesign", False),
            bias_line_reorder=flags.get("bias_line_reorder", False),
            dynamic_test=flags.get("dynamic_test", False),
            schedule=all_measurements()))

    genomes.append(PlanGenome(schedule=all_measurements()))
    genomes.append(PlanGenome(schedule=(MISSING_CODE,)))

    unique: List[PlanGenome] = []
    seen: Set[str] = set()
    for genome in genomes:
        if genome.key() not in seen:
            seen.add(genome.key())
            unique.append(genome)
    return unique


def seed_population(menu: Sequence[PlanGenome], size: int,
                    rng: np.random.Generator,
                    rates: MutationRates = MutationRates()
                    ) -> List[PlanGenome]:
    """Generation 0: the fixed menu plus seeded mutations of it.

    Deduplicated by genome key; drawing order is deterministic in the
    generator's stream, so a given (seed, menu) always produces the
    same population.
    """
    if not menu:
        raise ValueError("seed menu must not be empty")
    population = list(menu)[:size]
    seen = {genome.key() for genome in population}
    attempts = 0
    while len(population) < size and attempts < 50 * size:
        attempts += 1
        parent = population[attempts % len(population)]
        child = mutate(parent, rng, rates)
        if child.key() not in seen:
            seen.add(child.key())
            population.append(child)
    # pathological palettes can exhaust distinct neighbours; pad with
    # menu repeats so the population contract (exact size) holds
    while len(population) < size:
        population.append(menu[len(population) % len(menu)])
    return population
