"""Closed-loop DfT/test-plan optimization (ROADMAP item 3).

The paper chose its DfT measures and test schedule by hand from a
fixed menu; this package closes the loop with a deterministic, seeded
evolutionary search over test-programme genomes:

* :mod:`~repro.optimize.genome` — the
  :class:`~repro.optimize.genome.PlanGenome` (DfT measures, dynamic
  test, probe amplitudes, corner set, ordered stimulus schedule) and
  its compilation onto :class:`~repro.core.path.PathConfig` deltas;
* :mod:`~repro.optimize.pareto` — NSGA-II primitives (non-dominated
  sort, crowding distance, elitist selection, hypervolume);
* :mod:`~repro.optimize.operators` — seeded mutation / crossover /
  tournament, all taking an explicit :class:`numpy.random.Generator`;
* :mod:`~repro.optimize.seeding` — the legacy fixed menu (greedy set
  cover + advisor recommendations) as generation 0;
* :mod:`~repro.optimize.evaluate` — candidates scored through the
  campaign pipeline (store cache hits, memoized campaigns, the local
  process pool) on coverage x test time x DfT area x
  diagnosability;
* :mod:`~repro.optimize.journal` — crash-safe run state in the
  results store (``optimize/<run_id>/``);
* :mod:`~repro.optimize.search` — the
  :class:`~repro.optimize.search.EvolutionarySearch` loop with
  byte-identical same-seed fronts and mid-generation resume;
* :mod:`~repro.optimize.metrics` / :mod:`~repro.optimize.report` —
  per-generation hypervolume + cache accounting, front rendering;
* :mod:`~repro.optimize.cli` — ``python -m repro optimize
  run|resume|report``.

See ``docs/OPTIMIZE.md`` for the genome encoding, the objective
definitions and resume semantics.
"""

from .measures import (MISSING_CODE, Measure, TestPlan,
                       all_measurements, dft_area_overhead,
                       full_plan_cost, measurement_cost)
from .pareto import (crowding_distance, dominates, hypervolume,
                     non_dominated_sort, nsga_rank, nsga_select)
from .genome import (BIG_PROBE_PALETTE, CORNER_PALETTE, PlanGenome,
                     SMALL_PROBE_PALETTE)
from .operators import (MutationRates, crossover, generation_rng,
                        mutate, tournament)
from .seeding import (fixed_menu_genomes, greedy_test_plan,
                      seed_population)
from .evaluate import (CampaignEvaluator, CandidateEvaluation,
                       ObjectiveVector, REFERENCE_POINT, YIELD_LOSS,
                       class_table, schedule_objectives)
from .journal import GenerationJournal
from .metrics import (GenerationStats, OptimizeMetrics,
                      OptimizeMetricsCollector)
from .search import EvolutionarySearch, SearchConfig, SearchResult
from .report import describe_candidates, render_front, render_history

__all__ = [
    "MISSING_CODE", "Measure", "TestPlan", "all_measurements",
    "dft_area_overhead", "full_plan_cost", "measurement_cost",
    "crowding_distance", "dominates", "hypervolume",
    "non_dominated_sort", "nsga_rank", "nsga_select",
    "BIG_PROBE_PALETTE", "CORNER_PALETTE", "PlanGenome",
    "SMALL_PROBE_PALETTE",
    "MutationRates", "crossover", "generation_rng", "mutate",
    "tournament",
    "fixed_menu_genomes", "greedy_test_plan", "seed_population",
    "CampaignEvaluator", "CandidateEvaluation", "ObjectiveVector",
    "REFERENCE_POINT", "YIELD_LOSS", "class_table",
    "schedule_objectives",
    "GenerationJournal",
    "GenerationStats", "OptimizeMetrics", "OptimizeMetricsCollector",
    "EvolutionarySearch", "SearchConfig", "SearchResult",
    "describe_candidates", "render_front", "render_history",
]
