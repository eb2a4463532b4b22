"""Candidate evaluation through the campaign pipeline.

A genome's campaign genes compile onto the base
:class:`~repro.core.path.PathConfig` and run through
:class:`~repro.campaign.runner.CampaignRunner` — so every fault-class
simulation is resolved against the content-addressed store first, and
a candidate whose campaign was seen in *any* earlier run (this
generation, a previous generation, a previous search, a plain
``python -m repro campaign``) costs zero fresh simulations.  Within
one evaluator the scored campaign is additionally memoized by the
genome's campaign key, so schedule-only variants — the bulk of every
generation — are scored from the cached detection records and the
compiled dictionary without touching the runner at all.

Objectives (all computed from deterministic records, so evaluation is
reproducible bit-for-bit):

* **coverage** — weighted fraction of the candidate campaign's fault
  population its schedule detects (maximize);
* **test_time** — expected per-device tester seconds under
  stop-on-first-fail: good devices pay the whole schedule, faulty
  devices stop at the first detecting measurement (ordering matters —
  Pomeranz & Reddy's fault-ordering observation), weighted by
  :data:`YIELD_LOSS` (minimize);
* **dft_area** — modelled silicon cost of the adopted DfT measures
  (minimize; see :mod:`repro.optimize.measures`);
* **resolution** — expected diagnostic resolution of the schedule
  under the campaign's compiled fault dictionary (maximize; see
  ``docs/DIAGNOSIS.md``).

Fresh campaigns run over the local process pool
(``CampaignOptions.jobs``); records are identical at any ``jobs``, so
objectives (and fronts) don't depend on how wide the pool was.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..campaign import (CampaignOptions, CampaignResult, CampaignRunner,
                        CandidateEvaluated, EventBus)
from ..core.path import PathConfig, PathResult
from .genome import PlanGenome
from .measures import (MISSING_CODE, Measure, dft_area_overhead,
                       full_plan_cost, measurement_cost)

#: fraction of devices assumed faulty when weighting the
#: stop-on-first-fail term of the test-time objective (the paper's
#: process-quality regime; documented in docs/OPTIMIZE.md)
YIELD_LOSS = 0.05

#: hypervolume reference point in minimize space
#: (-coverage, test_time, dft_area, -resolution): a candidate scores
#: volume only where it beats "covers nothing, costs twice the full
#: menu, adopts every DfT measure and resolves nothing"
REFERENCE_POINT = (0.0, 2.0 * full_plan_cost(),
                   dft_area_overhead(True, True) + 1.0, 0.0)


@dataclasses.dataclass(frozen=True)
class ObjectiveVector:
    """One candidate's scores (natural units, not minimize space)."""

    coverage: float
    test_time: float
    dft_area: float
    resolution: float

    def minimize(self) -> Tuple[float, float, float, float]:
        """The NSGA-II minimization tuple (maximized objectives
        negated)."""
        return (-self.coverage, self.test_time, self.dft_area,
                -self.resolution)

    def to_dict(self) -> Dict:
        return {"coverage": self.coverage,
                "test_time": self.test_time,
                "dft_area": self.dft_area,
                "resolution": self.resolution}

    @classmethod
    def from_dict(cls, data: Dict) -> "ObjectiveVector":
        return cls(coverage=float(data["coverage"]),
                   test_time=float(data["test_time"]),
                   dft_area=float(data["dft_area"]),
                   resolution=float(data["resolution"]))


@dataclasses.dataclass(frozen=True)
class CandidateEvaluation:
    """A scored genome.

    Attributes:
        genome: the candidate.
        objectives: its scores.
        source: ``"computed"`` / ``"memo"`` / ``"journal"`` (see
            :class:`~repro.campaign.events.CandidateEvaluated`).
        fresh_simulations: fault classes simulated for it.
        store_hits: fault classes served from the results store.
        fingerprint: the underlying campaign's fingerprint.
        wall: evaluation wall seconds.
    """

    genome: PlanGenome
    objectives: ObjectiveVector
    source: str = "computed"
    fresh_simulations: int = 0
    store_hits: int = 0
    fingerprint: str = ""
    wall: float = 0.0

    def to_dict(self) -> Dict:
        return {"genome": self.genome.to_dict(),
                "objectives": self.objectives.to_dict(),
                "source": self.source,
                "fresh_simulations": self.fresh_simulations,
                "store_hits": self.store_hits,
                "fingerprint": self.fingerprint,
                "wall": self.wall}

    @classmethod
    def from_dict(cls, data: Dict) -> "CandidateEvaluation":
        return cls(
            genome=PlanGenome.from_dict(data["genome"]),
            objectives=ObjectiveVector.from_dict(data["objectives"]),
            source=str(data.get("source", "journal")),
            fresh_simulations=int(data.get("fresh_simulations", 0)),
            store_hits=int(data.get("store_hits", 0)),
            fingerprint=str(data.get("fingerprint", "")),
            wall=float(data.get("wall", 0.0)))


#: (normalized weight, detecting measurements) per fault class
ClassTable = Tuple[Tuple[float, FrozenSet[Measure]], ...]


def class_table(result: PathResult,
                macros: Sequence[str]) -> ClassTable:
    """Flatten a path result into (weight, detections) rows.

    Weights are area-and-yield scaled across macros (each macro's
    share is proportional to its
    :attr:`~repro.macrotest.coverage.MacroResult.weight`) and
    normalized to sum to 1 over the whole fault population, so
    coverage and expected-time sums read directly as fractions.
    """
    parts = []
    for name in macros:
        analysis = result.macros.get(name)
        if analysis is None:
            continue
        for macro_result in (analysis.result, analysis.noncat_result):
            if macro_result is None or not macro_result.records:
                continue
            parts.append(macro_result)
    total_weight = sum(p.weight for p in parts)
    if total_weight <= 0:
        raise ValueError("campaign produced no weighted fault classes")
    rows = []
    for part in parts:
        total = part.total_faults
        if total <= 0:
            continue
        share = part.weight / total_weight
        for record in part.records:
            detections = set(record.violated_keys)
            if record.voltage_detected:
                detections.add(MISSING_CODE)
            rows.append((share * record.count / total,
                         frozenset(detections)))
    return tuple(rows)


def schedule_objectives(schedule: Sequence[Measure],
                        table: ClassTable,
                        yield_loss: float = YIELD_LOSS
                        ) -> Tuple[float, float]:
    """(coverage, expected test time) of one schedule over a table."""
    costs = [measurement_cost(m) for m in schedule]
    cumulative = []
    acc = 0.0
    for cost in costs:
        acc += cost
        cumulative.append(acc)
    full = acc
    position = {m: i for i, m in enumerate(schedule)}
    coverage = 0.0
    faulty_time = 0.0
    for weight, detections in table:
        hit = [position[m] for m in detections if m in position]
        if hit:
            coverage += weight
            faulty_time += weight * cumulative[min(hit)]
        else:
            faulty_time += weight * full
    return coverage, (1.0 - yield_loss) * full + \
        yield_loss * faulty_time


@dataclasses.dataclass
class _CampaignScore:
    """Everything cached per campaign key."""

    campaign: CampaignResult
    dictionary: "object"  # FaultDictionary (lazy import domain)
    table: ClassTable
    fresh_simulations: int
    store_hits: int


class CampaignEvaluator:
    """Scores genomes, memoizing the expensive campaign half.

    One evaluator instance serves a whole search: campaigns are keyed
    by the genome's campaign genes, so only the first candidate of
    each (DfT, dynamic-test, probe, corner) combination pays for
    simulation — and even that first one resolves class-by-class
    against the content-addressed store.
    """

    def __init__(self, base_config: Optional[PathConfig] = None,
                 options: Optional[CampaignOptions] = None,
                 macros: Sequence[str] = ("comparator",),
                 bus: Optional[EventBus] = None,
                 yield_loss: float = YIELD_LOSS) -> None:
        self.base_config = base_config or PathConfig()
        self.options = options or CampaignOptions()
        self.macros = tuple(macros)
        self.bus = bus or EventBus()
        self.yield_loss = yield_loss
        self._campaigns: Dict[str, _CampaignScore] = {}

    # -- campaign half -----------------------------------------------------

    def _run_campaign(self, config: PathConfig) -> CampaignResult:
        runner = CampaignRunner(config, self.options, bus=EventBus())
        return runner.run(macros=list(self.macros))

    def _campaign_score(self, genome: PlanGenome
                        ) -> Tuple[_CampaignScore, str]:
        key = genome.campaign_key()
        cached = self._campaigns.get(key)
        if cached is not None:
            return cached, "memo"
        from ..diagnosis import dictionary_for_campaign
        config = genome.path_config(self.base_config)
        campaign = self._run_campaign(config)
        metrics = campaign.metrics
        dictionary = dictionary_for_campaign(campaign, self.options,
                                             EventBus())
        score = _CampaignScore(
            campaign=campaign, dictionary=dictionary,
            table=class_table(campaign.path_result, self.macros),
            fresh_simulations=int(getattr(metrics, "computed", 0)),
            store_hits=int(getattr(metrics, "cache_hits", 0) +
                           getattr(metrics, "journal_hits", 0)))
        self._campaigns[key] = score
        return score, "computed"

    def base_result(self) -> PathResult:
        """The base (default-campaign-genes) path result — what the
        fixed-menu seeding reads its records and escapes from.  The
        campaign is memoized under the default campaign key, so every
        generation-0 candidate with default genes reuses it."""
        score, _ = self._campaign_score(
            PlanGenome(schedule=(MISSING_CODE,)))
        return score.campaign.path_result

    # -- scoring half ------------------------------------------------------

    def objectives_for(self, genome: PlanGenome,
                       score: _CampaignScore) -> ObjectiveVector:
        from ..diagnosis import expected_resolution
        coverage, test_time = schedule_objectives(
            genome.schedule, score.table, yield_loss=self.yield_loss)
        resolution = expected_resolution(
            score.dictionary,
            measurements=list(genome.schedule)).resolution
        return ObjectiveVector(
            coverage=coverage, test_time=test_time,
            dft_area=dft_area_overhead(genome.flipflop_redesign,
                                       genome.bias_line_reorder),
            resolution=resolution)

    def evaluate(self, genome: PlanGenome,
                 generation: int = 0) -> CandidateEvaluation:
        started = time.perf_counter()
        score, source = self._campaign_score(genome)
        objectives = self.objectives_for(genome, score)
        fresh = score.fresh_simulations if source == "computed" else 0
        hits = score.store_hits if source == "computed" else 0
        evaluation = CandidateEvaluation(
            genome=genome, objectives=objectives, source=source,
            fresh_simulations=fresh, store_hits=hits,
            fingerprint=score.campaign.fingerprint,
            wall=time.perf_counter() - started)
        self.bus.emit(CandidateEvaluated(
            generation=generation, key=genome.key(), source=source,
            fresh_simulations=fresh, store_hits=hits,
            wall=evaluation.wall, objectives=objectives.to_dict()))
        return evaluation
