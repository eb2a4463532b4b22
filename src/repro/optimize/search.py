"""The deterministic, seeded NSGA-II search loop.

(mu + lambda) elitism: each generation breeds ``population`` offspring
from the survivors by binary tournament, crossover and mutation,
scores them through the :class:`~repro.optimize.evaluate
.CampaignEvaluator`, and keeps the best ``population`` of
parents + offspring by (front rank, crowding distance).

Determinism contract — two runs with the same seed produce
byte-identical fronts:

* generation *g*'s RNG is ``generation_rng(seed, g)`` — a pure
  function, no state carried between generations, nothing drawn
  outside the operators;
* every Pareto routine breaks ties by index (see
  :mod:`repro.optimize.pareto`);
* objectives are computed from deterministic detection records, so a
  candidate's scores don't depend on where (or whether) its campaign
  was simulated — a cache hit scores identically to a fresh run.

The same property powers resume: a killed run's journal holds every
completed generation's surviving population and every scored
candidate.  :meth:`EvolutionarySearch.resume` rebuilds the population
from the last ``gen-`` record, re-derives the interrupted
generation's offspring from the identical RNG stream, adopts the
``eval-`` blobs already journaled and scores only what's missing —
landing on the exact front the uninterrupted run would have produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign import (CampaignOptions, CandidateEvaluated, EventBus,
                        GenerationCompleted, ResultsStore)
from ..core.path import PathConfig
from .evaluate import (REFERENCE_POINT, CampaignEvaluator,
                       CandidateEvaluation)
from .genome import PlanGenome
from .journal import GenerationJournal
from .operators import (MutationRates, crossover, generation_rng,
                        mutate, tournament)
from .pareto import hypervolume, non_dominated_sort, nsga_rank, \
    nsga_select
from .seeding import fixed_menu_genomes, seed_population


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Knobs of one evolutionary search.

    Attributes:
        population: survivors per generation (mu == lambda).
        generations: breeding generations after generation 0.
        seed: search RNG seed (independent of the campaign seed —
            the campaign's defect population is part of the base
            config).
        crossover_rate: probability an offspring is bred from two
            parents instead of cloned from one.
        rates: mutation probabilities (see
            :class:`~repro.optimize.operators.MutationRates`).
        run_id: explicit journal namespace; None derives one from the
            search identity digest.
    """

    population: int = 12
    generations: int = 4
    seed: int = 7
    crossover_rate: float = 0.9
    rates: MutationRates = MutationRates()
    run_id: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """A finished (or resumed-to-finish) search.

    Attributes:
        run_id: the journal namespace of the run.
        front: the final non-dominated front, sorted by genome key.
        population: the final surviving population, sorted by genome
            key.
        generations: per-generation journal payloads, in order.
    """

    run_id: str
    front: Tuple[CandidateEvaluation, ...]
    population: Tuple[CandidateEvaluation, ...]
    generations: Tuple[Dict, ...]

    def front_json(self) -> str:
        """Canonical JSON of the front — the byte-identical artifact
        two same-seed runs must agree on."""
        payload = [{"key": e.genome.key(),
                    "genome": e.genome.to_dict(),
                    "objectives": e.objectives.to_dict()}
                   for e in self.front]
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))


class EvolutionarySearch:
    """Runs (and resumes) one seeded NSGA-II search.

    ``evaluator`` is injectable — tests drive the loop with a stub
    that scores genomes analytically; production uses the campaign-
    backed :class:`~repro.optimize.evaluate.CampaignEvaluator`.
    """

    def __init__(self, base_config: Optional[PathConfig] = None,
                 search: Optional[SearchConfig] = None,
                 options: Optional[CampaignOptions] = None,
                 macros: Sequence[str] = ("comparator",),
                 bus: Optional[EventBus] = None,
                 evaluator=None,
                 seed_genomes: Optional[Sequence[PlanGenome]] = None
                 ) -> None:
        self.base_config = base_config or PathConfig()
        self.search = search or SearchConfig()
        self.options = options or CampaignOptions()
        self.macros = tuple(macros)
        self.bus = bus or EventBus()
        self.evaluator = evaluator or CampaignEvaluator(
            self.base_config, self.options, macros=self.macros,
            bus=self.bus)
        self._seed_genomes = list(seed_genomes) if seed_genomes \
            else None
        self.reference = REFERENCE_POINT

    # -- identity ----------------------------------------------------------

    def identity(self) -> Dict:
        """What a resume must agree on to continue a journal."""
        return {
            "base_config": self.base_config.to_dict(),
            "macros": list(self.macros),
            "population": self.search.population,
            "generations": self.search.generations,
            "seed": self.search.seed,
            "crossover_rate": repr(self.search.crossover_rate),
            "rates": {
                "campaign": repr(self.search.rates.campaign),
                "schedule_toggle":
                    repr(self.search.rates.schedule_toggle),
                "schedule_swap": repr(self.search.rates.schedule_swap),
            },
        }

    def run_id(self) -> str:
        if self.search.run_id:
            return self.search.run_id
        blob = json.dumps(self.identity(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def _journal(self) -> GenerationJournal:
        store: Optional[ResultsStore] = None
        cache_dir = self.options.resolved_cache_dir()
        if cache_dir is not None:
            store = ResultsStore(cache_dir,
                                 version=self.options.store_version)
        return GenerationJournal(store, self.run_id())

    # -- seeding -----------------------------------------------------------

    def _menu(self) -> List[PlanGenome]:
        if self._seed_genomes is not None:
            return list(self._seed_genomes)
        base = self.evaluator.base_result()
        return fixed_menu_genomes(base, self.macros)

    # -- evaluation with journal adoption ----------------------------------

    def _evaluate(self, genome: PlanGenome, generation: int,
                  journal: GenerationJournal) -> CandidateEvaluation:
        journaled = journal.load_evaluation(genome.key())
        if journaled is not None:
            adopted = dataclasses.replace(
                journaled, source="journal", fresh_simulations=0,
                store_hits=0, wall=0.0)
            self.bus.emit(CandidateEvaluated(
                generation=generation, key=genome.key(),
                source="journal",
                objectives=adopted.objectives.to_dict()))
            return adopted
        evaluation = self.evaluator.evaluate(genome,
                                             generation=generation)
        journal.record_evaluation(evaluation)
        return evaluation

    def _score_population(self, genomes: Sequence[PlanGenome],
                          generation: int,
                          journal: GenerationJournal
                          ) -> List[CandidateEvaluation]:
        return [self._evaluate(g, generation, journal)
                for g in genomes]

    # -- generation bookkeeping --------------------------------------------

    def _front(self, population: Sequence[CandidateEvaluation]
               ) -> List[CandidateEvaluation]:
        points = [e.objectives.minimize() for e in population]
        first = non_dominated_sort(points)[0]
        # the population may carry duplicate genomes (an offspring can
        # clone its parent); the front reports each candidate once
        front: List[CandidateEvaluation] = []
        seen = set()
        for i in first:
            key = population[i].genome.key()
            if key not in seen:
                seen.add(key)
                front.append(population[i])
        return sorted(front, key=lambda e: e.genome.key())

    def _complete_generation(
            self, generation: int,
            population: List[CandidateEvaluation],
            scored: Sequence[CandidateEvaluation],
            journal: GenerationJournal, wall: float) -> Dict:
        front = self._front(population)
        hv = hypervolume([e.objectives.minimize() for e in front],
                         self.reference)
        payload = {
            "generation": generation,
            "population": [e.genome.key() for e in population],
            "front": [e.genome.key() for e in front],
            "hypervolume": hv,
            "evaluated": len(scored),
            "fresh_simulations": sum(e.fresh_simulations
                                     for e in scored),
            "store_hits": sum(e.store_hits for e in scored),
            "wall": wall,
        }
        journal.record_generation(generation, payload)
        self.bus.emit(GenerationCompleted(
            generation=generation, evaluated=len(scored),
            fresh_simulations=payload["fresh_simulations"],
            store_hits=payload["store_hits"],
            front_size=len(front), hypervolume=hv, wall=wall))
        return payload

    # -- breeding ----------------------------------------------------------

    def _breed(self, parents: Sequence[CandidateEvaluation],
               generation: int) -> List[PlanGenome]:
        rng = generation_rng(self.search.seed, generation)
        points = [e.objectives.minimize() for e in parents]
        ranks, crowding = nsga_rank(points)
        offspring: List[PlanGenome] = []
        while len(offspring) < self.search.population:
            i = tournament(rng, ranks, crowding)
            if rng.random() < self.search.crossover_rate:
                j = tournament(rng, ranks, crowding)
                child = crossover(parents[i].genome,
                                  parents[j].genome, rng)
            else:
                child = parents[i].genome
            offspring.append(mutate(child, rng, self.search.rates))
        return offspring

    # -- the loop ----------------------------------------------------------

    def run(self, resume: bool = False) -> SearchResult:
        journal = self._journal()
        meta = journal.load_meta()
        identity = self.identity()
        if meta is not None:
            if meta.get("identity") != identity:
                if resume:
                    raise ValueError(
                        f"run {self.run_id()} was journaled with a "
                        f"different config/search identity; refusing "
                        f"to resume")
                # same run_id, different identity: only possible with
                # an explicit --run-id; start over under that name
                journal.save_meta({"identity": identity})
        else:
            journal.save_meta({"identity": identity})

        generations: List[Dict] = []
        population: List[CandidateEvaluation] = []
        start_generation = 0

        if resume:
            done = journal.completed_generations()
            for g in done:
                payload = journal.load_generation(g)
                if payload is None:
                    break
                adopted = self._adopt(payload.get("population", ()),
                                      g, journal)
                if adopted is None:
                    break
                population = adopted
                generations.append(payload)
                start_generation = g + 1
                # replayed history still reaches the metrics
                # collectors — as pure journal traffic
                for evaluation in adopted:
                    self.bus.emit(CandidateEvaluated(
                        generation=g,
                        key=evaluation.genome.key(),
                        source="journal",
                        objectives=evaluation.objectives.to_dict()))
                self.bus.emit(GenerationCompleted(
                    generation=g,
                    evaluated=int(payload.get("evaluated", 0)),
                    front_size=len(payload.get("front", ())),
                    hypervolume=float(
                        payload.get("hypervolume", 0.0)),
                    wall=float(payload.get("wall", 0.0))))

        if start_generation == 0:
            started = time.perf_counter()
            rng = generation_rng(self.search.seed, 0)
            genomes = seed_population(self._menu(),
                                      self.search.population, rng,
                                      self.search.rates)
            scored = self._score_population(genomes, 0, journal)
            population = list(scored)
            generations.append(self._complete_generation(
                0, population, scored, journal,
                time.perf_counter() - started))
            start_generation = 1

        for g in range(start_generation,
                       self.search.generations + 1):
            started = time.perf_counter()
            offspring = self._breed(population, g)
            scored = self._score_population(offspring, g, journal)
            combined = population + scored
            points = [e.objectives.minimize() for e in combined]
            keep = nsga_select(points, self.search.population)
            population = [combined[i] for i in keep]
            generations.append(self._complete_generation(
                g, population, scored, journal,
                time.perf_counter() - started))

        front = self._front(population)
        return SearchResult(
            run_id=self.run_id(), front=tuple(front),
            population=tuple(sorted(
                population, key=lambda e: e.genome.key())),
            generations=tuple(generations))

    def resume(self) -> SearchResult:
        """Continue a journaled run (no-op when it already finished:
        the journal replays to the identical final front)."""
        return self.run(resume=True)

    # -- resume helpers ----------------------------------------------------

    def _adopt(self, keys: Sequence[str], generation: int,
               journal: GenerationJournal
               ) -> Optional[List[CandidateEvaluation]]:
        """Rebuild a journaled population; None when any member's
        evaluation blob is missing (that generation then re-runs)."""
        out: List[CandidateEvaluation] = []
        for key in keys:
            evaluation = journal.load_evaluation(key)
            if evaluation is None:
                return None
            out.append(dataclasses.replace(
                evaluation, source="journal", fresh_simulations=0,
                store_hits=0, wall=0.0))
        return out
