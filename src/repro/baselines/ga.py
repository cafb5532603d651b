"""Genetic-algorithm HW/SW partitioning (the Ben Chehida & Auguin flow).

The paper's experimental comparator [6]: spatial partitioning is
explored by a genetic algorithm (population 300 in the original); for
each individual, temporal partitioning is performed by a deterministic
clustering and scheduling by a deterministic list scheduler.  The paper
reports 28 ms solution quality in 4 minutes against its own 18.1 ms in
under 10 seconds; our benchmark regenerates that comparison shape
(``benchmarks/bench_comparison.py``).

Chromosome encoding: one gene per hardware-capable task, ``-1`` for
software, otherwise the index of the selected hardware implementation.
Fitness is the library's standard evaluation (longest path of the
realized search graph), so GA and annealer compete on identical ground.

Implements the unified :class:`~repro.search.strategy.SearchStrategy`
protocol: ``iterations`` count generations
(``result.generations_run`` is the historical alias), ``history`` is
the best cost after each generation, and ``extras["best_evaluation"]``
carries the full evaluation of the winner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.architecture import Architecture
from repro.baselines.list_scheduler import decode_partition
from repro.errors import ConfigurationError
from repro.mapping.evaluator import Evaluation, Evaluator
from repro.mapping.solution import Solution
from repro.model.application import Application
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)

Chromosome = Tuple[int, ...]


@dataclass
class GeneticConfig:
    """GA hyper-parameters (the tuning burden the paper criticizes)."""

    population_size: int = 300
    generations: int = 40
    crossover_rate: float = 0.9
    mutation_rate: float = 0.03
    tournament_size: int = 3
    elitism: int = 2
    seed: Optional[int] = None

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError("population_size must be >= 2")
        if self.generations < 1:
            raise ConfigurationError("generations must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation_rate must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ConfigurationError("tournament_size must be >= 1")
        if not 0 <= self.elitism < self.population_size:
            raise ConfigurationError("elitism must lie in [0, population_size)")


class GeneticPartitioner(SearchStrategy):
    """GA over spatial partitions with deterministic realization."""

    name = "ga"

    def __init__(
        self,
        application: Application,
        architecture: Architecture,
        config: Optional[GeneticConfig] = None,
        bus_policy: str = "ordered",
        engine: str = "full",
    ) -> None:
        self.application = application
        self.architecture = architecture
        self.config = config if config is not None else GeneticConfig()
        self.config.validate()
        self.evaluator = Evaluator(
            application, architecture, bus_policy, engine=engine
        )
        self._hw_capable = sorted(
            t.index for t in application.tasks() if t.hardware_capable
        )
        self._num_impls = {
            t: application.task(t).num_implementations for t in self._hw_capable
        }

    # ------------------------------------------------------------------
    # chromosome plumbing
    # ------------------------------------------------------------------
    def random_chromosome(self, rng: random.Random) -> Chromosome:
        genes = []
        for t in self._hw_capable:
            if rng.random() < 0.5:
                genes.append(-1)
            else:
                genes.append(rng.randrange(self._num_impls[t]))
        return tuple(genes)

    def decode(self, chromosome: Chromosome) -> Solution:
        hw_tasks = [
            t for t, g in zip(self._hw_capable, chromosome) if g >= 0
        ]
        impl_choice = {
            t: g for t, g in zip(self._hw_capable, chromosome) if g >= 0
        }
        return decode_partition(
            self.application, self.architecture, hw_tasks, impl_choice
        )

    def fitness(self, chromosome: Chromosome) -> float:
        """Cost (lower is better): makespan of the decoded solution."""
        return self.evaluator.makespan_ms(self.decode(chromosome))

    def _crossover(
        self, a: Chromosome, b: Chromosome, rng: random.Random
    ) -> Chromosome:
        if len(a) < 2:
            return a
        point = rng.randrange(1, len(a))
        return a[:point] + b[point:]

    def _mutate(self, chromosome: Chromosome, rng: random.Random) -> Chromosome:
        genes = list(chromosome)
        for i, t in enumerate(self._hw_capable):
            if rng.random() < self.config.mutation_rate:
                if genes[i] >= 0 and rng.random() < 0.5:
                    genes[i] = -1
                else:
                    genes[i] = rng.randrange(self._num_impls[t])
        return tuple(genes)

    def _tournament(
        self,
        population: Sequence[Chromosome],
        costs: Dict[Chromosome, float],
        rng: random.Random,
    ) -> Chromosome:
        best = None
        for _ in range(self.config.tournament_size):
            candidate = population[rng.randrange(len(population))]
            if best is None or costs[candidate] < costs[best]:
                best = candidate
        assert best is not None
        return best

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        return self.search()

    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """Evolve to the budget.  ``initial`` is ignored: the GA draws
        its own random population (documented protocol deviation)."""
        config = self.config
        rng = random.Random(config.seed)
        generations = (
            budget.resolve_iterations(config.generations)
            if budget is not None else config.generations
        )
        tele = self.telemetry
        evaluations_before = self.evaluator.evaluations
        # Construct the tracker first: scoring the initial population is
        # paid work and belongs in runtime_s (the clock starts here).
        tracker = SearchTracker(
            self.name, budget=budget, seed=config.seed, on_step=on_step,
            telemetry=tele,
        )

        population = [
            self.random_chromosome(rng) for _ in range(config.population_size)
        ]
        costs: Dict[Chromosome, float] = {}

        def cost_of(ch: Chromosome) -> float:
            if ch not in costs:
                costs[ch] = self.fitness(ch)
            return costs[ch]

        with tele.phase("init"):
            for chromosome in population:
                cost_of(chromosome)
            best = min(population, key=cost_of)
        tracker.begin(cost_of(best))

        for generation in range(1, generations + 1):
            with tele.phase("propose"):
                ranked = sorted(set(population), key=cost_of)
                next_population: List[Chromosome] = list(
                    ranked[: config.elitism]
                )
                while len(next_population) < config.population_size:
                    parent_a = self._tournament(population, costs, rng)
                    if rng.random() < config.crossover_rate:
                        parent_b = self._tournament(population, costs, rng)
                        child = self._crossover(parent_a, parent_b, rng)
                    else:
                        child = parent_a
                    child = self._mutate(child, rng)
                    next_population.append(child)
                population = next_population
            with tele.phase("evaluate"):
                for chromosome in population:
                    cost_of(chromosome)
            with tele.phase("accept"):
                generation_best = min(population, key=cost_of)
                if cost_of(generation_best) < cost_of(best):
                    best = generation_best
            tracker.observe(generation, cost_of(best))
            if tracker.exhausted():
                break

        best_solution = self.decode(best)
        best_evaluation = self.evaluator.evaluate(best_solution)
        tracker.record_engine(self.evaluator)
        return tracker.finish(
            best_solution=best_solution,
            evaluations=self.evaluator.evaluations - evaluations_before,
            best_evaluation=best_evaluation,
        )
