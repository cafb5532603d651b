"""The annealing loop: K chains, optional replica exchange.

This is the library's one Metropolis loop (paper section 4.1).  Each
round, every chain steps inline through its own permanently-bound
evaluation engine: draw a move, realize it, score the new solution by
longest path, accept by the Metropolis criterion at its slot's
temperature, undo on reject, and feed the outcome back to the slot's
adaptive schedule.  The first ``warmup_iterations`` rounds run at
infinite temperature (every feasible move is accepted) while cost
statistics accumulate — exactly the first 1200 iterations of the
paper's Fig. 2 — after which adaptive cooling starts.

The loop is *anytime*: :meth:`PopulationAnnealer.iterate` is a
generator that yields the running result after every round, and
:meth:`~PopulationAnnealer.search` drains it, so callers can stop
whenever they wish and keep the best solution so far (section 4: "it
can be interrupted by the user at any time and will then return the
current solution").

Plain simulated annealing is this loop at ``chains=1`` with exchange
off: :class:`~repro.sa.explorer.DesignSpaceExplorer` (the ``"sa"``
strategy) is that configuration with its own move generator, which may
draw the m3/m4 architecture moves.  With more chains (the
``"tempering"`` strategy), the chains occupy the rungs of a temperature
ladder (slot ``s`` anneals at ``schedule.temperature * ladder_ratio**s``),
and on a deterministic schedule adjacent rungs attempt a
replica-exchange swap with the standard acceptance probability
``min(1, exp((E_i - E_j) * (1/T_i - 1/T_j)))``.  A swap exchanges the
chains' *slot assignment* (their temperatures), never their solutions:
each chain's solution stays bound to its engine
(:class:`~repro.mapping.engine.CrossChainEvaluator` gives the K engines
one compile pass), so the incremental mirrors never re-sync across
solutions mid-search.  The chains share one ``Architecture``, so
architecture moves need ``chains=1``.

Determinism contract (pinned by ``tests/sa/test_pins.py``): any fixed
``(seed, chains, ladder)`` is reproducible across runs, engines,
``PYTHONHASHSEED`` values and ``jobs=N`` worker fan-out.  Chain 0 draws
from ``random.Random(seed)``; every other random draw derives from the
seed through per-chain splitmix-keyed streams (:func:`_stream_seed`),
and exchange rounds own private streams of the same family.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional

from repro.arch.architecture import Architecture
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.cost import CostFunction, MakespanCost
from repro.mapping.engine import CrossChainEvaluator
from repro.mapping.solution import Solution, random_initial_solution
from repro.sa.annealer import AnnealerConfig
from repro.sa.moves import MoveGenerator, MoveStats
from repro.sa.schedules import CoolingSchedule, make_schedule
from repro.sa.trace import TraceRecord
from repro.search.strategy import (
    SearchBudget,
    SearchResult,
    SearchStrategy,
    SearchTracker,
    StepCallback,
)


def _stream_seed(base: int, index: int) -> int:
    """SplitMix64-style mix of ``(base, index)`` into a 64-bit seed.

    Keys the private RNG stream of chain ``index`` (or of exchange round
    ``index``) off one seed-derived base.  The mix is pure integer
    arithmetic: stable across processes, platforms and
    ``PYTHONHASHSEED``.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    z = (base + 0x9E3779B97F4A7C15 * index) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


def _metropolis(
    current: float,
    candidate: float,
    cooling: bool,
    rng: random.Random,
    schedule: CoolingSchedule,
    factor: float,
) -> bool:
    """The Metropolis rule at ``schedule``'s temperature times the
    slot's ladder ``factor`` (read only when a worse candidate meets a
    cooling schedule; the warmup accepts every finite candidate)."""
    if not math.isfinite(candidate):
        return False  # cyclic realization: always reject
    delta = candidate - current
    if delta <= 0 or not cooling:
        return True
    temperature = schedule.temperature * factor
    if temperature <= 0:
        return False
    return rng.random() < math.exp(-delta / temperature)


class PopulationAnnealer(SearchStrategy):
    """K SA chains with optional replica exchange.

    Parameters mirror :class:`~repro.sa.explorer.DesignSpaceExplorer`
    where they mean the same thing; the population-specific knobs are:

    chains:
        Number of chains K.  ``iterations`` counts *rounds* (one
        proposed move per chain per round), so the evaluation budget is
        ``chains * iterations``.
    swap_interval:
        Attempt replica-exchange swaps between adjacent temperature
        slots every this many rounds once cooling has started
        (``None``/``0`` disables exchange).  Swap rounds alternate
        even/odd adjacent pairings, and each draws from a private
        seed-derived stream — the schedule is deterministic.
    ladder_ratio:
        Geometric temperature ladder: slot ``s`` runs at
        ``ladder_ratio ** s`` times its adaptive schedule's
        temperature.  Slot 0 (factor 1.0) is the cold rung — with
        ``chains=1`` it *is* plain adaptive SA.
    engine:
        Per-chain evaluation engine kind (every chain gets its own
        engine over one shared compile pass; results are bit-identical
        across kinds).

    The move generator draws no architecture moves (``p_zero=0``): the
    K chains share one ``Architecture`` object, which m3/m4 would
    mutate under every other chain's feet, so the loop raises
    :class:`ConfigurationError` for a ``p_zero > 0`` generator unless
    ``chains=1``.
    """

    name = "tempering"

    def __init__(
        self,
        application,
        architecture: Architecture,
        chains: int = 8,
        iterations: int = 5000,
        warmup_iterations: int = 1200,
        seed: Optional[int] = None,
        schedule_name: str = "lam",
        schedule_kwargs: Optional[dict] = None,
        cost_function: Optional[CostFunction] = None,
        p_impl: float = 0.15,
        bus_policy: str = "ordered",
        keep_trace: bool = True,
        stall_limit: Optional[int] = None,
        initial_hw_fraction: Optional[float] = None,
        swap_interval: Optional[int] = 25,
        ladder_ratio: float = 1.5,
        engine: str = "incremental",
    ) -> None:
        application.validate()
        architecture.validate()
        if chains < 1:
            raise ConfigurationError(f"chains must be >= 1, got {chains!r}")
        if swap_interval is not None and swap_interval < 0:
            raise ConfigurationError(
                f"swap_interval must be >= 0 or None, got {swap_interval!r}"
            )
        if not ladder_ratio > 0:
            raise ConfigurationError(
                f"ladder_ratio must be > 0, got {ladder_ratio!r}"
            )
        self.application = application
        self.architecture = architecture
        self.chains = chains
        self.seed = seed
        self.swap_interval = swap_interval or None
        self.ladder_ratio = ladder_ratio
        self.schedule_name = schedule_name
        self.schedule_kwargs = dict(schedule_kwargs or {})
        self.initial_hw_fraction = initial_hw_fraction
        self.cost_function = (
            cost_function if cost_function is not None else MakespanCost()
        )
        self.config = AnnealerConfig(
            iterations=iterations,
            warmup_iterations=warmup_iterations,
            seed=seed,
            keep_trace=keep_trace,
            stall_limit=stall_limit,
        )
        self.config.validate()
        self._horizon = max(1, iterations - warmup_iterations)
        self._new_schedule()  # a bad schedule name or knob fails here
        #: Counts evaluations and engine internals across the chains.
        self.evaluator = CrossChainEvaluator(
            application, architecture, chains, engine=engine,
            bus_policy=bus_policy,
        )
        #: Chain k's permanently-bound engine.
        self.engines = self.evaluator.engines
        self.move_generator = MoveGenerator(
            application, p_zero=0.0, p_impl=p_impl, catalog=None
        )

    # ------------------------------------------------------------------
    def _new_schedule(self) -> CoolingSchedule:
        """A fresh adaptive schedule for one temperature slot."""
        return make_schedule(
            self.schedule_name, horizon=self._horizon, **self.schedule_kwargs
        )

    def _initials(
        self, initial: Optional[Solution], init_base: int
    ) -> List[Solution]:
        """Per-chain starting solutions: ``initial`` (when given) or a
        draw from ``random.Random(seed)`` for chain 0, draws from
        splitmix-keyed streams of the same seed for chains 1.."""
        solutions: List[Solution] = []
        for c in range(self.chains):
            if c == 0 and initial is not None:
                solutions.append(initial)
                continue
            rng = random.Random(
                self.seed if c == 0 else _stream_seed(init_base, c)
            )
            solutions.append(
                random_initial_solution(
                    self.application,
                    self.architecture,
                    rng,
                    hw_fraction=self.initial_hw_fraction,
                )
            )
        return solutions

    # ------------------------------------------------------------------
    def search(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> SearchResult:
        """Drain :meth:`iterate`; the full evaluation of the best
        solution lands in ``extras["best_evaluation"]``."""
        for result in self.iterate(initial, budget=budget, on_step=on_step):
            pass
        result.extras["best_evaluation"] = self.engines[0].evaluate(
            result.best_solution
        )
        return result

    def iterate(
        self,
        initial: Optional[Solution] = None,
        budget: Optional[SearchBudget] = None,
        on_step: Optional[StepCallback] = None,
    ) -> Iterator[SearchResult]:
        """Generator form: yields the running result after every round.

        The yielded object is updated in place except for ``trace`` and
        ``best_solution`` (copied on improvement), so interrupting the
        loop at any point leaves a consistent best-so-far result.
        ``initial`` seeds chain 0 (a seeded random solution when
        ``None``).
        """
        config = self.config.with_budget(budget)
        config.validate()
        K = self.chains
        generator = self.move_generator
        if K > 1 and generator.p_zero > 0:
            raise ConfigurationError(
                "architecture moves (p_zero > 0) need chains=1: the "
                "chains share one Architecture"
            )
        engines = self.engines
        cost_function = self.cost_function

        # Seed plan: chain 0's loop RNG is ``random.Random(seed)``;
        # every auxiliary stream (other chains' loops and initials,
        # exchange draws) is keyed by splitmix mixing, which is
        # PYTHONHASHSEED- and process-stable.
        aux = random.Random(config.seed)
        chain_base = aux.getrandbits(64)
        init_base = aux.getrandbits(64)
        exchange_base = aux.getrandbits(64)
        rngs = [
            random.Random(
                config.seed if c == 0 else _stream_seed(chain_base, c)
            )
            for c in range(K)
        ]
        solutions = self._initials(initial, init_base)
        tele = self.telemetry
        phase = tele.phase

        evaluations_before = self.evaluator.evaluations
        with phase("init"):
            initial_evaluations = [
                engines[c].evaluate(solutions[c]) for c in range(K)
            ]
            current = [
                cost_function(solutions[c], initial_evaluations[c])
                for c in range(K)
            ]
        if not all(math.isfinite(cost) for cost in current):
            raise ConfigurationError("initial solution must be feasible")

        stats = MoveStats()
        tracker = SearchTracker(
            self.name,
            budget=SearchBudget(
                iterations=config.iterations,
                time_limit_s=(
                    budget.time_limit_s if budget is not None else None
                ),
                stall_limit=config.stall_limit,
            ),
            seed=config.seed,
            on_step=on_step,
            keep_history=config.keep_trace,
            telemetry=tele,
        )
        result = tracker.result
        result.move_stats = stats
        lead = min(range(K), key=lambda c: (current[c], c))
        tracker.begin(current[lead], solutions[lead])

        # Temperature slots: chain c starts in slot c; exchange swaps
        # the assignment, never the solutions.
        slot_of_chain = list(range(K))
        chain_in_slot = list(range(K))
        factors = [self.ladder_ratio ** s for s in range(K)]
        schedules = [self._new_schedule() for _ in range(K)]
        warmup_costs = [[current[c]] for c in range(K)]
        names = ["none"] * K
        accepted = [False] * K
        feasible = [False] * K
        cooling = False
        swap_attempts = 0
        swap_accepts = 0

        for iteration in range(1, config.iterations + 1):
            if not cooling and iteration > config.warmup_iterations:
                # No exchange happens before cooling, so slot s is still
                # occupied by chain s: each rung's adaptive schedule
                # begins from its own chain's warmup statistics.
                for s in range(K):
                    schedules[s].begin(warmup_costs[chain_in_slot[s]])
                cooling = True

            lead = 0
            for c in range(K):
                solution = solutions[c]
                rng = rngs[c]
                move_name = "none"
                accept = False
                try:
                    with phase("propose"):
                        move = generator.propose(solution, rng)
                        move_name = move.name
                        stats.record_proposed(move_name)
                        move.apply(solution)
                except InfeasibleMoveError:
                    # Infeasible draws consume the round (the paper's
                    # Fig. 2 x-axis counts them) but carry no thermal
                    # information, so they feed neither the schedule nor
                    # the stall counter.
                    stats.record_infeasible(move_name)
                    feasible[c] = False
                else:
                    with phase("evaluate"):
                        new_cost = cost_function(
                            solution, engines[c].evaluate(solution)
                        )
                    with phase("accept"):
                        s = slot_of_chain[c]
                        accept = _metropolis(
                            current[c], new_cost, cooling, rng,
                            schedules[s], factors[s],
                        )
                        if accept:
                            current[c] = new_cost
                            stats.record_accepted(move_name)
                        else:
                            move.undo(solution)
                            stats.record_rejected(move_name)
                    if cooling:
                        schedules[s].record(current[c], accept)
                    else:
                        warmup_costs[c].append(current[c])
                    feasible[c] = True
                names[c] = move_name
                accepted[c] = accept
                if current[c] < current[lead]:
                    lead = c

            tracker.observe(
                iteration, current[lead], solutions[lead],
                accepted=accepted[lead], move_name=names[lead],
                stall_eligible=cooling and feasible[lead],
            )
            if config.keep_trace:
                cold = chain_in_slot[0]
                tracker.record_trace(
                    TraceRecord(
                        iteration=iteration,
                        temperature=(
                            schedules[0].temperature if cooling else math.inf
                        ),
                        current_cost=current[cold],
                        best_cost=result.best_cost,
                        num_contexts=solutions[cold].num_contexts(),
                        accepted=accepted[cold],
                        move_name=names[cold],
                    )
                )
            yield result

            if tracker.exhausted():
                break

            if (
                K > 1
                and self.swap_interval
                and cooling
                and iteration % self.swap_interval == 0
            ):
                swap_round = iteration // self.swap_interval
                exchange_rng = random.Random(
                    _stream_seed(exchange_base, swap_round)
                )
                # Alternate even/odd adjacent pairings round by round so
                # replicas can traverse the whole ladder.
                for s in range(swap_round % 2, K - 1, 2):
                    t_cold = schedules[s].temperature * factors[s]
                    t_hot = schedules[s + 1].temperature * factors[s + 1]
                    if not (
                        math.isfinite(t_cold) and math.isfinite(t_hot)
                        and t_cold > 0 and t_hot > 0 and t_cold != t_hot
                    ):
                        continue
                    swap_attempts += 1
                    c_cold = chain_in_slot[s]
                    c_hot = chain_in_slot[s + 1]
                    exponent = (current[c_cold] - current[c_hot]) * (
                        1.0 / t_cold - 1.0 / t_hot
                    )
                    if (
                        exponent >= 0
                        or exchange_rng.random() < math.exp(exponent)
                    ):
                        swap_accepts += 1
                        chain_in_slot[s] = c_hot
                        chain_in_slot[s + 1] = c_cold
                        slot_of_chain[c_hot] = s
                        slot_of_chain[c_cold] = s + 1

        if tele.enabled and K > 1:
            tele.count("swap_attempts", swap_attempts)
            tele.count("swap_accepts", swap_accepts)
        tracker.record_engine(self.evaluator)
        tracker.finish(
            evaluations=self.evaluator.evaluations - evaluations_before,
            initial_evaluation=initial_evaluations[0],
            chains=K,
            swap_attempts=swap_attempts,
            swap_accepts=swap_accepts,
            chain_costs=list(current),
            slot_of_chain=list(slot_of_chain),
        )
