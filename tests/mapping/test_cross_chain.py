"""Cross-chain evaluator.

Covers the pieces the annealing loop stands on: compiled-instance
forking, and per-chain apply → evaluate → undo walks over the forked
engines of one ``CrossChainEvaluator``.
"""

import copy
import random

import pytest

from repro.arch.processor import Processor
from repro.arch.reconfigurable import ReconfigurableCircuit
from repro.errors import ConfigurationError, InfeasibleMoveError
from repro.mapping.compiled import compile_instance
from repro.mapping.engine import CrossChainEvaluator, make_engine
from repro.mapping.cost import MakespanCost
from repro.mapping.solution import random_initial_solution
from repro.sa.moves import MoveGenerator


def _bus(architecture):
    return architecture.bus


def _step(engine, solution, move, accept):
    """One chain's step as the annealing loop takes it: apply the move,
    score it on the chain's engine, keep it on accept and undo it on
    reject.  ``None`` when there is no move or it does not apply."""
    if move is None:
        return None
    try:
        move.apply(solution)
    except InfeasibleMoveError:
        return None
    cost = MakespanCost()(solution, engine.evaluate(solution))
    if not accept:
        move.undo(solution)
    return cost


class TestCompiledFork:
    def test_fork_shares_immutable_tables(self, small_app, small_arch):
        compiled = compile_instance(small_app, _bus(small_arch))
        fork = compiled.fork()
        assert fork.dep_src is compiled.dep_src
        assert fork.sw_ms is compiled.sw_ms
        assert fork.pred_ids is compiled.pred_ids

    def test_fork_isolates_virtual_node_growth(self, small_app, small_arch):
        compiled = compile_instance(small_app, _bus(small_arch))
        fork = compiled.fork()
        assert len(fork.interner) == len(compiled.interner)
        fork.interner.intern(("virtual", 0))
        fork.pred_comms.append([])
        assert len(fork.interner) == len(compiled.interner) + 1
        assert len(fork.pred_comms) == len(compiled.pred_comms) + 1


class TestCrossChainEvaluator:
    def _population(self, app, arch, engine, chains=3, seed=41):
        evaluator = CrossChainEvaluator(app, arch, chains, engine=engine)
        solutions = [
            random_initial_solution(app, arch, random.Random(seed + c))
            for c in range(chains)
        ]
        for c in range(chains):
            evaluator.evaluate(c, solutions[c])
        return evaluator, solutions

    def _moves(self, app, solutions, seed=7):
        generator = MoveGenerator(app, p_impl=0.2)
        rng = random.Random(seed)
        moves = []
        for solution in solutions:
            try:
                moves.append(generator.propose(solution, rng))
            except Exception:
                moves.append(None)
        return moves

    def _reject_all(self, evaluator, solutions, moves):
        return [
            _step(evaluator.engines[c], solutions[c], move, False)
            for c, move in enumerate(moves)
        ]

    def test_solutions_left_untouched(self, small_app, small_arch):
        """Rejecting every chain's move restores every chain."""
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        before = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(3)
        ]
        self._reject_all(evaluator, solutions, self._moves(small_app, solutions))
        after = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(3)
        ]
        assert before == after

    def test_evaluations_accumulate_across_chains(
        self, small_app, small_arch
    ):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        before = evaluator.evaluations
        moves = self._moves(small_app, solutions)
        results = self._reject_all(evaluator, solutions, moves)
        scored = sum(1 for r in results if r is not None)
        assert evaluator.evaluations == before + scored

    def test_rejects_zero_chains(self, small_app, small_arch):
        with pytest.raises(ConfigurationError, match="chains"):
            CrossChainEvaluator(small_app, small_arch, 0)

    def test_batched_round_is_removed(self, small_app, small_arch):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        moves = self._moves(small_app, solutions)
        with pytest.raises(TypeError, match="engines"):
            evaluator.propose_moves(solutions, moves)
        with pytest.raises(TypeError, match="engines"):
            evaluator.resolve([False] * len(moves))


class TestPersistentTransactions:
    """The loop's persistent step (an accepted move stays applied with
    its engine already synced: no undo, no re-apply, no second diff) is
    bit-identical to the classic apply → evaluate → undo replay (with a
    re-apply on accept), across every engine name, both branches, and
    every move kind (m1/m2/m_impl/m_offload plus the m3/m4 architecture
    moves)."""

    CHAINS = 3
    ROUNDS = 8

    def _population(self, app, arch, engine, seed=41):
        evaluator = CrossChainEvaluator(
            app, arch, self.CHAINS, engine=engine
        )
        solutions = [
            random_initial_solution(app, arch, random.Random(seed + c))
            for c in range(self.CHAINS)
        ]
        for c in range(self.CHAINS):
            evaluator.evaluate(c, solutions[c])
        return evaluator, solutions

    @staticmethod
    def _catalog():
        return [
            lambda name: Processor(name, speed_factor=1.2, monetary_cost=1.0),
            lambda name: ReconfigurableCircuit(
                name, n_clbs=400, monetary_cost=2.0
            ),
        ]

    def _moves(self, app, solutions, seed, p_zero=0.0):
        generator = MoveGenerator(
            app, p_zero=p_zero, p_impl=0.2,
            catalog=self._catalog() if p_zero else None,
        )
        rng = random.Random(seed)
        moves = []
        for solution in solutions:
            try:
                moves.append(generator.propose(solution, rng))
            except Exception:
                moves.append(None)
        return moves

    @staticmethod
    def _walk_step(engine, solution, move, accept, persistent):
        """``persistent`` takes the loop's step, else the
        apply/evaluate/undo + re-apply reference."""
        if persistent:
            return _step(engine, solution, move, accept)
        cost = _step(engine, solution, move, False)
        if cost is not None and accept:
            move.apply(solution)
        return cost

    def _run_walk(self, app, arch, engine, persistent):
        """Drive ROUNDS rounds over the forked engines.  The accept rule
        is deterministic in (round, chain) so both walks take the same
        branches.  The architecture is copied per walk so the two walks
        start from identical state."""
        arch = copy.deepcopy(arch)
        evaluator, solutions = self._population(app, arch, engine)
        costs = []
        for round_no in range(self.ROUNDS):
            moves = self._moves(app, solutions, seed=round_no)
            costs.append([
                self._walk_step(
                    evaluator.engines[c], solutions[c], moves[c],
                    (round_no + c) % 2 == 0, persistent,
                )
                for c in range(self.CHAINS)
            ])
        finals = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(self.CHAINS)
        ]
        return costs, finals

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_commit_path_matches_pure_replay(
        self, engine, small_app, small_arch
    ):
        persistent = self._run_walk(
            small_app, small_arch, engine, persistent=True
        )
        replay = self._run_walk(
            small_app, small_arch, engine, persistent=False
        )
        assert persistent == replay

    def _single_engine_walk(self, app, arch, engine, persistent,
                            p_zero, rounds=20, seed=23):
        """One chain, one solution, over the same seeded move stream.
        ``p_zero > 0`` draws the m3/m4 resource moves, which change the
        resource set mid-walk (the hardest case for the persistent
        mirrors: interner growth plus resource-name churn)."""
        arch = copy.deepcopy(arch)
        evaluator = CrossChainEvaluator(app, arch, 1, engine=engine)
        solution = random_initial_solution(app, arch, random.Random(seed))
        evaluator.evaluate(0, solution)
        generator = MoveGenerator(
            app, p_zero=p_zero, p_impl=0.2,
            catalog=self._catalog() if p_zero else None,
        )
        rng = random.Random(seed + 1)
        costs = []
        for round_no in range(rounds):
            try:
                move = generator.propose(solution, rng)
            except Exception:
                costs.append(None)
                continue
            costs.append(self._walk_step(
                evaluator.engines[0], solution, move, round_no % 2 == 0,
                persistent,
            ))
        return costs, evaluator.evaluate(0, solution).makespan_ms

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_architecture_moves_replay_identically(
        self, engine, small_app, small_arch
    ):
        # m3/m4 change the architecture itself, so they are exercised
        # on a one-chain evaluator (the loop refuses them across chains:
        # a shared-architecture edit would desync the sibling chains'
        # solutions).
        persistent = self._single_engine_walk(
            small_app, small_arch, engine, persistent=True, p_zero=0.4
        )
        replay = self._single_engine_walk(
            small_app, small_arch, engine, persistent=False, p_zero=0.4
        )
        assert persistent == replay

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_post_walk_state_matches_fresh_engine(
        self, engine, small_app, small_arch
    ):
        evaluator, solutions = self._population(
            small_app, small_arch, engine
        )
        for round_no in range(self.ROUNDS):
            moves = self._moves(small_app, solutions, seed=round_no)
            for c in range(self.CHAINS):
                _step(
                    evaluator.engines[c], solutions[c], moves[c],
                    (round_no + c) % 2 == 0,
                )
        for c in range(self.CHAINS):
            fresh = make_engine(
                engine, small_app, small_arch
            ).evaluate(solutions[c]).makespan_ms
            assert evaluator.evaluate(c, solutions[c]).makespan_ms == fresh
