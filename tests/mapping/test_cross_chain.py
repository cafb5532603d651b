"""Cross-chain evaluator.

Covers the pieces the population annealer stands on: compiled-instance
forking and the per-chain transactions of
``CrossChainEvaluator.propose_moves`` + ``resolve``.
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

    def test_rejects_wrong_arity(self, small_app, small_arch):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        with pytest.raises(ConfigurationError, match="expected 3"):
            evaluator.propose_moves(solutions[:2], [None, None])

    def _reject_all(self, evaluator, solutions, moves):
        results = evaluator.propose_moves(solutions, moves, MakespanCost())
        for c, result in enumerate(results):
            if result is not None:
                evaluator.resolve(c, solutions[c], moves[c], False)
        return results

    def test_solutions_left_untouched(self, small_app, small_arch):
        """Rejecting every open transaction restores every chain."""
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

    def test_none_moves_yield_none_results(self, small_app, small_arch):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        results = evaluator.propose_moves(
            solutions, [None] * 3, MakespanCost()
        )
        assert results == [None, None, None]

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


class TestPersistentTransactions:
    """The commit-on-accept path (``propose_moves`` + ``resolve``) is
    bit-identical to the classic apply → evaluate → undo loop (with a
    re-apply on accept), across every engine name, both resolve
    branches, and every move kind (m1/m2/m_impl/m_offload plus the m3/m4
    architecture moves)."""

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

    def _run_walk(self, app, arch, engine, persistent, p_zero=0.0):
        """Drive ROUNDS rounds; ``persistent`` picks the transaction
        path, else the apply/evaluate/undo + re-apply reference.  The accept
        rule is deterministic in (round, chain) so both walks take the
        same branches.  The architecture is copied per walk: the m3/m4
        moves mutate it (resource set, fresh-name counter), and the two
        walks must start from identical state."""
        arch = copy.deepcopy(arch)
        evaluator, solutions = self._population(app, arch, engine)
        cost = MakespanCost()
        costs = []
        for round_no in range(self.ROUNDS):
            moves = self._moves(app, solutions, seed=round_no, p_zero=p_zero)
            if persistent:
                outcomes = evaluator.propose_moves(solutions, moves, cost)
            else:
                outcomes = [
                    self._score_and_undo(evaluator, c, solutions[c], move, cost)
                    for c, move in enumerate(moves)
                ]
            for c in range(self.CHAINS):
                if outcomes[c] is None:
                    continue
                accept = (round_no + c) % 2 == 0
                if persistent:
                    evaluator.resolve(c, solutions[c], moves[c], accept)
                elif accept:
                    moves[c].apply(solutions[c])
            costs.append(
                [None if r is None else r[1] for r in outcomes]
            )
        finals = [
            evaluator.evaluate(c, solutions[c]).makespan_ms
            for c in range(self.CHAINS)
        ]
        return costs, finals

    @staticmethod
    def _score_and_undo(evaluator, chain, solution, move, cost):
        if move is None:
            return None
        try:
            move.apply(solution)
        except InfeasibleMoveError:
            return None
        evaluation = evaluator.evaluate(chain, solution)
        value = cost(solution, evaluation)
        move.undo(solution)
        return evaluation, value

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
        """One chain, one solution: drive ``propose_moves`` + ``resolve``
        (persistent) or the classic apply → evaluate → undo reference
        over the same seeded move stream.  ``p_zero > 0``
        draws the m3/m4 resource moves, which change the resource set
        mid-walk (the hardest case for the persistent mirrors: interner
        growth plus resource-name churn)."""
        arch = copy.deepcopy(arch)
        evaluator = CrossChainEvaluator(app, arch, 1, engine=engine)
        solution = random_initial_solution(app, arch, random.Random(seed))
        evaluator.evaluate(0, solution)
        generator = MoveGenerator(
            app, p_zero=p_zero, p_impl=0.2,
            catalog=self._catalog() if p_zero else None,
        )
        rng = random.Random(seed + 1)
        cost = MakespanCost()
        costs = []
        for round_no in range(rounds):
            try:
                move = generator.propose(solution, rng)
            except Exception:
                costs.append(None)
                continue
            accept = round_no % 2 == 0
            if persistent:
                (outcome,) = evaluator.propose_moves([solution], [move], cost)
                if outcome is None:
                    costs.append(None)
                    continue
                costs.append(outcome[1])
                evaluator.resolve(0, solution, move, accept)
            else:
                try:
                    move.apply(solution)
                except Exception:
                    costs.append(None)
                    continue
                evaluation = evaluator.evaluate(0, solution)
                costs.append(cost(solution, evaluation))
                if not accept:
                    move.undo(solution)
        return costs, evaluator.evaluate(0, solution).makespan_ms

    @pytest.mark.parametrize("engine", ["full", "incremental", "array"])
    def test_architecture_moves_replay_identically(
        self, engine, small_app, small_arch
    ):
        # m3/m4 change the architecture itself, so they are exercised
        # on a one-chain evaluator (the population draws them with
        # p_zero=0 across chains: a shared-architecture edit would
        # desync the sibling chains' solutions).
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
        cost = MakespanCost()
        for round_no in range(self.ROUNDS):
            moves = self._moves(small_app, solutions, seed=round_no)
            outcomes = evaluator.propose_moves(solutions, moves, cost)
            for c in range(self.CHAINS):
                if outcomes[c] is None:
                    continue
                evaluator.resolve(
                    c, solutions[c], moves[c], (round_no + c) % 2 == 0
                )
        for c in range(self.CHAINS):
            fresh = make_engine(
                engine, small_app, small_arch
            ).evaluate(solutions[c]).makespan_ms
            assert evaluator.evaluate(c, solutions[c]).makespan_ms == fresh

    def test_propose_none_moves_open_no_transactions(
        self, small_app, small_arch
    ):
        evaluator, solutions = self._population(
            small_app, small_arch, "array"
        )
        results = evaluator.propose_moves(
            solutions, [None] * self.CHAINS, MakespanCost()
        )
        assert results == [None] * self.CHAINS
