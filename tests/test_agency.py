import random
from typing import Iterator

import pytest

from factoredsets import (
    FactoredSet,
    Partition,
    ValidationError,
    bell_number,
    common_refinement,
    cond_orthogonal_given_subset,
    counterfactable,
    data_path,
    event_partition,
    grid_factored_set,
    history,
    history_join,
    iter_coarsenings,
    load_factored_set_file,
    observes_event,
    observes_partition,
    orthogonal,
    relatively_counterfactable,
)
from factoredsets.agency import ObservesVerdict
from factoredsets.partitions import require_full
from conftest import (
    mixed_random_partition,
    random_factored_set,
    random_generated_partition,
    random_subset,
)


class TestEventPartition:
    def test_degenerate_events_collapse(self, ex1):
        assert event_partition(ex1.fs, ()) == Partition.indiscrete(ex1.fs.ground)
        assert event_partition(ex1.fs, range(4)) == Partition.indiscrete(
            ex1.fs.ground
        )

    def test_two_sided(self, ex1):
        p = event_partition(ex1.fs, {1, 2})
        assert set(p.block_sets) == {frozenset({1, 2}), frozenset({0, 3})}

    def test_out_of_range(self, ex1):
        with pytest.raises(ValidationError):
            event_partition(ex1.fs, {7})


class TestObservesEvent:
    def test_full_event_is_always_observed(self):
        rng = random.Random(67)
        for _ in range(30):
            fs = random_factored_set(rng, min_n=1)
            a = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            assert observes_event(fs, a, range(fs.size), w)

    def test_indiscrete_agent_observes_everything(self):
        rng = random.Random(71)
        for _ in range(30):
            fs = random_factored_set(rng, min_n=1)
            e = random_subset(rng, fs.size)
            w = mixed_random_partition(rng, fs)
            assert observes_event(fs, Partition.indiscrete(fs.ground), e, w)

    def test_degenerate_events(self):
        # The full event is observed unconditionally; the empty event makes
        # the second condition a plain orthogonality check against the world
        # (conditioning on its complement, which is everything).
        rng = random.Random(73)
        differed = 0
        for _ in range(60):
            fs = random_factored_set(rng, min_n=1)
            a = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            assert observes_event(fs, a, range(fs.size), w)
            empty_verdict = observes_event(fs, a, (), w)
            assert empty_verdict == orthogonal(fs, a, w)
            if not empty_verdict:
                differed += 1
        assert differed > 5

    def test_entangled_restrictions_block_observation(self, ex1):
        # Conditioned on the complement of the first parity block, the
        # agent X and the world Y share history, so the second condition
        # fails.
        fs = ex1.fs
        v0 = ex1.V.block_sets[0]
        rest = frozenset(range(4)) - v0
        hx = history(fs, ex1.X.restrict(rest))
        hy = history(fs, ex1.Y.restrict(rest))
        assert hx & hy
        assert not observes_event(fs, ex1.X, v0, ex1.Y)


class TestObservesPartition:
    def test_indiscrete_target_needs_one_subagent(self, ex1):
        verdict = observes_partition(
            ex1.fs, ex1.X, Partition.indiscrete(ex1.fs.ground), ex1.Y
        )
        assert verdict.outcome == "yes"
        assert common_refinement(list(verdict.witness)) == ex1.X

    def test_indiscrete_agent_observes_any_partition(self, ex1):
        ind = Partition.indiscrete(ex1.fs.ground)
        verdict = observes_partition(ex1.fs, ind, ex1.V, ex1.Y)
        assert verdict.outcome == "yes"
        assert all(p == ind for p in verdict.witness)

    def test_entangled_agent_fails_immediately(self, ex1):
        verdict = observes_partition(ex1.fs, ex1.Y, ex1.V, ex1.X)
        assert verdict.outcome == "no"
        assert not orthogonal(ex1.fs, ex1.Y, ex1.V)

    def test_witness_reconstructs_the_agent(self):
        rng = random.Random(79)
        seen_yes = 0
        for _ in range(60):
            fs = random_factored_set(rng, min_n=2, max_n=6)
            a = mixed_random_partition(rng, fs)
            x = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            verdict = observes_partition(fs, a, x, w, budget=20_000)
            if verdict.outcome == "yes":
                seen_yes += 1
                assert common_refinement(list(verdict.witness)) == a
                everything = frozenset(range(fs.size))
                for piece, block in zip(verdict.witness, x.block_sets):
                    assert a.refines(piece)
                    rest = everything - block
                    assert orthogonal(
                        fs, piece.restrict(rest), w.restrict(rest)
                    )
        assert seen_yes > 5

    def test_budget_exhaustion_is_inconclusive(self, ex1):
        # The agent passes the orthogonality precheck, so a zero budget must
        # stop the subagent search before it can conclude anything.
        fs = ex1.fs
        assert orthogonal(fs, ex1.X, ex1.V)
        tiny = observes_partition(fs, ex1.X, ex1.V, ex1.Y, budget=0)
        assert tiny.outcome == "inconclusive"

    def test_relabeling_invariance_of_yes(self, ex1):
        # Permute the ground set; the verdict must not change.
        rng = random.Random(83)
        fs = ex1.fs
        base = observes_partition(fs, ex1.V, ex1.X, ex1.V)
        for _ in range(5):
            perm = list(range(4))
            rng.shuffle(perm)
            ground = fs.ground
            remap = lambda p: Partition.from_block_of(
                ground, {perm[s]: p.block_ids[s] for s in range(4)}
            )
            permuted_fs = FactoredSet(ground, [remap(p) for p in fs.factors])
            got = observes_partition(
                permuted_fs, remap(ex1.V), remap(ex1.X), remap(ex1.V)
            )
            assert got.outcome == base.outcome


def recursive_observes_partition(
    fs: FactoredSet, agent: Partition, x: Partition, world: Partition, budget: int
) -> ObservesVerdict:
    """The subagent search as a recursive walk over join prefixes.

    The oracle for ``observes_partition``'s product scan.  A prefix whose
    join already equals the agent counts as one tuple and is completed with
    the first option of every later block.
    """
    require_full(fs.ground, agent, x, world)
    if not orthogonal(fs, agent, x):
        return ObservesVerdict("no")
    blocks = x.block_sets
    if not blocks:
        return ObservesVerdict("yes", witness=())
    if bell_number(agent.block_count) > budget:
        return ObservesVerdict("inconclusive")
    coarsenings = sorted(iter_coarsenings(agent), key=lambda p: p.key)
    everything = frozenset(range(fs.size))
    valid: list[list[Partition]] = []
    for xb in blocks:
        rest = everything - xb
        valid.append(
            [c for c in coarsenings if cond_orthogonal_given_subset(fs, c, world, rest)]
        )
        if not valid[-1]:
            return ObservesVerdict("no")

    tried = 0
    chosen: list[Partition] = []

    def rec(i: int, joined: Partition | None) -> Iterator[tuple[Partition, ...]]:
        nonlocal tried
        if joined == agent:
            tried += 1
            yield tuple(chosen) + tuple(options[0] for options in valid[i:])
            return
        if i == len(valid):
            tried += 1
            return
        for cand in valid[i]:
            if tried >= budget:
                return
            chosen.append(cand)
            nxt = cand if joined is None else common_refinement([joined, cand])
            yield from rec(i + 1, nxt)
            chosen.pop()

    for witness in rec(0, None):
        return ObservesVerdict("yes", witness=witness, tuples_tried=tried)
    if tried >= budget:
        return ObservesVerdict("inconclusive", tuples_tried=tried)
    return ObservesVerdict("no", tuples_tried=tried)


class TestRecursiveSearchOracle:
    """The product scan gives the recursive walk's outcome, witness and count."""

    BUDGETS = (0, 1, 7, 50, 20_000)

    def check(self, fs, agent, x, world) -> list[ObservesVerdict]:
        """Compare at the fixed budgets and at both sides of the full scan's count."""
        full = observes_partition(fs, agent, x, world, budget=20_000)
        edges = (full.tuples_tried - 1, full.tuples_tried)
        verdicts = []
        for budget in self.BUDGETS + tuple(b for b in edges if b >= 0):
            got = observes_partition(fs, agent, x, world, budget=budget)
            assert got == recursive_observes_partition(fs, agent, x, world, budget)
            verdicts.append(got)
        return verdicts

    def test_random_sets(self):
        rng = random.Random(4099)
        verdicts = []
        for _ in range(400):
            fs = random_factored_set(rng, min_n=2, max_n=8)
            agent = random_generated_partition(rng, fs)
            # Half the targets are coarsenings of factors outside the agent's
            # history, so the agent passes the orthogonality precheck.
            if rng.random() < 0.5:
                outside = fs.full_mask & ~history(fs, agent)
                join = common_refinement(fs.factors_of_mask(outside), ground=fs.ground)
                x = rng.choice(list(iter_coarsenings(join)))
            else:
                x = mixed_random_partition(rng, fs)
            world = mixed_random_partition(rng, fs)
            verdicts += self.check(fs, agent, x, world)
        outcomes = {(v.outcome, v.tuples_tried > 1) for v in verdicts}
        assert {("yes", False), ("yes", True), ("no", False)} <= outcomes
        assert ("inconclusive", False) in outcomes

    def test_every_generated_triple_on_the_cube(self):
        # On the 2x2x2 grid some witnesses come after more tuples than the
        # agent has coarsenings, so a budget between the two stops the scan
        # itself rather than the coarsening-count precheck.
        fs = grid_factored_set(8, (2, 2, 2))
        generated = set()
        for mask in range(1 << fs.dim):
            join = common_refinement(fs.factors_of_mask(mask), ground=fs.ground)
            if join.block_count <= 4:
                generated.update(iter_coarsenings(join))
        generated = sorted(generated, key=lambda p: p.key)
        stopped = 0
        for agent in generated:
            for x in generated:
                if agent.block_count < 3 or not orthogonal(fs, agent, x):
                    continue
                for world in generated:
                    for v in self.check(fs, agent, x, world):
                        stopped += v.outcome == "inconclusive" and v.tuples_tried > 0
        assert stopped > 0

    @pytest.mark.parametrize(
        "name",
        ["ex1.ffs", "ex2-model.ffs", "newcomb-transparent.ffs", "counterfactual-mugging.ffs"],
    )
    def test_bundled_files(self, name):
        f = load_factored_set_file(data_path(name))
        parts = [f.resolve(n) for n in sorted(f.partitions)] + [
            Partition.indiscrete(f.fs.ground),
            Partition.discrete(f.fs.ground),
        ]
        for agent in parts:
            for x in parts:
                for world in parts:
                    self.check(f.fs, agent, x, world)


class TestCounterfactable:
    def test_every_factor_is_counterfactable(self):
        rng = random.Random(89)
        for _ in range(30):
            fs = random_factored_set(rng, min_n=1)
            if fs.size == 0:
                continue
            for factor in fs.factors:
                assert counterfactable(fs, factor)

    def test_derived_partition_is_not(self, ex1):
        # Its history is both factors, whose join splits every element apart.
        assert history_join(ex1.fs, ex1.Y) == Partition.discrete(ex1.fs.ground)
        assert not counterfactable(ex1.fs, ex1.Y)

    def test_indiscrete_is_counterfactable(self, ex1):
        assert counterfactable(ex1.fs, Partition.indiscrete(ex1.fs.ground))

    def test_relative_to_itself_always_holds(self):
        rng = random.Random(97)
        for _ in range(40):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            x = mixed_random_partition(rng, fs)
            assert relatively_counterfactable(fs, x, x)

    def test_counterfactable_implies_relatively(self):
        rng = random.Random(101)
        for _ in range(60):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            x = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            if counterfactable(fs, x):
                assert relatively_counterfactable(fs, x, w)


class TestNarrativeFiles:
    def test_transparent_box_fails_the_first_condition(self):
        f = load_factored_set_file(data_path("newcomb-transparent.ffs"))
        fs = f.fs
        act, box = f.resolve("Act"), f.resolve("Box")
        full_box = {
            s for s in range(4) if fs.ground.label(s).startswith("full")
        }
        assert not orthogonal(fs, act, event_partition(fs, full_box))
        assert not observes_event(fs, act, full_box, box)

    def test_mugging_fails_only_the_second_condition(self):
        f = load_factored_set_file(data_path("counterfactual-mugging.ffs"))
        fs = f.fs
        policy, payout = f.resolve("Policy"), f.resolve("Payout")
        heads = {s for s in range(4) if fs.ground.label(s).startswith("heads")}
        assert orthogonal(fs, policy, event_partition(fs, heads))
        assert not observes_event(fs, policy, heads, payout)
