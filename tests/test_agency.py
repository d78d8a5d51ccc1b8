import random
from collections import Counter

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
    load_factored_set_file,
    observes_event,
    observes_partition,
    orthogonal,
    relatively_counterfactable,
)
from factoredsets.partitions import require_full
from conftest import (
    iter_coarsenings,
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
            verdict = observes_partition(fs, a, x, w)
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

    def test_join_of_four_factors_on_the_5_cube(self):
        # The agent has Bell(16) > 10^10 coarsenings, so the old search's
        # default budget of 10^6 made it answer inconclusive.  Against the
        # world factor 0 each subagent merges the blocks that differ only in
        # factor 0, so the subagents lose it.
        fs = grid_factored_set(32, (2,) * 5)
        agent = common_refinement(fs.factors[:4])
        assert agent.block_count == 16
        x = fs.factors[4]
        ind = Partition.indiscrete(fs.ground)
        verdict = observes_partition(fs, agent, x, ind)
        assert verdict.outcome == "yes"
        assert verdict.witness == (agent, agent)
        assert observes_partition(fs, agent, x, fs.factors[0]).outcome == "no"


def recursive_observes_partition(
    fs: FactoredSet, agent: Partition, x: Partition, world: Partition, budget: int
) -> tuple[str, list[list[Partition]]]:
    """The old subagent search, as a recursive walk over join prefixes.

    It lists the agent's coarsenings, keeps per block those that pass the
    conditioned-orthogonality test, and tries their tuples in lexicographic
    order, a prefix whose join already equals the agent counting as one
    tuple.  After ``budget`` tuples without a witness, or when the agent has
    more than ``budget`` coarsenings, it is ``inconclusive``.  It returns the
    outcome and the per-block lists, empty when it listed none.
    """
    require_full(fs.ground, agent, x, world)
    if not orthogonal(fs, agent, x):
        return "no", []
    if bell_number(agent.block_count) > budget:
        return "inconclusive", []
    coarsenings = list(iter_coarsenings(agent))
    everything = frozenset(range(fs.size))
    valid = [
        [c for c in coarsenings if cond_orthogonal_given_subset(fs, c, world, everything - b)]
        for b in x.block_sets
    ]
    tried = 0

    def rec(i: int, joined: Partition) -> bool:
        nonlocal tried
        if joined == agent or i == len(valid):
            tried += 1
            return joined == agent
        for cand in valid[i]:
            if tried >= budget:
                return False
            if rec(i + 1, common_refinement([joined, cand])):
                return True
        return False

    if rec(0, Partition.indiscrete(fs.ground)):
        return "yes", valid
    return ("inconclusive" if tried >= budget else "no"), valid


class TestRecursiveSearchOracle:
    """The closed form against the old search over coarsening tuples.

    Wherever the search concludes it gives the same outcome, and each witness
    piece is the common refinement of every coarsening the search kept for
    its block.
    """

    def check(self, fs, agent, x, world) -> tuple[str, bool]:
        """The search's outcome, and whether it listed subagents, after comparing."""
        got = observes_partition(fs, agent, x, world)
        expected, valid = recursive_observes_partition(fs, agent, x, world, 20_000)
        if expected != "inconclusive":
            assert got.outcome == expected
        if got and valid:
            for piece, options in zip(got.witness, valid):
                assert piece == common_refinement(options)
        return expected, bool(valid)

    def test_random_sets(self):
        rng = random.Random(4099)
        outcomes = Counter()
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
            outcomes[self.check(fs, agent, x, world)] += 1
        # Every search concluded, and some "no" came from the subagents.
        assert set(outcomes) == {("yes", True), ("no", False), ("no", True)}

    def test_every_generated_triple_on_the_cube(self):
        fs = grid_factored_set(8, (2, 2, 2))
        generated = set()
        for mask in range(1 << fs.dim):
            join = common_refinement(fs.factors_of_mask(mask), ground=fs.ground)
            if join.block_count <= 4:
                generated.update(iter_coarsenings(join))
        generated = sorted(generated, key=lambda p: p.key)
        outcomes = Counter()
        for agent in generated:
            for x in generated:
                if agent.block_count < 3 or not orthogonal(fs, agent, x):
                    continue
                for world in generated:
                    outcomes[self.check(fs, agent, x, world)] += 1
        assert set(outcomes) == {("yes", True), ("no", True)}

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
