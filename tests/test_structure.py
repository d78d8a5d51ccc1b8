import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from factoredsets import (
    FactoredSet,
    GroundSet,
    Partition,
    TemporalRelation,
    ValidationError,
    before,
    block_histories,
    common_refinement,
    cond_before,
    cond_orthogonal,
    cond_orthogonal_given_subset,
    enumerate_factorizations,
    generates,
    grid_factored_set,
    history,
    history_factors,
    irreducible_components,
    iter_partitions,
    orthogonal,
    splice_components,
    trivial_factorization,
)
from conftest import (
    assert_semigraphoid_axioms,
    brute_history,
    mixed_random_partition,
    random_factored_set,
    random_generated_partition,
    random_partition,
    random_subset,
)


def join_of_mask(fs: FactoredSet, mask: int) -> Partition:
    return common_refinement(fs.factors_of_mask(mask), ground=fs.ground)


def splice_scan_generates(fs: FactoredSet, mask: int, block_of: dict[int, int]) -> bool:
    """Generation as the paper defines it, the check the library ran before
    the coordinate form: every splice of two domain elements along ``mask``
    lies in the block of the first."""
    pair = fs.chimera_pair
    for s, bs in block_of.items():
        for t in block_of:
            if block_of.get(pair(mask, s, t)) != bs:
                return False
    return True


def old_irreducible_masks(fs: FactoredSet, event) -> tuple[int, ...]:
    """The event decomposition as first written: every splice-closed subset."""
    one = dict.fromkeys(event, 0)
    stable = [mask for mask in range(1 << fs.dim) if splice_scan_generates(fs, mask, one)]
    comps: list[int] = []
    for j in range(fs.dim):
        cj = fs.full_mask
        for mask in stable:
            if mask >> j & 1:
                cj &= mask
        if cj not in comps:
            comps.append(cj)
    return tuple(comps)


def random_rectangle(rng: random.Random, fs: FactoredSet) -> frozenset[int]:
    """The elements whose block in each factor lies in a random nonempty choice."""
    chosen = [
        set(rng.sample(range(p.block_count), rng.randint(1, p.block_count)))
        for p in fs.factors
    ]
    return frozenset(
        s for s in range(fs.size) if all(c in ch for c, ch in zip(fs.coords[s], chosen))
    )


QUERY_GRIDS = ((2, 2, 3), (2, 2, 2, 2), (2, 3, 4))


class TestGenerates:
    def test_full_basis_always_generates(self):
        rng = random.Random(1)
        for _ in range(50):
            fs = random_factored_set(rng)
            x = mixed_random_partition(rng, fs)
            assert generates(fs, fs.full_mask, x)

    def test_empty_set_generates_only_indiscrete(self):
        rng = random.Random(2)
        for _ in range(100):
            fs = random_factored_set(rng)
            dom = random_subset(rng, fs.size)
            x = random_partition(rng, fs.ground, dom)
            assert generates(fs, 0, x) == (x.block_count <= 1)

    def test_single_factor_does_not_generate_the_other(self, ex1):
        fs = ex1.fs
        mask = 1 << fs.factors.index(ex1.X)
        # Oracle: scan for a pair whose splice leaves the block of the first.
        bad = [
            (s, t)
            for s in range(4)
            for t in range(4)
            if not ex1.V.same_block(fs.chimera_pair(mask, s, t), s)
        ]
        assert bad
        assert not generates(fs, mask, ex1.V)

    def test_ground_mismatch(self, ex1):
        with pytest.raises(ValidationError):
            generates(ex1.fs, 0, Partition.discrete(GroundSet(5)))


class TestGenerationEquivalences:
    """The alternative formulations must agree with the splice test."""

    @staticmethod
    def _condition_sets(fs, mask, x):
        # Blockwise: splicing a block against the whole domain stays inside it.
        dom = list(x.domain)
        out = []
        for blk in x.block_sets:
            image = fs.chimera_set(mask, blk, dom)
            out.append(image == blk)
        return all(out)

    @staticmethod
    def _condition_pairs(fs, mask, x):
        return all(
            fs.chimera_set(mask, a, b) <= a
            for a in x.block_sets
            for b in x.block_sets
        )

    @staticmethod
    def _condition_refinement(fs, mask, x):
        join = join_of_mask(fs, mask)
        if x.is_full:
            return join.refines(x)
        stable = fs.chimera_set(mask, x.domain, x.domain) == x.domain_set
        return stable and join.restrict(x.domain).refines(x)

    def test_full_partitions(self):
        rng = random.Random(3)
        for _ in range(150):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            mask = rng.randrange(1 << fs.dim)
            expected = generates(fs, mask, x)
            assert self._condition_sets(fs, mask, x) == expected
            assert self._condition_pairs(fs, mask, x) == expected
            assert self._condition_refinement(fs, mask, x) == expected

    def test_subpartitions(self):
        rng = random.Random(4)
        for _ in range(150):
            fs = random_factored_set(rng, max_n=8)
            dom = random_subset(rng, fs.size)
            x = random_partition(rng, fs.ground, dom)
            mask = rng.randrange(1 << fs.dim)
            expected = generates(fs, mask, x)
            assert self._condition_sets(fs, mask, x) == expected
            assert self._condition_pairs(fs, mask, x) == expected
            assert self._condition_refinement(fs, mask, x) == expected

    def test_generating_family_closures(self):
        rng = random.Random(5)
        for _ in range(40):
            fs = random_factored_set(rng, max_n=8)
            full = random_partition(rng, fs.ground)
            dom = random_subset(rng, fs.size)
            sub = random_partition(rng, fs.ground, dom)
            masks = range(1 << fs.dim)
            gen_full = [m for m in masks if generates(fs, m, full)]
            gen_sub = [m for m in masks if generates(fs, m, sub)]
            for a in gen_full:
                for b in gen_full:
                    assert (a & b) in gen_full
                    assert (a | b) in gen_full  # supersets of a generating set
            for a in gen_sub:
                for b in gen_sub:
                    assert (a & b) in gen_sub
                    assert (a | b) in gen_sub


class TestHistory:
    def test_indiscrete_has_empty_history(self):
        rng = random.Random(6)
        for _ in range(30):
            fs = random_factored_set(rng)
            assert history(fs, Partition.indiscrete(fs.ground)) == 0

    def test_each_factor_is_its_own_history(self):
        rng = random.Random(7)
        for _ in range(30):
            fs = random_factored_set(rng, min_n=1)
            if fs.size == 0:
                continue
            for j, factor in enumerate(fs.factors):
                assert history(fs, factor) == 1 << j

    def test_two_bit_example(self, ex1):
        fs = ex1.fs
        # Oracle: test generation for each of the four factor subsets.
        generating = [m for m in range(4) if generates(fs, m, ex1.Y)]
        assert generating == [3]
        assert history(fs, ex1.Y) == 3
        assert set(history_factors(fs, ex1.Y)) == {ex1.X, ex1.V}

    def test_monotone_and_join_laws(self):
        rng = random.Random(8)
        for _ in range(100):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            hx, hy = history(fs, x), history(fs, y)
            if x.refines(y):
                assert hy & hx == hy
            join = common_refinement([x, y])
            assert history(fs, join) == hx | hy

    def test_history_is_smallest_generating_set(self):
        for n in range(6):
            for fs in enumerate_factorizations(n):
                for x in iter_partitions(fs.ground):
                    assert history(fs, x) == brute_history(fs, x)

    def test_subpartition_history_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(100):
            fs = random_factored_set(rng, max_n=6)
            dom = random_subset(rng, fs.size)
            x = random_partition(rng, fs.ground, dom)
            assert history(fs, x) == brute_history(fs, x)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_partition_of_another_ground_set_is_rejected(self, n):
        # n == 1 is dimension 0: no splice component, so no generation test.
        fs = trivial_factorization(GroundSet(n))
        other = GroundSet(5)
        for part in (Partition.discrete(other), Partition.empty(other)):
            with pytest.raises(ValidationError, match="different ground set"):
                history(fs, part)
        # The cache key names no ground set, so the check must not rest on a
        # miss: a cached (domain, block ids) on another ground is rejected.
        own = Partition.discrete(fs.ground)
        history(fs, own)
        assert (own.domain, own.block_ids) in fs._history_cache
        twin = Partition(GroundSet(n + 2), own.domain, own.block_ids)
        with pytest.raises(ValidationError, match="different ground set"):
            history(fs, twin)

    def test_history_equals_factors_before(self):
        rng = random.Random(10)
        for _ in range(40):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            if fs.size == 0:
                continue
            x = mixed_random_partition(rng, fs)
            hx = history(fs, x)
            expected = 0
            for j, factor in enumerate(fs.factors):
                if before(fs, factor, x).is_before:
                    expected |= 1 << j
            assert hx == expected


class TestBlockHistories:
    """Histories of a raw labeling per block against restricted partitions."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_permuted_labels_match_brute_force(self, seed, partition_route_first):
        rng = random.Random(seed)
        fs = random_factored_set(rng, min_n=1, max_n=8)
        x = mixed_random_partition(rng, fs)
        # Distinct labels drawn per block of x, so they are seldom in
        # restricted-growth form.
        names = rng.sample(range(3 * fs.size), x.block_count)
        labels = tuple(names[b] for b in x.block_ids)
        blocks = list(mixed_random_partition(rng, fs).blocks)
        blocks.append(tuple(sorted(random_subset(rng, fs.size))))
        routes = [
            lambda: [history(fs, x.restrict(b)) for b in blocks],
            lambda: list(block_histories(fs, labels, blocks)),
        ]
        if not partition_route_first:
            routes.reverse()
        expected = [brute_history(fs, x.restrict(b)) for b in blocks]
        for route in routes + routes:  # the second round reads the cache
            assert route() == expected


class TestSpliceComponentRule:
    """Every history is the union of domain components whose complement fails,
    and generation in coordinate form agrees with the splice scan on every mask."""

    @staticmethod
    def check(fs: FactoredSet, x: Partition) -> None:
        for mask in range(1 << fs.dim):
            assert generates(fs, mask, x) == splice_scan_generates(fs, mask, x.block_of)
        assert history(fs, x) == brute_history(fs, x)
        if x.domain:
            comps = irreducible_components(fs, x.domain).components
            assert comps == old_irreducible_masks(fs, x.domain)
            assert splice_components(fs, x) == comps

    def test_every_subpartition_to_size_five(self):
        for n in range(6):
            for fs in enumerate_factorizations(n):
                for bits in range(1 << n):
                    dom = [e for e in range(n) if bits >> e & 1]
                    for x in iter_partitions(fs.ground, dom):
                        self.check(fs, x)

    def test_seeded_domains_to_size_eight_and_query_grids(self):
        rng = random.Random(53)
        sets = [random_factored_set(rng, min_n=1, max_n=8) for _ in range(150)]
        sets += [grid_factored_set(math.prod(ks), ks) for ks in QUERY_GRIDS] * 20
        for i, fs in enumerate(sets):
            # Rectangle, random, empty and singleton domains in turn, and
            # blocks of generated partitions, which are unions of rectangles.
            dom = (
                random_rectangle(rng, fs),
                random_subset(rng, fs.size),
                frozenset(),
                frozenset({rng.randrange(fs.size)}),
                rng.choice(random_generated_partition(rng, fs).block_sets),
            )[i % 5]
            for _ in range(3):
                self.check(fs, random_partition(rng, fs.ground, dom))
                self.check(fs, mixed_random_partition(rng, fs).restrict(dom))


class TestOrthogonality:
    def test_example_pairs(self, ex1):
        assert orthogonal(ex1.fs, ex1.X, ex1.V)
        assert not orthogonal(ex1.fs, ex1.V, ex1.V)

    def test_self_orthogonal_iff_indiscrete(self):
        rng = random.Random(11)
        for _ in range(60):
            fs = random_factored_set(rng)
            x = mixed_random_partition(rng, fs)
            assert orthogonal(fs, x, x) == (x.block_count <= 1)

    def test_symmetry_coarsening_composition(self):
        rng = random.Random(12)
        for _ in range(100):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            z = mixed_random_partition(rng, fs)
            assert orthogonal(fs, x, z) == orthogonal(fs, z, x)
            if orthogonal(fs, x, z):
                # coarsening stability: anything coarser than x stays orthogonal
                coarser = mixed_random_partition(rng, fs)
                if x.refines(coarser):
                    assert orthogonal(fs, coarser, z)
            if orthogonal(fs, x, z) and orthogonal(fs, y, z):
                assert orthogonal(fs, common_refinement([x, y]), z)

    def test_complementary_generation_characterization(self):
        rng = random.Random(13)
        for _ in range(60):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            split = any(
                generates(fs, mask, x)
                and generates(fs, fs.full_mask & ~mask, y)
                for mask in range(1 << fs.dim)
            )
            assert split == orthogonal(fs, x, y)


class TestBefore:
    def test_reflexive_equal_history(self, ex1):
        verdict = before(ex1.fs, ex1.X, ex1.X)
        assert verdict.relation is TemporalRelation.EQUAL_HISTORY
        assert verdict.is_before

    def test_refinement_implies_before(self):
        rng = random.Random(14)
        for _ in range(80):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            if x.refines(y):
                assert before(fs, y, x).is_before

    def test_strictly_before_example(self, ex1):
        verdict = before(ex1.fs, ex1.X, ex1.Y)
        assert verdict.relation is TemporalRelation.STRICTLY_BEFORE
        back = before(ex1.fs, ex1.Y, ex1.X)
        assert back.relation is TemporalRelation.STRICTLY_AFTER
        assert not back.is_before
        sideways = before(ex1.fs, ex1.X, ex1.V)
        assert sideways.relation is TemporalRelation.INCOMPARABLE

    def test_closure_property_of_orthogonality(self):
        # x comes before y exactly when everything orthogonal to y is
        # orthogonal to x; checked against every partition of the set.
        for n in range(6):
            for fs in enumerate_factorizations(n):
                parts = list(iter_partitions(fs.ground))
                hs = {p: history(fs, p) for p in parts}
                for x in parts:
                    for y in parts:
                        closure = all(
                            hs[x] & hs[z] == 0
                            for z in parts
                            if hs[y] & hs[z] == 0
                        )
                        assert closure == (hs[x] & hs[y] == hs[x])

    def test_empty_set_before_both_ways(self):
        fs = FactoredSet(GroundSet(0), [Partition.empty(GroundSet(0))])
        e = Partition.empty(fs.ground)
        assert before(fs, e, e).is_before
        assert history(fs, e) == 0


class TestConditionalOrthogonality:
    def test_full_event_reduces_to_plain(self):
        rng = random.Random(15)
        for _ in range(60):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            assert cond_orthogonal_given_subset(
                fs, x, y, range(fs.size)
            ) == orthogonal(fs, x, y)

    def test_empty_event_is_trivially_orthogonal(self, ex1):
        assert cond_orthogonal_given_subset(ex1.fs, ex1.V, ex1.V, ())

    def test_indiscrete_conditioning_reduces_to_plain(self):
        rng = random.Random(16)
        for _ in range(60):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            assert cond_orthogonal(
                fs, x, y, Partition.indiscrete(fs.ground)
            ) == orthogonal(fs, x, y)

    def test_self_conditional_iff_coarser(self):
        g = GroundSet(4)
        for fs in enumerate_factorizations(4):
            for x in iter_partitions(g):
                for y in iter_partitions(g):
                    assert cond_orthogonal(fs, x, x, y) == y.refines(x)

    def test_out_of_range_event(self, ex1):
        with pytest.raises(ValidationError):
            cond_orthogonal_given_subset(ex1.fs, ex1.X, ex1.Y, {9})


class TestConditionalBefore:
    def test_full_event_matches_before(self):
        rng = random.Random(17)
        for _ in range(60):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            assert cond_before(fs, x, y, range(fs.size)) == before(fs, x, y).is_before

    def test_reflexive(self, ex1):
        assert cond_before(ex1.fs, ex1.X, ex1.X, {0, 1, 2})

    @pytest.mark.parametrize("condition", [cond_before, cond_orthogonal_given_subset])
    @pytest.mark.parametrize("elements", [{4}, {0, 9}, {-1}, {-1, 0, 1, 2, 3}])
    def test_elements_outside_the_set_are_rejected(self, ex1, condition, elements):
        with pytest.raises(ValidationError, match="outside the partition domain"):
            condition(ex1.fs, ex1.X, ex1.V, elements)

    @pytest.mark.parametrize(
        "condition",
        [
            lambda ex1, event: ex1.X.restrict(event),
            lambda ex1, event: cond_before(ex1.fs, ex1.X, ex1.X, event),
            lambda ex1, e: cond_orthogonal_given_subset(ex1.fs, ex1.X, ex1.V, e),
        ],
        ids=["restrict", "cond_before", "cond_orthogonal_given_subset"],
    )
    @pytest.mark.parametrize("event", [[1, "a"], ["a", 0, 2], [0, None]])
    def test_mixed_type_event_is_rejected(self, ex1, condition, event):
        with pytest.raises(ValidationError, match="outside the partition domain"):
            condition(ex1, event)

    def test_conditioned_on_first_bit_block(self, ex1):
        # Restricting to the first block of X leaves V and Y with the same
        # restricted histories (checked by subset enumeration in brute form).
        fs = ex1.fs
        block = ex1.X.block_sets[0]
        hv = brute_history(fs, ex1.V.restrict(block))
        hy = brute_history(fs, ex1.Y.restrict(block))
        assert hv & hy == hv
        assert cond_before(fs, ex1.V, ex1.Y, block)


class TestConditionedHistoryLemmas:
    def test_disjoint_histories_survive_conditioning(self):
        # Lemma A: same-domain subpartitions with disjoint histories keep
        # their history when conditioned on the other's blocks.
        rng = random.Random(18)
        fired = 0
        for _ in range(300):
            fs = random_factored_set(rng, max_n=8)
            dom = random_subset(rng, fs.size)
            x = random_partition(rng, fs.ground, dom)
            y = random_partition(rng, fs.ground, dom)
            if history(fs, x) & history(fs, y):
                continue
            fired += 1
            for blk in y.block_sets:
                assert history(fs, x.restrict(blk)) == history(fs, x)
        assert fired > 50

    def test_join_history_decomposition(self):
        # Lemma B: the join's history splits into one side's history plus the
        # other side conditioned on each of its blocks.
        rng = random.Random(19)
        for _ in range(200):
            fs = random_factored_set(rng, max_n=8)
            dom = random_subset(rng, fs.size)
            x = random_partition(rng, fs.ground, dom)
            y = random_partition(rng, fs.ground, dom)
            join = common_refinement([x, y])
            expected = history(fs, x)
            for blk in x.block_sets:
                expected |= history(fs, y.restrict(blk))
            assert history(fs, join) == expected


class TestSemigraphoid:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_axioms_property(self, seed):
        # Conditional orthogonality restricts to every z-block, so each draw
        # also sends subpartition histories through the component rule.
        rng = random.Random(seed)
        fs = random_factored_set(rng, min_n=1, max_n=8)
        x, y, z, w = (mixed_random_partition(rng, fs) for _ in range(4))
        assert_semigraphoid_axioms(fs, x, y, z, w)

    def test_axioms_on_random_structured_inputs(self):
        rng = random.Random(20)
        fired = [0] * 4
        for _ in range(250):
            fs = random_factored_set(rng, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            z = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            yw = common_refinement([y, w])
            if cond_orthogonal(fs, x, y, z):
                assert cond_orthogonal(fs, y, x, z)  # symmetry
            if cond_orthogonal(fs, x, yw, z):
                fired[0] += 1
                assert cond_orthogonal(fs, x, y, z)  # decomposition
                assert cond_orthogonal(fs, x, w, z)
                assert cond_orthogonal(fs, x, y, common_refinement([z, w]))  # weak union
            if cond_orthogonal(fs, x, y, z) and cond_orthogonal(
                fs, x, w, common_refinement([z, y])
            ):
                fired[1] += 1
                assert cond_orthogonal(fs, x, yw, z)  # contraction
            if cond_orthogonal(fs, x, y, z) and cond_orthogonal(fs, x, w, z):
                fired[2] += 1
                assert cond_orthogonal(fs, x, yw, z)  # composition
            fired[3] += 1
        assert all(count > 20 for count in fired)
