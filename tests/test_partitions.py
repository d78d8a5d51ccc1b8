import itertools
import math
import random
from collections import Counter
from typing import Iterator

import pytest
from hypothesis import given, strategies as st

from factoredsets import (
    GroundSet,
    Partition,
    ValidationError,
    bell_number,
    characteristic_polynomial,
    common_refinement,
    cond_orth_by_divisibility,
    enumerate_factorizations,
    format_partition,
    grid_factored_set,
    iter_coarsenings,
    iter_partitions,
    parse_partition,
)
from factoredsets.partitions import block_triple_identity, partition_of_rank
from conftest import event_block_triple_identity, mixed_random_partition


@st.composite
def partitions(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ground = GroundSet(n)
    if n == 0:
        return Partition.empty(ground)
    dom = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    owner = {e: draw(st.integers(min_value=0, max_value=n)) for e in dom}
    return Partition.from_block_of(ground, owner)


class TestGroundSet:
    def test_labels_must_be_distinct(self):
        with pytest.raises(ValidationError):
            GroundSet(2, ("a", "a"))
        with pytest.raises(ValidationError):
            GroundSet(2, ("a",))

    def test_token_resolution(self):
        g = GroundSet(3, ("a", "b", "c"))
        assert g.index_of("b") == 1
        with pytest.raises(ValidationError):
            g.index_of("1")  # labels declared, so indices are not tokens
        unlabeled = GroundSet(3)
        assert unlabeled.index_of("2") == 2
        with pytest.raises(ValidationError):
            unlabeled.index_of("3")

    def test_labels_do_not_affect_equality(self):
        assert GroundSet(2, ("a", "b")) == GroundSet(2)


class TestCanonicalize:
    def test_block_order_is_normalized(self):
        g = GroundSet(4)
        p = Partition.from_blocks(g, [[2, 3], [0, 1]])
        assert p.block_of == {0: 0, 1: 0, 2: 1, 3: 1}

    def test_discrete_via_blocks(self):
        g = GroundSet(4)
        assert Partition.from_blocks(g, [[0], [1], [2], [3]]) == Partition.discrete(g)

    def test_overlap_is_rejected_naming_the_element(self):
        g = GroundSet(4)
        with pytest.raises(ValidationError, match="overlap at element 1"):
            Partition.from_blocks(g, [[0, 1], [1, 2]])

    def test_empty_block_rejected(self):
        with pytest.raises(ValidationError, match="block #1 is empty"):
            Partition.from_blocks(GroundSet(3), [[0], []])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out-of-range"):
            Partition.from_blocks(GroundSet(3), [[0, 7]])

    @given(partitions())
    def test_idempotent(self, p):
        assert Partition.from_blocks(p.ground, p.blocks) == p

    def test_raw_constructor_rejects_non_canonical(self):
        g = GroundSet(3)
        with pytest.raises(ValidationError):
            Partition(g, (0, 1, 2), (1, 0, 0))
        with pytest.raises(ValidationError):
            Partition(g, (1, 0), (0, 0))


class TestSpecialPartitions:
    def test_discrete_has_n_blocks(self):
        assert Partition.discrete(GroundSet(3)).block_count == 3

    def test_indiscrete_has_one_block(self):
        assert Partition.indiscrete(GroundSet(3)).block_count == 1

    def test_indiscrete_of_empty_set_has_no_blocks(self):
        assert Partition.indiscrete(GroundSet(0)).block_count == 0


class TestRefines:
    def test_discrete_refines_everything(self):
        g = GroundSet(4)
        for p in iter_partitions(g):
            assert Partition.discrete(g).refines(p)
            assert p.refines(Partition.indiscrete(g))

    @given(partitions())
    def test_reflexive(self, p):
        assert p.refines(p)

    def test_cross_pair(self):
        g = GroundSet(4)
        a = Partition.from_blocks(g, [[0, 1], [2, 3]])
        b = Partition.from_blocks(g, [[0, 2], [1, 3]])
        assert not a.refines(b)

    def test_partial_order(self):
        g = GroundSet(4)
        parts = list(iter_partitions(g))
        for a in parts:
            for b in parts:
                if a.refines(b) and b.refines(a):
                    assert a == b
                for c in parts:
                    if a.refines(b) and b.refines(c):
                        assert a.refines(c)

    def test_domain_mismatch(self):
        g = GroundSet(3)
        with pytest.raises(ValidationError):
            Partition.discrete(g).refines(Partition.empty(g))


class TestCommonRefinement:
    def test_single_input_is_identity(self):
        g = GroundSet(4)
        p = Partition.from_blocks(g, [[0, 1], [2, 3]])
        assert common_refinement([p]) == p

    def test_two_factor_blocks_separate_all_points(self):
        g = GroundSet(4)
        a = Partition.from_blocks(g, [[0, 1], [2, 3]])
        b = Partition.from_blocks(g, [[0, 2], [1, 3]])
        assert common_refinement([a, b]) == Partition.discrete(g)

    def test_empty_collection_is_indiscrete_over_the_domain(self):
        g = GroundSet(5)
        got = common_refinement([], ground=g, domain={0, 1, 2})
        assert got.domain == (0, 1, 2)
        assert got.block_count == 1
        with pytest.raises(ValidationError):
            common_refinement([])

    def test_least_upper_bound(self):
        # Z refines both inputs exactly when it refines their join.
        g = GroundSet(4)
        parts = list(iter_partitions(g))
        for a in parts:
            for b in parts:
                join = common_refinement([a, b])
                assert join.refines(a) and join.refines(b)
                for z in parts:
                    both = z.refines(a) and z.refines(b)
                    assert both == z.refines(join)


class TestRestrict:
    def test_full_domain_is_identity(self):
        g = GroundSet(4)
        p = Partition.from_blocks(g, [[0, 1], [2, 3]])
        assert p.restrict(p.domain) == p

    def test_empty_restriction(self):
        p = Partition.discrete(GroundSet(3))
        assert p.restrict([]) == Partition.empty(p.ground)

    def test_drops_empty_intersections(self):
        g = GroundSet(4)
        p = Partition.from_blocks(g, [[0, 1], [2, 3]])
        assert p.restrict([0, 1, 2]) == Partition.from_blocks(g, [[0, 1], [2]])

    def test_requires_subset_of_domain(self):
        g = GroundSet(4)
        sub = Partition.from_blocks(g, [[0, 1]])
        with pytest.raises(ValidationError):
            sub.restrict([2])

    def test_commutes_with_common_refinement(self):
        rng = random.Random(7)
        g = GroundSet(5)
        parts = list(iter_partitions(g))
        for _ in range(200):
            a, b = rng.choice(parts), rng.choice(parts)
            e = [x for x in range(5) if rng.random() < 0.5]
            lhs = common_refinement([a, b]).restrict(e)
            rhs = common_refinement(
                [a.restrict(e), b.restrict(e)], ground=g, domain=e
            )
            assert lhs == rhs


def recursive_iter_partitions(ground, domain=None) -> Iterator[Partition]:
    """``iter_partitions`` as one recursive call per element: the flat loop's oracle."""
    dom = tuple(ground.elements()) if domain is None else tuple(sorted(set(domain)))
    k = len(dom)
    if k == 0:
        yield Partition(ground, (), ())
        return
    ids = [0] * k

    def rec(i: int, used: int) -> Iterator[Partition]:
        if i == k:
            yield Partition(ground, dom, tuple(ids))
            return
        for b in range(used + 1):
            ids[i] = b
            yield from rec(i + 1, used + (1 if b == used else 0))

    yield from rec(1, 1)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(9))
    def test_same_stream_as_the_recursive_generator(self, n):
        g = GroundSet(n)
        assert list(iter_partitions(g)) == list(recursive_iter_partitions(g))
        rng = random.Random(n)
        wide = GroundSet(n + 3)
        for _ in range(3):
            domain = rng.sample(range(n + 3), n)
            assert list(iter_partitions(wide, domain)) == list(
                recursive_iter_partitions(wide, domain)
            )

    def test_sizes_past_the_recursion_limit(self):
        g = GroundSet(5000)
        first, second = itertools.islice(iter_partitions(g), 2)
        assert first == Partition.indiscrete(g)
        assert second.block_ids == (0,) * 4999 + (1,)

    @pytest.mark.parametrize("n", range(7))
    def test_counts_match_bell_numbers(self, n):
        parts = list(iter_partitions(GroundSet(n)))
        assert len(parts) == bell_number(n)
        assert len(set(parts)) == len(parts)

    def test_coarsenings_of_discrete_are_all_partitions(self):
        g = GroundSet(4)
        coarse = set(iter_coarsenings(Partition.discrete(g)))
        assert coarse == set(iter_partitions(g))

    def test_coarsenings_are_coarser(self):
        g = GroundSet(6)
        p = Partition.from_blocks(g, [[0, 1], [2, 3], [4, 5]])
        for c in iter_coarsenings(p):
            assert p.refines(c)

    def test_coarsenings_come_in_key_order(self):
        rng = random.Random(613)
        parts = [p for n in range(8) for p in iter_partitions(GroundSet(n))]
        for _ in range(300):
            g = GroundSet(rng.randint(1, 9))
            dom = [e for e in g.elements() if rng.random() < 0.7]
            parts.append(Partition.from_block_of(g, {e: rng.randrange(4) for e in dom}))
        for p in parts:
            coarsenings = list(iter_coarsenings(p))
            assert coarsenings == sorted(coarsenings, key=lambda c: c.key)


class TestPartitionOfRank:
    def test_matches_the_enumeration_order(self):
        for n in range(9):
            g = GroundSet(n)
            ranked = [partition_of_rank(g, r) for r in range(bell_number(n))]
            assert ranked == list(iter_partitions(g))

    @pytest.mark.parametrize("n,rank", [(0, 1), (3, -1), (3, 5), (4, 15)])
    def test_rank_out_of_range(self, n, rank):
        with pytest.raises(ValidationError, match="out of range"):
            partition_of_rank(GroundSet(n), rank)


def _seeded_masses(fs, rng) -> list[int]:
    """Point masses from integer block weights in -2..2.

    Some masses vanish, and some are negative: under nonnegative weights the
    present cells' equalities already force the absent cells' (summed over
    the ``y`` blocks, both sides give ``m(x&z) * m(z)``), so only signed
    weights can tell an identity that skips absent cells.
    """
    rows = [[rng.randint(-2, 2) for _ in range(p.block_count)] for p in fs.factors]
    return [math.prod(rows[j][b] for j, b in enumerate(c)) for c in fs.coords]


class TestBlockTripleIdentityOracle:
    """The per-element identity against the event-callback identity it replaced.

    Each triple is decided under seeded integer masses, by
    ``block_triple_identity`` itself, and under characteristic polynomials,
    by ``cond_orth_by_divisibility``; the oracle measures each event
    directly.
    """

    def assert_same_verdicts(self, fs, triples, rng, verdicts: Counter) -> None:
        for x, y, z in triples:
            masses = _seeded_masses(fs, rng)
            by_mass = block_triple_identity(x, y, z, masses)
            assert by_mass == event_block_triple_identity(
                x, y, z, lambda e: sum(masses[s] for s in e)
            )
            by_poly = cond_orth_by_divisibility(fs, x, y, z)
            assert by_poly == event_block_triple_identity(
                x, y, z, lambda e: characteristic_polynomial(fs, e)
            )
            verdicts["mass", by_mass] += 1
            verdicts["poly", by_poly] += 1

    def assert_both_verdicts(self, verdicts: Counter, triples: int) -> None:
        # Each measure reaches both verdicts, so neither comparison is vacuous.
        assert len(verdicts) == 4
        assert verdicts.total() == 2 * triples

    def test_every_triple_of_sizes_two_to_four(self):
        rng = random.Random(67)
        verdicts = Counter()
        for n in (2, 3, 4):
            for fs in enumerate_factorizations(n):
                parts = list(iter_partitions(fs.ground))
                self.assert_same_verdicts(
                    fs, itertools.product(parts, repeat=3), rng, verdicts
                )
        self.assert_both_verdicts(verdicts, 13633)

    # The grids of the benchmark's queries workload, 2,000 triples in all.
    @pytest.mark.parametrize(
        "ks, count", [((2, 2, 3), 667), ((2, 2, 2, 2), 666), ((2, 3, 4), 667)]
    )
    def test_seeded_grid_triples(self, ks, count):
        rng = random.Random(71)
        fs = grid_factored_set(math.prod(ks), ks)
        triples = [
            tuple(mixed_random_partition(rng, fs) for _ in range(3))
            for _ in range(count)
        ]
        verdicts = Counter()
        self.assert_same_verdicts(fs, triples, rng, verdicts)
        self.assert_both_verdicts(verdicts, count)


class TestTextSyntax:
    def test_parse_blocks_with_labels(self):
        g = GroundSet(4, ("00", "01", "10", "11"))
        p = parse_partition("{ 00 01 | 10 11 }", g)
        assert p.blocks == ((0, 1), (2, 3))

    def test_specials(self):
        g = GroundSet(3)
        assert parse_partition("_", g) == Partition.indiscrete(g)
        assert parse_partition("!", g) == Partition.discrete(g)

    def test_round_trip_everything_small(self):
        for labels in (None, ("a", "b", "c", "d")):
            g = GroundSet(4, labels)
            for p in iter_partitions(g):
                assert parse_partition(format_partition(p), g) == p

    def test_subpartition_round_trip(self):
        g = GroundSet(5)
        p = Partition.from_blocks(g, [[0, 3], [1]])
        assert parse_partition(format_partition(p), g) == p

    def test_bad_syntax(self):
        g = GroundSet(3)
        with pytest.raises(ValidationError):
            parse_partition("0 1 2", g)
        with pytest.raises(ValidationError):
            parse_partition("{ 0 | | 1 }", g)
