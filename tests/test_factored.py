import itertools
import math
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from factoredsets import (
    FactoredSet,
    GroundSet,
    Partition,
    ValidationError,
    characteristic_polynomial,
    cond_orthogonal_given_subset,
    count_factorizations,
    data_path,
    enumerate_factorizations,
    event_partition,
    factor_size_multisets,
    generates,
    grid_factored_set,
    load_distribution_file,
    observes_event,
    restricted_polynomial,
    trivial_factorization,
)
from factoredsets.partitions import partition_of_rank
from factoredsets.factored import _iter_grids, mixed_radix_strides
from conftest import Ex1, assert_splice_identities, random_factored_set


# Every public entry point that takes a factor mask, called on ex1.
MASK_CALLS = [
    lambda ex1, mask: ex1.fs.mask_indices(mask),
    lambda ex1, mask: ex1.fs.factors_of_mask(mask),
    lambda ex1, mask: ex1.fs.chimera_pair(mask, 0, 3),
    lambda ex1, mask: ex1.fs.chimera_set(mask, [0], [1]),
    lambda ex1, mask: restricted_polynomial(ex1.fs, mask, [0, 1]),
    lambda ex1, mask: generates(ex1.fs, mask, ex1.X),
    # No domain element to splice: the mask is still checked.
    lambda ex1, mask: generates(ex1.fs, mask, Partition.empty(ex1.fs.ground)),
]
MASK_CALL_IDS = [
    "mask_indices", "factors_of_mask", "chimera_pair", "chimera_set",
    "restricted_polynomial", "generates", "generates-empty",
]


def blocks(fs: FactoredSet) -> frozenset[frozenset[frozenset[int]]]:
    return frozenset(frozenset(p.block_sets) for p in fs.factors)


class TestValidation:
    def test_two_factor_square(self):
        g = GroundSet(4)
        fs = FactoredSet(
            g,
            [
                Partition.from_blocks(g, [[0, 1], [2, 3]]),
                Partition.from_blocks(g, [[0, 2], [1, 3]]),
            ],
        )
        assert fs.dim == 2 and fs.size == 4

    def test_duplicate_factor_collapses_then_fails_cardinality(self):
        g = GroundSet(4)
        p = Partition.from_blocks(g, [[0, 1], [2, 3]])
        with pytest.raises(ValidationError, match="multiply to 2"):
            FactoredSet(g, [p, p])

    def test_six_element_two_factor(self):
        # Coordinates checked by hand: (pair index, parity) is injective.
        g = GroundSet(6)
        fs = FactoredSet(
            g,
            [
                Partition.from_blocks(g, [[0, 1], [2, 3], [4, 5]]),
                Partition.from_blocks(g, [[0, 2, 4], [1, 3, 5]]),
            ],
        )
        assert fs.dim == 2

    def test_trivial_factor_rejected(self):
        g = GroundSet(4)
        with pytest.raises(ValidationError, match="trivial factor"):
            FactoredSet(g, [Partition.indiscrete(g), Partition.discrete(g)])

    def test_coordinate_collision_names_the_pair(self):
        g = GroundSet(4)
        with pytest.raises(ValidationError, match="2 and 3 agree on every factor"):
            FactoredSet(
                g,
                [
                    Partition.from_blocks(g, [[0], [1, 2, 3]]),
                    Partition.from_blocks(g, [[0, 1], [2, 3]]),
                ],
            )

    def test_partial_domain_factor_rejected(self):
        g = GroundSet(4)
        with pytest.raises(ValidationError, match="full ground set"):
            FactoredSet(g, [Partition.from_blocks(g, [[0], [1]])])


class TestTrivialFactorization:
    def test_generic_set_gets_the_discrete_factor(self):
        fs = trivial_factorization(GroundSet(3))
        assert fs.factors == (Partition.discrete(GroundSet(3)),)

    def test_singleton_gets_the_empty_basis(self):
        assert trivial_factorization(GroundSet(1)).dim == 0

    def test_empty_set_has_dimension_one(self):
        fs = trivial_factorization(GroundSet(0))
        assert fs.size == 0 and fs.dim == 1


class TestChimera:
    def test_constant_assignment_returns_the_element(self):
        rng = random.Random(11)
        for _ in range(50):
            fs = random_factored_set(rng, max_n=10)
            if fs.size == 0:
                continue
            s = rng.randrange(fs.size)
            assert fs.chimera([s] * fs.dim) == s

    def test_two_bit_example(self, ex1):
        fs = ex1.fs
        # Oracle: exhaustive intersection of the block of 3 in X with the
        # block of 1 in V.
        hits = [
            s
            for s in range(4)
            if ex1.X.same_block(s, 3) and ex1.V.same_block(s, 1)
        ]
        assert hits == [2]
        x_index = fs.factors.index(ex1.X)
        v_index = fs.factors.index(ex1.V)
        g = [0, 0]
        g[x_index], g[v_index] = 3, 1
        assert fs.chimera(g) == 2
        assert fs.chimera_pair(1 << x_index, 3, 1) == 2

    def test_dimension_zero(self):
        fs = trivial_factorization(GroundSet(1))
        assert fs.chimera([]) == 0

    @pytest.mark.parametrize("bad", [-1, -4, 4, 99])
    def test_element_indices_out_of_range(self, ex1, bad):
        # Python indexing would wrap -1 around to element 3.
        message = f"^element index {bad} out of range 0..3$"
        with pytest.raises(ValidationError, match=message):
            ex1.fs.chimera([bad, 0])
        with pytest.raises(ValidationError, match=message):
            ex1.fs.chimera({ex1.X: 0, ex1.V: bad})

    @pytest.mark.parametrize("bad", [-1, -4, 4, 99])
    def test_set_lift_indices_out_of_range(self, ex1, bad):
        # Python indexing would wrap -1 around to element 3.
        message = f"^element index {bad} out of range 0..3$"
        with pytest.raises(ValidationError, match=message):
            ex1.fs.chimera_set(1, [bad], [0])
        with pytest.raises(ValidationError, match=message):
            ex1.fs.chimera_set(1, [0, 1], [2, bad])
        with pytest.raises(ValidationError, match=message):
            ex1.fs.chimera_set(1, [bad], [])

    @pytest.mark.parametrize("bad", ["a", None, (1,)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda ex1, bad: ex1.fs.ground.check_index(bad),
            lambda ex1, bad: ex1.fs.chimera([bad, 0]),
            lambda ex1, bad: ex1.fs.chimera_set(1, [0], [bad]),
            lambda ex1, bad: characteristic_polynomial(ex1.fs, [0, bad]),
            lambda ex1, bad: load_distribution_file(
                data_path("ex1-uniform.dist"), ex1.file
            ).point_mass(bad),
            lambda ex1, bad: event_partition(ex1.fs, [bad]),
            lambda ex1, bad: observes_event(ex1.fs, ex1.X, [bad], ex1.Y),
            lambda ex1, bad: Partition.from_blocks(ex1.fs.ground, [[0, bad]]),
        ],
        ids=[
            "check_index", "chimera", "chimera_set", "characteristic_polynomial",
            "point_mass", "event_partition", "observes_event", "from_blocks",
        ],
    )
    def test_non_integer_indices(self, ex1, call, bad):
        # An index that cannot be compared with 0 is rejected by name.
        with pytest.raises(ValidationError) as caught:
            call(ex1, bad)
        assert repr(bad) in str(caught.value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ex1: ex1.fs.ground.check_index(1.5),
            lambda ex1: event_partition(ex1.fs, [1.5]),
            lambda ex1: Partition.from_blocks(GroundSet(4), [[0, 1.5], [1, 2, 3]]),
            lambda ex1: ex1.X.restrict([1.0, 2]),
            lambda ex1: Partition.from_block_of(GroundSet(4), {0: 0, 1.5: 1}),
            lambda ex1: ex1.fs.chimera([1.5, 0]),
            lambda ex1: characteristic_polynomial(ex1.fs, [1.0]),
            lambda ex1: cond_orthogonal_given_subset(ex1.fs, ex1.X, ex1.V, [1.0]),
            lambda ex1: observes_event(ex1.fs, ex1.X, [2.0], ex1.Y),
            lambda ex1: Partition(GroundSet(4), (0, 1), (0, 0.5)),
            lambda ex1: Partition.from_block_of(GroundSet(4), {0: 0, "a": 1}),
            lambda ex1: partition_of_rank(GroundSet(3), 1.5),
        ],
        ids=[
            "check_index", "event_partition", "from_blocks", "restrict",
            "from_block_of", "chimera", "characteristic_polynomial",
            "cond_orthogonal_given_subset", "observes_event", "block_ids",
            "from_block_of_key", "partition_of_rank",
        ],
    )
    def test_numbers_that_are_not_integers(self, ex1, call):
        # 1.5 and 1.0 compare with 0 and 4, but no element has them as index.
        with pytest.raises(ValidationError, match="integer|block #0"):
            call(ex1)

    @pytest.mark.parametrize("mask", [-1, 4, 8, 1.5])
    @pytest.mark.parametrize("call", MASK_CALLS, ids=MASK_CALL_IDS)
    def test_factor_masks_outside_the_factor_set(self, ex1, call, mask):
        # A negative mask has infinitely many set bits, and bits past the
        # last factor name no factor; ex1's full mask is 3.
        with pytest.raises(ValidationError, match=rf"^factor mask {mask} "):
            call(ex1, mask)

    @pytest.mark.parametrize("mask", [1.0, 1.5])
    @pytest.mark.parametrize("call", MASK_CALLS, ids=MASK_CALL_IDS)
    @pytest.mark.parametrize("int_first", [False, True])
    def test_float_masks_fail_whatever_ran_before(self, call, mask, int_first):
        # 1.0 == 1 and both hash alike, so nothing looked up for mask 1 may
        # answer for 1.0; each order runs on a fresh set.
        ex1 = Ex1()
        message = rf"^factor mask {mask} is not an integer$"
        if int_first:
            call(ex1, 1)
        with pytest.raises(ValidationError, match=message):
            call(ex1, mask)
        call(ex1, 1)
        with pytest.raises(ValidationError, match=message):
            call(ex1, mask)

    def test_unique_element_agreeing_factorwise(self):
        # The splice is the only element matching the assignment on every factor.
        rng = random.Random(13)
        for fs in enumerate_factorizations(4):
            for _ in range(20):
                g = [rng.randrange(4) for _ in range(fs.dim)]
                s = fs.chimera(g)
                matches = [
                    t
                    for t in range(4)
                    if all(
                        fs.factors[j].same_block(t, g[j]) for j in range(fs.dim)
                    )
                ]
                assert matches == [s]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_splice_identities_property(self, seed, data):
        fs = random_factored_set(random.Random(seed), min_n=1, max_n=8)
        c, d = (data.draw(st.integers(0, fs.full_mask)) for _ in range(2))
        s, t, r = (data.draw(st.integers(0, fs.size - 1)) for _ in range(3))
        assert_splice_identities(fs, c, d, s, t, r)

    def test_pair_extremes(self):
        rng = random.Random(17)
        for _ in range(50):
            fs = random_factored_set(rng, max_n=10)
            if fs.size == 0:
                continue
            s, t = rng.randrange(fs.size), rng.randrange(fs.size)
            assert fs.chimera_pair(fs.full_mask, s, t) == s
            assert fs.chimera_pair(0, s, t) == t
            assert fs.chimera_pair(rng.randrange(1 << fs.dim), s, s) == s


class MixedRadixChimera:
    """The splice as first written: mixed-radix codes and an inverse table.

    Element ``s`` has code ``sum(block_j(s) * stride_j)``; splicing ``s``
    into ``t`` along a mask swaps in ``s``'s digit contributions there.
    """

    def __init__(self, fs: FactoredSet):
        strides = mixed_radix_strides([p.block_count for p in fs.factors])
        self.contribs = [
            tuple(p.block_ids[s] * st for p, st in zip(fs.factors, strides))
            for s in range(fs.size)
        ]
        self.inverse = [-1] * fs.size
        for s, contrib in enumerate(self.contribs):
            self.inverse[sum(contrib)] = s
        self.dim = fs.dim

    def chimera(self, assignment) -> int:
        return self.inverse[sum(self.contribs[s][j] for j, s in enumerate(assignment))]

    def chimera_pair(self, mask: int, s: int, t: int) -> int:
        code = sum(self.contribs[t])
        for j in range(self.dim):
            if mask >> j & 1:
                code += self.contribs[s][j] - self.contribs[t][j]
        return self.inverse[code]


class TestMixedRadixChimeraOracle:
    """The coordinate-tuple splice agrees with the mixed-radix tables it replaced."""

    @staticmethod
    def check(fs: FactoredSet) -> None:
        old = MixedRadixChimera(fs)
        elements = range(fs.size)
        for s in elements:
            for t in elements:
                for mask in range(1 << fs.dim):
                    assert fs.chimera_pair(mask, s, t) == old.chimera_pair(mask, s, t)
                    # The same splice as an assignment: factor j from s
                    # where bit j of the mask is set.
                    g = [s if mask >> j & 1 else t for j in range(fs.dim)]
                    assert fs.chimera(g) == old.chimera(g)

    def test_every_factorization_to_size_six(self):
        for n in range(7):
            for fs in enumerate_factorizations(n):
                self.check(fs)

    def test_query_grids(self):
        for ks in ((2, 2, 3), (2, 2, 2, 2), (2, 3, 4)):
            self.check(grid_factored_set(math.prod(ks), ks))


class TestEnumeration:
    def test_four_element_set_has_exactly_the_four(self):
        g = GroundSet(4)
        expected = {
            blocks(FactoredSet(g, [Partition.discrete(g)])),
            blocks(
                FactoredSet(
                    g,
                    [
                        Partition.from_blocks(g, [[0, 1], [2, 3]]),
                        Partition.from_blocks(g, [[0, 2], [1, 3]]),
                    ],
                )
            ),
            blocks(
                FactoredSet(
                    g,
                    [
                        Partition.from_blocks(g, [[0, 1], [2, 3]]),
                        Partition.from_blocks(g, [[0, 3], [1, 2]]),
                    ],
                )
            ),
            blocks(
                FactoredSet(
                    g,
                    [
                        Partition.from_blocks(g, [[0, 2], [1, 3]]),
                        Partition.from_blocks(g, [[0, 3], [1, 2]]),
                    ],
                )
            ),
        }
        got = [blocks(fs) for fs in enumerate_factorizations(4)]
        assert len(got) == 4
        assert set(got) == expected

    def test_prime_sizes_only_trivial(self):
        for n in (2, 3, 5, 7):
            fss = list(enumerate_factorizations(n))
            assert len(fss) == 1
            assert fss[0].factors == (Partition.discrete(GroundSet(n)),)

    def test_no_duplicates_and_all_valid(self):
        for n in range(9):
            seen = set()
            for fs in enumerate_factorizations(n):
                key = frozenset(fs.factors)
                assert key not in seen
                seen.add(key)
                # Revalidation from scratch must accept every yielded item.
                FactoredSet(fs.ground, list(fs.factors))

    def test_dimension_bounds(self):
        def prime_factor_count(n):
            count, k = 0, 2
            while k * k <= n:
                while n % k == 0:
                    n //= k
                    count += 1
                k += 1
            return count + (1 if n > 1 else 0)

        for n in (4, 6, 8, 9, 10):
            k = prime_factor_count(n)
            dims = {fs.dim for fs in enumerate_factorizations(n)}
            assert all(1 <= d <= k for d in dims)
            assert max(dims) == k

    def test_stream_is_deterministic(self):
        first = [tuple(fs.factors) for fs in enumerate_factorizations(6)]
        second = [tuple(fs.factors) for fs in enumerate_factorizations(6)]
        assert first == second

    def test_sizes_multiply_out(self):
        for fs in enumerate_factorizations(8):
            assert math.prod(p.block_count for p in fs.factors) == 8


class TestMixedRadixStrides:
    def test_codes_decode_to_lexicographic_digits(self):
        # Element s of the reference grid is the s-th digit tuple in
        # lexicographic order, for every ordering of every block-count multiset.
        for n in range(2, 25):
            for multiset in factor_size_multisets(n):
                for ks in set(itertools.permutations(multiset)):
                    strides = mixed_radix_strides(ks)
                    decoded = [
                        tuple((s // strides[j]) % k for j, k in enumerate(ks))
                        for s in range(n)
                    ]
                    assert decoded == list(itertools.product(*map(range, ks)))


class TestCounting:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 1), (1, 1), (2, 1), (3, 1), (4, 4), (5, 1), (6, 61), (7, 1), (8, 1681)],
    )
    def test_known_counts(self, n, expected):
        assert count_factorizations(n) == expected

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            count_factorizations(-1)

    def test_consistent_with_enumeration(self):
        # The closed form against the grid enumeration it replaced.
        for n in range(11):
            assert count_factorizations(n) == sum(
                1 for _ in enumerate_factorizations(n)
            )

    def test_one_element_set_has_the_empty_multiset(self):
        assert factor_size_multisets(1) == [()]
        assert [fs.factors for fs in enumerate_factorizations(1)] == [()]


def _old_iter_grids(n, ks):
    """The grid walk as first written, with its cap and reachability pruning."""
    d = len(ks)
    caps = [n // k for k in ks]
    strides = mixed_radix_strides(ks)
    rows = [(0,) * d]
    used = {0}
    maxlab = [0] * d
    counts = [[0] * k for k in ks]
    for j in range(d):
        counts[j][0] = 1

    def rec(r, tie):
        if r == n:
            yield tuple(rows)
            return
        left_after = n - r - 1
        ranges = [range(min(maxlab[j] + 1, ks[j] - 1) + 1) for j in range(d)]
        for vec in itertools.product(*ranges):
            if any(tie[i] and vec[i] > vec[i + 1] for i in range(d - 1)):
                continue
            if any(counts[j][vec[j]] >= caps[j] for j in range(d)):
                continue
            code = sum(vec[j] * strides[j] for j in range(d))
            if code in used:
                continue
            newmax = [max(maxlab[j], vec[j]) for j in range(d)]
            if any(ks[j] - 1 - newmax[j] > left_after for j in range(d)):
                continue
            oldmax = maxlab[:]
            for j in range(d):
                counts[j][vec[j]] += 1
                maxlab[j] = newmax[j]
            used.add(code)
            rows.append(vec)
            yield from rec(r + 1, tuple(tie[i] and vec[i] == vec[i + 1] for i in range(d - 1)))
            rows.pop()
            used.discard(code)
            for j in range(d):
                counts[j][vec[j]] -= 1
            maxlab[:] = oldmax

    yield from rec(1, tuple(ks[i] == ks[i + 1] for i in range(d - 1)))


def _recursive_iter_grids(n, ks):
    """The grid walk with one recursive call per row, before it kept a stack."""
    d = len(ks)
    strides = mixed_radix_strides(ks)
    rows = [(0,) * d]
    used = {0}

    def rec(r, tied, maxlab):
        if r == n:
            yield tuple(rows)
            return
        ranges = [range(min(m + 1, k - 1) + 1) for m, k in zip(maxlab, ks)]
        for vec in itertools.product(*ranges):
            for i in tied:
                if vec[i] > vec[i + 1]:
                    break
            else:
                code = sum(map(mul, vec, strides))
                if code in used:
                    continue
                used.add(code)
                rows.append(vec)
                yield from rec(
                    r + 1,
                    [i for i in tied if vec[i] == vec[i + 1]],
                    tuple(map(max, maxlab, vec)),
                )
                rows.pop()
                used.discard(code)

    yield from rec(1, [i for i in range(d - 1) if ks[i] == ks[i + 1]], (0,) * d)


class TestGridOracle:
    """The grid walk yields what its recursive and its over-pruned versions yielded."""

    def test_stack_walk_matches_the_recursive_walk(self):
        for n in range(1, 11):
            for ks in factor_size_multisets(n):
                for new, old in itertools.zip_longest(
                    _iter_grids(n, ks), _recursive_iter_grids(n, ks)
                ):
                    assert new == old

    def test_enumeration_matches_the_old_walk(self):
        for n in range(1, 11):
            ground = GroundSet(n)
            full = tuple(range(n))
            expected = [
                tuple(
                    sorted(
                        (Partition(ground, full, c) for c in zip(*rows)),
                        key=lambda p: p.key,
                    )
                )
                for ks in factor_size_multisets(n)
                for rows in _old_iter_grids(n, ks)
            ]
            assert [fs.factors for fs in enumerate_factorizations(n)] == expected

    @pytest.mark.slow
    def test_size_twelve_grids_match_the_old_walk(self):
        for ks in factor_size_multisets(12):
            for new, old in itertools.zip_longest(
                _iter_grids(12, ks), _old_iter_grids(12, ks)
            ):
                assert new == old


class TestFactorSizeMultisets:
    def test_matches_the_loop_over_every_divisor(self):
        def every_divisor(n):
            out = []

            def rec(remaining, minimum, acc):
                if remaining == 1:
                    out.append(acc)
                    return
                for k in range(minimum, remaining + 1):
                    if remaining % k == 0:
                        rec(remaining // k, k, acc + (k,))

            rec(n, 2, ())
            return out

        for n in range(-2, 3000):
            assert factor_size_multisets(n) == every_divisor(n)
