import random
from fractions import Fraction

import pytest

from factoredsets import (
    SetPolynomial,
    ValidationError,
    characteristic_polynomial,
    cond_orth_by_divisibility,
    cond_orthogonal,
    enumerate_factorizations,
    format_polynomial,
    irreducible_components,
    iter_partitions,
    restricted_polynomial,
)
from factoredsets.factored import iter_bits
from conftest import mixed_random_partition, random_factored_set, random_subset


def var(fs, factor, block):
    j = fs.factors.index(factor)
    return (j, block)


class TestConstruction:
    def test_empty_event_is_zero(self, ex1):
        assert restricted_polynomial(ex1.fs, ex1.fs.full_mask, ()).is_zero

    def test_singleton_event_is_one_monomial(self, ex1):
        fs = ex1.fs
        poly = characteristic_polynomial(fs, {0})
        x0 = var(fs, ex1.X, ex1.X.block_of[0])
        v0 = var(fs, ex1.V, ex1.V.block_of[0])
        assert poly.terms == {tuple(sorted((x0, v0))): Fraction(1)}

    def test_single_factor_view_of_everything(self, ex1):
        fs = ex1.fs
        mask = 1 << fs.factors.index(ex1.X)
        poly = restricted_polynomial(fs, mask, range(4))
        j = fs.factors.index(ex1.X)
        assert poly.terms == {((j, 0),): Fraction(1), ((j, 1),): Fraction(1)}

    def test_empty_mask_gives_the_constant_one(self, ex1):
        assert restricted_polynomial(ex1.fs, 0, {1, 2}) == SetPolynomial.one()

    @pytest.mark.parametrize("bad", [-1, -4, 4, 99])
    def test_element_indices_out_of_range(self, ex1, bad):
        # Python indexing would give -1 the polynomial of element 3.
        fs = ex1.fs
        message = f"^element index {bad} out of range 0..3$"
        with pytest.raises(ValidationError, match=message):
            characteristic_polynomial(fs, [bad])
        with pytest.raises(ValidationError, match=message):
            restricted_polynomial(fs, 1, [0, bad])
        with pytest.raises(ValidationError, match=message):
            restricted_polynomial(fs, 0, [bad])

    def test_monomials_are_multilinear(self):
        rng = random.Random(23)
        for _ in range(50):
            fs = random_factored_set(rng)
            poly = characteristic_polynomial(fs, random_subset(rng, fs.size))
            for mono in poly.terms:
                assert len(set(mono)) == len(mono)


class TestRingOperations:
    def test_multiplying_by_zero(self, ex1):
        q = characteristic_polynomial(ex1.fs, range(4))
        assert (q * SetPolynomial.zero()).is_zero
        assert (q * 0).is_zero

    def test_factor_marginals_multiply_to_the_full_polynomial(self, ex1):
        fs = ex1.fs
        mx = 1 << fs.factors.index(ex1.X)
        mv = 1 << fs.factors.index(ex1.V)
        px = restricted_polynomial(fs, mx, range(4))
        pv = restricted_polynomial(fs, mv, range(4))
        assert px * pv == characteristic_polynomial(fs, range(4))

    def test_evaluation_at_uniform_weights_is_one(self, ex1):
        fs = ex1.fs
        q = characteristic_polynomial(fs, range(4))
        assignment = {(j, b): Fraction(1, 2) for j in range(2) for b in range(2)}
        assert q.evaluate(assignment) == 1

    def test_evaluation_requires_every_variable(self, ex1):
        q = characteristic_polynomial(ex1.fs, {0})
        with pytest.raises(ValidationError):
            q.evaluate({})

    def test_addition_cancels(self, ex1):
        q = characteristic_polynomial(ex1.fs, {0, 3})
        assert (q - q).is_zero

    def test_equality_is_canonical(self, ex1):
        fs = ex1.fs
        a = characteristic_polynomial(fs, {0, 1})
        b = characteristic_polynomial(fs, {1, 0})
        assert a == b


class TestSpliceProductLaw:
    def test_random_instances(self):
        # For disjoint masks, splicing two events multiplies their polynomials.
        rng = random.Random(29)
        for _ in range(120):
            fs = random_factored_set(rng, max_n=8)
            c0 = rng.randrange(1 << fs.dim)
            c1 = rng.randrange(1 << fs.dim) & ~c0
            e0 = random_subset(rng, fs.size, nonempty=True)
            e1 = random_subset(rng, fs.size, nonempty=True)
            if fs.size == 0:
                continue
            e2 = fs.chimera_set(c0, e0, e1)
            lhs = restricted_polynomial(fs, c0 | c1, e2)
            rhs = restricted_polynomial(fs, c0, e0) * restricted_polynomial(
                fs, c1, e1
            )
            assert lhs == rhs


class TestIrreducibleComponents:
    def test_whole_set_splits_into_singletons(self):
        rng = random.Random(31)
        for _ in range(30):
            fs = random_factored_set(rng, min_n=1)
            decomp = irreducible_components(fs, range(fs.size))
            assert set(decomp.components) == {1 << j for j in range(fs.dim)}

    def test_block_event_splits_into_both_factors(self, ex1):
        fs = ex1.fs
        block = set(ex1.X.block_sets[0])
        decomp = irreducible_components(fs, block)
        assert set(decomp.components) == {1, 2}
        jx = fs.factors.index(ex1.X)
        jv = fs.factors.index(ex1.V)
        by_mask = dict(zip(decomp.components, decomp.factors))
        assert by_mask[1 << jx].terms == {((jx, 0),): Fraction(1)}
        assert by_mask[1 << jv].terms == {
            ((jv, 0),): Fraction(1),
            ((jv, 1),): Fraction(1),
        }

    def test_entangling_event_is_irreducible(self, ex1):
        decomp = irreducible_components(ex1.fs, {0, 1, 2})
        assert decomp.components == (3,)

    def test_event_may_be_a_one_shot_iterator(self, ex1):
        event = {0, 1}
        decomp = irreducible_components(ex1.fs, iter(event))
        assert decomp == irreducible_components(ex1.fs, event)
        assert decomp.product() == characteristic_polynomial(ex1.fs, event)

    def test_empty_event_rejected(self, ex1):
        with pytest.raises(ValidationError):
            irreducible_components(ex1.fs, ())

    def test_product_recovers_the_characteristic_polynomial(self):
        rng = random.Random(37)
        for _ in range(80):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            if fs.size == 0:
                continue
            event = random_subset(rng, fs.size, nonempty=True)
            decomp = irreducible_components(fs, event)
            assert decomp.product() == characteristic_polynomial(fs, event)
            covered = 0
            for mask in decomp.components:
                assert mask and not (covered & mask)
                covered |= mask
            assert covered == fs.full_mask

    def test_component_factors_admit_no_split(self):
        # Splitting an irreducible factor along any bipartition of its
        # component changes the polynomial.
        rng = random.Random(41)
        for _ in range(40):
            fs = random_factored_set(rng, min_n=2, max_n=8)
            event = random_subset(rng, fs.size, nonempty=True)
            decomp = irreducible_components(fs, event)
            for mask, factor in zip(decomp.components, decomp.factors):
                bits = list(iter_bits(mask))
                for pick in range(1, 1 << (len(bits) - 1)):
                    sub = 0
                    for i, j in enumerate(bits):
                        if pick >> i & 1:
                            sub |= 1 << j
                    split = restricted_polynomial(fs, sub, event) * (
                        restricted_polynomial(fs, mask & ~sub, event)
                    )
                    assert split != factor


class TestDivisibilityRoute:
    def test_two_bit_examples(self, ex1):
        fs = ex1.fs
        ind = ex1.file.resolve("_")
        assert cond_orth_by_divisibility(fs, ex1.X, ex1.V, ind)
        assert not cond_orth_by_divisibility(fs, ex1.V, ex1.V, ind)

    def test_indiscrete_first_argument_always_passes(self):
        rng = random.Random(43)
        from factoredsets import Partition

        for _ in range(40):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            y = mixed_random_partition(rng, fs)
            z = mixed_random_partition(rng, fs)
            assert cond_orth_by_divisibility(
                fs, Partition.indiscrete(fs.ground), y, z
            )

    def test_agrees_with_history_route_on_all_square_triples(self):
        for fs in enumerate_factorizations(4):
            parts = list(iter_partitions(fs.ground))
            for x in parts:
                for y in parts:
                    for z in parts:
                        assert cond_orth_by_divisibility(
                            fs, x, y, z
                        ) == cond_orthogonal(fs, x, y, z)


class TestRendering:
    def test_sorted_terms_with_names(self, ex1):
        fs = ex1.fs
        q = characteristic_polynomial(fs, range(4))
        text = format_polynomial(q, ex1.file.factor_names)
        assert text == "X.0*V.0 + X.0*V.1 + X.1*V.0 + X.1*V.1"

    def test_zero_and_constant(self):
        assert format_polynomial(SetPolynomial.zero()) == "0"
        assert format_polynomial(SetPolynomial.one() * 3) == "3"
        assert format_polynomial(SetPolynomial.one() * Fraction(2, 3)) == "2/3"
