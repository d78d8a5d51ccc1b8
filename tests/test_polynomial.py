import math
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
    grid_factored_set,
    irreducible_components,
    iter_partitions,
    restricted_polynomial,
)
from factoredsets import structure
from factoredsets.factored import iter_bits
from conftest import (
    event_block_triple_identity,
    mixed_random_partition,
    random_factored_set,
    random_subset,
)


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


class TestConstructorExactness:
    MONO = ((0, 1),)

    @pytest.mark.parametrize(
        "coeff, exact",
        [(0.5, Fraction(1, 2)), ("2/3", Fraction(2, 3)), (Fraction(2, 4), Fraction(1, 2))],
    )
    def test_non_integers_become_exact_fractions(self, coeff, exact):
        terms = SetPolynomial({self.MONO: coeff}).terms
        assert terms == {self.MONO: exact}
        assert type(terms[self.MONO]) is Fraction

    def test_integers_stay_integers(self):
        terms = SetPolynomial({self.MONO: 3, (): 0}).terms
        assert terms == {self.MONO: 3} and type(terms[self.MONO]) is int

    def test_booleans_are_numbers_not_names(self):
        assert format_polynomial(SetPolynomial({(): True})) == "1"
        assert SetPolynomial({self.MONO: False}).is_zero

    def test_fraction_scaling_is_exact(self):
        q = SetPolynomial({self.MONO: 3}) * Fraction(2, 3)
        assert q.terms == {self.MONO: 2}
        assert format_polynomial(q * Fraction(1, 4)) == "1/2*b0.1"

    def test_scalar_products_convert_as_the_constructor_does(self):
        half = SetPolynomial({(): Fraction(1, 2)})
        assert SetPolynomial.one() * 0.5 == half
        assert 0.5 * SetPolynomial.one() == half
        with pytest.raises(TypeError):
            SetPolynomial.one() * None

    def test_evaluation_returns_a_fraction(self, ex1):
        q = characteristic_polynomial(ex1.fs, {0})
        value = q.evaluate({var: 1 for mono in q.terms for var in mono})
        assert value == 1 and type(value) is Fraction


class _FractionPolynomial:
    """The earlier SetPolynomial, which converted every coefficient to Fraction.

    Kept as the reference for the integer coefficients: construction, the
    product and equality, as they were.
    """

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(sorted(mono))] = coeff
        self.terms = clean

    def __eq__(self, other):
        return isinstance(other, _FractionPolynomial) and self.terms == other.terms

    def __mul__(self, other):
        out = {}
        for m0, c0 in self.terms.items():
            for m1, c1 in other.terms.items():
                mono = tuple(sorted(m0 + m1))
                s = out.get(mono, Fraction(0)) + c0 * c1
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        result = _FractionPolynomial()
        result.terms = out
        return result


def _reference_polynomial(fs, event):
    """Characteristic polynomial built from coordinates alone."""
    return _FractionPolynomial(
        {tuple((j, fs.coords[s][j]) for j in range(fs.dim)): 1 for s in event}
    )


def _reference_verdict(fs, x, y, z):
    return event_block_triple_identity(
        x, y, z, lambda e: _reference_polynomial(fs, e)
    )


class TestFractionReference:
    """Integer coefficients against the Fraction polynomials they replaced."""

    def test_products_agree_term_for_term(self):
        rng = random.Random(47)
        for _ in range(150):
            fs = random_factored_set(rng, min_n=1, max_n=12)
            e0, e1, e2 = (random_subset(rng, fs.size) for _ in range(3))
            p, q, r = (characteristic_polynomial(fs, e) for e in (e0, e1, e2))
            rp, rq, rr = (_reference_polynomial(fs, e) for e in (e0, e1, e2))
            assert (p.terms, q.terms) == (rp.terms, rq.terms)
            for got, want in [(p * q, rp * rq), (p * q * r, rp * rq * rr)]:
                assert got.terms == want.terms
                assert all(type(c) is int for c in got.terms.values())
            # Signed factors cancel terms, which the product must drop.
            diff, total = p - q, p + q
            got = diff * total
            want = _FractionPolynomial(diff.terms) * _FractionPolynomial(total.terms)
            assert got.terms == want.terms

    def test_verdicts_on_every_triple_of_sizes_two_and_three(self):
        for n in (2, 3):
            for fs in enumerate_factorizations(n):
                parts = list(iter_partitions(fs.ground))
                for x in parts:
                    for y in parts:
                        for z in parts:
                            assert cond_orth_by_divisibility(
                                fs, x, y, z
                            ) == _reference_verdict(fs, x, y, z)

    # The grids of the benchmark's queries workload, 2,000 triples in all.
    @pytest.mark.parametrize(
        "ks, count", [((2, 2, 3), 667), ((2, 2, 2, 2), 666), ((2, 3, 4), 667)]
    )
    def test_verdicts_on_seeded_grid_triples(self, ks, count):
        rng = random.Random(53)
        fs = grid_factored_set(math.prod(ks), ks)
        for _ in range(count):
            x, y, z = (mixed_random_partition(rng, fs) for _ in range(3))
            assert cond_orth_by_divisibility(fs, x, y, z) == _reference_verdict(
                fs, x, y, z
            )


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

    def test_reads_no_history(self, monkeypatch):
        calls = []
        real = structure._labeled_history

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(structure, "_labeled_history", spy)
        rng = random.Random(59)
        for _ in range(100):
            fs = random_factored_set(rng, min_n=1, max_n=12)
            x, y, z = (mixed_random_partition(rng, fs) for _ in range(3))
            cond_orth_by_divisibility(fs, x, y, z)
        assert not calls
        cond_orthogonal(fs, x, y, z)  # the spy does see the history route
        assert calls

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
