import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factoredsets import (
    FactoredDistribution,
    FactoredSet,
    FundamentalTheoremReport,
    GroundSet,
    Partition,
    ValidationError,
    characteristic_polynomial,
    cond_orth_by_divisibility,
    cond_orthogonal,
    conditional_independence_holds,
    enumerate_factorizations,
    fundamental_theorem_check,
    is_distribution_on_factored_set,
    iter_partitions,
    prob,
    random_distribution,
    trivial_factorization,
)
from factoredsets import polynomial
from conftest import mixed_random_partition, random_factored_set, random_subset

H = Fraction(1, 2)


class TestFactoredDistribution:
    def test_weights_must_sum_to_one(self, ex1):
        with pytest.raises(ValidationError, match="^factor 1 weights must sum to 1$"):
            FactoredDistribution(ex1.fs, ((H, H), (H, Fraction(1, 3))))
        with pytest.raises(ValidationError, match="^factor 0 weights must sum to 1$"):
            FactoredDistribution(ex1.fs, ((Fraction(1, 6), Fraction(3, 4)), (H, H)))

    def test_weights_must_be_nonnegative(self, ex1):
        with pytest.raises(ValidationError, match="^factor 1 has a negative weight$"):
            FactoredDistribution(ex1.fs, ((H, H), (Fraction(3, 2), Fraction(-1, 2))))

    def test_shape_must_match(self, ex1):
        with pytest.raises(ValidationError):
            FactoredDistribution(ex1.fs, ((H, H),))

    def test_int_and_str_weights_are_coerced(self, ex1):
        dist = FactoredDistribution(ex1.fs, ((1, 0), ("1/3", "2/3")))
        assert dist.weights == ((1, 0), (Fraction(1, 3), Fraction(2, 3)))
        assert all(type(w) is Fraction for row in dist.weights for w in row)

    def test_induced_table_is_a_product_distribution(self, ex1):
        dist = FactoredDistribution(
            ex1.fs, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4)))
        )
        assert is_distribution_on_factored_set(ex1.fs, dist.as_table())


class TestProb:
    def test_whole_space(self, ex1):
        dist = FactoredDistribution.uniform(ex1.fs)
        assert prob(ex1.fs, dist, range(4)) == 1

    def test_empty_event(self, ex1):
        dist = FactoredDistribution.uniform(ex1.fs)
        assert prob(ex1.fs, dist, ()) == 0

    def test_single_cell(self, ex1):
        dist = FactoredDistribution.uniform(ex1.fs)
        cell = ex1.X.block_sets[0] & ex1.V.block_sets[0]
        assert prob(ex1.fs, dist, cell) == Fraction(1, 4)

    @pytest.mark.parametrize("bad", [-1, -4, 4, 99])
    def test_element_indices_out_of_range(self, ex1, bad):
        # Python indexing would count element 3 twice in [-1, 3], giving 1/2.
        dist = FactoredDistribution.uniform(ex1.fs)
        message = f"^element index {bad} out of range 0..3$"
        with pytest.raises(ValidationError, match=message):
            dist.point_mass(bad)
        with pytest.raises(ValidationError, match=message):
            prob(ex1.fs, dist, [bad, 3])

    def test_additive_and_matches_polynomial_evaluation(self):
        rng = random.Random(47)
        for _ in range(60):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            dist = random_distribution(fs, rng)
            e = random_subset(rng, fs.size)
            f = random_subset(rng, fs.size) - e
            assert prob(fs, dist, e | f) == prob(fs, dist, e) + prob(fs, dist, f)
            q = characteristic_polynomial(fs, e)
            assert prob(fs, dist, e) == q.evaluate(dist.as_assignment())


class TestIsDistributionOnFactoredSet:
    def test_point_mass_is_always_factored(self):
        rng = random.Random(53)
        for _ in range(40):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            table = [Fraction(0)] * fs.size
            table[rng.randrange(fs.size)] = Fraction(1)
            assert is_distribution_on_factored_set(fs, table)

    def test_correlated_bits_fail_on_the_bitwise_factorization(self):
        # Mass only on 00 and 11: the two bit marginals are fair coins, so
        # the product predicts 1/4 per cell, not 1/2.
        g = GroundSet(4)
        fs = FactoredSet(
            g,
            [
                Partition.from_blocks(g, [[0, 1], [2, 3]]),
                Partition.from_blocks(g, [[0, 2], [1, 3]]),
            ],
        )
        table = (H, Fraction(0), Fraction(0), H)
        assert not is_distribution_on_factored_set(fs, table)

    def test_correlated_bits_pass_on_the_parity_factorization(self, ex1):
        # The same table is the product of a fair first bit with a
        # deterministic "bits agree" factor, so it is factored here.
        table = (H, Fraction(0), Fraction(0), H)
        assert prob(ex1.fs, FactoredDistribution(
            ex1.fs, ((H, H), (Fraction(1), Fraction(0)))
        ), {0, 3}) == 1
        assert is_distribution_on_factored_set(ex1.fs, table)

    def test_unnormalized_or_negative_tables_fail(self, ex1):
        assert not is_distribution_on_factored_set(
            ex1.fs, (H, H, H, H)
        )
        assert not is_distribution_on_factored_set(
            ex1.fs, (Fraction(3, 2), Fraction(-1, 2), Fraction(0), Fraction(0))
        )

    @pytest.mark.parametrize(
        "table",
        [
            [Fraction(1, 4)] * 4 + [Fraction(0)],
            {**dict.fromkeys(range(4), Fraction(1, 4)), 7: 0},
            [Fraction(1, 3)] * 3,
            {0: H, 1: Fraction(0), 3: H},
        ],
        ids=["five-entries", "extra-key", "three-entries", "missing-key"],
    )
    def test_tables_for_another_set_are_refused(self, ex1, table):
        message = "^expected one point mass per element, 4 in all$"
        with pytest.raises(ValidationError, match=message):
            is_distribution_on_factored_set(ex1.fs, table)


# The per-element product loops that ``_masses`` replaced, kept as oracles.


def _loop_point_mass(dist, s):
    mass = Fraction(1)
    for j, b in enumerate(dist.fs.coords[dist.fs.ground.check_index(s)]):
        mass *= dist.weights[j][b]
    return mass


def _loop_as_table(dist):
    return tuple(_loop_point_mass(dist, s) for s in range(dist.fs.size))


def _loop_uniform(fs):
    return FactoredDistribution(
        fs, tuple((Fraction(1, p.block_count),) * p.block_count for p in fs.factors)
    )


def _loop_is_distribution(fs, table):
    masses = [Fraction(table[s]) for s in range(fs.size)]
    if any(m < 0 for m in masses):
        return False
    if sum(masses, Fraction(0)) != 1:
        return False
    block_prob = [
        [sum((masses[e] for e in blk), Fraction(0)) for blk in p.block_sets]
        for p in fs.factors
    ]
    for s in range(fs.size):
        product = Fraction(1)
        for j, b in enumerate(fs.coords[s]):
            product *= block_prob[j][b]
        if product != masses[s]:
            return False
    return True


SMALL_FACTORIZATIONS = [fs for n in range(1, 7) for fs in enumerate_factorizations(n)]


def _distributions(fs, rng):
    """Uniform, three seeded draws, and three kinds of rows with zeros."""
    yield FactoredDistribution.uniform(fs)
    for _ in range(3):
        yield random_distribution(fs, rng)
    ks = [p.block_count for p in fs.factors]
    yield FactoredDistribution(fs, tuple((1,) + (0,) * (k - 1) for k in ks))
    yield FactoredDistribution(fs, tuple((0,) * (k - 1) + (1,) for k in ks))
    yield FactoredDistribution(
        fs, tuple(tuple(Fraction(2 * b, k * (k - 1)) for b in range(k)) for k in ks)
    )


def _perturbed(table, other, rng):
    """The table, edits of it that may leave the product form, and a mixture."""
    yield table
    yield dict(enumerate(table))
    yield tuple(2 * m for m in table)
    if len(table) > 1:
        i, j = rng.sample(range(len(table)), 2)
        swapped = list(table)
        swapped[i], swapped[j] = table[j], table[i]
        yield swapped
        moved = list(table)
        step = Fraction(1, rng.randint(2, 50))
        moved[i] += step
        moved[j] -= step
        yield moved
    yield [(a + b) / 2 for a, b in zip(table, other)]


class TestMassesAgainstTheLoops:
    def test_point_masses_tables_and_uniform(self):
        rng = random.Random(101)
        for fs in SMALL_FACTORIZATIONS:
            assert FactoredDistribution.uniform(fs) == _loop_uniform(fs)
            for dist in _distributions(fs, rng):
                table = dist.as_table()
                assert table == _loop_as_table(dist)
                assert all(type(m) is Fraction for m in table)
                for s in range(fs.size):
                    mass = dist.point_mass(s)
                    assert type(mass) is Fraction
                    assert mass == _loop_point_mass(dist, s)
                assert is_distribution_on_factored_set(fs, table)

    def test_dimension_zero(self):
        fs = trivial_factorization(GroundSet(1))
        dist = FactoredDistribution.uniform(fs)
        assert fs.dim == 0 and dist == _loop_uniform(fs)
        assert dist.as_table() == (Fraction(1),) == _loop_as_table(dist)
        assert type(dist.as_table()[0]) is Fraction
        assert type(dist.point_mass(0)) is Fraction

    def test_perturbed_tables_get_the_loop_verdict(self):
        rng = random.Random(103)
        verdicts = {True: 0, False: 0}
        for fs in SMALL_FACTORIZATIONS:
            dists = list(_distributions(fs, rng))
            for dist in dists:
                other = rng.choice(dists).as_table()
                for table in _perturbed(dist.as_table(), other, rng):
                    got = is_distribution_on_factored_set(fs, table)
                    assert got == _loop_is_distribution(fs, table)
                    verdicts[got] += 1
        assert min(verdicts.values()) > 100


def _table_independence(dist, x, y, z):
    """P(x&z) P(y&z) == P(x&y&z) P(z) for every block triple, from the joint table."""
    table = dist.as_table()

    def p(event):
        return sum((table[s] for s in event), Fraction(0))

    return all(
        p(xb & zb) * p(yb & zb) == p(xb & yb & zb) * p(zb)
        for zb in z.block_sets
        for xb in x.block_sets
        for yb in y.block_sets
    )


class TestConditionalIndependence:
    def test_matches_table_sums_on_every_triple_of_the_square(self, ex1):
        parts = list(iter_partitions(ex1.fs.ground))
        skewed = FactoredDistribution(
            ex1.fs,
            ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4))),
        )
        for dist in (FactoredDistribution.uniform(ex1.fs), skewed):
            verdicts = set()
            for x, y, z in itertools.product(parts, repeat=3):
                got = conditional_independence_holds(ex1.fs, dist, x, y, z)
                assert got == _table_independence(dist, x, y, z)
                verdicts.add(got)
            assert verdicts == {True, False}

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_matches_table_sums_on_hand_built_weights(self, seed, data):
        # Rows with mixed denominators and zero weights, so the per-row
        # scales differ and some point masses vanish.
        rng = random.Random(seed)
        fs = random_factored_set(rng, min_n=1, max_n=8)
        rows = []
        for p in fs.factors:
            raw = data.draw(
                st.lists(
                    st.fractions(min_value=0, max_value=3, max_denominator=12),
                    min_size=p.block_count,
                    max_size=p.block_count,
                ).filter(any)
            )
            rows.append(tuple(w / sum(raw) for w in raw))
        dist = FactoredDistribution(fs, tuple(rows))
        x, y, z = (mixed_random_partition(rng, fs) for _ in range(3))
        assert conditional_independence_holds(fs, dist, x, y, z) == (
            _table_independence(dist, x, y, z)
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_table_sums_on_random_sets(self, seed):
        rng = random.Random(seed)
        fs = random_factored_set(rng, min_n=1, max_n=8)
        dist = random_distribution(fs, rng, max_weight=rng.choice((1, 3, 97)))
        x, y, z = (mixed_random_partition(rng, fs) for _ in range(3))
        assert conditional_independence_holds(fs, dist, x, y, z) == (
            _table_independence(dist, x, y, z)
        )

    def test_distribution_of_another_set_is_refused(self, ex1):
        # Same ground set, one factor instead of two: the rows do not fit.
        other = FactoredDistribution.uniform(trivial_factorization(ex1.fs.ground))
        ind = Partition.indiscrete(ex1.fs.ground)
        with pytest.raises(ValidationError, match="different factored set"):
            conditional_independence_holds(ex1.fs, other, ex1.X, ex1.V, ind)
        with pytest.raises(ValidationError, match="different factored set"):
            prob(ex1.fs, other, [0])

    def test_discrete_conditioning_is_always_independent(self):
        rng = random.Random(59)
        for _ in range(40):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            dist = random_distribution(fs, rng)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            assert conditional_independence_holds(
                fs, dist, x, y, Partition.discrete(fs.ground)
            )

    def test_orthogonal_pair_under_uniform(self, ex1):
        dist = FactoredDistribution.uniform(ex1.fs)
        ind = Partition.indiscrete(ex1.fs.ground)
        assert conditional_independence_holds(ex1.fs, dist, ex1.X, ex1.V, ind)

    def test_xor_pair_is_independent_under_uniform_but_not_skewed(self, ex1):
        # Y reads both factors, yet the uniform distribution makes it
        # pairwise independent of V; a skewed distribution breaks that,
        # which is exactly why one distribution never certifies
        # orthogonality.
        ind = Partition.indiscrete(ex1.fs.ground)
        assert not cond_orthogonal(ex1.fs, ex1.Y, ex1.V, ind)
        uniform = FactoredDistribution.uniform(ex1.fs)
        assert conditional_independence_holds(ex1.fs, uniform, ex1.Y, ex1.V, ind)
        skewed = FactoredDistribution(
            ex1.fs,
            ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4))),
        )
        assert not conditional_independence_holds(
            ex1.fs, skewed, ex1.Y, ex1.V, ind
        )


class TestFundamentalTheoremCheck:
    def test_orthogonal_triple(self, ex1):
        ind = Partition.indiscrete(ex1.fs.ground)
        report = fundamental_theorem_check(ex1.fs, ex1.X, ex1.V, ind, trials=10)
        assert report.orthogonal
        assert report.polynomial_identity
        assert report.independent_trials == report.trials
        assert report.verdicts_agree

    def test_entangled_triple_has_a_witness(self, ex1):
        ind = Partition.indiscrete(ex1.fs.ground)
        report = fundamental_theorem_check(ex1.fs, ex1.V, ex1.V, ind, trials=10)
        assert not report.orthogonal
        assert not report.polynomial_identity
        assert report.witness_found
        assert report.verdicts_agree
        assert not conditional_independence_holds(
            ex1.fs, report.witness, ex1.V, ex1.V, ind
        )

    def test_discrete_conditioning_trivial(self, ex1):
        report = fundamental_theorem_check(
            ex1.fs, ex1.Y, ex1.V, Partition.discrete(ex1.fs.ground), trials=5
        )
        assert report.orthogonal
        assert report.independent_trials == report.trials

    def test_seeded_determinism(self, ex1):
        ind = Partition.indiscrete(ex1.fs.ground)
        a = fundamental_theorem_check(ex1.fs, ex1.V, ex1.V, ind, trials=5, seed=99)
        b = fundamental_theorem_check(ex1.fs, ex1.V, ex1.V, ind, trials=5, seed=99)
        assert a.witness.weights == b.witness.weights

    @pytest.mark.parametrize("trials", [2.0, "2", None])
    def test_trials_must_be_an_integer(self, ex1, trials):
        ind = Partition.indiscrete(ex1.fs.ground)
        with pytest.raises(ValidationError) as caught:
            fundamental_theorem_check(ex1.fs, ex1.V, ex1.V, ind, trials=trials)
        assert str(caught.value) == f"trials {trials!r} is not an integer"

    @pytest.mark.parametrize("trials", [0, -2])
    def test_at_least_one_trial_is_required(self, ex1, trials):
        ind = Partition.indiscrete(ex1.fs.ground)
        with pytest.raises(ValidationError, match="^at least one trial is required$"):
            fundamental_theorem_check(ex1.fs, ex1.V, ex1.V, ind, trials=trials)

    def test_repr_leaves_out_a_witness_too_long_to_print(self):
        # One factor of 48 blocks: the generic weights reach about 25,000
        # bits, past the digits ``int`` prints by default.
        fs = trivial_factorization(GroundSet(48))
        discrete = Partition.discrete(fs.ground)
        ind = Partition.indiscrete(fs.ground)
        report = fundamental_theorem_check(fs, discrete, discrete, ind, trials=1)
        assert report.witness_found
        assert max(w.numerator for w in report.witness.weights[0]).bit_length() > 20000
        text = repr(report)
        assert "witness" not in text
        assert text.startswith("FundamentalTheoremReport(orthogonal=False, ")

    def test_witness_repr_shows_its_shape_at_size_48(self, ex1):
        fs = trivial_factorization(GroundSet(48))
        discrete = Partition.discrete(fs.ground)
        ind = Partition.indiscrete(fs.ground)
        report = fundamental_theorem_check(fs, discrete, discrete, ind, trials=1)
        assert repr(report.witness) == "FactoredDistribution(n=48, block_counts=(48,))"
        assert repr(FactoredDistribution.uniform(ex1.fs)) == (
            "FactoredDistribution(n=4, block_counts=(2, 2))"
        )


class _NoDraws(random.Random):
    """A generator that fails the test on its first draw."""

    def getrandbits(self, k):
        raise AssertionError("drew before the bound was checked")


class TestMaxWeightIsCheckedBeforeAnyDraw:
    # A max_weight of 0 would redraw forever: ``getrandbits(0)`` is 0.  The
    # generator here refuses every draw, so no case can loop.  The check is
    # ``random_distribution``'s: the per-trial draws take only the constant.

    @pytest.mark.parametrize("max_weight", [0, -3])
    def test_below_one_is_refused(self, ex1, max_weight):
        with pytest.raises(ValidationError, match="at least 1"):
            random_distribution(ex1.fs, _NoDraws(1), max_weight)

    @pytest.mark.parametrize("max_weight", [97.0, "97", None])
    def test_non_integers_are_refused(self, ex1, max_weight):
        with pytest.raises(ValidationError) as caught:
            random_distribution(ex1.fs, _NoDraws(1), max_weight)
        assert str(caught.value) == f"max_weight {max_weight!r} is not an integer"


def _generic_distribution(fs):
    """The generic point's rows, each divided by its total in Fractions."""
    rows = polynomial._generic_rows([p.block_count for p in fs.factors], fs.size + 1)
    return FactoredDistribution(
        fs, tuple(tuple(Fraction(w, sum(row)) for w in row) for row in rows)
    )


class TestGenericWitness:
    @pytest.fixture(scope="class")
    def sweep(self):
        """Every triple of sizes 2-4 with its report, one trial each."""
        rng = random.Random(101)
        out = []
        for n in (2, 3, 4):
            for fs in enumerate_factorizations(n):
                parts = list(iter_partitions(fs.ground))
                for x, y, z in itertools.product(parts, repeat=3):
                    report = fundamental_theorem_check(
                        fs, x, y, z, trials=1, seed=rng.randrange(1 << 30)
                    )
                    out.append((fs, x, y, z, report))
        return out

    def test_exists_exactly_when_the_identity_fails(self, sweep):
        assert len(sweep) == 13633
        for _, _, _, _, report in sweep:
            assert report.witness_found is not report.polynomial_identity
        assert sum(r.witness_found for *_, r in sweep) == 13633 - 5895

    def test_violates_independence(self, sweep):
        for fs, x, y, z, report in sweep:
            if report.witness_found:
                assert not conditional_independence_holds(fs, report.witness, x, y, z)

    def test_one_generic_object_per_set(self, sweep):
        witness = {}
        for fs, _, _, _, report in sweep:
            if report.witness_found:
                assert witness.setdefault(fs, report.witness) is report.witness
        assert len(witness) == sum(
            1 for n in (2, 3, 4) for _ in enumerate_factorizations(n)
        )
        for fs, w in witness.items():
            assert w == _generic_distribution(fs)


# -- the Fraction reference for the sampled trials ----------------------------
#
# The trial loop as it was before independence was decided on integer-scaled
# weights: normalized Fraction weights, Fraction point masses, Fraction sums.


def _reference_random_distribution(fs, rng, max_weight=97):
    # ``randint`` itself: ``_draw_rows`` reproduces its stream with ``getrandbits``.
    rows = []
    for p in fs.factors:
        raw = [rng.randint(1, max_weight) for _ in range(p.block_count)]
        total = sum(raw)
        rows.append(tuple(Fraction(w, total) for w in raw))
    return FactoredDistribution(fs, tuple(rows))


def _reference_independence(fs, dist, x, y, z):
    def p(event):
        total = Fraction(0)
        for s in event:
            mass = Fraction(1)
            for j, b in enumerate(fs.coords[s]):
                mass *= dist.weights[j][b]
            total += mass
        return total

    return all(
        p(xb & zb) * p(yb & zb) == p(xb & yb & zb) * p(zb)
        for zb in z.block_sets
        for xb in x.block_sets
        for yb in y.block_sets
    )


def _reference_check(fs, x, y, z, trials, seed):
    """The report expected: Fraction trials, the generic distribution as witness.

    The first failing trial, the witness before the generic one, exists
    exactly when some trial was not independent.
    """
    rng = random.Random(seed)
    independent = 0
    first_failing = None
    for _ in range(trials):
        dist = _reference_random_distribution(fs, rng)
        if _reference_independence(fs, dist, x, y, z):
            independent += 1
        elif first_failing is None:
            first_failing = dist
    assert (first_failing is not None) == (independent < trials)
    poly_ok = cond_orth_by_divisibility(fs, x, y, z)
    return FundamentalTheoremReport(
        orthogonal=cond_orthogonal(fs, x, y, z),
        polynomial_identity=poly_ok,
        trials=trials,
        independent_trials=independent,
        witness=None if poly_ok else _generic_distribution(fs),
        seed=seed,
    )


class TestIntegerRouteAgainstFractionReference:
    TRIALS = 3

    def assert_same_reports(self, fs, triples, rng):
        witnesses = 0
        for x, y, z in triples:
            seed = rng.randrange(1 << 30)
            got = fundamental_theorem_check(fs, x, y, z, trials=self.TRIALS, seed=seed)
            assert got == _reference_check(fs, x, y, z, self.TRIALS, seed)
            witnesses += got.witness is not None
        return witnesses

    def test_every_triple_of_sizes_2_and_3(self):
        rng = random.Random(83)
        witnesses = 0
        for n in (2, 3):
            for fs in enumerate_factorizations(n):
                parts = list(iter_partitions(fs.ground))
                witnesses += self.assert_same_reports(
                    fs, itertools.product(parts, repeat=3), rng
                )
        assert witnesses > 0

    def test_sampled_size_4_triples(self):
        rng = random.Random(89)
        witnesses = 0
        for fs in enumerate_factorizations(4):
            parts = list(iter_partitions(fs.ground))
            triples = rng.sample(list(itertools.product(parts, repeat=3)), 500)
            witnesses += self.assert_same_reports(fs, triples, rng)
        assert witnesses > 0

    def test_random_distribution_is_the_reference_draw(self):
        # Powers of two and their neighbours: where ``getrandbits`` needs one
        # bit more, and where it rejects the most.
        for max_weight in (1, 2, 63, 64, 65, 97, 128, 1000):
            rng = random.Random(97)
            for _ in range(40):
                fs = random_factored_set(rng, min_n=1, max_n=12)
                seed = rng.randrange(1 << 30)
                got = random_distribution(fs, random.Random(seed), max_weight)
                expected = _reference_random_distribution(
                    fs, random.Random(seed), max_weight
                )
                assert got == expected, max_weight
