"""Exact product distributions and the orthogonality/independence bridge.

A distribution on a factored set assigns each factor a rational weight
vector; the mass of an element is the product of the weights of its blocks.
Conditional independence is the block-triple identity of ``partitions``
with the point masses as the element weights, so an event measures the sum
of its masses: a hard equality, never a tolerance check.  The identity is
homogeneous: scaling every point mass by one positive constant leaves its
verdict unchanged.  So the exact checks scale each factor's weight row to
integers (by the lcm of its denominators, or by the total of a raw integer
draw), and decide with integer masses alone; rational weights are what the
public API takes and returns.

``fundamental_theorem_check`` cross-examines one triple of partitions three
ways: the splice-based orthogonality verdict, the exact polynomial identity,
and sampled product distributions.  The polynomial identity is decided
exactly at one generic integer point, the same block-triple identity with
each element's characteristic monomial evaluated there as its mass (see
``polynomial.cond_orth_by_divisibility``).  Those masses are a product of
per-factor weights, so the point, normalized, is a distribution on the set,
and independence fails under it exactly when the polynomial identity fails.
It is the witness, exact and generic: one distribution per factored set that
violates independence for every dependent triple on the set.  The sampled
trials only corroborate: orthogonal triples must be independent under every
one of them, and a dependent triple that no trial catches is a sampling
miss, not a disagreement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .factored import FactoredSet
from .partitions import (
    Partition,
    ValidationError,
    as_integer,
    block_triple_identity,
    require_full,
)
from .polynomial import VarId, _generic_point, _masses, cond_orth_by_divisibility
from .structure import cond_orthogonal

DEFAULT_SEED = 1729
_WEIGHT_RANGE = 97

_IntRows = tuple[tuple[int, ...], ...]


def _scaled_row(row: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The row times the lcm of its denominators, and that lcm.

    The integers keep the row's ratios and signs; the row sums to one
    exactly when they sum to the lcm.
    """
    scale = math.lcm(*(w.denominator for w in row))
    return tuple(w.numerator * (scale // w.denominator) for w in row), scale


def check_weight_row(row: Sequence[Fraction], blocks: int, factor: object) -> None:
    """Refuse a row unless it is ``blocks`` nonnegative weights summing to one.

    ``factor`` names the factor in the error, by index or by a file's name.
    """
    if len(row) != blocks:
        raise ValidationError(f"factor {factor!r} needs one weight per block")
    scaled, scale = _scaled_row(row)
    if any(w < 0 for w in scaled):
        raise ValidationError(f"factor {factor!r} has a negative weight")
    if sum(scaled) != scale:
        raise ValidationError(f"factor {factor!r} weights must sum to 1")


@dataclass(frozen=True, slots=True)
class FactoredDistribution:
    """Per-factor block weights, nonnegative rationals summing to one."""

    fs: FactoredSet
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        fs = self.fs
        coerced = tuple(
            tuple(w if isinstance(w, Fraction) else Fraction(w) for w in row)
            for row in self.weights
        )
        object.__setattr__(self, "weights", coerced)
        if len(coerced) != fs.dim:
            raise ValidationError("one weight vector per factor is required")
        for j, row in enumerate(coerced):
            check_weight_row(row, fs.factors[j].block_count, j)

    def __repr__(self) -> str:
        # A generic witness's weights can run to thousands of digits, more
        # than ``int`` prints by default, so the repr shows only the shape.
        counts = tuple(map(len, self.weights))
        return f"FactoredDistribution(n={self.fs.size}, block_counts={counts})"

    @classmethod
    def uniform(cls, fs: FactoredSet) -> "FactoredDistribution":
        return _normalized(fs, tuple((1,) * p.block_count for p in fs.factors))

    def point_mass(self, s: int) -> Fraction:
        coord = self.fs.coords[self.fs.ground.check_index(s)]
        return Fraction(_masses(self.weights, [coord])[0])

    def as_assignment(self) -> dict[VarId, Fraction]:
        """Weights keyed by polynomial variable id."""
        return {
            (j, b): w
            for j, row in enumerate(self.weights)
            for b, w in enumerate(row)
        }

    def as_table(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, _masses(self.weights, self.fs.coords)))


def prob(fs: FactoredSet, dist: FactoredDistribution, elements: Iterable[int]) -> Fraction:
    """Probability of an event: the sum of its point masses."""
    if dist.fs != fs:
        raise ValidationError("distribution belongs to a different factored set")
    return sum((dist.point_mass(s) for s in set(elements)), Fraction(0))


def is_distribution_on_factored_set(
    fs: FactoredSet, table: Sequence[Fraction] | Mapping[int, Fraction]
) -> bool:
    """Whether raw point masses come from some product of factor distributions.

    Checks nonnegativity, total mass one, and that every point mass equals
    the product of its factor-block probabilities (block probability being
    the sum of the masses in the block).  A table must hold exactly one
    mass per element, keyed ``0..size-1`` if it is a mapping.
    """
    n = fs.size
    if len(table) != n or isinstance(table, Mapping) and table.keys() != set(range(n)):
        raise ValidationError(f"expected one point mass per element, {n} in all")
    masses = [Fraction(table[s]) for s in range(n)]
    if any(m < 0 for m in masses):
        return False
    if sum(masses, Fraction(0)) != 1:
        return False
    block_prob = [
        [sum((masses[e] for e in blk), Fraction(0)) for blk in p.block_sets]
        for p in fs.factors
    ]
    return _masses(block_prob, fs.coords) == masses


def conditional_independence_holds(
    fs: FactoredSet,
    dist: FactoredDistribution,
    x: Partition,
    y: Partition,
    z: Partition,
) -> bool:
    """Exact check of P(x&z) P(y&z) == P(x&y&z) P(z) over all block triples.

    Decided on integer-scaled weight rows, which scale every point mass by
    the same positive constant and so leave the homogeneous identity intact.
    """
    if dist.fs != fs:
        raise ValidationError("distribution belongs to a different factored set")
    require_full(fs.ground, x, y, z)
    rows = tuple(_scaled_row(row)[0] for row in dist.weights)
    return block_triple_identity(x, y, z, _masses(rows, fs.coords))


def _draw_rows(fs: FactoredSet, rng: random.Random, max_weight: int) -> _IntRows:
    """Uniform integers in ``[1, max_weight]``, factor by factor, block by block.

    Each draw is the rejection loop of ``random.Random.randint(1, max_weight)``
    on CPython 3.10-3.13: ``k = max_weight.bit_length()`` random bits, drawn
    again while they reach ``max_weight``, plus one.  So the stream is the
    same as ``randint``'s, without ``randrange``'s per-call argument checks,
    for any generator whose ``randint`` goes through ``getrandbits``.  The
    caller checks that ``max_weight`` is an int of at least 1: a
    ``max_weight`` of 0 would never leave the loop.
    """
    bits = rng.getrandbits
    k = max_weight.bit_length()
    rows = []
    for p in fs.factors:
        row = []
        for _ in range(p.block_count):
            r = bits(k)
            while r >= max_weight:
                r = bits(k)
            row.append(r + 1)
        rows.append(tuple(row))
    return tuple(rows)


def _normalized(fs: FactoredSet, rows: _IntRows) -> FactoredDistribution:
    """Each integer row divided by its total."""
    weights = []
    for row in rows:
        total = sum(row)
        weights.append(tuple(Fraction(w, total) for w in row))
    return FactoredDistribution(fs, tuple(weights))


def random_distribution(
    fs: FactoredSet, rng: random.Random, max_weight: int = _WEIGHT_RANGE
) -> FactoredDistribution:
    """Strictly positive weights: normalized uniform integers in ``[1, max_weight]``.

    Strict positivity avoids the measure-zero degeneracies where a dependent
    pair happens to look independent.
    """
    max_weight = as_integer(max_weight, "max_weight")
    if max_weight < 1:
        raise ValidationError(f"max_weight must be at least 1, got {max_weight}")
    return _normalized(fs, _draw_rows(fs, rng, max_weight))


def _generic_witness(fs: FactoredSet) -> FactoredDistribution:
    """The generic point normalized, built and validated once per ``fs``."""
    witness = fs._generic_witness
    if witness is None:
        witness = fs._generic_witness = _normalized(fs, _generic_point(fs))
    return witness


@dataclass(frozen=True, slots=True)
class FundamentalTheoremReport:
    """Three-way comparison of one partition triple, with sampling evidence.

    ``witness`` is exact and generic: the set's generic distribution when
    the polynomial identity fails, ``None`` when it holds.  It is one object
    for every dependent triple of a set.  The trial counts only corroborate.
    The witness's weights can run to thousands of digits, more than ``int``
    prints by default, so the repr leaves it out.
    """

    orthogonal: bool
    polynomial_identity: bool
    trials: int
    independent_trials: int
    witness: FactoredDistribution | None = field(repr=False)
    seed: int

    @property
    def verdicts_agree(self) -> bool:
        if self.orthogonal:
            return self.polynomial_identity and self.independent_trials == self.trials
        return not self.polynomial_identity

    @property
    def witness_found(self) -> bool:
        return self.witness is not None


def fundamental_theorem_check(
    fs: FactoredSet,
    x: Partition,
    y: Partition,
    z: Partition,
    trials: int = 20,
    seed: int = DEFAULT_SEED,
) -> FundamentalTheoremReport:
    """Confront orthogonality, the polynomial identity, and sampled distributions.

    The polynomial identity is decided exactly by evaluating every
    characteristic monomial at one generic integer point.  When it fails,
    that point normalized is the witness: exact and generic, it violates
    independence for every dependent triple on ``fs``, so no sample is
    needed to find one.  The trials only corroborate.  Each draws what
    ``random_distribution`` draws and decides independence on the raw
    integer rows (each row is its normalized weights times its total).
    """
    trials = as_integer(trials, "trials")
    if trials < 1:
        raise ValidationError("at least one trial is required")
    orth = cond_orthogonal(fs, x, y, z)
    poly_ok = cond_orth_by_divisibility(fs, x, y, z)
    rng = random.Random(seed)
    independent = sum(
        block_triple_identity(
            x, y, z, _masses(_draw_rows(fs, rng, _WEIGHT_RANGE), fs.coords)
        )
        for _ in range(trials)
    )
    return FundamentalTheoremReport(
        orthogonal=orth,
        polynomial_identity=poly_ok,
        trials=trials,
        independent_trials=independent,
        witness=None if poly_ok else _generic_witness(fs),
        seed=seed,
    )
