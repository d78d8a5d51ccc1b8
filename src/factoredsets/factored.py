"""Validated factorizations of a finite set, chimera splicing, enumeration.

A factorization of a set is a collection of nontrivial partitions such that
picking one block from each partition pins down exactly one element, which
makes the set a product of its factors, so each element is its coordinate
tuple: its block in each factor.  Validation builds the coordinates and the
inverse map from coordinate tuple to element.  The chimera function splices
two elements along a subset of factors by taking the spliced coordinate
tuple back through that map; generation and history work on the
coordinates directly (see ``structure``).

Factor subsets are integer bitmasks over the canonical (sorted) factor
order; bit ``j`` stands for ``factors[j]``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence

from .partitions import (
    GroundSet,
    Partition,
    ValidationError,
    format_partition,
    require_full,
)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mixed_radix_strides(ks: Sequence[int]) -> list[int]:
    """Mixed-radix place values, last digit fastest.

    Code ``s`` has digit ``(s // strides[j]) % ks[j]`` in position ``j``.
    """
    strides = [0] * len(ks)
    acc = 1
    for j in reversed(range(len(ks))):
        strides[j] = acc
        acc *= ks[j]
    return strides


class FactoredSet:
    """A ground set together with a validated factorization.

    Construction performs the full validation: every factor is a nontrivial
    partition of the whole ground set, the block counts multiply to the set
    size, and the coordinate map (element to its block in each factor) is
    injective.  Injectivity plus the cardinality product makes it a
    bijection, which is exactly the factorization property.

    Instances are immutable after construction and safe to share; the
    caches are idempotent, and the history cache's keys name no ground set.
    They hold histories and splice components per domain (``structure``)
    and, once asked for, one integer mass per element: its characteristic
    monomial at the one point where ``polynomial`` decides the
    orthogonality identity.  ``probability`` keeps that point's weights,
    normalized, as the one witness distribution of every dependent triple.
    """

    __slots__ = (
        "ground",
        "factors",
        "coords",
        "_element",
        "_mask_bits",
        "_history_cache",
        "_component_cache",
        "_generic_masses",
        "_generic_witness",
    )

    def __init__(self, ground: GroundSet, factors: Iterable[Partition]):
        facs = sorted(set(factors), key=lambda p: p.key)
        require_full(ground, *facs)
        for p in facs:
            if p.block_count == 1:
                raise ValidationError(f"trivial factor {format_partition(p)}")
        sizes = [p.block_count for p in facs]
        total = math.prod(sizes)
        if total != ground.n:
            raise ValidationError(
                f"factor block counts {sizes} multiply to {total}, "
                f"not the set size {ground.n}"
            )
        self.ground = ground
        self.factors = tuple(facs)
        self.coords = tuple(zip(*(p.block_ids for p in facs))) if facs else ((),) * total
        self._element: dict[tuple[int, ...], int] = {}
        for s, cs in enumerate(self.coords):
            other = self._element.setdefault(cs, s)
            if other != s:
                raise ValidationError(
                    f"elements {ground.label(other)} and {ground.label(s)} "
                    "agree on every factor"
                )
        self._mask_bits = masks = [()]  # masks[m]: factor indices of mask m, ascending
        for j in range(len(facs)):
            masks += [b + (j,) for b in masks]
        self._history_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        self._component_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._generic_masses: list[int] | None = None
        self._generic_witness = None  # a probability.FactoredDistribution

    # -- basics -------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.ground.n

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.factors)) - 1

    def mask_indices(self, mask: int) -> tuple[int, ...]:
        """Factor indices of ``mask``, ascending; a mask outside 0..full_mask raises."""
        try:
            if mask >= 0:
                return self._mask_bits[mask]
        except (TypeError, IndexError):
            pass
        try:
            index(mask)
        except TypeError:
            raise ValidationError(f"factor mask {mask!r} is not an integer") from None
        raise ValidationError(f"factor mask {mask} out of range 0..{self.full_mask}")

    def factors_of_mask(self, mask: int) -> tuple[Partition, ...]:
        return tuple(self.factors[j] for j in self.mask_indices(mask))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FactoredSet)
            and self.ground == other.ground
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.factors))

    def __repr__(self) -> str:
        facs = ", ".join(format_partition(p) for p in self.factors)
        return f"FactoredSet(n={self.size}, factors=[{facs}])"

    # -- chimera ------------------------------------------------------------

    def chimera(self, assignment: Sequence[int] | Mapping[Partition, int]) -> int:
        """The unique element agreeing with the assignment on every factor.

        ``assignment`` gives one (representative) element per factor, either
        positionally or keyed by the factor partitions; totality of the
        result is the factorization property itself.
        """
        if isinstance(assignment, Mapping):
            for p in self.factors:
                if p not in assignment:
                    raise ValidationError(
                        f"assignment names no element for factor {format_partition(p)}"
                    )
            assignment = [assignment[p] for p in self.factors]
        if len(assignment) != self.dim:
            raise ValidationError("assignment must name one element per factor")
        coords = self.coords
        check = self.ground.check_index
        return self._element[
            tuple(coords[check(s)][j] for j, s in enumerate(assignment))
        ]

    def chimera_pair(self, mask: int, s: int, t: int) -> int:
        """Element taking its blocks from ``s`` inside ``mask`` and from ``t`` outside."""
        check = self.ground.check_index
        spliced = list(self.coords[check(t)])
        cs = self.coords[check(s)]
        for j in self.mask_indices(mask):
            spliced[j] = cs[j]
        return self._element[tuple(spliced)]

    def chimera_set(
        self, mask: int, left: Iterable[int], right: Iterable[int]
    ) -> frozenset[int]:
        """Set lift: all splices of an element of ``left`` with one of ``right``."""
        check = self.ground.check_index
        right = list(map(check, right))
        return frozenset(
            self.chimera_pair(mask, s, t) for s in map(check, left) for t in right
        )


def trivial_factorization(ground: GroundSet) -> FactoredSet:
    """The unique factorization every set has.

    One-element sets get the empty basis; everything else (including the
    empty set) gets the discrete partition as the single factor.
    """
    if ground.n == 1:
        return FactoredSet(ground, [])
    return FactoredSet(ground, [Partition.discrete(ground)])


def factor_size_multisets(n: int) -> list[tuple[int, ...]]:
    """Nondecreasing tuples of integers >= 2 with product ``n``.

    ``n == 1`` has exactly the empty tuple: the empty product is 1.  Sizes
    below 1 have none.
    """
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, minimum: int, acc: tuple[int, ...]) -> None:
        if remaining == 1:
            out.append(acc)
            return
        # Every factor but the last is at most the square root of what remains.
        for k in range(minimum, math.isqrt(remaining) + 1):
            if remaining % k == 0:
                rec(remaining // k, k, acc + (k,))
        out.append(acc + (remaining,))

    if n >= 1:
        rec(n, 2, ())
    return out


def _iter_grids(n: int, ks: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Canonical coordinate grids: one per factorization with block counts ``ks``.

    A grid assigns each element ``s`` a coordinate row over the columns
    ``ks``; column ``j`` then partitions the elements by their ``j``-th
    coordinate.  Rows are filled in element order under three constraints:

    * each column is a restricted-growth string (quotients out relabeling
      of the blocks within a factor),
    * adjacent columns with equal block counts are lexicographically
      increasing (quotients out reordering of same-size factors; ties may
      persist in a prefix and are resolved by the first differing row),
    * rows are pairwise distinct (the coordinate map must be injective; with
      all labels in range and the product equal to ``n``, distinct rows make
      it a bijection).

    Distinct rows already imply the counting rules a walk could add: a
    label used ``n / k`` times in a column has all its rows used, and every
    label not yet seen in a column still has ``n / k`` unused rows, at
    least one per label the column still needs.
    """
    d = len(ks)

    def frame(tied: list[int], maxlab: tuple[int, ...]):
        # ``tied``: the columns ``i`` still equal to column ``i + 1`` so far.
        ranges = [range(min(m + 1, k - 1) + 1) for m, k in zip(maxlab, ks)]
        return tied, maxlab, itertools.product(*ranges)

    # One frame per row being chosen, on an explicit stack rather than the
    # call stack, so ``n`` is not bounded by the recursion limit.  Label
    # maxima start at -1, so the first row can only be all zeros.
    rows: list[tuple[int, ...]] = []
    used: set[tuple[int, ...]] = set()
    stack = [frame([i for i in range(d - 1) if ks[i] == ks[i + 1]], (-1,) * d)]
    while stack:
        tied, maxlab, candidates = stack[-1]
        if len(rows) == len(stack):  # retract this frame's previous row
            used.discard(rows.pop())
        for vec in candidates:
            for i in tied:
                if vec[i] > vec[i + 1]:
                    break
            else:
                if vec not in used:
                    break
        else:
            stack.pop()
            continue
        used.add(vec)
        rows.append(vec)
        if len(rows) == n:
            yield tuple(rows)
        else:
            tied = [i for i in tied if vec[i] == vec[i + 1]]
            stack.append(frame(tied, tuple(map(max, maxlab, vec))))


def grid_factored_set(n: int, ks: Sequence[int]) -> FactoredSet:
    """The mixed-radix reference factorization with block counts ``ks``.

    Element ``s`` has coordinate ``(s // stride_j) % ks[j]`` in factor ``j``.
    Every factorization with the same block-count multiset is a ground-set
    relabeling of this one.
    """
    ground = GroundSet(n)
    strides = mixed_radix_strides(ks)
    full = tuple(range(n))
    factors = [
        Partition(ground, full, tuple((s // strides[j]) % ks[j] for s in full))
        for j in range(len(ks))
    ]
    return FactoredSet(ground, factors)


def enumerate_factorizations(n: int) -> Iterator[FactoredSet]:
    """Every factorization of ``{0..n-1}``, each exactly once, fixed order."""
    ground = GroundSet(n)
    if n == 0:
        yield FactoredSet(ground, [Partition.empty(ground)])
        return
    full = tuple(range(n))
    for ks in factor_size_multisets(n):
        for rows in _iter_grids(n, ks):
            columns = zip(*rows)
            yield FactoredSet(ground, [Partition(ground, full, c) for c in columns])


def count_factorizations(n: int) -> int:
    """Number of factorizations of an n-element set, by closed form.

    A factorization with block counts ``ks`` is a bijection onto the
    reference grid up to the grid's automorphisms, which act freely: per
    multiset that is ``n! / (prod k_i! * prod m_k!)``, where ``m_k`` is the
    number of factors with block count ``k``.
    """
    if n < 0:
        raise ValidationError(f"ground set size must be >= 0, got {n}")
    if n == 0:
        return 1
    n_factorial = math.factorial(n)
    return sum(
        n_factorial
        // (
            math.prod(map(math.factorial, ks))
            * math.prod(map(math.factorial, Counter(ks).values()))
        )
        for ks in factor_size_multisets(n)
    )
