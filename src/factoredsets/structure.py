"""Generation, history, orthogonality, and temporal order.

All predicates work uniformly on partitions of the whole ground set and on
subpartitions (partitions of a subset).  The single generation check used
throughout is the splice test: a factor subset ``C`` generates ``X`` when
splicing any two domain elements along ``C`` stays inside the block of the
first, which simultaneously enforces that the domain is closed under the
splice.

History, the smallest generating factor subset, drives everything else:
orthogonality is disjointness of histories and temporal order is containment.
For full partitions the generating family is closed under supersets, so each
factor can be tested independently; for proper subpartitions that closure
fails (the family is only a lattice), so the minimum is found by intersecting
all generating subsets.

Conditional orthogonality is one z-block loop, ``cond_orthogonal_unchecked``;
``cond_orthogonal`` validates its arguments and calls it, and model checking
in ``inference`` calls it directly on pullbacks, which are full partitions by
construction.

Orthogonality and order between subpartitions with different domains are
computed as the same raw history comparisons; whether that carries meaning is
left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .factored import FactoredSet
from .partitions import Partition, ValidationError, require_full


def _check_subset(fs: FactoredSet, elements: Iterable[int]) -> tuple[int, ...]:
    sub = tuple(sorted(set(elements)))
    if sub and not (0 <= sub[0] and sub[-1] < fs.size):
        raise ValidationError("conditioning set contains out-of-range elements")
    return sub


def generates(fs: FactoredSet, mask: int, part: Partition) -> bool:
    """Whether the factors in ``mask`` pin down the block of every domain element."""
    if part.ground != fs.ground:
        raise ValidationError("partition belongs to a different ground set")
    block_of = part.block_of
    pair = fs.chimera_pair
    for s in part.domain:
        bs = block_of[s]
        for t in part.domain:
            if block_of.get(pair(mask, s, t)) != bs:
                return False
    return True


def history(fs: FactoredSet, part: Partition) -> int:
    """Smallest factor subset generating the (sub)partition, as a bitmask."""
    cache = fs._history_cache
    h = cache.get(part)
    if h is not None:
        return h
    full = fs.full_mask
    if part.is_full:
        h = 0
        for j in range(fs.dim):
            if not generates(fs, full & ~(1 << j), part):
                h |= 1 << j
    else:
        h = full
        for mask in range(1 << fs.dim):
            if (h & mask) != h and generates(fs, mask, part):
                h &= mask
    cache[part] = h
    return h


def history_factors(fs: FactoredSet, part: Partition) -> tuple[Partition, ...]:
    return fs.factors_of_mask(history(fs, part))


def orthogonal(fs: FactoredSet, x: Partition, y: Partition) -> bool:
    """Disjoint histories: no factor feeds both partitions."""
    return not history(fs, x) & history(fs, y)


class TemporalRelation(Enum):
    STRICTLY_BEFORE = "strictly-before"
    EQUAL_HISTORY = "equal-history"
    STRICTLY_AFTER = "strictly-after"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class TemporalVerdict:
    """Outcome of comparing two histories, with the histories as witnesses."""

    relation: TemporalRelation
    history_first: int
    history_second: int

    @property
    def is_before(self) -> bool:
        return self.relation in (
            TemporalRelation.STRICTLY_BEFORE,
            TemporalRelation.EQUAL_HISTORY,
        )


def before(fs: FactoredSet, x: Partition, y: Partition) -> TemporalVerdict:
    """Compare histories: contained means before, proper containment strictly so."""
    hx = history(fs, x)
    hy = history(fs, y)
    if hx == hy:
        rel = TemporalRelation.EQUAL_HISTORY
    elif hx & hy == hx:
        rel = TemporalRelation.STRICTLY_BEFORE
    elif hx & hy == hy:
        rel = TemporalRelation.STRICTLY_AFTER
    else:
        rel = TemporalRelation.INCOMPARABLE
    return TemporalVerdict(rel, hx, hy)


def cond_orthogonal_given_subset(
    fs: FactoredSet, x: Partition, y: Partition, elements: Iterable[int]
) -> bool:
    """Orthogonality of the two restrictions to an event."""
    require_full(fs.ground, x, y)
    sub = _check_subset(fs, elements)
    return orthogonal(fs, x.restrict(sub), y.restrict(sub))


def cond_orthogonal(fs: FactoredSet, x: Partition, y: Partition, z: Partition) -> bool:
    """Orthogonal given every block of the conditioning partition."""
    require_full(fs.ground, x, y, z)
    return cond_orthogonal_unchecked(fs, x, y, z)


def cond_orthogonal_unchecked(
    fs: FactoredSet, x: Partition, y: Partition, z: Partition
) -> bool:
    """``cond_orthogonal`` for callers whose partitions are full by construction."""
    return all(
        orthogonal(fs, x.restrict(zb), y.restrict(zb)) for zb in z.blocks
    )


def cond_before(
    fs: FactoredSet, x: Partition, y: Partition, elements: Iterable[int]
) -> bool:
    """History containment after restricting both partitions to an event."""
    require_full(fs.ground, x, y)
    sub = _check_subset(fs, elements)
    hx = history(fs, x.restrict(sub))
    hy = history(fs, y.restrict(sub))
    return hx & hy == hx
