"""Generation, history, orthogonality, and temporal order.

All predicates work uniformly on partitions of the whole ground set and on
subpartitions (partitions of a subset).  The paper defines generation by
splicing: ``C`` generates ``X`` on its domain ``E`` when splicing any two
elements of ``E`` along ``C`` lands in the block of the first.  The one check
used throughout is its closed form, one pass over ``E``: elements with the
same coordinates on ``C`` share a block, and ``E`` is the product of its
projections on ``C`` and off ``C`` (``|pi_C(E)| * |pi_rest(E)| == |E|``), so
every splice stays in ``E``, in the block its ``C`` coordinates name.

History, the smallest generating factor subset, drives everything else:
orthogonality is disjointness of histories and temporal order is containment.
Every history comes from one rule: it is the union of the splice components
of the partition's domain whose complement does not generate the partition.
The factor subsets along which the domain is closed under splicing form a
Boolean algebra (union by splice identity 5, complement by identity 4) whose
atoms are the components; generating sets lie in it, are closed under
supersets in it, and include the history.  Every subset keeps the whole set
and the empty set closed, so there the components are the single factors.

Histories are cached on the factored set by labeled domain, and both
``cond_orthogonal`` and the model checker condition through ``block_histories``.

Orthogonality and order between subpartitions with different domains are
computed as the same raw history comparisons; whether that carries meaning is
left to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import and_, itemgetter
from typing import Callable, Hashable, Iterable, Iterator

from .factored import FactoredSet
from .partitions import Partition, ValidationError, require_full

Labels = tuple[int, ...]


def projection(fs: FactoredSet, mask: int) -> Callable[[tuple[int, ...]], Hashable]:
    """Getter from a coordinate tuple to its blocks in the factors of ``mask``."""
    idxs = fs.mask_indices(mask)
    return itemgetter(*idxs) if idxs else lambda coords: ()


def generates(fs: FactoredSet, mask: int, part: Partition) -> bool:
    """Whether the factors in ``mask`` pin down the block of every domain element."""
    if part.ground != fs.ground:
        raise ValidationError("partition belongs to a different ground set")
    return _generates(fs, mask, part.domain, part.block_ids)


def _generates(fs: FactoredSet, mask: int, domain: tuple[int, ...], labels: Labels) -> bool:
    """Whether ``mask`` generates ``domain`` split into blocks of equal label."""
    on = projection(fs, mask)
    off = projection(fs, fs.full_mask ^ mask)
    coords = fs.coords
    label_on: dict[Hashable, int] = {}
    rest = set()
    for s, b in zip(domain, labels):
        c = coords[s]
        if label_on.setdefault(on(c), b) != b:
            return False
        rest.add(off(c))
    return len(label_on) * len(rest) == len(domain)


def splice_components(fs: FactoredSet, part: Partition) -> tuple[int, ...]:
    """Atoms of the factor subsets along which the domain is closed under splicing.

    They partition the factors, each listed once in the order of its lowest
    factor, and are cached on ``fs`` per domain.
    """
    if part.ground != fs.ground:
        raise ValidationError("partition belongs to a different ground set")
    return _components(fs, part.domain)


def _components(fs: FactoredSet, domain: tuple[int, ...]) -> tuple[int, ...]:
    if len(domain) == fs.size or not domain:
        return tuple(1 << j for j in range(fs.dim))
    comps = fs._component_cache.get(domain)
    if comps is None:
        # A factor subset keeps the domain closed under splicing exactly when
        # it generates the one-block partition of the domain.
        one = (0,) * len(domain)
        closed = [m for m in range(1 << fs.dim) if _generates(fs, m, domain, one)]
        atoms = (reduce(and_, [m for m in closed if m >> j & 1]) for j in range(fs.dim))
        comps = fs._component_cache[domain] = tuple(dict.fromkeys(atoms))
    return comps


def _labeled_history(fs: FactoredSet, domain: tuple[int, ...], labels: Labels) -> int:
    """History of the ascending ``domain`` split into blocks of equal label."""
    key = (domain, labels)
    h = fs._history_cache.get(key)
    if h is None:
        h = 0
        for comp in _components(fs, domain):
            if not _generates(fs, fs.full_mask & ~comp, domain, labels):
                h |= comp
        fs._history_cache[key] = h
    return h


def history(fs: FactoredSet, part: Partition) -> int:
    """Smallest factor subset generating the (sub)partition, as a bitmask."""
    if part.ground != fs.ground:  # checked first: cache keys name no ground set
        raise ValidationError("partition belongs to a different ground set")
    return _labeled_history(fs, part.domain, part.block_ids)


def block_histories(
    fs: FactoredSet, labels: Labels, blocks: Iterable[tuple[int, ...]]
) -> Iterator[int]:
    """Lazily, per ascending block, the history of ``s -> labels[s]`` on that block."""
    for b in blocks:
        sub = labels if len(b) == len(labels) else tuple(map(labels.__getitem__, b))
        yield _labeled_history(fs, b, sub)


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
    sub = set(elements)
    return orthogonal(fs, x.restrict(sub), y.restrict(sub))


def cond_orthogonal(fs: FactoredSet, x: Partition, y: Partition, z: Partition) -> bool:
    """Orthogonal given every block of the conditioning partition."""
    require_full(fs.ground, x, y, z)
    hx = block_histories(fs, x.block_ids, z.blocks)
    hy = block_histories(fs, y.block_ids, z.blocks)
    return not any(map(and_, hx, hy))


def cond_before(
    fs: FactoredSet, x: Partition, y: Partition, elements: Iterable[int]
) -> bool:
    """History containment after restricting both partitions to an event."""
    require_full(fs.ground, x, y)
    sub = set(elements)
    hx = history(fs, x.restrict(sub))
    hy = history(fs, y.restrict(sub))
    return hx & hy == hx
