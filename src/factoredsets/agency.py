"""Observation and counterfactability predicates on factored sets.

An agent partition observes an event when its own history is disjoint from
the event's two-sided partition and, conditioned on the event failing, from
the world model: the agent's choice neither influences the event nor, in the
worlds where the event fails, anything the world model distinguishes.

Observing a partition splits the agent into one subagent per block.  The
subagents must jointly refine back to the agent, so each is a coarsening of
the agent, orthogonal to the world on the rest of the set.  Those
coarsenings are closed under common refinement (the history of a common
refinement is the union of the histories), so each block has a finest one,
read off the coordinates; the agent observes the partition exactly when the
finest subagents refine back to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .factored import FactoredSet
from .partitions import Partition, common_refinement, require_full
from .structure import (
    cond_orthogonal,
    cond_orthogonal_given_subset,
    history,
    orthogonal,
)


def event_partition(fs: FactoredSet, elements: Iterable[int]) -> Partition:
    """Two-block partition event / non-event; degenerate events collapse to one block."""
    event = frozenset(map(fs.ground.check_index, elements))
    if not event or len(event) == fs.size:
        return Partition.indiscrete(fs.ground)
    rest = frozenset(range(fs.size)) - event
    return Partition.from_blocks(fs.ground, [sorted(event), sorted(rest)])


def observes_event(
    fs: FactoredSet, agent: Partition, elements: Iterable[int], world: Partition
) -> bool:
    """Whether the agent may safely assume the event when optimizing the world."""
    event = frozenset(elements)
    if not orthogonal(fs, agent, event_partition(fs, event)):
        return False
    complement = frozenset(range(fs.size)) - event
    return cond_orthogonal_given_subset(fs, agent, world, complement)


@dataclass(frozen=True)
class ObservesVerdict:
    outcome: str  # "yes" | "no"
    witness: tuple[Partition, ...] | None = None

    def __bool__(self) -> bool:
        return self.outcome == "yes"


def _finest_subagent(
    fs: FactoredSet, agent: Partition, rest: frozenset[int], world: Partition
) -> Partition:
    """Finest coarsening of the agent orthogonal to the world on ``rest``.

    The world's history on ``rest`` is a union of splice components of
    ``rest``, so the factors outside it keep ``rest`` closed, and a
    coarsening's restriction avoids that history exactly when those factors
    generate it: when elements of ``rest`` with the same coordinates on them
    share a block.  Merging the agent's blocks along such pairs (a union-find
    over block ids) gives the finest such coarsening.
    """
    outside = fs.mask_indices(fs.full_mask & ~history(fs, world.restrict(rest)))
    root = list(range(agent.block_count))

    def find(b: int) -> int:
        while root[b] != b:
            b = root[b]
        return b

    ids = agent.block_ids
    first: dict[tuple[int, ...], int] = {}
    for s in rest:
        key = tuple(map(fs.coords[s].__getitem__, outside))
        root[find(first.setdefault(key, ids[s]))] = find(ids[s])
    return Partition.from_block_of(fs.ground, {s: find(b) for s, b in enumerate(ids)})


def observes_partition(
    fs: FactoredSet, agent: Partition, x: Partition, world: Partition
) -> ObservesVerdict:
    """Split the agent into per-block subagents, each observing its block.

    The subagent for a block is the finest coarsening of the agent that is
    orthogonal to the world on the rest of the set.  The verdict is ``yes``
    exactly when these refine back to the agent, and they are the witness;
    any other qualifying tuple is coarser piece by piece, so none restores
    the agent when they do not.
    """
    require_full(fs.ground, agent, x, world)
    if not orthogonal(fs, agent, x):
        return ObservesVerdict("no")
    everything = frozenset(range(fs.size))
    witness = tuple(
        _finest_subagent(fs, agent, everything - b, world) for b in x.block_sets
    )
    if common_refinement(witness, ground=fs.ground) == agent:
        return ObservesVerdict("yes", witness=witness)
    return ObservesVerdict("no")


def history_join(fs: FactoredSet, x: Partition) -> Partition:
    """Common refinement of the factors in the partition's history."""
    return common_refinement(
        fs.factors_of_mask(history(fs, x)), ground=fs.ground
    )


def counterfactable(fs: FactoredSet, x: Partition) -> bool:
    """Whether splicing along the history moves exactly the partition's value.

    Holds when the partition equals the common refinement of its own history,
    so a chimera along those factors changes nothing beyond the partition.
    """
    require_full(fs.ground, x)
    return history_join(fs, x) == x


def relatively_counterfactable(fs: FactoredSet, x: Partition, world: Partition) -> bool:
    """Counterfactable up to the world model: the partition screens off its history."""
    require_full(fs.ground, x)
    return cond_orthogonal(fs, history_join(fs, x), world, x)
