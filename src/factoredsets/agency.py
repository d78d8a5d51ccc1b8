"""Observation and counterfactability predicates on factored sets.

An agent partition observes an event when its own history is disjoint from
the event's two-sided partition and, conditioned on the event failing, from
the world model: the agent's choice neither influences the event nor, in the
worlds where the event fails, anything the world model distinguishes.

Observing a partition splits the agent into one subagent per block.  The
subagents must jointly refine back to the agent, which pins every candidate
subagent into the agent's coarsening lattice: a common refinement equal to
the agent forces each piece to be coarser than the agent.  The search is
therefore bounded in principle, but its size is a product of coarsening
counts, so a budget caps it and exhaustion is an explicit third verdict
rather than a guess.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .factored import FactoredSet
from .partitions import (
    Partition,
    bell_number,
    common_refinement,
    iter_coarsenings,
    require_full,
)
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
    outcome: str  # "yes" | "no" | "inconclusive"
    witness: tuple[Partition, ...] | None = None
    tuples_tried: int = 0

    def __bool__(self) -> bool:
        return self.outcome == "yes"


def observes_partition(
    fs: FactoredSet,
    agent: Partition,
    x: Partition,
    world: Partition,
    budget: int = 1_000_000,
) -> ObservesVerdict:
    """Split the agent into per-block subagents, each observing its block.

    Each block keeps the coarsenings of the agent that pass the
    conditioned-orthogonality test for it, and one ``itertools.product`` scan
    walks the tuples of those lists in lexicographic order.  The witness is
    the first tuple whose common refinement restores the agent, and
    ``tuples_tried`` counts the tuples scanned, the witness included.  The
    scan tries at most ``budget`` tuples, and a scan that tried ``budget``
    tuples without a witness is ``inconclusive``, even if the last of them
    ended the product.
    """
    require_full(fs.ground, agent, x, world)
    if not orthogonal(fs, agent, x):
        return ObservesVerdict("no")
    blocks = x.block_sets
    if not blocks:
        # Empty ground set: the empty common refinement is the (empty)
        # indiscrete partition, which the agent already equals.
        return ObservesVerdict("yes", witness=())
    if bell_number(agent.block_count) > budget:
        return ObservesVerdict("inconclusive")
    coarsenings = list(iter_coarsenings(agent))
    everything = frozenset(range(fs.size))
    valid: list[list[Partition]] = []
    for xb in blocks:
        rest = everything - xb
        valid.append(
            [c for c in coarsenings if cond_orthogonal_given_subset(fs, c, world, rest)]
        )
        if not valid[-1]:
            return ObservesVerdict("no")

    tried = 0
    for witness in itertools.product(*valid):
        if tried >= budget:
            break
        tried += 1
        if common_refinement(witness) == agent:
            return ObservesVerdict("yes", witness=witness, tuples_tried=tried)
    if tried >= budget:
        return ObservesVerdict("inconclusive", tuples_tried=tried)
    return ObservesVerdict("no", tuples_tried=tried)


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
