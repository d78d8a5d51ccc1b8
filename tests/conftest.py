"""Shared fixtures and random generators for the test suite.

Random factored sets are produced by relabeling the mixed-radix reference
grid of a random block-count multiset with a random permutation, which
reaches every factorization shape.  All randomness is seeded per test for
reproducibility.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache
from typing import Iterator

import pytest

from factoredsets import inference
from factoredsets import (
    FactoredSet,
    GroundSet,
    Partition,
    common_refinement,
    cond_orthogonal,
    data_path,
    factor_size_multisets,
    grid_factored_set,
    iter_partitions,
    load_database_file,
    load_factored_set_file,
    resolve_model,
)


def brute_history(fs: FactoredSet, part: Partition) -> int:
    """Intersection of all generating factor subsets, by full enumeration.

    Generation is decided through the refinement route (the restricted
    factor join refines the partition, and the domain is closed under the
    splice), so this shares no code path with the library's per-factor
    shortcut and serves as its independent oracle.
    """
    h = fs.full_mask
    dom = part.domain
    for mask in range(1 << fs.dim):
        join = common_refinement(fs.factors_of_mask(mask), ground=fs.ground)
        stable = all(
            fs.chimera_pair(mask, s, t) in part.domain_set
            for s in dom
            for t in dom
        )
        if stable and join.restrict(dom).refines(part):
            h &= mask
    return h


@lru_cache(maxsize=None)
def _old_grid_automorphisms(n, ks):
    """Grid automorphisms as first written: runs of equal block counts, digit formula.

    The tests' reference group, built apart from the search's own chains:
    the Burnside count and the canonicity filters read it.  The identity is
    first.
    """
    d = len(ks)
    strides = [math.prod(ks[j + 1:]) for j in range(d)]
    runs = []
    for j in range(d):
        if runs and ks[runs[-1][0]] == ks[j]:
            runs[-1].append(j)
        else:
            runs.append([j])
    digits = [tuple((s // strides[j]) % ks[j] for j in range(d)) for s in range(n)]
    perms = []
    for placed_runs in itertools.product(*(itertools.permutations(r) for r in runs)):
        sigma = [0] * d
        for run, placed in zip(runs, placed_runs):
            for j, target in zip(run, placed):
                sigma[j] = target
        for rhos in itertools.product(*(itertools.permutations(range(k)) for k in ks)):
            perms.append(
                tuple(
                    sum(rhos[j][digits[s][j]] * strides[sigma[j]] for j in range(d))
                    for s in range(n)
                )
            )
    return tuple(perms)


def iter_coarsenings(part: Partition) -> Iterator[Partition]:
    """All partitions coarser than ``part`` (by merging its blocks), in key order.

    The groupings of blocks come in restricted-growth order, and so do the
    block ids they give the domain, so the order carries over unchanged.
    """
    k = part.block_count
    dummy = GroundSet(k)
    for grouping in iter_partitions(dummy):
        group_of = grouping.block_of
        owner = {e: group_of[b] for e, b in zip(part.domain, part.block_ids)}
        yield Partition.from_block_of(part.ground, owner)


def event_block_triple_identity(
    x: Partition, y: Partition, z: Partition, measure
) -> bool:
    """The block-triple identity from a measure of events, with intersected blocks.

    This is the library's identity before it took per-element weights, kept
    as the oracle for that rewrite: ``measure`` maps a frozenset event to a
    value with exact ``*`` and ``==`` and is called once per distinct event.
    """
    cache: dict = {}

    def m(event):
        got = cache.get(event)
        if got is None:
            got = cache[event] = measure(event)
        return got

    for zb in z.block_sets:
        mz = m(zb)
        for xb in x.block_sets:
            xz = xb & zb
            mxz = m(xz)
            for yb in y.block_sets:
                if mxz * m(yb & zb) != m(xz & yb) * mz:
                    return False
    return True


def random_factored_set(
    rng: random.Random, max_n: int = 8, min_n: int = 1
) -> FactoredSet:
    n = rng.randint(min_n, max_n)
    ground = GroundSet(n)
    if n == 0:
        return FactoredSet(ground, [Partition.empty(ground)])
    if n == 1:
        return FactoredSet(ground, [])
    ks = rng.choice(factor_size_multisets(n))
    ref = grid_factored_set(n, ks)
    perm = list(range(n))
    rng.shuffle(perm)
    factors = [
        Partition.from_block_of(
            ground, {perm[s]: p.block_ids[s] for s in range(n)}
        )
        for p in ref.factors
    ]
    return FactoredSet(ground, factors)


def random_partition(
    rng: random.Random, ground: GroundSet, domain=None
) -> Partition:
    dom = tuple(ground.elements()) if domain is None else tuple(sorted(domain))
    if not dom:
        return Partition.empty(ground)
    buckets = rng.randint(1, len(dom))
    owner = {e: rng.randrange(buckets) for e in dom}
    return Partition.from_block_of(ground, owner)


def random_subset(rng: random.Random, n: int, nonempty: bool = False) -> frozenset[int]:
    out = frozenset(e for e in range(n) if rng.random() < 0.5)
    if nonempty and not out and n:
        out = frozenset({rng.randrange(n)})
    return out


def random_generated_partition(rng: random.Random, fs: FactoredSet) -> Partition:
    """A coarsening of the join of a random factor subset.

    These carry the structure the factorization induces, so orthogonality
    and generation premises actually fire under random sampling.
    """
    mask = rng.randrange(1 << fs.dim)
    join = common_refinement(fs.factors_of_mask(mask), ground=fs.ground)
    k = join.block_count
    if k == 0:
        return join
    buckets = rng.randint(1, k)
    grouping = {b: rng.randrange(buckets) for b in range(k)}
    owner = {e: grouping[join.block_of[e]] for e in join.domain}
    return Partition.from_block_of(fs.ground, owner)


def mixed_random_partition(rng: random.Random, fs: FactoredSet) -> Partition:
    if rng.random() < 0.5:
        return random_generated_partition(rng, fs)
    return random_partition(rng, fs.ground)


def assert_splice_identities(
    fs: FactoredSet, c: int, d: int, s: int, t: int, r: int
) -> None:
    """The 11 splice identities for factor subsets ``c``, ``d`` and elements ``s, t, r``."""
    full = fs.full_mask
    pair = fs.chimera_pair
    sc = pair(c, s, t)
    for j in range(fs.dim):
        factor = fs.factors[j]
        if c >> j & 1:
            assert factor.same_block(sc, s)  # 1
        else:
            assert factor.same_block(sc, t)  # 2
    assert pair(c, s, s) == s  # 3
    assert pair(full & ~c, s, t) == pair(c, t, s)  # 4
    assert pair(c | d, s, t) == pair(c, s, pair(d, s, t))  # 5
    assert pair(c & d, s, t) == pair(c, pair(d, s, t), t)  # 6
    assert pair(c, pair(c, s, t), r) == pair(c, s, pair(c, t, r)) == pair(c, s, r)  # 7
    assert pair(c, s, pair(d, t, r)) == pair(d, pair(c, s, t), pair(c, s, r))  # 8
    assert pair(c, pair(d, s, t), r) == pair(d, pair(c, s, r), pair(c, t, r))  # 9
    assert pair(full, s, t) == s  # 10
    assert pair(0, s, t) == t  # 11


def assert_semigraphoid_axioms(
    fs: FactoredSet, x: Partition, y: Partition, z: Partition, w: Partition
) -> tuple[bool, ...]:
    """The five compositional-semigraphoid axioms of conditional orthogonality.

    Returns whether the premise of symmetry, decomposition, weak union,
    contraction and composition held, in that order.
    """
    yw = common_refinement([y, w])
    xy = cond_orthogonal(fs, x, y, z)
    xw = cond_orthogonal(fs, x, w, z)
    xyw = cond_orthogonal(fs, x, yw, z)
    if xy:
        assert cond_orthogonal(fs, y, x, z)  # symmetry
    if xyw:
        assert xy and xw  # decomposition
        assert cond_orthogonal(fs, x, y, common_refinement([z, w]))  # weak union
    contraction = xy and cond_orthogonal(fs, x, w, common_refinement([z, y]))
    if contraction:
        assert xyw  # contraction
    if xy and xw:
        assert xyw  # composition
    return xy, xyw, xyw, contraction, xy and xw


class Ex1:
    """The two-bit ground example used all over the tests."""

    def __init__(self):
        self.file = load_factored_set_file(data_path("ex1.ffs"))
        self.fs = self.file.fs
        self.X = self.file.resolve("X")
        self.V = self.file.resolve("V")
        self.Y = self.file.resolve("Y")
        self.db = load_database_file(data_path("ex1.db"))


@pytest.fixture(scope="session")
def ex1() -> Ex1:
    return Ex1()


class Ex2:
    def __init__(self):
        self.db = load_database_file(data_path("ex2.db"))
        self.model_file = load_factored_set_file(data_path("ex2-model.ffs"))
        self.model = resolve_model(self.model_file, self.db.omega)


@pytest.fixture(scope="session")
def ex2() -> Ex2:
    return Ex2()


@pytest.fixture
def expire_budget_in_size(monkeypatch):
    """Run the search's time budget out as it enters a given size.

    ``inference.time.monotonic`` reads 0 until the search lists the grids
    of that size and infinity afterwards, so the first deadline check there
    truncates in that size, whatever the wall time.  Teardown fails if the
    search never entered the size.
    """
    clocks = []

    def arm(size: int) -> None:
        now = [0.0]
        multisets = inference.factor_size_multisets

        def entering(n):
            if n >= size:
                now[0] = math.inf
            return multisets(n)

        monkeypatch.setattr(inference.time, "monotonic", lambda: now[0])
        monkeypatch.setattr(inference, "factor_size_multisets", entering)
        clocks.append(now)

    yield arm
    assert clocks and all(now[0] == math.inf for now in clocks), "the size was never entered"
