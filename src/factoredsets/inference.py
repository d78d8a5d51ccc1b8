"""Orthogonality databases, factored-set models, and bounded temporal inference.

A database records asserted conditional orthogonalities and asserted
non-orthogonalities between named partitions of an observation space.  A
model explains the observation space by a factored set together with a
labeling map into it; latent structure lives in elements that share a label.

Temporal inference quantifies over all models consistent with the database,
which is only tractable up to a size bound.  Every verdict therefore carries
its bound: a relation that held in every model found is reported as holding
up to the bound, never as holding outright.

Search space reduction: every factorization with a given multiset of factor
block counts is a ground-set relabeling of the mixed-radix reference grid
with those counts, so the search walks one reference factorization per
multiset and enumerates labelings up to the grid's automorphisms (block
relabelings within a factor composed with swaps of equal-size factors).
The search keeps the lexicographically least labeling of each orbit, so
each isomorphism orbit of models is visited exactly once; every verdict
checked is invariant under relabeling.  A depth-first walk in
lexicographic order decides this alone (orderly generation, after Read and
McKay): each automorphism still tied with the prefix waits at the depth
where its next comparison can first be made, so placing a label touches
only the automorphisms filed under that depth; the walk skips a subtree
once an image is smaller and drops an automorphism once its image is
larger.  A single discrete factor has every ground permutation as
automorphism, and its lex-least labelings are the sorted ones, which are
exactly those no larger than their image under each adjacent
transposition, so there the walk compares against those ``n - 1``.

On a product set the history of a full partition is the set of
coordinates it depends on: coordinate ``j`` belongs to it exactly when two
elements one step apart along ``j`` lie in different blocks.  So the walk
reads the history of every name asserted ``| _``, and of every name a
query watches, off the placed prefix, one bit per grid coordinate: placing
position ``i`` compares its block with the block of ``i - stride_j`` for
each coordinate ``j`` where ``i``'s digit is above 0.  That neighbour is
already placed, and every pair one step apart is compared once both are
placed, so a set bit stays set in every extension and the masks are exact
histories at full length.  The walk is the only place the search decides
a ``| _`` assertion: it skips a subtree as soon as the masks of an
asserted ``orthogonal A B | _`` meet and decides the rest from ints at
full length.  ``infer_before`` decides whether
``h(X)`` is contained in ``h(Y)`` from the masks of its two names.  Bit
``j`` is grid coordinate ``j`` and also factor ``j`` of the grid
``FactoredSet``, which sorts its factors by block ids: a slower
coordinate's ids begin with more zeros.

A grid of dimension ``d`` gives every history ``d`` bits, so the ``| _``
assertions also bound the dimension of any model from below.  Coordinate
``j`` defines a region, the names whose histories hold ``j``: a region
holds no asserted ``orthogonal A B | _`` pair and no name with one block
or orthogonal to itself, and each asserted ``dependent A B | _`` needs one
holding both.  So the floor is the least number of maximal regions that
cover every dependent pair, and every larger dimension works too, as a
coordinate may lie in no history.  The search computes these dimensions
once per database and walks only their grids (and, for surjective
labelings only, the sizes reaching the observation space's); a database
whose ``| _`` assertions no regions can cover walks no grid.

Conditioned assertions can rule out a dimension too, through Lemma D: let
X and V be full partitions of a factored set and ``E`` a subset; if the
(X block, V block) pairs of the elements of ``E`` do not form a product
set, then ``h(X|E)`` meets ``h(V)``.  Proof: let ``H = h(X|E)`` miss
``h(V)``, and take ``s`` and ``t`` in ``E`` whose pairs ``(X(s), V(s))``
and ``(X(t), V(t))`` are met while ``(X(s), V(t))`` is not.  ``H``
generates ``X|E``, so the chimera ``u`` of ``s`` on ``H`` and ``t`` off
``H`` lies in the block of ``s`` in ``X|E``: ``u`` is in ``E`` and
``X(u) = X(s)``.  ``h(V)`` is off ``H``, so ``V(u) = V(t)``, and ``E``
meets the pair ``(X(s), V(t))`` after all.  A pattern ``(X, V, Y, Z)``
asserts ``orthogonal X V | _``, ``orthogonal X Z | Y``, ``orthogonal V Z |
Y`` and ``dependent Z W | Y`` for some ``W``, with Y coarser than the common
refinement of X and V on the observations.  In a model, where ``X*`` is X
pulled back through the labeling, X* and V* are orthogonal, so every X*
block meets every V* block and each Y* block meets the pairs of the cells
in its Y block.  The pattern is strong when Y splits every observed 2x2 of
cells into its two diagonals.  Then no Y* block meets a product of pairs:
one meeting ``A x B`` inside the realized blocks meets a product inside two
realized X blocks, one from ``A``, and two realized V blocks, one from
``B``, and four cells split into non-products only as two diagonals.  If
X and V are each named in a ``dependent A B | _``, their histories are
non-empty and disjoint, so in a 2-dimensional model ``h(X*) = {a}`` and
``h(V*) = {b}``.  Lemma D then puts ``b`` in ``h(X*|E)`` and ``a`` in
``h(V*|E)`` for every Y* block ``E``; the two conditioned orthogonalities
keep both out of ``h(Z*|E)``, which is therefore empty for every ``E``,
and ``dependent Z W | Y`` fails.  So such a strong pattern excludes
dimension 2.  In region terms the rule is exact: a name of a dependent
pair lies in some region, and any other name can lie in none without
breaking a ``| _`` assertion.  ex2 is such a database: it has no model of
dimension 2.  The argument forces only two coordinates, so it excludes no
other dimension.

Each conditioned assertion is decided per yielded labeling ``f`` by the
fundamental theorem, on the observations.  The grid's generic masses
``g`` (``polynomial._generic_masses``, each element's characteristic
monomial at ``t = n + 1``) are pushed forward, ``M[w]`` the sum of ``g[s]``
over ``f(s) = w``, and ``(expected, X, Y, Z)`` holds exactly when
``block_triple_identity(X, Y, Z, M) == expected`` for the database's own
X, Y and Z: nothing is pulled back.  This is exact.  Each event of the
pull-backs is a preimage, ``x* & z* = f^-1(x & z)``, so its mass at the
point is the sum of ``M`` over ``x & z``; a cell with no preimage weighs 0
on both sides, so non-surjective labelings are decided too; and at
``t = n + 1`` the identity holds exactly when X* and Y* are orthogonal
given Z*, as ``polynomial.cond_orth_by_divisibility`` proves.  The search
builds a ``Model`` only at its edge: ``search_models`` (and so
``is_consistent_up_to_bound``) for each model it yields, ``infer_before``
for its counterexample alone.  ``models_database`` decides a given model by
``structure.cond_orthogonal`` on the pull-backs, which replays every
witness and counterexample through histories.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import index
from typing import Iterator, Mapping, Sequence

from .factored import (
    FactoredSet,
    factor_size_multisets,
    grid_factored_set,
    mixed_radix_strides,
)
from .partitions import (
    RESERVED_NAMES,
    GroundSet,
    Partition,
    ValidationError,
    bell_number,
    block_triple_identity,
    require_full,
    resolve_name,
)
from .polynomial import _generic_masses
# Re-exported: callers reach ``history`` as ``inference.history`` too.
from .structure import Labels, cond_orthogonal, history  # noqa: F401

# (expected orthogonal, names, resolved partitions) of one assertion.
ResolvedTriple = tuple[bool, tuple[str, str, str], tuple[Partition, Partition, Partition]]


@dataclass(frozen=True)
class OrthogonalityDatabase:
    """Named partitions of an observation space plus asserted (non-)orthogonality.

    Triples are ordered name triples ``(x, y, z)`` read as "x and y are
    (not) orthogonal given z"; the special names ``_`` and ``!`` denote the
    indiscrete and discrete partitions without declaration.
    """

    omega: GroundSet
    partitions: Mapping[str, Partition]
    orthogonal_triples: frozenset[tuple[str, str, str]]
    dependent_triples: frozenset[tuple[str, str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", dict(self.partitions))
        object.__setattr__(
            self, "orthogonal_triples", frozenset(self.orthogonal_triples)
        )
        object.__setattr__(
            self, "dependent_triples", frozenset(self.dependent_triples)
        )
        for name in self.partitions:
            if name in RESERVED_NAMES:
                raise ValidationError(f"{name!r} is reserved")
        require_full(self.omega, *self.partitions.values())
        for triple in self.orthogonal_triples | self.dependent_triples:
            for name in triple:
                self.resolve(name)

    def resolve(self, name: str) -> Partition:
        return resolve_name(name, self.omega, self.partitions)

    def resolved_triples(self) -> list[ResolvedTriple]:
        """All assertions as (expected-orthogonal, names, partitions)."""
        out = []
        for names in sorted(self.orthogonal_triples):
            out.append((True, names, tuple(self.resolve(n) for n in names)))
        for names in sorted(self.dependent_triples):
            out.append((False, names, tuple(self.resolve(n) for n in names)))
        return out


@dataclass(frozen=True)
class Model:
    """A factored set explaining the observation space through a total labeling."""

    factored: FactoredSet
    labeling: tuple[int, ...]
    omega: GroundSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "labeling", tuple(self.labeling))
        if len(self.labeling) != self.factored.size:
            raise ValidationError("labeling must cover every element")
        try:
            if any(not 0 <= index(w) < self.omega.n for w in self.labeling):
                raise ValidationError("labeling target out of range")
        except TypeError:
            raise ValidationError("labeling targets must be integers") from None


def pullback(model: Model, part: Partition) -> Partition:
    """Preimage partition on the model's elements; empty preimages vanish."""
    require_full(model.omega, part)
    pulled = map(part.block_ids.__getitem__, model.labeling)
    return Partition.from_block_of(model.factored.ground, dict(enumerate(pulled)))


@dataclass(frozen=True)
class TripleVerdict:
    kind: str
    names: tuple[str, str, str]
    expected: bool
    actual: bool

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class ModelCheckReport:
    ok: bool
    entries: tuple[TripleVerdict, ...]


def models_database(model: Model, db: OrthogonalityDatabase) -> ModelCheckReport:
    """Per assertion, ``cond_orthogonal`` of its three pull-backs through the model."""
    if model.omega != db.omega:
        raise ValidationError("model and database observe different spaces")
    triples = db.resolved_triples()
    parts = {n: p for _, names, ps in triples for n, p in zip(names, ps)}
    pulled = {name: pullback(model, part) for name, part in parts.items()}
    entries = tuple(
        TripleVerdict(
            kind="orthogonal" if expected else "dependent",
            names=names,
            expected=expected,
            actual=cond_orthogonal(model.factored, *map(pulled.__getitem__, names)),
        )
        for expected, names, _ in triples
    )
    return ModelCheckReport(all(e.ok for e in entries), entries)


@dataclass(frozen=True)
class SearchBounds:
    """Limits for model search; the wall-clock budget is in seconds."""

    max_size: int
    max_dim: int | None = None
    surjective_only: bool = False
    time_budget: float | None = None

    def __post_init__(self) -> None:
        # Stored as plain ints, so ``True`` is described as 1, not "True".
        ints = ("max_size",) if self.max_dim is None else ("max_size", "max_dim")
        for name in ints:
            try:
                object.__setattr__(self, name, index(getattr(self, name)))
            except TypeError:
                raise ValidationError(f"{name} must be an integer") from None
        if self.max_size < 1:
            raise ValidationError("max_size must be at least 1")
        if self.max_dim is not None and self.max_dim < 0:
            raise ValidationError("max_dim must be at least 0")
        try:
            bad_budget = self.time_budget is not None and not self.time_budget >= 0
        except TypeError:
            bad_budget = True
        if bad_budget:
            raise ValidationError("time_budget must be a number of seconds >= 0")

    def describe(self, truncation: Truncation | None) -> str:
        """The bounds a search covered completely, and where its budget ran out."""
        size = self.max_size if truncation is None else truncation.size - 1
        parts = [f"size <= {size}"]
        if self.max_dim is not None:
            parts.append(f"dim <= {self.max_dim}")
        if self.surjective_only:
            parts.append("surjective labelings only")
        if truncation is not None:
            parts.append(f"search truncated by time budget in size {truncation.size}")
        return ", ".join(parts)


@dataclass(frozen=True)
class Truncation:
    """In-stream marker: the time budget ran out in ``size``.

    Every size below ``size`` was searched completely.
    """

    size: int


@lru_cache(maxsize=None)
def _walk_chains(ks: tuple[int, ...]) -> tuple[tuple, ...]:
    """Per automorphism the walk compares against, its comparisons as a chain.

    Those automorphisms are the grid's non-identity ones, each a
    permutation ``sigma`` of equal-block-count factors composed with block
    relabelings ``rhos``, or on one factor the ``n - 1`` adjacent
    transpositions, which leave exactly the sorted labelings.  A node
    ``(j, p[j], depth, next)`` compares ``f[j]`` with ``f[p[j]]``; its depth
    ``max(j, p[j])`` is the first at which both are placed.  Nodes follow
    the moved positions ``j`` ascending, leaving out each ``j`` whose pair
    ``(p[j], j)`` an earlier node already compared: that is ``p[j] < j``
    with ``p[p[j]] == j``, and the walk reaches ``j`` only once it was equal.
    """
    n = math.prod(ks)
    d = len(ks)
    if d == 1:
        auts = [[*range(j), j + 1, j, *range(j + 2, n)] for j in range(n - 1)]
    else:
        strides = mixed_radix_strides(ks)
        digits = list(itertools.product(*map(range, ks)))  # element s has digits[s]
        auts = [
            [sum(rhos[j][ds[j]] * strides[sigma[j]] for j in range(d)) for ds in digits]
            for sigma in itertools.permutations(range(d))
            if all(ks[sigma[j]] == ks[j] for j in range(d))
            for rhos in itertools.product(*map(itertools.permutations, map(range, ks)))
        ][1:]  # the identity comes first
    chains = []
    for p in auts:
        node = None
        for j in reversed(range(n)):
            pj = p[j]
            if pj > j or pj < j and p[pj] != j:
                node = (j, pj, max(j, pj), node)
        chains.append(node)
    return tuple(chains)


def _apart_table(
    rows: Sequence[Sequence[int]], omega_n: int, stride: int
) -> list[list[int]]:
    """``apart[v][u]`` sets bit ``k*stride`` for each row ``k`` with labels
    ``v`` and ``u`` in different blocks; shifted by ``j``, it sets those
    rows' coordinate ``j`` in the walk's packed masks."""
    labels = range(omega_n)
    shifts = [k * stride for k in range(len(rows))]
    return [
        [
            sum(1 << k for k, row in zip(shifts, rows) if row[v] != row[u])
            for u in labels
        ]
        for v in labels
    ]


def _lemma_d_strong(x: Partition, v: Partition, y: Partition) -> bool:
    """Whether every Y* block a model can have meets a non-product set of
    (X*, V*) pairs, in every model where X* and V* are orthogonal and each
    has at least two blocks.

    Needs ``y`` coarser than the common refinement of ``x`` and ``v`` on the
    observations, so that each (X block, V block) cell lies in one Y block.
    Then it holds exactly when ``y`` splits each 2x2 of cells into its two
    diagonals, as the module docstring shows.  A 2x2 with a cell empty on
    the observations is realized by no model, so it is skipped.
    """
    cell_block: dict[tuple[int, int], int] = {}
    for cell, b in zip(zip(x.block_ids, v.block_ids), y.block_ids):
        if cell_block.setdefault(cell, b) != b:
            return False
    for (x1, x2), (v1, v2) in itertools.product(
        itertools.combinations(range(x.block_count), 2),
        itertools.combinations(range(v.block_count), 2),
    ):
        a, b, c, e = map(cell_block.get, ((x1, v1), (x2, v2), (x1, v2), (x2, v1)))
        if None not in (a, b, c, e) and not a == b != c == e:
            return False
    return True


def _lemma_d_pairs(triples: Sequence[ResolvedTriple]) -> list[tuple[str, str]]:
    """The ``(X, V)``, ``X < V``, of each strong Lemma D pattern asserted.

    A pattern ``(X, V, Y, Z)`` asserts ``orthogonal X V | _``,
    ``orthogonal X Z | Y``, ``orthogonal V Z | Y`` and ``dependent Z W | Y``
    for some ``W``, each in either order of its first two names; it is
    strong when ``_lemma_d_strong(X, V, Y)``.
    """
    orthogonal = set()
    dependent = set()  # (Z, Y) of each ``dependent Z W | Y``, either order
    parts: dict[str, Partition] = {}
    for expected, (a, b, c), resolved in triples:
        parts.update(zip((a, b, c), resolved))
        if expected:
            orthogonal |= {(a, b, c), (b, a, c)}
        else:
            dependent |= {(a, c), (b, c)}
    pairs = []
    for x, v, u in sorted(orthogonal):
        if u != "_" or x >= v:
            continue
        ys = {
            y
            for a, z, y in orthogonal
            if a == x and (v, z, y) in orthogonal and (z, y) in dependent
        }
        if any(_lemma_d_strong(parts[x], parts[v], parts[y]) for y in ys):
            pairs.append((x, v))
    return pairs


def _model_dimensions(
    disjoint: Sequence[tuple[int, int]],
    meeting: Sequence[tuple[int, int]],
    patterns: Sequence[tuple[int, int]],
    cap: int,
) -> set[int]:
    """The dimensions ``d <= cap`` where ``d``-bit masks, one per row, can
    keep every ``disjoint`` pair apart and make every ``meeting`` pair meet,
    less 2 where a ``patterns`` pair excludes it by Lemma D.  A pair
    ``(k, k)`` reads "mask ``k`` is empty" when disjoint and "mask ``k`` is
    not" when meeting.

    Coordinate ``j`` gives a region, the rows whose masks hold ``j``; a
    region holds no disjoint pair, and only ``forced``, the rows of meeting
    pairs, need lie in one.  Masks exist in ``d`` bits exactly when ``d``
    regions cover every meeting pair, and maximal regions cover as well as
    any; every larger ``d`` works too, as a coordinate may lie in no region.
    Only ``clashing``, the rows of disjoint pairs of forced rows, can keep a
    forced row out of a region, so the walk runs over the submasks of
    ``clashing`` alone and every other forced row joins each maximal region.
    A forced row is never empty and any other can be emptied, so 2 goes
    when both rows of some ``patterns`` pair are forced.
    """
    forced = 0
    for a, b in meeting:
        forced |= 1 << a | 1 << b
    clashes = [1 << a | 1 << b for a, b in disjoint]
    clashes = [c for c in clashes if c & forced == c]
    clashing = 0
    for c in clashes:
        clashing |= c
    maximal: list[int] = []
    r = clashing
    while True:  # the submasks of ``clashing``, descending, so supersets first
        if not any(c & r == c for c in clashes) and all(r & m != r for m in maximal):
            maximal.append(r)
        if not r:
            break
        r = r - 1 & clashing
    maximal = [r | forced & ~clashing for r in maximal]
    pairs = {1 << a | 1 << b for a, b in meeting}
    for floor in range(cap + 1):
        if any(
            all(any(p & r == p for r in cover) for p in pairs)
            for cover in itertools.combinations(maximal, floor)
        ):
            lemma_d = any(forced >> x & forced >> v & 1 for x, v in patterns)
            return {d for d in range(floor, cap + 1) if not (lemma_d and d == 2)}
    return set()


def _grid_labelings(
    n: int,
    ks: tuple[int, ...],
    omega_n: int,
    apart: Sequence[Sequence[int]],
    disjoint: Sequence[tuple[int, int]] = (),
    meeting: Sequence[tuple[int, int]] = (),
    deadline: float | None = None,
) -> Iterator[tuple[tuple[int, ...], int] | None]:
    """The labelings no larger than their image under each automorphism that
    ``_walk_chains(ks)`` holds a chain for, in order, each with its history
    masks.

    Labels are tried in ascending order at each position.  Each automorphism
    ``p`` still tied with the prefix ``f`` waits, in ``waiting[depth]``, at
    the first pair ``(f[j], f[p[j]])``, ``j`` ascending and moved by ``p``,
    that the prefix has not compared, filed under the depth at which both
    are placed.  Placing ``f[i]`` takes only ``waiting[i]``: equal pairs
    advance ``p`` to its next pair, compared at once if it is placed and
    re-filed at its depth if not; a greater ``f[j]`` skips the subtree, a
    smaller one drops ``p``, and so does a last pair found equal.  The
    re-filings made at depth ``i`` are popped before the next label at
    ``i`` and on backtracking.  At full length every position is placed, so
    a labeling that survives is canonical.

    ``apart`` is an ``_apart_table`` with rows at a stride of at least
    ``d = len(ks)`` bits; the int ``h`` yielded with each labeling holds
    row ``k``'s history at bits ``k*stride + j``, ``j < d``, and none above.
    ``disjoint`` and ``meeting`` pair such row offsets ``k*stride``: a
    subtree is skipped once the masks of a ``disjoint`` pair meet, and a
    full labeling is kept only if the masks of every ``meeting`` pair meet.
    With a ``deadline`` the walk reads the clock once per placed label and
    yields ``None`` once it has passed.
    """
    d = len(ks)
    low = (1 << d) - 1
    strides = mixed_radix_strides(ks)
    # Per position, its neighbour one step down along each coordinate where
    # its digit is above 0, with that coordinate.
    steps = [
        [(i - strides[j], j) for j in range(d) if i // strides[j] % ks[j]]
        for i in range(n)
    ]
    waiting: list[list[tuple]] = [[] for _ in range(n)]
    for chain in _walk_chains(ks):
        waiting[chain[2]].append(chain)
    filed: list[list[int]] = [[] for _ in range(n)]  # per depth, lists appended to
    f = [-1] * n
    masks = [0] * (n + 1)  # ``masks[i]``: the packed masks of the prefix ``f[:i]``
    i = 0
    while i >= 0:
        undo = filed[i]
        while undo:
            waiting[undo.pop()].pop()
        f[i] += 1
        if f[i] == omega_n:
            f[i] = -1
            i -= 1
            continue
        if deadline is not None and time.monotonic() > deadline:
            yield None
            return
        h = masks[i]
        differs = apart[f[i]]
        for s, j in steps[i]:
            h |= differs[f[s]] << j
        if h != masks[i] and any(h >> a & h >> b & low for a, b in disjoint):
            continue
        if i + 1 == n and not all(h >> a & h >> b & low for a, b in meeting):
            continue
        for j, pj, _, node in waiting[i]:
            while f[j] == f[pj]:
                if node is None:
                    break
                if node[2] > i:
                    waiting[node[2]].append(node)
                    undo.append(node[2])
                    break
                j, pj, _, node = node
            else:  # the pair differs: a greater ``f[j]`` breaks the for loop
                if f[j] > f[pj]:
                    break
        else:
            if i + 1 == n:
                yield tuple(f), h
            else:
                masks[i + 1] = h
                i += 1


def _conditioned_hold(
    fs: FactoredSet,
    omega_n: int,
    conditioned: Sequence[ResolvedTriple],
    labeling: Labels,
) -> bool:
    """Whether ``labeling`` meets every conditioned assertion, up to the first miss.

    Each is decided on the observations, by ``block_triple_identity`` of its
    own partitions with ``fs``'s generic masses pushed forward through
    ``labeling`` as weights.
    """
    if not conditioned:
        return True
    masses = [0] * omega_n
    for w, g in zip(labeling, _generic_masses(fs)):
        masses[w] += g
    return all(
        block_triple_identity(x, y, z, masses) == expected
        for expected, _, (x, y, z) in conditioned
    )


def _search(
    db: OrthogonalityDatabase, bounds: SearchBounds, watched: Sequence[str] = ()
) -> Iterator[tuple[FactoredSet, tuple[int, ...], tuple[int, ...]] | Truncation]:
    """``search_models``'s stream as ``(grid, labeling, masks)``, no ``Model`` built.

    ``masks`` holds the history of each ``watched`` name in grid coordinates.
    This is the one place that lays out the walk's masks: a row per name
    asserted ``| _``, then per ``watched`` name not among them, each
    ``cap`` bits wide, where ``cap`` bounds the dimension of every grid
    within the bounds, so one ``_apart_table`` serves the whole search.  It
    walks the grids whose dimension ``_model_dimensions`` returns.  A grid
    it does not walk is not built either;
    with a time budget it reads the clock once, as the walk's first label
    would, so a spent budget truncates in the same size.
    """
    deadline = (
        None if bounds.time_budget is None else time.monotonic() + bounds.time_budget
    )
    triples = db.resolved_triples()
    omega_n = db.omega.n
    conditioned = [t for t in triples if t[1][2] != "_"]
    unconditional = [(e, names[:2]) for e, names, _ in triples if names[2] == "_"]
    asserted = [n for _, pair in unconditional for n in pair]
    masked = list(dict.fromkeys(asserted + list(watched)))
    # Resolved partitions are full: ``block_ids[w]`` is the block of ``w``.
    rows = [db.resolve(name).block_ids for name in masked]
    at = masked.index
    disjoint = [(at(x), at(y)) for e, (x, y) in unconditional if e]
    meeting = [(at(x), at(y)) for e, (x, y) in unconditional if not e]
    # Every factor has at least two blocks, so no grid has more than
    # log2(max_size) dimensions: only ``max_dim`` can rule one out.
    cap = bounds.max_size.bit_length() - 1
    if bounds.max_dim is not None:
        cap = min(cap, bounds.max_dim)
    # A one-block name's row is all zeros, and its history always empty.
    empty = [(k, k) for k, row in enumerate(rows) if not any(row)]
    patterns = [(at(x), at(v)) for x, v in _lemma_d_pairs(triples)]
    dims = _model_dimensions(disjoint + empty, meeting, patterns, cap)
    apart = _apart_table(rows, omega_n, cap)
    disjoint = [(a * cap, b * cap) for a, b in disjoint]
    meeting = [(a * cap, b * cap) for a, b in meeting]
    field = (1 << cap) - 1
    shifts = [at(name) * cap for name in watched]
    for n in range(1, bounds.max_size + 1):
        for ks in factor_size_multisets(n):
            d = len(ks)
            if d > cap:
                continue
            if d not in dims or bounds.surjective_only and n < omega_n:
                # No model here: one clock read stands for the walk's first.
                if deadline is not None and time.monotonic() > deadline:
                    yield Truncation(n)
                    return
                continue
            fs = grid_factored_set(n, ks)
            walk = _grid_labelings(n, ks, omega_n, apart, disjoint, meeting, deadline)
            for item in walk:
                if item is None:
                    yield Truncation(n)
                    return
                f, h = item
                if bounds.surjective_only and len(set(f)) != omega_n:
                    continue
                if _conditioned_hold(fs, omega_n, conditioned, f):
                    yield fs, f, tuple(h >> s & field for s in shifts)


def search_models(
    db: OrthogonalityDatabase, bounds: SearchBounds
) -> Iterator[Model | Truncation]:
    """All models of the database within bounds, one per relabeling orbit.

    The stream is deterministic: sizes ascend, block-count multisets follow
    the divisor enumeration, labelings are lexicographic.  A trailing
    ``Truncation`` item signals an exhausted time budget and names the size
    it stopped in.  ``_search`` finds the models; each becomes a ``Model``
    here.
    """
    for item in _search(db, bounds):
        if isinstance(item, Truncation):
            yield item
            return
        fs, f, _ = item
        yield Model(fs, f, db.omega)


@dataclass(frozen=True)
class InferenceVerdict:
    """Bounded answer to "is X before Y in every model of the database?".

    ``holds-up-to-bound`` never claims unbounded validity; larger models
    could still refute the relation.  A truncated search qualifies its
    verdict by the largest size it searched completely, and one that
    completed no size is ``inconclusive``.
    """

    kind: str  # "holds-up-to-bound" | "refuted" | "vacuous" | "inconclusive"
    strict: bool
    bounds: SearchBounds
    models_checked: int
    counterexample: Model | None = None
    truncation: Truncation | None = None

    @property
    def truncated(self) -> bool:
        return self.truncation is not None

    @property
    def qualifier(self) -> str:
        return f"models with {self.bounds.describe(self.truncation)}"


def infer_before(
    db: OrthogonalityDatabase,
    first: str,
    second: str,
    bounds: SearchBounds,
    *,
    strict: bool = True,
) -> InferenceVerdict:
    """Quantify the (strict) before-relation over every model within bounds.

    The search watches the two names, so each model's histories of
    ``first`` and ``second`` come with it; only a counterexample is built
    into a ``Model``.
    """
    db.resolve(first)  # an unknown name raises before any search
    db.resolve(second)
    checked = 0
    counterexample = truncation = None
    for item in _search(db, bounds, (first, second)):
        if isinstance(item, Truncation):
            truncation = item
            break
        checked += 1
        fs, f, (hx, hy) = item
        if hx & hy != hx or strict and hx == hy:
            counterexample = Model(fs, f, db.omega)
            break
    if counterexample is not None:
        kind = "refuted"
    elif truncation is not None and truncation.size == 1:
        kind = "inconclusive"
    elif checked == 0:
        kind = "vacuous"
    else:
        kind = "holds-up-to-bound"
    return InferenceVerdict(kind, strict, bounds, checked, counterexample, truncation)


@dataclass(frozen=True)
class ConsistencyVerdict:
    consistent: bool
    bounds: SearchBounds
    witness: Model | None = None
    truncation: Truncation | None = None

    @property
    def truncated(self) -> bool:
        return self.truncation is not None


def is_consistent_up_to_bound(
    db: OrthogonalityDatabase, bounds: SearchBounds
) -> ConsistencyVerdict:
    """Find any model within bounds; a negative answer only rules out the bounds."""
    for item in search_models(db, bounds):
        if isinstance(item, Truncation):
            return ConsistencyVerdict(False, bounds, truncation=item)
        return ConsistencyVerdict(True, bounds, witness=item)
    return ConsistencyVerdict(False, bounds)


def is_complete(db: OrthogonalityDatabase) -> bool:
    """Whether every partition triple of the observation space is asserted.

    Every assertion resolves to a triple of full partitions of the
    observation space, so the database is complete exactly when it asserts
    ``bell_number(n) ** 3`` distinct triples.
    """
    asserted = {parts for _, _, parts in db.resolved_triples()}
    return len(asserted) == bell_number(db.omega.n) ** 3
