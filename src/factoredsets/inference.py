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
McKay): per depth it carries the automorphisms still tied with the prefix,
skips a subtree once an image is smaller, and drops an automorphism once
its image is larger.  A single discrete factor has every ground
permutation as automorphism, and its lex-least labelings are the sorted
ones, which are exactly those no larger than their image under each
adjacent transposition, so there the walk compares against those ``n - 1``.

On a product set the history of a full partition is the set of
coordinates it depends on: coordinate ``j`` belongs to it exactly when two
elements one step apart along ``j`` lie in different blocks.  So the walk
reads the history of every name asserted ``| _`` off the placed prefix, one
bit per grid coordinate: placing position ``i`` compares its block with the
block of ``i - stride_j`` for each coordinate ``j`` where ``i``'s digit is
above 0.  That neighbour is already placed, and every pair one step apart
is compared once both are placed, so a set bit stays set in every
extension and the masks are exact histories at full length.  The walk
skips a subtree as soon as the masks of an asserted ``orthogonal A B | _``
meet, and decides every ``| _`` assertion from ints at full length.

The walk is the only place the search decides a ``| _`` assertion.  Each
conditioned one runs per yielded labeling on integer label tuples: a name's
row of block ids over the observations pulls it back with one lookup per
element, and the triple holds when the histories of its first two names,
restricted to each block of its third, are disjoint block by block.  They
are read through ``structure.block_histories`` from the grid's history
cache.  ``models_database`` decides a given model by
``structure.cond_orthogonal`` on the pull-backs.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import and_, index
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
    require_full,
    resolve_name,
)
from .structure import Labels, block_histories, cond_orthogonal, history

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
    pulled = map(part.block_ids.__getitem__, model.labeling)  # as the search pulls back
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
        dim = 0 if self.max_dim is None else self.max_dim
        for name, value in (("max_size", self.max_size), ("max_dim", dim)):
            try:
                index(value)
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
def _grid_automorphisms(n: int, ks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Ground permutations preserving the reference grid factorization.

    Generated as all combinations of permutations of equal-block-count
    factor positions with per-factor block relabelings; the identity is
    first.
    """
    d = len(ks)
    strides = mixed_radix_strides(ks)
    digits = grid_factored_set(n, ks).coords
    perms = []
    for sigma in itertools.permutations(range(d)):
        if any(ks[sigma[j]] != ks[j] for j in range(d)):
            continue
        for rhos in itertools.product(
            *(itertools.permutations(range(k)) for k in ks)
        ):
            perms.append(
                tuple(
                    sum(rhos[j][ds[j]] * strides[sigma[j]] for j in range(d))
                    for ds in digits
                )
            )
    return tuple(perms)


@lru_cache(maxsize=None)
def _walk_automorphisms(n: int, ks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The non-identity grid automorphisms, or on one factor the ``n - 1``
    adjacent transpositions, which leave exactly the sorted labelings."""
    if ks == (n,):
        return tuple(
            tuple(range(j)) + (j + 1, j) + tuple(range(j + 2, n)) for j in range(n - 1)
        )
    return _grid_automorphisms(n, ks)[1:]


def _grid_labelings(
    n: int,
    ks: tuple[int, ...],
    omega_n: int,
    rows: Sequence[Sequence[int]] = (),
    disjoint: Sequence[tuple[int, int]] = (),
    meeting: Sequence[tuple[int, int]] = (),
    deadline: float | None = None,
) -> Iterator[tuple[int, ...] | None]:
    """The labelings no larger than their image under any of
    ``_walk_automorphisms(n, ks)``, in order.

    Labels are tried in ascending order at each position.  Each automorphism
    ``p`` tied with the prefix ``f`` compares ``f[j]`` with ``f[p[j]]`` for
    ``j`` ascending while both are placed, resuming where its comparison
    stopped: a greater ``f[j]`` skips the subtree, a smaller one drops ``p``
    for the subtree, and equal pairs keep ``p`` tied.  At full length every
    position is placed, so a labeling that survives is canonical.

    The walk keeps the history of every row's pull-back, bit ``j`` for
    coordinate ``j``, read off the prefix as the module docstring says.  A
    subtree is skipped once the masks of a ``disjoint`` pair of rows meet,
    and a full labeling is kept only if the masks of every ``meeting`` pair
    meet.  With a ``deadline`` the walk reads the clock once per placed
    label and yields ``None`` once it has passed.
    """
    d = len(ks)
    low = (1 << d) - 1
    strides = mixed_radix_strides(ks)
    # ``masks[i]`` packs the masks of the prefix ``f[:i]`` into one int, row
    # k's at bits k*d .. k*d + d - 1.
    shifts = [k * d for k in range(len(rows))]
    apart_pairs = [(shifts[a], shifts[b]) for a, b in disjoint]
    meeting_pairs = [(shifts[a], shifts[b]) for a, b in meeting]
    # apart[v][u] sets bit k*d for each row k with labels v and u in
    # different blocks; shifted by j, it sets those rows' coordinate j.
    labels = range(omega_n)
    apart = [
        [
            sum(1 << k for k, row in zip(shifts, rows) if row[v] != row[u])
            for u in labels
        ]
        for v in labels
    ]
    # Per position, its neighbour one step down along each coordinate where
    # its digit is above 0, with that coordinate.
    steps = [
        [(i - strides[j], j) for j in range(d) if i // strides[j] % ks[j]]
        for i in range(n)
    ]
    f = [-1] * n
    masks = [0] * (n + 1)
    tied = [[(p, 0) for p in _walk_automorphisms(n, ks)]] + [[]] * n
    i = 0
    while i >= 0:
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
        if h != masks[i] and any(h >> a & h >> b & low for a, b in apart_pairs):
            continue
        if i + 1 == n and not all(h >> a & h >> b & low for a, b in meeting_pairs):
            continue
        still = []
        for p, j in tied[i]:
            while j <= i and p[j] <= i and f[j] == f[p[j]]:
                j += 1
            if j > i or p[j] > i:
                still.append((p, j))
            elif f[j] > f[p[j]]:
                break
        else:
            if i + 1 == n:
                yield tuple(f)
            else:
                tied[i + 1] = still
                masks[i + 1] = h
                i += 1


def _conditioned_hold(
    fs: FactoredSet,
    rows: Mapping[str, Sequence[int]],
    conditioned: Sequence[tuple[bool, tuple[str, str, str]]],
    labeling: Labels,
) -> bool:
    """Whether ``labeling`` meets every ``(expected, names)``, up to the first miss."""
    pulled: dict[str, Labels] = {}
    blocks_of: dict[str, list[tuple[int, ...]]] = {}
    for expected, names in conditioned:
        for name in names:
            if name not in pulled:
                pulled[name] = tuple(map(rows[name].__getitem__, labeling))
        x, y, z = names
        if (blocks := blocks_of.get(z)) is None:
            grouped: dict[int, list[int]] = {}
            for s, b in enumerate(pulled[z]):
                grouped.setdefault(b, []).append(s)
            blocks = blocks_of[z] = [tuple(b) for b in grouped.values()]
        hx = block_histories(fs, pulled[x], blocks)
        hy = block_histories(fs, pulled[y], blocks)
        if expected == any(map(and_, hx, hy)):
            return False
    return True


def search_models(
    db: OrthogonalityDatabase, bounds: SearchBounds
) -> Iterator[Model | Truncation]:
    """All models of the database within bounds, one per relabeling orbit.

    The stream is deterministic: sizes ascend, block-count multisets follow
    the divisor enumeration, labelings are lexicographic.  A trailing
    ``Truncation`` item signals an exhausted time budget and names the size
    it stopped in.

    On every grid the walk yields exactly the labelings no larger than their
    image under every non-identity grid automorphism (under every adjacent
    transposition, for a single discrete factor) that meet every ``| _``
    assertion, and skips a subtree once an asserted ``orthogonal A B | _``
    fails.  With a time budget it reads the clock once per placed label.
    Each labeling it yields goes through the surjectivity filter, then
    ``_conditioned_hold``; only one that passes becomes a ``Model``.  Both
    checks are compiled once per database.
    """
    deadline = (
        None if bounds.time_budget is None else time.monotonic() + bounds.time_budget
    )
    triples = db.resolved_triples()
    omega_n = db.omega.n
    # Resolved partitions are full: ``block_ids[w]`` is the block of ``w``.
    rows = {n: p.block_ids for _, names, parts in triples for n, p in zip(names, parts)}
    conditioned = [(e, names) for e, names, _ in triples if names[2] != "_"]
    unconditional = [(e, names[:2]) for e, names, _ in triples if names[2] == "_"]
    masked = list(dict.fromkeys(name for _, pair in unconditional for name in pair))
    masked_rows = [rows[name] for name in masked]
    at = masked.index
    disjoint = [(at(x), at(y)) for e, (x, y) in unconditional if e]
    meeting = [(at(x), at(y)) for e, (x, y) in unconditional if not e]
    for n in range(1, bounds.max_size + 1):
        for ks in factor_size_multisets(n):
            if bounds.max_dim is not None and len(ks) > bounds.max_dim:
                continue
            fs = grid_factored_set(n, ks)
            walk = _grid_labelings(
                n, ks, omega_n, masked_rows, disjoint, meeting, deadline
            )
            for f in walk:
                if f is None:
                    yield Truncation(n)
                    return
                if bounds.surjective_only and len(set(f)) != omega_n:
                    continue
                if _conditioned_hold(fs, rows, conditioned, f):
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
    """Quantify the (strict) before-relation over every model within bounds."""
    x = db.resolve(first)
    y = db.resolve(second)
    checked = 0
    truncation = None
    for item in search_models(db, bounds):
        if isinstance(item, Truncation):
            truncation = item
            break
        checked += 1
        fs = item.factored
        hx = history(fs, pullback(item, x))
        hy = history(fs, pullback(item, y))
        holds = (hx & hy == hx) and (not strict or hx != hy)
        if not holds:
            return InferenceVerdict(
                kind="refuted",
                strict=strict,
                bounds=bounds,
                models_checked=checked,
                counterexample=item,
            )
    if truncation is not None and truncation.size == 1:
        kind = "inconclusive"
    elif checked == 0:
        kind = "vacuous"
    else:
        kind = "holds-up-to-bound"
    return InferenceVerdict(
        kind=kind,
        strict=strict,
        bounds=bounds,
        models_checked=checked,
        truncation=truncation,
    )


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
