"""Ground sets, partitions, and the refinement order.

Elements are dense integer indices ``0..n-1``; display labels are purely
cosmetic and never affect equality.  A partition carries an explicit
``domain``, so the same type covers partitions of the whole ground set and
partitions of a subset ("subpartitions"); a plain partition is the
domain-equals-ground special case.

Canonical form is the restricted-growth labeling: the block of the smallest
domain element is block 0, and each further block id first appears in order
of its smallest member.  Two partitions are equal exactly when their domains
and block-id sequences are equal, which makes values hashable and cheap to
deduplicate.

The layers above share five helpers from here: the full-partition guard,
the block-triple identity that independence and polynomial divisibility
decide with their own element weights, the ``_``/``!`` name resolver,
``read_digits``, the one reader that turns text from a file or the command
line into a number, and ``as_integer``, the one check that a value passed
in Python is an integer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar


class ValidationError(ValueError):
    """A value failed its structural invariants."""


def read_digits(token: str) -> int | None:
    """The number ``token`` writes in ASCII digits alone, else ``None``: the
    one form a count, an element index or a weight's terms take in text.
    ``int()`` would also read signs, ``_`` and other scripts' digits."""
    if token.isascii() and token.isdecimal():
        try:
            return int(token)
        except ValueError:  # past the interpreter's int-to-string digit limit
            pass
    return None


def as_integer(value: object, what: str) -> int:
    """``value`` as an int, if it is one; ``what`` names it in the error."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError(f"{what} {value!r} is not an integer") from None


@dataclass(frozen=True)
class GroundSet:
    """A finite set of elements ``0..n-1`` with optional distinct labels."""

    n: int
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = as_integer(self.n, "ground set size")
        if n < 0:
            raise ValidationError(f"ground set size must be >= 0, got {self.n}")
        if n > sys.maxsize:  # past any index, so no element could be reached
            raise ValidationError(f"ground set size must be <= {sys.maxsize}, got {n}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise ValidationError(
                    f"expected {self.n} labels, got {len(self.labels)}"
                )
            if len(set(self.labels)) != self.n:
                raise ValidationError("labels must be distinct")

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels or ())}

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def index_of(self, token: str) -> int:
        """Resolve a display token, a label if declared, else a decimal index
        written in ASCII digits alone."""
        if self.labels is not None:
            try:
                return self._label_index[token]
            except KeyError:
                raise ValidationError(f"unknown element {token!r}") from None
        i = read_digits(token)
        if i is None:
            raise ValidationError(f"unknown element {token!r}")
        return self.check_index(i)

    def check_index(self, i: int) -> int:
        """``i`` itself if it indexes an element; negative indices do not wrap."""
        try:
            if 0 <= index(i) < self.n:
                return i
        except TypeError:  # not an integer; the try costs in-range calls nothing
            raise ValidationError(f"element index {i!r} is not an integer") from None
        raise ValidationError(f"element index {i} out of range 0..{self.n - 1}")

    def elements(self) -> range:
        return range(self.n)


_NOT_INTEGERS = "domain and block ids must be integers"


@dataclass(frozen=True)
class Partition:
    """A partition of a subset of a ground set, in canonical form.

    ``domain`` is strictly increasing, ``block_ids[i]`` is the block id of
    ``domain[i]``, and ids follow the restricted-growth convention.  Use the
    classmethod constructors; the raw constructor only checks that the
    canonical-form invariants hold.
    """

    ground: GroundSet
    domain: tuple[int, ...]
    block_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        dom, ids = self.domain, self.block_ids
        if len(dom) != len(ids):
            raise ValidationError("domain and block ids differ in length")
        prev = -1
        seen = 0
        try:
            for e, b in zip(map(index, dom), map(index, ids)):
                if e <= prev or not 0 <= e < self.ground.n:
                    raise ValidationError(
                        "domain must be strictly increasing and in range"
                    )
                prev = e
                if b > seen or b < 0:
                    raise ValidationError(
                        "block ids must be in restricted-growth order"
                    )
                if b == seen:
                    seen += 1
        except TypeError:
            raise ValidationError(_NOT_INTEGERS) from None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_blocks(
        cls, ground: GroundSet, blocks: Iterable[Iterable[int]]
    ) -> "Partition":
        """Canonicalize explicit blocks; the domain is their union.

        Rejects empty blocks, out-of-range elements, and overlaps, naming the
        offending block.
        """
        owner: dict[int, int] = {}
        for bi, block in enumerate(blocks):
            block = list(block)
            if not block:
                raise ValidationError(f"block #{bi} is empty")
            for e in block:
                try:
                    ground.check_index(e)
                except ValidationError:
                    raise ValidationError(
                        f"block #{bi} contains out-of-range element {e!r}"
                    ) from None
                if e in owner:
                    raise ValidationError(
                        f"blocks #{owner[e]} and #{bi} overlap at element "
                        f"{ground.label(e)}"
                    )
                owner[e] = bi
        return cls.from_block_of(ground, owner)

    @classmethod
    def from_block_of(cls, ground: GroundSet, owner: Mapping[int, int]) -> "Partition":
        """Canonicalize an element-to-block-key map (keys may be anything hashable)."""
        try:
            domain = tuple(sorted(owner))
        except TypeError:  # an element that does not compare with the others
            raise ValidationError(_NOT_INTEGERS) from None
        relabel: dict[object, int] = {}
        ids = [relabel.setdefault(owner[e], len(relabel)) for e in domain]
        return cls(ground, domain, tuple(ids))

    @classmethod
    def discrete(cls, ground: GroundSet) -> "Partition":
        """All-singletons partition of the full ground set."""
        n = ground.n
        return cls(ground, tuple(range(n)), tuple(range(n)))

    @classmethod
    def indiscrete(cls, ground: GroundSet) -> "Partition":
        """One-block partition of the full ground set (no blocks when empty)."""
        n = ground.n
        return cls(ground, tuple(range(n)), (0,) * n)

    @classmethod
    def empty(cls, ground: GroundSet) -> "Partition":
        """The unique partition of the empty subset."""
        return cls(ground, (), ())

    # -- views ------------------------------------------------------------

    @cached_property
    def block_of(self) -> dict[int, int]:
        return dict(zip(self.domain, self.block_ids))

    @cached_property
    def block_count(self) -> int:
        return max(self.block_ids, default=-1) + 1

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for e, b in zip(self.domain, self.block_ids):
            out[b].append(e)
        return tuple(tuple(b) for b in out)

    @cached_property
    def block_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(b) for b in self.blocks)

    @cached_property
    def domain_set(self) -> frozenset[int]:
        return frozenset(self.domain)

    @property
    def is_full(self) -> bool:
        return len(self.domain) == self.ground.n

    def same_block(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Total-order key among partitions of one ground set."""
        return (self.domain, self.block_ids)

    # -- operations ---------------------------------------------------------

    def refines(self, other: "Partition") -> bool:
        """True when being together in ``self`` implies together in ``other``."""
        if self.ground != other.ground or self.domain != other.domain:
            raise ValidationError("refinement compares partitions of one domain")
        image: dict[int, int] = {}
        for mine, theirs in zip(self.block_ids, other.block_ids):
            known = image.setdefault(mine, theirs)
            if known != theirs:
                return False
        return True

    def restrict(self, elements: Iterable[int]) -> "Partition":
        """Partition of a subset: intersect blocks, drop empty intersections."""
        block_of = self.block_of
        try:
            owner = {e: block_of[e] for e in elements}
        except KeyError as exc:
            raise ValidationError(
                f"element {exc.args[0]!r} is outside the partition domain"
            ) from None
        return Partition.from_block_of(self.ground, owner)

    def __str__(self) -> str:
        return format_partition(self)


def require_full(ground: GroundSet, *parts: Partition) -> None:
    """Reject any partition that is not a partition of the whole ground set."""
    for part in parts:
        if part.ground != ground or not part.is_full:
            raise ValidationError("partitions of the full ground set are required")


M = TypeVar("M")


def block_triple_identity(
    x: Partition, y: Partition, z: Partition, weights: Sequence[M]
) -> bool:
    """Whether ``m(x&z) * m(y&z) == m(x&y&z) * m(z)`` for every block triple.

    ``m`` sums the weights of an event's elements, ``weights[e]`` for ``e``;
    they need exact ``+``, ``*`` and ``==``, with ``w * 0`` as zero.  One pass
    per ``z`` block sums them per ``x`` block, ``y`` block and ``(x, y)``
    cell; an absent cell measures zero.
    """
    x_of, y_of = x.block_of, y.block_of
    for zb in z.blocks:
        mx, my, cells = {}, {}, {}
        for e in zb:
            w, i, j = weights[e], x_of[e], y_of[e]
            mx[i] = mx[i] + w if i in mx else w
            my[j] = my[j] + w if j in my else w
            cells[i, j] = cells[i, j] + w if (i, j) in cells else w
        zero = w * 0
        mz = sum(mx.values(), zero)
        for i, mxz in mx.items():
            for j, myz in my.items():
                if mxz * myz != cells.get((i, j), zero) * mz:
                    return False
    return True


def common_refinement(
    parts: Iterable[Partition],
    *,
    ground: GroundSet | None = None,
    domain: Iterable[int] | None = None,
) -> Partition:
    """Coarsest partition finer than every input.

    The empty collection yields the indiscrete partition, which is why
    ``ground`` (and optionally ``domain``) must be supplied in that case.
    """
    parts = list(parts)
    if not parts:
        if ground is None:
            raise ValidationError("empty collection needs an explicit ground set")
        dom = tuple(ground.elements()) if domain is None else tuple(sorted(set(domain)))
        return Partition(ground, dom, (0,) * len(dom))
    first = parts[0]
    for p in parts[1:]:
        if p.ground != first.ground or p.domain != first.domain:
            raise ValidationError("common refinement requires matching domains")
    if len(parts) == 1:
        return first
    maps = [p.block_of for p in parts]
    owner = {e: tuple(m[e] for m in maps) for e in first.domain}
    return Partition.from_block_of(first.ground, owner)


def iter_partitions(
    ground: GroundSet, domain: Iterable[int] | None = None
) -> Iterator[Partition]:
    """All partitions of a domain, in restricted-growth (lexicographic) order.

    A flat loop, so any domain size works: the last id below the count of
    blocks opened before it grows by one, and every later id resets to 0.
    """
    dom = tuple(ground.elements()) if domain is None else tuple(sorted(set(domain)))
    k = len(dom)
    ids = [0] * k
    opened = [1] * k  # blocks opened before each position, position 0 excepted
    while True:
        yield Partition(ground, dom, tuple(ids))
        i = k - 1
        while i > 0 and ids[i] == opened[i]:
            i -= 1
        if i <= 0:
            return
        ids[i] += 1
        after = opened[i] + (ids[i] == opened[i])
        for j in range(i + 1, k):
            ids[j] = 0
            opened[j] = after


def partition_of_rank(ground: GroundSet, rank: int) -> Partition:
    """The partition at position ``rank`` of ``iter_partitions(ground)``.

    Unranks the restricted-growth string (Knuth, TAOCP 7.2.1.5) without
    listing its predecessors: with ``m`` blocks opened and ``r`` positions
    after the current one, each open block has ``T(r, m)`` completions and a
    new block ``T(r, m + 1)``, where ``T(0, m) = 1`` and
    ``T(r, m) = m T(r - 1, m) + T(r - 1, m + 1)``.
    """
    n = ground.n
    if not 0 <= as_integer(rank, "rank") < bell_number(n):
        raise ValidationError(f"rank {rank} out of range for {n} elements")
    table = [[1] * (n + 2)]
    for _ in range(1, n):
        prev = table[-1]
        table.append([m * prev[m] + prev[m + 1] for m in range(n + 1)] + [0])
    ids = [0] * n
    opened = 1
    for i in range(1, n):
        each = table[n - 1 - i][opened]
        block, rest = divmod(rank, each)
        if block < opened:
            ids[i], rank = block, rest
        else:
            ids[i], rank = opened, rank - opened * each
            opened += 1
    return Partition(ground, tuple(range(n)), tuple(ids))


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# -- text syntax -----------------------------------------------------------
#
# ``{ a b | c d | e }`` with whitespace-separated element tokens, ``_`` for
# the indiscrete partition and ``!`` for the discrete one.  The two are
# reserved: files and databases cannot declare partitions under those names.

RESERVED_NAMES = ("_", "!")


def parse_partition(text: str, ground: GroundSet) -> Partition:
    """Parse the block syntax against a ground set's labels or indices."""
    stripped = text.strip()
    if stripped == "_":
        return Partition.indiscrete(ground)
    if stripped == "!":
        return Partition.discrete(ground)
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ValidationError(f"expected '{{ ... }}', '_' or '!', got {text!r}")
    inner = stripped[1:-1]
    blocks: list[list[int]] = []
    for chunk in inner.split("|"):
        tokens = chunk.split()
        if not tokens:
            if inner.strip():
                raise ValidationError(f"empty block in {text!r}")
            continue
        blocks.append([ground.index_of(tok) for tok in tokens])
    return Partition.from_blocks(ground, blocks)


def resolve_name(
    name: str, ground: GroundSet, named: Mapping[str, Partition]
) -> Partition:
    """A declared partition by name, or a reserved name's partition of ``ground``."""
    if name in RESERVED_NAMES:
        return parse_partition(name, ground)
    try:
        return named[name]
    except KeyError:
        raise ValidationError(f"unknown partition name {name!r}") from None


def format_partition(part: Partition) -> str:
    """Canonical text form; full-domain indiscrete and discrete shrink to _ / !."""
    if part.is_full:
        n = part.ground.n
        if part.block_count <= 1:
            return "_"
        if part.block_count == n:
            return "!"
    label = part.ground.label
    body = " | ".join(" ".join(label(e) for e in block) for block in part.blocks)
    return "{ " + body + " }" if body else "{ }"
