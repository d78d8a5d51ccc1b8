"""Characteristic polynomials of events, their factorization, divisibility.

Each event (subset of the ground set) has a characteristic polynomial: the
sum over its elements of the product of their factor blocks, with blocks
treated as formal variables.  Variables are named ``(factor index, block
index)``; blocks of distinct factors are distinct sets, so the naming is
collision-free.  Coefficients stay integers: a characteristic polynomial's
are 0 and 1, and integer sums and products are exact.  Only ``evaluate``
and a coefficient passed in as a non-``int`` (kept exactly) use Fraction.

The identity ``Q(x&z) * Q(y&z) == Q(x&y&z) * Q(z)`` behind conditional
orthogonality is decided without multiplying polynomials: every block
variable takes one integer value, a power of ``size + 1`` chosen so that
the identity holds at that one point exactly when it holds as a polynomial
identity (see ``cond_orth_by_divisibility``).

The irreducible factorization of a characteristic polynomial is computed
combinatorially rather than by generic polynomial factoring: the factor
subsets under which the event is closed under splicing form a family closed
under intersection, union, and complement, so its minimal nonempty members,
the splice components that ``structure`` computes every history from,
partition the factor set and index the irreducible factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Iterable, Iterator, Mapping, Sequence

from .factored import FactoredSet
from .partitions import (
    Partition,
    ValidationError,
    block_triple_identity,
    require_full,
)
from .structure import splice_components

VarId = tuple[int, int]
Monomial = tuple[VarId, ...]


def _exact(coeff: object) -> Fraction | int:
    """A plain ``int`` as it is, anything else as an exact Fraction."""
    return coeff if type(coeff) is int else Fraction(coeff)


class SetPolynomial:
    """Sparse exact-coefficient polynomial in factor-block variables.

    Terms map a monomial (sorted tuple of variable ids, repeats allowed) to a
    nonzero coefficient, an ``int`` or a Fraction; the map is canonical, so
    equality of terms is equality of polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction | int] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    clean[tuple(sorted(mono))] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, terms: dict[Monomial, Fraction | int]) -> "SetPolynomial":
        """Wrap terms that are already canonical, without copying or checking."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls) -> "SetPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "SetPolynomial":
        return cls._of({(): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetPolynomial) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SetPolynomial") -> "SetPolynomial":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return SetPolynomial._of(out)

    def __neg__(self) -> "SetPolynomial":
        return SetPolynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SetPolynomial") -> "SetPolynomial":
        return self + (-other)

    def __mul__(self, other: "SetPolynomial | int | Fraction") -> "SetPolynomial":
        """Product with a polynomial, or with a scalar converted as a coefficient."""
        if not isinstance(other, SetPolynomial):
            other = _exact(other)
            return SetPolynomial._of(
                {m: c * other for m, c in self.terms.items()} if other else {}
            )
        out: dict[Monomial, Fraction | int] = {}
        for m0, c0 in self.terms.items():
            for m1, c1 in other.terms.items():
                mono = tuple(sorted(m0 + m1))
                s = out.get(mono, 0) + c0 * c1
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return SetPolynomial._of(out)

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[VarId, Fraction | int]) -> Fraction:
        """Substitute a rational for every variable; all variables must be given."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            prod = coeff
            for var in mono:
                try:
                    prod *= assignment[var]
                except KeyError:
                    raise ValidationError(f"no value assigned to variable {var}") from None
            total += prod
        return total

    def __repr__(self) -> str:
        return f"SetPolynomial({format_polynomial(self)})"


def _monomials(fs: FactoredSet, mask: int, elements: Iterable[int]) -> Iterator[Monomial]:
    """Per element, the product of its blocks of the factors in ``mask``."""
    idxs, coords = fs.mask_indices(mask), fs.coords
    for s in map(fs.ground.check_index, elements):
        yield tuple((j, coords[s][j]) for j in idxs)


def restricted_polynomial(
    fs: FactoredSet, mask: int, elements: Iterable[int]
) -> SetPolynomial:
    """Sum of the distinct block-monomials of the event, seen through ``mask``.

    Distinct elements may project to the same monomial once factors outside
    ``mask`` are ignored; each surviving monomial contributes coefficient 1.
    Factor indices ascend, so every monomial is already sorted.
    """
    return SetPolynomial._of(dict.fromkeys(_monomials(fs, mask, elements), 1))


def characteristic_polynomial(fs: FactoredSet, elements: Iterable[int]) -> SetPolynomial:
    """One monomial per element: the product of all its factor blocks."""
    return restricted_polynomial(fs, fs.full_mask, elements)


@dataclass(frozen=True)
class IrrDecomposition:
    """Partition of the factor set with the matching polynomial factors.

    The product of ``factors`` is the characteristic polynomial of the event,
    and each factor is irreducible.
    """

    components: tuple[int, ...]
    factors: tuple[SetPolynomial, ...]

    def product(self) -> SetPolynomial:
        out = SetPolynomial.one()
        for f in self.factors:
            out = out * f
        return out


def irreducible_components(fs: FactoredSet, elements: Iterable[int]) -> IrrDecomposition:
    """Factor the characteristic polynomial of a nonempty event into irreducibles."""
    event = frozenset(elements)
    if not event:
        raise ValidationError("the event must be nonempty")
    comps = splice_components(fs, Partition.from_blocks(fs.ground, [event]))
    return IrrDecomposition(
        comps, tuple(restricted_polynomial(fs, c, event) for c in comps)
    )


def _masses(rows: Sequence[Sequence], coords: Iterable[tuple[int, ...]]) -> list:
    """Per coordinate row, the product of the weights of its blocks.

    ``rows[j][b]`` weighs block ``b`` of factor ``j``; a dimension-0 set's
    one empty coordinate row gets the int 1.
    """
    return [math.prod(map(getitem, rows, coord)) for coord in coords]


# The greedy Mian-Chowla Sidon sequence from 0: each term is the least
# integer above the last that keeps every sum ``s_a + s_b`` (a <= b) distinct.
_SIDON = [0]


def _sidon(k: int) -> list[int]:
    """The module's Sidon list, first extended to at least ``k`` terms.

    An extension is built on a copy and then bound, so a reader never sees
    a list in the middle of growing.
    """
    global _SIDON
    seq = _SIDON
    if len(seq) < k:
        seq = list(seq)
        while len(seq) < k:
            sums = {a + b for i, a in enumerate(seq) for b in seq[i:]}
            c = seq[-1] + 1
            while any(c + a in sums for a in seq) or 2 * c in sums:
                c += 1
            seq.append(c)
        _SIDON = seq
    return seq


def _generic_rows(block_counts: Sequence[int], t: int) -> list[tuple[int, ...]]:
    """Block ``b`` of factor ``j`` weighs ``t ** (s_b * R_j)``.

    ``s`` is the Sidon sequence and ``R_j`` the product of
    ``2 * s_(k_i - 1) + 1`` over the factors ``i < j``, a mixed radix whose
    digit ``j`` holds the sum of two exponents of factor ``j``.
    """
    rows, radix = [], 1
    for k in block_counts:
        s = _sidon(k)
        rows.append(tuple(t ** (s[b] * radix) for b in range(k)))
        radix *= 2 * s[k - 1] + 1
    return rows


def _generic_point(fs: FactoredSet) -> list[tuple[int, ...]]:
    """The weight rows of ``fs``'s generic point: ``t = n + 1`` for size ``n``."""
    return _generic_rows([p.block_count for p in fs.factors], fs.size + 1)


def _generic_masses(fs: FactoredSet) -> list[int]:
    """Every element's characteristic monomial at the generic point, cached on ``fs``."""
    masses = fs._generic_masses
    if masses is None:
        masses = fs._generic_masses = _masses(_generic_point(fs), fs.coords)
    return masses


def cond_orth_by_divisibility(
    fs: FactoredSet, x: Partition, y: Partition, z: Partition
) -> bool:
    """Conditional orthogonality decided purely by polynomial identities.

    For every block triple the products must agree exactly:
    ``Q(z) * Q(x&y&z) == Q(x&z) * Q(y&z)``.  By the paper's fundamental
    theorem that is conditional orthogonality.  The identity is decided at
    one integer point, the block-triple identity with each element's
    monomial evaluated there as its weight.  This route never looks at
    histories, which makes it an independent cross-check of the
    splice-based decision.  The model search is its second user: it
    pushes the grid's generic masses forward through each labeling and
    decides a conditioned assertion on the observations with the same
    identity (see ``inference``), since each event of a pull-back is a
    preimage and weighs at the point what its image sums to.

    Why one point decides the identity, for a set of size ``n`` and
    dimension ``d``, with ``t = n + 1`` and the weights of ``_generic_rows``:

    1. Each monomial of a characteristic polynomial has one variable per
       factor, so every monomial of the difference
       ``Q(x&z) Q(y&z) - Q(x&y&z) Q(z)`` has exactly two variables per
       factor, counted with multiplicity.
    2. Two variables ``a, b`` of factor ``j`` contribute the exponent
       ``(s_a + s_b) R_j`` of ``t``.  As ``s_a + s_b <= 2 s_(k_j - 1)``, the
       mixed radix ``R_j`` keeps the factors' digits apart, and the Sidon
       property recovers ``{a, b}`` from each digit.  So distinct monomials
       go to distinct powers of ``t``.
    3. A coefficient of either product counts the ordered pairs of elements
       whose monomials multiply to that monomial.  Per factor the pair can
       only swap its two blocks, so there are at most ``2^d`` pairs, and
       ``2^d <= n`` because every factor has at least 2 blocks.  The
       difference's coefficients lie in ``[-n, n]``.
    4. A non-zero integer polynomial with coefficients of absolute value at
       most ``n`` is non-zero at ``t = n + 1``: its top term is at least
       ``t^e`` in absolute value, and the lower terms sum to at most
       ``n (t^e - 1) / (t - 1) = t^e - 1``.  So a non-zero difference is
       non-zero at the point, and the identity holds there exactly when it
       holds as a polynomial identity.

    (The empty set's one factor has no blocks, so no triple has a block and
    the identity holds vacuously there, with ``t = 1``.)

    No test checks the bound ``t = n + 1`` of step 4: the tests' inputs
    also pass with ``t = 2``.  They do fail with linear exponents in place
    of the Sidon sequence, or with ``t = 1``.
    """
    require_full(fs.ground, x, y, z)
    return block_triple_identity(x, y, z, _generic_masses(fs))


def format_polynomial(
    poly: SetPolynomial, factor_names: Sequence[str] | None = None
) -> str:
    """Deterministic rendering: terms sorted by monomial, exact coefficients.

    Variables print as ``factorName.blockIndex``; unnamed factors fall back
    to ``b<j>``.
    """
    if poly.is_zero:
        return "0"

    def name(j: int) -> str:
        return factor_names[j] if factor_names is not None else f"b{j}"

    pieces = []
    for mono in sorted(poly.terms):
        coeff = poly.terms[mono]
        vars_part = "*".join(f"{name(j)}.{k}" for j, k in mono)
        if not vars_part:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(vars_part)
        else:
            pieces.append(f"{coeff}*{vars_part}")
    return " + ".join(pieces)
