"""Characteristic polynomials of events, their factorization, divisibility.

Each event (subset of the ground set) has a characteristic polynomial: the
sum over its elements of the product of their factor blocks, with blocks
treated as formal variables.  Variables are named ``(factor index, block
index)``; blocks of distinct factors are distinct sets, so the naming is
collision-free.  Coefficients are exact rationals because every check here
is a polynomial identity, and identities are not a matter of tolerance.

The irreducible factorization of a characteristic polynomial is computed
combinatorially rather than by generic polynomial factoring: the factor
subsets under which the event is closed under splicing form a family closed
under intersection, union, and complement, so its minimal nonempty members,
the splice components that ``structure`` computes every history from,
partition the factor set and index the irreducible factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SetPolynomial:
    """Sparse exact-coefficient polynomial in factor-block variables.

    Terms map a monomial (sorted tuple of variable ids, repeats allowed) to a
    nonzero rational coefficient; the map is canonical, so equality of terms
    is equality of polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[tuple(sorted(mono))] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "SetPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "SetPolynomial":
        return cls({(): _ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetPolynomial) and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SetPolynomial") -> "SetPolynomial":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, _ZERO) + coeff
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        result = SetPolynomial()
        result.terms = out
        return result

    def __neg__(self) -> "SetPolynomial":
        result = SetPolynomial()
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other: "SetPolynomial") -> "SetPolynomial":
        return self + (-other)

    def __mul__(self, other: "SetPolynomial | int | Fraction") -> "SetPolynomial":
        if isinstance(other, (int, Fraction)):
            scale = Fraction(other)
            result = SetPolynomial()
            if scale:
                result.terms = {m: c * scale for m, c in self.terms.items()}
            return result
        out: dict[Monomial, Fraction] = {}
        for m0, c0 in self.terms.items():
            for m1, c1 in other.terms.items():
                mono = tuple(sorted(m0 + m1))
                s = out.get(mono, _ZERO) + c0 * c1
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        result = SetPolynomial()
        result.terms = out
        return result

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[VarId, Fraction | int]) -> Fraction:
        """Substitute a rational for every variable; all variables must be given."""
        total = _ZERO
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


def restricted_polynomial(
    fs: FactoredSet, mask: int, elements: Iterable[int]
) -> SetPolynomial:
    """Sum of the distinct block-monomials of the event, seen through ``mask``.

    Distinct elements may project to the same monomial once factors outside
    ``mask`` are ignored; each surviving monomial contributes coefficient 1.
    """
    idxs = fs.mask_indices(mask)
    coords = fs.coords
    elements = map(fs.ground.check_index, elements)
    monos = {tuple((j, coords[s][j]) for j in idxs) for s in elements}
    return SetPolynomial({m: _ONE for m in monos})


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


def cond_orth_by_divisibility(
    fs: FactoredSet, x: Partition, y: Partition, z: Partition
) -> bool:
    """Conditional orthogonality decided purely by polynomial identities.

    For every block triple the products must agree exactly:
    ``Q(z) * Q(x&y&z) == Q(x&z) * Q(y&z)``, the block-triple identity with
    characteristic polynomials as the measure.  This route never looks at
    histories, which makes it an independent cross-check of the
    splice-based decision.
    """
    require_full(fs.ground, x, y, z)
    return block_triple_identity(
        x, y, z, lambda event: characteristic_polynomial(fs, event)
    )


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
