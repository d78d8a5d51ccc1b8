"""Line-oriented UTF-8 file formats shared by the CLI.

Three kinds of files, all with ``#`` comments and whitespace-delimited
tokens:

* factored-set files: ``set N``, optional ``labels``, ``factor NAME {...}``
  lines defining the factorization, ``partition NAME {...}`` lines naming
  extra partitions for queries, and optional ``map S -> W`` lines turning
  the file into a model of some observation space;
* database files: ``omega N``, ``labels``, ``partition`` lines, and
  ``orthogonal A B | C`` / ``dependent A B | C`` assertions;
* distribution files: one ``weights NAME p/q p/q ...`` line per factor.

Loading validates as it parses; errors carry file, line, and token.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping

from .factored import FactoredSet
from .inference import Model, OrthogonalityDatabase
from .partitions import (
    RESERVED_NAMES,
    GroundSet,
    Partition,
    ValidationError,
    format_partition,
    parse_partition,
    read_digits,
    resolve_name,
)
from .probability import FactoredDistribution, check_weight_row

# The largest ``set``/``omega`` count a file may declare.  A partition line
# builds tuples as long as the ground set, so a count that no memory holds
# would fail with MemoryError deep inside the reader instead of at its line.
# A one-factor file at the limit loads and dumps in about a second within
# 250 MB (Python 3.11.7).
MAX_ELEMENTS = 10**6


class ParseError(ValueError):
    def __init__(self, path: str, lineno: int, message: str, token: str | None = None):
        detail = f"{path}:{lineno}: {message}"
        if token is not None:
            detail += f" (at {token!r})"
        super().__init__(detail)
        self.path = path
        self.lineno = lineno
        self.token = token


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text; a byte sequence that is not UTF-8 is a ParseError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            str(path), lineno, f"not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None


def meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line's number and text, comments and blank lines dropped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _named_partition(
    origin: str, lineno: int, line: str, ground: GroundSet, named: dict[str, Partition]
) -> tuple[str, Partition]:
    """Parse a ``KEYWORD NAME {...}`` line and bind the new name in ``named``."""
    tokens = line.split()
    if len(tokens) < 3:
        raise ParseError(origin, lineno, f"'{tokens[0]}' expects a name and blocks")
    name = tokens[1]
    if name in RESERVED_NAMES:
        raise ParseError(origin, lineno, f"{name!r} is reserved", name)
    if name in named:
        raise ParseError(origin, lineno, f"duplicate partition name {name!r}", name)
    part = named[name] = parse_partition(line.split(None, 2)[2], ground)
    return name, part


def _header_line(
    origin: str,
    lineno: int,
    tokens: list[str],
    count_keyword: str,
    ground: GroundSet | None,
    body_started: bool,
) -> GroundSet:
    """The ground set after a ``COUNT_KEYWORD N`` or ``labels ...`` line.

    Both file kinds share one header rule: the count line comes first, and
    at most one ``labels`` line follows it, before any partition.
    """
    if tokens[0] == count_keyword:
        if ground is not None:
            raise ParseError(origin, lineno, f"duplicate '{count_keyword}' line")
        count = read_digits(tokens[1]) if len(tokens) == 2 else None
        if count is None:
            raise ParseError(
                origin, lineno, f"'{count_keyword}' expects one count", tokens[-1]
            )
        if count > MAX_ELEMENTS:
            raise ParseError(
                origin, lineno,
                f"'{count_keyword}' count must be <= {MAX_ELEMENTS}, got {count}",
            )
        return GroundSet(count)
    if ground is None:
        raise ParseError(origin, lineno, f"'labels' must follow '{count_keyword}'")
    if ground.labels is not None or body_started:
        raise ParseError(
            origin, lineno, "'labels' may appear once, before any partitions"
        )
    for label in tokens[1:]:
        if "|" in label:
            raise ParseError(origin, lineno, f"label {label!r} contains '|'")
    return GroundSet(ground.n, tuple(tokens[1:]))


@dataclass(frozen=True)
class FactoredSetFile:
    """A parsed factored-set file: the set, name bindings, and an optional map."""

    fs: FactoredSet
    factor_names: tuple[str, ...]  # aligned with fs.factors
    partitions: Mapping[str, Partition]  # factors and extra named partitions
    map_pairs: tuple[tuple[str, str], ...] | None
    map_lines: tuple[int, ...]  # line number of each map pair, for errors
    origin: str

    def resolve(self, name: str) -> Partition:
        return resolve_name(name, self.fs.ground, self.partitions)


def load_factored_set_file(path: str | Path) -> FactoredSetFile:
    return parse_factored_set_text(read_text(path), str(path))


def parse_factored_set_text(text: str, origin: str = "<string>") -> FactoredSetFile:
    ground: GroundSet | None = None
    factor_name: dict[Partition, str] = {}
    named: dict[str, Partition] = {}
    map_pairs: list[tuple[str, str]] = []
    map_lines: list[int] = []

    for lineno, line in meaningful_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        try:
            if keyword in ("set", "labels"):
                ground = _header_line(
                    origin, lineno, tokens, "set", ground, bool(named or map_pairs)
                )
            elif ground is None:
                raise ParseError(origin, lineno, "'set N' must come first")
            elif keyword in ("factor", "partition"):
                name, part = _named_partition(origin, lineno, line, ground, named)
                if keyword == "factor":
                    if part in factor_name:
                        raise ParseError(
                            origin, lineno,
                            f"factor {name!r} duplicates factor {factor_name[part]!r}",
                        )
                    factor_name[part] = name
            elif keyword == "map":
                if len(tokens) != 4 or tokens[2] != "->":
                    raise ParseError(origin, lineno, "'map' expects 'map FROM -> TO'")
                map_pairs.append((tokens[1], tokens[3]))
                map_lines.append(lineno)
            else:
                raise ParseError(origin, lineno, f"unknown keyword {keyword!r}", keyword)
        except ValidationError as exc:
            raise ParseError(origin, lineno, str(exc)) from None

    if ground is None:
        raise ParseError(origin, 1, "missing 'set N' line")
    try:
        fs = FactoredSet(ground, factor_name)
    except ValidationError as exc:
        raise ParseError(origin, 1, f"invalid factorization: {exc}") from None
    return FactoredSetFile(
        fs=fs,
        factor_names=tuple(factor_name[p] for p in fs.factors),
        partitions=named,
        map_pairs=tuple(map_pairs) if map_pairs else None,
        map_lines=tuple(map_lines),
        origin=origin,
    )


def resolve_model(fsf: FactoredSetFile, omega: GroundSet) -> Model:
    """Bind a factored-set file to an observation space.

    Explicit ``map`` lines win; otherwise elements are matched by shared
    labels, or by index when the sizes agree and either side lacks labels.
    Errors in the map cite ``file:line``, an element left out the first map
    line, and a binding without map lines the file.
    """
    fs = fsf.fs
    if fsf.map_pairs is not None:
        targets: dict[int, int] = {}
        for (s_tok, w_tok), lineno in zip(fsf.map_pairs, fsf.map_lines):
            try:
                s = fs.ground.index_of(s_tok)
                if s in targets:
                    raise ValidationError(f"element {s_tok!r} mapped twice")
                targets[s] = omega.index_of(w_tok)
            except ValidationError as exc:
                raise ValidationError(f"{fsf.origin}:{lineno}: {exc}") from None
        missing = [s for s in range(fs.size) if s not in targets]
        if missing:
            raise ValidationError(
                f"{fsf.origin}:{fsf.map_lines[0]}: map does not cover element "
                f"{fs.ground.label(missing[0])!r}"
            )
        labeling = tuple(targets[s] for s in range(fs.size))
    else:
        try:
            if fs.ground.labels is not None and omega.labels is not None:
                labeling = tuple(map(omega.index_of, fs.ground.labels))
            elif fs.size == omega.n:
                labeling = tuple(range(fs.size))
            else:
                raise ValidationError("sizes differ so identity labeling is impossible")
        except ValidationError as exc:
            raise ValidationError(f"{fsf.origin}: no map lines, and {exc}") from None
    return Model(fs, labeling, omega)


def load_database_file(path: str | Path) -> OrthogonalityDatabase:
    return parse_database_text(read_text(path), str(path))


def parse_database_text(text: str, origin: str = "<string>") -> OrthogonalityDatabase:
    omega: GroundSet | None = None
    named: dict[str, Partition] = {}
    orthogonal_triples: set[tuple[str, str, str]] = set()
    dependent_triples: set[tuple[str, str, str]] = set()

    for lineno, line in meaningful_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        try:
            if keyword in ("omega", "labels"):
                omega = _header_line(origin, lineno, tokens, "omega", omega, bool(named))
            elif omega is None:
                raise ParseError(origin, lineno, "'omega N' must come first")
            elif keyword == "partition":
                name, part = _named_partition(origin, lineno, line, omega, named)
                if not part.is_full:
                    raise ParseError(
                        origin, lineno, f"partition {name!r} must cover all elements"
                    )
            elif keyword in ("orthogonal", "dependent"):
                rest = tokens[1:]
                if len(rest) != 4 or rest[2] != "|":
                    raise ParseError(
                        origin, lineno, f"'{keyword}' expects 'A B | C'"
                    )
                triple = (rest[0], rest[1], rest[3])
                for name in triple:
                    if name not in named and name not in RESERVED_NAMES:
                        raise ParseError(
                            origin, lineno, f"unknown partition name {name!r}", name
                        )
                if keyword == "orthogonal":
                    orthogonal_triples.add(triple)
                else:
                    dependent_triples.add(triple)
            else:
                raise ParseError(origin, lineno, f"unknown keyword {keyword!r}", keyword)
        except ValidationError as exc:
            raise ParseError(origin, lineno, str(exc)) from None

    if omega is None:
        raise ParseError(origin, 1, "missing 'omega N' line")
    return OrthogonalityDatabase(
        omega=omega,
        partitions=named,
        orthogonal_triples=frozenset(orthogonal_triples),
        dependent_triples=frozenset(dependent_triples),
    )


def load_distribution_file(path: str | Path, fsf: FactoredSetFile) -> FactoredDistribution:
    return parse_distribution_text(read_text(path), fsf, str(path))


def parse_distribution_text(
    text: str, fsf: FactoredSetFile, origin: str = "<string>"
) -> FactoredDistribution:
    fs = fsf.fs
    index = {name: j for j, name in enumerate(fsf.factor_names)}
    rows: dict[int, tuple[Fraction, ...]] = {}
    for lineno, line in meaningful_lines(text):
        tokens = line.split()
        if tokens[0] != "weights":
            raise ParseError(origin, lineno, f"unknown keyword {tokens[0]!r}", tokens[0])
        if len(tokens) < 3:
            raise ParseError(origin, lineno, "'weights' expects a factor name and fractions")
        name = tokens[1]
        if name not in index:
            raise ParseError(origin, lineno, f"unknown factor name {name!r}", name)
        j = index[name]
        if j in rows:
            raise ParseError(origin, lineno, f"duplicate weights for factor {name!r}", name)
        weights = []
        for tok in tokens[2:]:
            num, slash, den = tok.partition("/")
            p = read_digits(num)
            q = read_digits(den) if slash else 1
            if p is None or not q:
                raise ParseError(origin, lineno, f"bad fraction: {tok!r}")
            weights.append(Fraction(p, q))
        try:
            check_weight_row(weights, fs.factors[j].block_count, name)
        except ValidationError as exc:
            raise ParseError(origin, lineno, str(exc)) from None
        rows[j] = tuple(weights)
    missing = [fsf.factor_names[j] for j in range(fs.dim) if j not in rows]
    if missing:
        raise ParseError(origin, 1, f"missing weights for factor {missing[0]!r}")
    return FactoredDistribution(fs, tuple(rows[j] for j in range(fs.dim)))


# -- canonical emitters ------------------------------------------------------


def format_factored_set_file(fsf: FactoredSetFile) -> str:
    fs = fsf.fs
    lines = [f"set {fs.size}"]
    if fs.ground.labels is not None:
        lines.append("labels " + " ".join(fs.ground.labels))
    for name, part in zip(fsf.factor_names, fs.factors):
        lines.append(f"factor {name} {format_partition(part)}")
    factor_set = set(fs.factors)
    for name in sorted(fsf.partitions):
        part = fsf.partitions[name]
        if name in fsf.factor_names and part in factor_set:
            continue
        lines.append(f"partition {name} {format_partition(part)}")
    if fsf.map_pairs is not None:
        for s_tok, w_tok in fsf.map_pairs:
            lines.append(f"map {s_tok} -> {w_tok}")
    return "\n".join(lines) + "\n"


def format_database_file(db: OrthogonalityDatabase) -> str:
    lines = [f"omega {db.omega.n}"]
    if db.omega.labels is not None:
        lines.append("labels " + " ".join(db.omega.labels))
    for name in sorted(db.partitions):
        lines.append(f"partition {name} {format_partition(db.partitions[name])}")
    for a, b, c in sorted(db.orthogonal_triples):
        lines.append(f"orthogonal {a} {b} | {c}")
    for a, b, c in sorted(db.dependent_triples):
        lines.append(f"dependent {a} {b} | {c}")
    return "\n".join(lines) + "\n"
