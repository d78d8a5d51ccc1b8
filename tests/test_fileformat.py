import random
from fractions import Fraction

import pytest

from factoredsets import (
    FactoredSet,
    GroundSet,
    ValidationError,
    data_path,
    format_database_file,
    format_factored_set_file,
    load_database_file,
    load_factored_set_file,
    parse_database_text,
    parse_distribution_text,
    parse_factored_set_text,
    resolve_model,
)
from factoredsets.fileformat import (
    FactoredSetFile,
    ParseError,
    _header_line,
    _named_partition,
    meaningful_lines,
)


EX1_TEXT = """\
set 4
labels 00 01 10 11
factor X { 00 01 | 10 11 }
factor V { 00 11 | 01 10 }
partition Y { 00 10 | 01 11 }
"""


class TestFactoredSetFiles:
    def test_parse_basics(self):
        f = parse_factored_set_text(EX1_TEXT)
        assert f.fs.size == 4 and f.fs.dim == 2
        assert set(f.factor_names) == {"X", "V"}
        assert f.resolve("Y").block_sets == (
            frozenset({0, 2}),
            frozenset({1, 3}),
        )

    def test_comments_and_blank_lines(self):
        f = parse_factored_set_text(
            "# heading\n\nset 2\n\nfactor A { 0 | 1 }  # trailing\n"
        )
        assert f.fs.dim == 1

    def test_round_trip(self):
        for name in ("ex1.ffs", "ex2-model.ffs", "counterfactual-mugging.ffs"):
            f = load_factored_set_file(data_path(name))
            again = parse_factored_set_text(format_factored_set_file(f))
            assert again.fs == f.fs
            assert again.factor_names == f.factor_names
            assert again.partitions == dict(f.partitions)
            assert again.map_pairs == f.map_pairs

    def test_error_cites_file_and_line(self, tmp_path):
        path = tmp_path / "bad.ffs"
        path.write_text("set 4\nfactor X { 0 1 | 1 2 }\n")
        with pytest.raises(ParseError) as exc:
            load_factored_set_file(path)
        assert f"{path}:2" in str(exc.value)
        assert exc.value.lineno == 2

    def test_missing_set_line(self):
        with pytest.raises(ParseError, match="set N"):
            parse_factored_set_text("factor A { 0 | 1 }")
        with pytest.raises(ParseError, match="missing 'set N'"):
            parse_factored_set_text("# only a comment\n")

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse_factored_set_text("set 2\nfactorize A { 0 | 1 }\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError, match="duplicate partition name"):
            parse_factored_set_text("set 2\nfactor A { 0 | 1 }\npartition A _\n")

    def test_invalid_factorization_reported(self):
        with pytest.raises(ParseError, match="invalid factorization"):
            parse_factored_set_text("set 4\nfactor A { 0 1 | 2 3 }\n")

    def test_labels_must_precede_partitions(self):
        with pytest.raises(ParseError, match="before any partitions"):
            parse_factored_set_text(
                "set 2\nfactor A { 0 | 1 }\nlabels a b\n"
            )

    def test_duplicate_factor_named_at_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_factored_set_text(
                "set 4\nfactor X { 0 1 | 2 3 }\nfactor V { 0 2 | 1 3 }\n"
                "factor Y { 2 3 | 0 1 }\n"
            )
        assert str(exc.value) == "<string>:4: factor 'Y' duplicates factor 'X'"
        assert exc.value.lineno == 4

    def test_first_error_in_file_order_wins(self):
        # The duplicate factor on line 3 comes before the unknown keyword.
        with pytest.raises(ParseError) as exc:
            parse_factored_set_text(
                "set 4\nfactor X { 0 1 | 2 3 }\nfactor Y { 0 1 | 2 3 }\n"
                "factor V { 0 2 | 1 3 }\nbogus line\n"
            )
        assert exc.value.lineno == 3
        assert "duplicates factor 'X'" in str(exc.value)

    def test_label_with_a_bar_rejected_at_its_line(self):
        # No partition could name 'a|': the bar would split it.
        with pytest.raises(ParseError) as exc:
            parse_factored_set_text("set 2\nlabels a| b\nfactor A { a| | b }\n")
        assert str(exc.value) == "<string>:2: label 'a|' contains '|'"

    def test_reserved_partition_name(self):
        with pytest.raises(ParseError) as exc:
            parse_factored_set_text("set 2\nfactor A { 0 | 1 }\npartition _ { 0 | 1 }\n")
        assert str(exc.value) == "<string>:3: '_' is reserved (at '_')"

    def test_labels_after_a_map_line_rejected(self):
        with pytest.raises(ParseError, match="before any partitions") as exc:
            parse_factored_set_text("set 2\nmap 0 -> 0\nlabels a b\n")
        assert exc.value.lineno == 3


def reference_parse_factored_set_text(
    text: str, origin: str = "<string>"
) -> FactoredSetFile:
    """The factored-set parser as two passes: read every line, then assemble.

    The oracle for the one-pass parser: on any text with at most one error
    the two give equal results or the same error.
    """
    ground = None
    body_started = False
    factor_decls = []
    named = {}
    map_pairs = []
    map_lines = []
    for lineno, line in meaningful_lines(text):
        tokens = line.split()
        keyword = tokens[0]
        try:
            if keyword in ("set", "labels"):
                ground = _header_line(origin, lineno, tokens, "set", ground, body_started)
            elif ground is None:
                raise ParseError(origin, lineno, "'set N' must come first")
            elif keyword in ("factor", "partition"):
                body_started = True
                name, part = _named_partition(origin, lineno, line, ground, named)
                if keyword == "factor":
                    factor_decls.append((name, part, lineno))
            elif keyword == "map":
                body_started = True
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

    by_part = {}
    for name, part, lineno in factor_decls:
        if part in by_part:
            raise ParseError(
                origin, lineno, f"factor {name!r} duplicates factor {by_part[part]!r}"
            )
        by_part[part] = name
    try:
        fs = FactoredSet(ground, [p for _, p, _ in factor_decls])
    except ValidationError as exc:
        raise ParseError(origin, 1, f"invalid factorization: {exc}") from None
    return FactoredSetFile(
        fs=fs,
        factor_names=tuple(by_part[p] for p in fs.factors),
        partitions=named,
        map_pairs=tuple(map_pairs) if map_pairs else None,
        map_lines=tuple(map_lines),
        origin=origin,
    )


BUNDLED_FFS = (
    "ex1.ffs", "ex2-model.ffs", "newcomb-transparent.ffs", "counterfactual-mugging.ffs"
)


STRAY_TOKENS = ["bogus", "{", "}", "|", "_", "!", "->", "#", "0", "3"]


def mutate(rng: random.Random, text: str) -> str:
    """Delete, duplicate, or replace one token of one line of ``text``."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.choice(("delete", "duplicate", "token"))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split()
        if tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(text.split() + STRAY_TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def outcome(parse, text: str):
    try:
        return parse(text, "mutant.ffs")
    except ParseError as exc:
        return str(exc)


class TestOnePassParserOracle:
    """The one-pass parser agrees with the two-pass reference."""

    @pytest.mark.parametrize("name", BUNDLED_FFS)
    def test_bundled_files(self, name):
        text = data_path(name).read_text()
        got = parse_factored_set_text(text, name)
        assert got == reference_parse_factored_set_text(text, name)

    def test_seeded_single_line_mutations(self):
        rng = random.Random(1013)
        texts = [data_path(name).read_text() for name in BUNDLED_FFS]
        parsed = errors = 0
        for _ in range(800):
            text = mutate(rng, rng.choice(texts))
            expected = outcome(reference_parse_factored_set_text, text)
            assert outcome(parse_factored_set_text, text) == expected, text
            if isinstance(expected, str):
                errors += 1
            else:
                parsed += 1
        assert parsed > 100 and errors > 100


class TestModelResolution:
    def test_explicit_map(self, ex2):
        assert ex2.model.labeling[:8] == tuple(range(8))
        omega = ex2.db.omega
        label = ex2.model_file.fs.ground.label
        for s in range(8, 12):
            assert omega.label(ex2.model.labeling[s]) in (
                label(s) + "0",
                label(s) + "1",
            )

    def test_identity_by_label(self, ex1):
        model = resolve_model(ex1.file, ex1.db.omega)
        assert model.labeling == (0, 1, 2, 3)

    def test_identity_by_index_when_unlabeled(self):
        f = parse_factored_set_text("set 2\nfactor A { 0 | 1 }\n")
        model = resolve_model(f, GroundSet(2))
        assert model.labeling == (0, 1)

    def test_size_mismatch_without_map(self):
        f = parse_factored_set_text("set 2\nfactor A { 0 | 1 }\n")
        with pytest.raises(ValidationError, match="sizes differ"):
            resolve_model(f, GroundSet(3))

    def test_incomplete_map_rejected(self):
        f = parse_factored_set_text(
            "set 2\nfactor A { 0 | 1 }\nmap 0 -> 0\n"
        )
        with pytest.raises(ValidationError, match="does not cover"):
            resolve_model(f, GroundSet(2))

    def test_double_map_rejected(self):
        f = parse_factored_set_text(
            "set 2\nfactor A { 0 | 1 }\nmap 0 -> 0\nmap 0 -> 1\nmap 1 -> 1\n"
        )
        with pytest.raises(ValidationError, match="mapped twice"):
            resolve_model(f, GroundSet(2))


class TestDatabaseFiles:
    def test_parse_and_round_trip(self):
        db = load_database_file(data_path("ex2.db"))
        assert db.omega.n == 8
        assert len(db.orthogonal_triples) == 3
        assert len(db.dependent_triples) == 3
        again = parse_database_text(format_database_file(db))
        assert again == db

    def test_triples_with_unknown_names(self):
        with pytest.raises(ParseError, match="unknown partition name"):
            parse_database_text("omega 2\northogonal A A | _\n")

    def test_partition_must_cover_omega(self):
        with pytest.raises(ParseError, match="cover all elements"):
            parse_database_text("omega 3\npartition A { 0 | 1 }\n")

    def test_bad_triple_shape(self):
        with pytest.raises(ParseError, match="expects 'A B | C'"):
            parse_database_text("omega 2\northogonal _ _ _\n")

    def test_label_with_a_bar_rejected_at_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_database_text("omega 2\nlabels a b|\n", "bar.db")
        assert str(exc.value) == "bar.db:2: label 'b|' contains '|'"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("omega 2\nbogus A\n", "unknown keyword 'bogus' (at 'bogus')"),
            ("omega 2\npartition A { 0 | 5 }\n", "element index 5 out of range 0..1"),
        ],
    )
    def test_bad_line_named(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_database_text(text, "bad.db")
        assert str(exc.value) == f"bad.db:2: {message}"

    def test_second_labels_line_rejected(self):
        with pytest.raises(ParseError, match="'labels' may appear once") as exc:
            parse_database_text("omega 2\nlabels a b\nlabels c d\n", "two.db")
        assert str(exc.value).startswith("two.db:3: ")

    def test_labels_must_precede_partitions(self):
        with pytest.raises(ParseError, match="before any partitions") as exc:
            parse_database_text(
                "omega 2\npartition A { 0 | 1 }\nlabels a b\n", "late.db"
            )
        assert str(exc.value).startswith("late.db:3: ")

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("partition A { 0 | 1 }\nomega 2\n", 1),
            ("# header\northogonal _ _ | _\nomega 2\n", 2),
            ("labels a b\nomega 2\n", 1),
        ],
    )
    def test_omega_must_come_first(self, text, lineno):
        with pytest.raises(ParseError, match="omega") as exc:
            parse_database_text(text, "order.db")
        assert str(exc.value).startswith(f"order.db:{lineno}: ")
        assert exc.value.lineno == lineno

    def test_missing_omega_line(self):
        with pytest.raises(ParseError, match="missing 'omega N' line"):
            parse_database_text("# only a comment\n")


class TestDistributionFiles:
    def test_parse(self, ex1):
        dist = parse_distribution_text(
            "weights X 1/2 1/2\nweights V 1/3 2/3\n", ex1.file
        )
        j = ex1.file.factor_names.index("V")
        assert dist.weights[j] == (Fraction(1, 3), Fraction(2, 3))

    def test_missing_factor(self, ex1):
        with pytest.raises(ParseError, match="missing weights"):
            parse_distribution_text("weights X 1/2 1/2\n", ex1.file)

    def test_unknown_factor(self, ex1):
        with pytest.raises(ParseError, match="unknown factor"):
            parse_distribution_text("weights Q 1/2 1/2\n", ex1.file)

    def test_bad_weights(self, ex1):
        with pytest.raises(ParseError, match="sum to 1"):
            parse_distribution_text(
                "weights X 1/2 1/3\nweights V 1/2 1/2\n", ex1.file
            )
        with pytest.raises(ParseError, match="one weight per block"):
            parse_distribution_text(
                "weights X 1/2 1/4 1/4\nweights V 1/2 1/2\n", ex1.file
            )

    @pytest.mark.parametrize(
        "text,lineno,message",
        [
            ("bogus X 1/2\n", 1, "unknown keyword 'bogus'"),
            ("weights X\n", 1, "'weights' expects a factor name and fractions"),
            ("weights X 1/2 1/2\nweights X 1/2 1/2\n", 2, "duplicate weights for factor 'X'"),
            ("weights X 1/0 1/2\n", 1, "bad fraction: "),
            ("weights X 1/2 half\n", 1, "bad fraction: "),
            ("weights X 1/2 1/2\n# V next\nweights V 1/3 1/3\n", 3,
             "factor 'V' weights must sum to 1"),
            ("weights X 1/2 1/2\nweights V 1/4 1/4 1/2\n", 2,
             "factor 'V' needs one weight per block"),
            ("weights V 1/2 1/2\nweights X 1\n", 2, "factor 'X' needs one weight per block"),
        ],
    )
    def test_bad_line_named(self, ex1, text, lineno, message):
        with pytest.raises(ParseError) as exc:
            parse_distribution_text(text, ex1.file, "bad.dist")
        assert str(exc.value).startswith(f"bad.dist:{lineno}: {message}")
        assert exc.value.lineno == lineno

    @pytest.mark.parametrize(
        "weight,rest",
        [
            ("\u0663/6", "1/2"),  # an Arabic-Indic three
            ("1_5/30", "1/2"),
            ("0.5", "1/2"),
            ("1e-1", "9/10"),
            ("+1/2", "1/2"),
            ("-1/2", "3/2"),
        ],
    )
    def test_weight_not_p_or_p_over_q_in_ascii_digits(self, ex1, weight, rest):
        # ``Fraction`` reads each of these, and each pair sums to 1.
        text = f"weights V 1/2 1/2\nweights X {weight} {rest}\n"
        with pytest.raises(ParseError) as exc:
            parse_distribution_text(text, ex1.file, "bad.dist")
        assert str(exc.value) == f"bad.dist:2: bad fraction: {weight!r}"

    @pytest.mark.parametrize("weight", ["9" * 5000, "1/" + "9" * 5000])
    def test_weight_past_the_int_digit_limit(self, ex1, weight):
        # ASCII digits, but more than int()'s default limit of 4300.
        text = f"weights V 1/2 1/2\nweights X {weight} 1/2\n"
        with pytest.raises(ParseError) as exc:
            parse_distribution_text(text, ex1.file, "huge.dist")
        assert str(exc.value) == f"huge.dist:2: bad fraction: {weight!r}"

    def test_weights_p_and_p_over_q(self, ex1):
        dist = parse_distribution_text("weights X 1 0\nweights V 01/4 3/04\n", ex1.file)
        assert dist.weights == ((1, 0), (Fraction(1, 4), Fraction(3, 4)))
