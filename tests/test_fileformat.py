from fractions import Fraction

import pytest

from factoredsets import (
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
from factoredsets.fileformat import ParseError


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
