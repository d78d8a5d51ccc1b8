"""The package's public namespace, and which modules ``import factoredsets`` loads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import factoredsets

SRC = Path(factoredsets.__file__).resolve().parent.parent

CORE = ["agency", "factored", "partitions", "polynomial", "probability", "structure"]

# The names of the package, one line per defining module.
PUBLIC = sorted(
    [
        "ObservesVerdict", "counterfactable", "event_partition", "history_join",
        "observes_event", "observes_partition", "relatively_counterfactable",
        "FactoredSet", "count_factorizations", "enumerate_factorizations",
        "factor_size_multisets", "grid_factored_set", "iter_bits", "trivial_factorization",
        "FactoredSetFile", "ParseError", "format_database_file", "format_factored_set_file",
        "load_database_file", "load_distribution_file", "load_factored_set_file",
        "parse_database_text", "parse_distribution_text", "parse_factored_set_text",
        "resolve_model",
        "ConsistencyVerdict", "InferenceVerdict", "Model", "ModelCheckReport",
        "OrthogonalityDatabase", "SearchBounds", "Truncation", "infer_before",
        "is_complete", "is_consistent_up_to_bound", "models_database", "pullback",
        "search_models",
        "GroundSet", "Partition", "ValidationError", "bell_number", "common_refinement",
        "format_partition", "iter_partitions", "parse_partition",
        "IrrDecomposition", "SetPolynomial", "characteristic_polynomial",
        "cond_orth_by_divisibility", "format_polynomial", "irreducible_components",
        "restricted_polynomial",
        "DEFAULT_SEED", "FactoredDistribution", "FundamentalTheoremReport",
        "conditional_independence_holds", "fundamental_theorem_check",
        "is_distribution_on_factored_set", "prob", "random_distribution",
        "TemporalRelation", "TemporalVerdict", "before", "block_histories", "cond_before",
        "cond_orthogonal", "cond_orthogonal_given_subset", "generates", "history",
        "history_factors", "orthogonal", "splice_components",
        "data_path",
    ]
)


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports the package from this
    checkout, and return the JSON it prints."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(done.stdout)


LOADED = (
    "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
    " if m.startswith('factoredsets.'))))"
)


class TestLayering:
    @pytest.mark.parametrize(
        "touch,extra",
        [
            ("", []),
            ("factoredsets.SearchBounds", ["inference"]),
            ("factoredsets.load_database_file", ["fileformat", "inference"]),
        ],
        ids=["import", "inference-name", "fileformat-name"],
    )
    def test_modules_loaded(self, touch, extra):
        # A core module that imports the search or the file formats, even
        # once, gives the saving back; this is the check that notices.
        loaded = fresh(f"import json, factoredsets\n{touch}\n{LOADED}")
        assert loaded == sorted(CORE + extra)


class TestNamespace:
    def test_all_is_pinned(self):
        assert len(PUBLIC) == 74
        assert sorted(factoredsets.__all__) == PUBLIC

    def test_lazy_names_are_their_modules_objects(self):
        from factoredsets import fileformat, inference

        for module in (fileformat, inference):
            for name in factoredsets._LAZY[module.__name__.rsplit(".", 1)[1]]:
                assert getattr(factoredsets, name) is getattr(module, name)
        assert factoredsets.infer_before is factoredsets.inference.infer_before

    def test_star_import_and_dir_before_first_use(self):
        names = fresh(
            "import json, factoredsets\n"
            "listed = dir(factoredsets)\n"
            "scope = {}\n"
            "exec('from factoredsets import *', scope)\n"
            "print(json.dumps({'dir': listed, 'star': sorted(set(scope) - {'__builtins__'})}))"
        )
        for name in ("infer_before", "load_database_file"):
            assert name in names["dir"]
        assert set(PUBLIC) <= set(names["dir"])
        assert names["star"] == PUBLIC

    def test_submodules_resolve_as_attributes(self):
        # ``factoredsets.inference`` worked after a plain import before the
        # lazy split, and still does.
        loaded = fresh(f"import json, factoredsets\nfactoredsets.fileformat.read_text\n{LOADED}")
        assert loaded == sorted(CORE + ["fileformat", "inference"])

    def test_unknown_name(self):
        with pytest.raises(AttributeError) as exc:
            factoredsets.nope
        assert str(exc.value) == "module 'factoredsets' has no attribute 'nope'"
