import itertools
import math
import random
from dataclasses import replace
from functools import lru_cache
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from factoredsets import (
    FactoredSet,
    GroundSet,
    Model,
    OrthogonalityDatabase,
    Partition,
    SearchBounds,
    Truncation,
    ValidationError,
    before,
    cond_orthogonal,
    data_path,
    grid_factored_set,
    history,
    infer_before,
    is_complete,
    is_consistent_up_to_bound,
    iter_partitions,
    load_database_file,
    models_database,
    orthogonal,
    pullback,
    resolve_model,
    search_models,
    trivial_factorization,
)
from factoredsets import inference
from conftest import brute_history


def _two_bit_db(**kwargs):
    omega = GroundSet(4, ("00", "01", "10", "11"))
    named = {
        "X": Partition.from_blocks(omega, [[0, 1], [2, 3]]),
        "V": Partition.from_blocks(omega, [[0, 3], [1, 2]]),
        "Y": Partition.from_blocks(omega, [[0, 2], [1, 3]]),
    }
    return OrthogonalityDatabase(
        omega=omega,
        partitions=named,
        orthogonal_triples=kwargs.get("orthogonal", frozenset({("X", "V", "_")})),
        dependent_triples=kwargs.get("dependent", frozenset({("V", "V", "_")})),
    )


class TestDatabase:
    def test_unknown_names_rejected(self):
        omega = GroundSet(2)
        with pytest.raises(ValidationError, match="unknown partition name"):
            OrthogonalityDatabase(
                omega=omega,
                partitions={},
                orthogonal_triples=frozenset({("A", "A", "_")}),
                dependent_triples=frozenset(),
            )

    def test_specials_resolve(self):
        db = _two_bit_db()
        assert db.resolve("_") == Partition.indiscrete(db.omega)
        assert db.resolve("!") == Partition.discrete(db.omega)


class TestPullback:
    def test_identity_labeling(self, ex1):
        model = Model(ex1.fs, tuple(range(4)), ex1.fs.ground)
        assert pullback(model, ex1.X) == ex1.X

    def test_constant_labeling_collapses(self, ex1):
        fs = trivial_factorization(GroundSet(4))
        model = Model(fs, (2, 2, 2, 2), ex1.fs.ground)
        assert pullback(model, ex1.X) == Partition.indiscrete(fs.ground)

    def test_twelve_element_model_pullbacks(self, ex2):
        # The pullbacks of the observed partitions land exactly on the
        # model's factors, except the third bit which also separates the
        # short worlds by their copied bit.
        model = ex2.model
        mf = ex2.model_file
        assert pullback(model, ex2.db.resolve("X")) == mf.resolve("Xp")
        assert pullback(model, ex2.db.resolve("V")) == mf.resolve("Vp")
        labels = model.factored.ground.labels
        z_pull = pullback(model, ex2.db.resolve("Z"))
        expected_block = frozenset(
            i for i, lab in enumerate(labels) if lab[-1] == "0"
        )
        assert frozenset(z_pull.block_sets) == frozenset(
            {expected_block, frozenset(range(12)) - expected_block}
        )

    def test_twelve_element_model_histories(self, ex2):
        fs = ex2.model.factored
        mf = ex2.model_file
        jx = fs.factors.index(mf.resolve("Xp"))
        jv = fs.factors.index(mf.resolve("Vp"))
        jz = fs.factors.index(mf.resolve("Zp"))
        assert history(fs, pullback(ex2.model, ex2.db.resolve("X"))) == 1 << jx
        assert history(fs, pullback(ex2.model, ex2.db.resolve("V"))) == 1 << jv
        assert history(fs, pullback(ex2.model, ex2.db.resolve("Y"))) == (
            1 << jx | 1 << jv
        )
        assert history(fs, pullback(ex2.model, ex2.db.resolve("Z"))) == fs.full_mask
        for y_block in pullback(ex2.model, ex2.db.resolve("Y")).block_sets:
            for name, expected in (("X", 1 << jx | 1 << jv), ("V", 1 << jx | 1 << jv), ("Z", 1 << jz)):
                pulled = pullback(ex2.model, ex2.db.resolve(name))
                assert history(fs, pulled.restrict(y_block)) == expected


def _dict_pullback(model, part):
    """The owner-dict pull-back that ``pullback`` replaced, kept as its oracle."""
    block_of = part.block_of
    labeling = model.labeling
    owner = {s: block_of[labeling[s]] for s in range(model.factored.size)}
    return Partition.from_block_of(model.factored.ground, owner)


class TestPullbackOracle:
    def assert_same_pullbacks(self, model, db):
        for name in (*db.partitions, "_", "!"):
            part = db.resolve(name)
            assert pullback(model, part) == _dict_pullback(model, part)

    def test_every_model_of_ex1_up_to_six(self, ex1):
        models = list(search_models(ex1.db, SearchBounds(max_size=6)))
        assert len(models) == 65
        for model in models:
            self.assert_same_pullbacks(model, ex1.db)

    def test_the_bundled_ex2_model(self, ex2):
        self.assert_same_pullbacks(ex2.model, ex2.db)


class TestModel:
    def test_labels_must_be_integers(self, ex1):
        with pytest.raises(ValidationError, match="^labeling targets must be integers$"):
            Model(ex1.fs, (1.5, 0, 1, 2), ex1.db.omega)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_labels_must_be_observations(self, ex1, bad):
        with pytest.raises(ValidationError, match="^labeling target out of range$"):
            Model(ex1.fs, (bad, 0, 1, 2), ex1.db.omega)


class TestModelsDatabase:
    def test_identity_model_of_the_two_bit_db(self, ex1):
        db = _two_bit_db()
        model = Model(ex1.fs, tuple(range(4)), db.omega)
        report = models_database(model, db)
        assert report.ok
        assert all(entry.ok for entry in report.entries)
        assert len(report.entries) == 2

    def test_trivial_factorization_fails(self, ex1):
        db = _two_bit_db()
        fs = trivial_factorization(GroundSet(4))
        report = models_database(Model(fs, tuple(range(4)), db.omega), db)
        assert not report.ok
        failing = [e for e in report.entries if not e.ok]
        assert failing and failing[0].names == ("X", "V", "_")

    def test_twelve_element_model(self, ex2):
        report = models_database(ex2.model, ex2.db)
        assert report.ok
        assert len(report.entries) == 6


class TestAssertionOrder:
    """Reports keep the assertions' sorted order; the search pulls back conditioned ones."""

    def test_report_order_and_check_order(self, ex1, ex2, monkeypatch):
        ex1_model = resolve_model(ex1.file, ex1.db.omega)
        for db, model in ((ex1.db, ex1_model), (ex2.db, ex2.model)):
            triples = db.resolved_triples()
            report = models_database(model, db)
            assert report.ok
            assert [e.names for e in report.entries] == [
                names for _, names, _ in triples
            ]
            assert [e.expected for e in report.entries] == [e for e, _, _ in triples]

        # ex2's conditioning names are ``_`` and Y.  The walk decides the
        # ``| _`` assertions, so during a search every history the
        # per-labeling check reads is conditioned on a block of Y pulled
        # back through the labeling at hand.  Y always pulls back to two
        # blocks there, so the one block of ``_`` could never pass for it.
        zs = [names[2] for _, names, _ in ex2.db.resolved_triples()]
        assert zs == ["Y", "_", "Y", "_", "_", "Y"]
        y = ex2.db.resolve("Y")
        labelings = []
        block_counts = []
        block_histories = inference.block_histories
        conditioned_hold = inference._conditioned_hold

        def check(fs, rows, conditioned, labeling):
            assert [names[2] for _, names in conditioned] == ["Y"] * 3
            labelings.append(labeling)
            return conditioned_hold(fs, rows, conditioned, labeling)

        def spy(fs, labels, blocks):
            model = Model(fs, labelings[-1], ex2.db.omega)
            assert set(blocks) == set(pullback(model, y).blocks)
            block_counts.append(len(blocks))
            return block_histories(fs, labels, blocks)

        monkeypatch.setattr(inference, "_conditioned_hold", check)
        monkeypatch.setattr(inference, "block_histories", spy)
        models = list(search_models(ex2.db, SearchBounds(max_size=8)))
        assert len(models) == 5
        assert labelings and set(block_counts) == {2}


# Grid shapes and observation spaces for the model-check oracle.
ORACLE_GRIDS = {4: (2, 2), 6: (2, 3), 8: (2, 2, 2)}
ORACLE_DBS = {
    "ex1": load_database_file(data_path("ex1.db")),
    "ex2": load_database_file(data_path("ex2.db")),
}


@st.composite
def grid_labelings(draw):
    name = draw(st.sampled_from(sorted(ORACLE_DBS)))
    n = draw(st.sampled_from(sorted(ORACLE_GRIDS)))
    omega_n = ORACLE_DBS[name].omega.n
    labeling = draw(st.lists(st.integers(0, omega_n - 1), min_size=n, max_size=n))
    return name, n, tuple(labeling)


def _brute_cond_orthogonal(fs, x, y, z):
    """Blockwise disjointness of brute-force histories, sharing no library loop."""
    return all(
        not brute_history(fs, x.restrict(zb)) & brute_history(fs, y.restrict(zb))
        for zb in z.block_sets
    )


class TestModelCheckOracle:
    """Per-assertion verdicts of the search filter and of ``models_database``."""

    @settings(max_examples=60, deadline=None)
    @given(grid_labelings())
    # Satisfying labelings: the two-bit square and the size-8 three-bit witness.
    @example(("ex1", 4, (0, 1, 3, 2)))
    @example(("ex2", 8, (0, 0, 2, 3, 6, 7, 4, 4)))
    def test_matches_cond_orthogonal_on_pullbacks(self, case):
        name, n, labeling = case
        db = ORACLE_DBS[name]
        model = Model(grid_factored_set(n, ORACLE_GRIDS[n]), labeling, db.omega)
        fs = model.factored
        report = models_database(model, db)
        triples = db.resolved_triples()
        assert [e.names for e in report.entries] == [names for _, names, _ in triples]
        for entry, (expected, _, parts) in zip(report.entries, triples):
            x, y, z = (pullback(model, p) for p in parts)
            assert entry.expected == expected
            assert entry.actual == cond_orthogonal(fs, x, y, z)
            assert entry.actual == _brute_cond_orthogonal(fs, x, y, z)
        assert report.ok == all(e.ok for e in report.entries)
        old = list(_old_verdicts(model, triples))
        assert [(e.expected, e.names, e.actual) for e in report.entries] == old
        assert _search_accepts(name, n, ORACLE_GRIDS[n], labeling) == report.ok

    def test_examples_include_a_satisfying_model_of_each_db(self):
        for name, n, labeling in (
            ("ex1", 4, (0, 1, 3, 2)),
            ("ex2", 8, (0, 0, 2, 3, 6, 7, 4, 4)),
        ):
            db = ORACLE_DBS[name]
            model = Model(grid_factored_set(n, ORACLE_GRIDS[n]), labeling, db.omega)
            assert models_database(model, db).ok


class TestSearchBounds:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"max_dim": -1}, "max_dim must be at least 0"),
            ({"time_budget": -0.5}, "time_budget must be a number of seconds >= 0"),
            ({"time_budget": math.nan}, "time_budget must be a number of seconds >= 0"),
            ({"max_size": 2.5}, "max_size must be an integer"),
            ({"max_size": "3"}, "max_size must be an integer"),
            ({"max_dim": 1.5}, "max_dim must be an integer"),
            ({"time_budget": "1"}, "time_budget must be a number of seconds >= 0"),
        ],
    )
    def test_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            SearchBounds(**{"max_size": 3, **kwargs})

    def test_zero_dim_and_zero_budget_are_valid(self):
        bounds = SearchBounds(max_size=3, max_dim=0, time_budget=0.0)
        assert bounds.describe(None) == "size <= 3, dim <= 0"


class TestSearch:
    def test_yielded_models_all_pass(self, ex1):
        found = 0
        for item in search_models(ex1.db, SearchBounds(max_size=4)):
            assert not isinstance(item, Truncation)
            assert models_database(item, ex1.db).ok
            found += 1
        assert found > 0

    def test_contains_the_square_witness(self, ex1):
        sizes = set()
        for item in search_models(ex1.db, SearchBounds(max_size=4)):
            if item.factored.size == 4 and item.factored.dim == 2:
                x = pullback(item, ex1.db.resolve("X"))
                v = pullback(item, ex1.db.resolve("V"))
                hx, hv = history(item.factored, x), history(item.factored, v)
                if hx and hv and not hx & hv:
                    sizes.add(item.factored.size)
        assert 4 in sizes

    def test_deterministic_stream(self, ex1):
        first = [
            (m.factored.factors, m.labeling)
            for m in search_models(ex1.db, SearchBounds(max_size=3))
        ]
        second = [
            (m.factored.factors, m.labeling)
            for m in search_models(ex1.db, SearchBounds(max_size=3))
        ]
        assert first == second

    def test_self_dependent_indiscrete_is_unsatisfiable(self):
        db = _two_bit_db(
            orthogonal=frozenset(), dependent=frozenset({("_", "_", "_")})
        )
        assert list(search_models(db, SearchBounds(max_size=3))) == []

    def test_empty_database_on_a_point(self):
        omega = GroundSet(1)
        db = OrthogonalityDatabase(
            omega=omega,
            partitions={},
            orthogonal_triples=frozenset(),
            dependent_triples=frozenset(),
        )
        models = list(search_models(db, SearchBounds(max_size=1)))
        assert len(models) == 1
        assert models[0].factored.size == 1

    def test_max_dim_filter(self, ex1):
        for item in search_models(ex1.db, SearchBounds(max_size=4, max_dim=1)):
            assert item.factored.dim <= 1

    def test_surjective_only(self, ex1):
        all_markings = {
            m.labeling for m in search_models(ex1.db, SearchBounds(max_size=4))
        }
        surjective = list(
            search_models(ex1.db, SearchBounds(max_size=4, surjective_only=True))
        )
        for m in surjective:
            assert set(m.labeling) == set(range(4))
            assert m.labeling in all_markings

    def test_time_budget_truncates_with_marker(self, ex1):
        items = list(search_models(ex1.db, SearchBounds(max_size=6, time_budget=0.0)))
        assert items and isinstance(items[-1], Truncation)

    def test_truncation_names_the_size_it_stopped_in(self, ex1, expire_budget_in_size):
        expire_budget_in_size(3)
        items = list(search_models(ex1.db, SearchBounds(max_size=6, time_budget=1.0)))
        assert items[-1] == Truncation(3)
        sizes = [m.factored.size for m in items[:-1]]
        assert sizes == sorted(sizes) and max(sizes) <= 3

    @pytest.mark.parametrize("example,size", [("ex1", 3), ("ex2", 4)])
    def test_budget_runs_out_among_rejected_labelings(
        self, request, monkeypatch, example, size
    ):
        # With surjective labelings required and fewer elements than the
        # database has observations, every labeling of the size is rejected,
        # so no model is ever checked there.  The budget runs out as the
        # search enters the size (ex1: single-factor combinations; ex2: the
        # 2x2 grid's product walk) and the next labeling looked at stops it.
        db = request.getfixturevalue(example).db
        assert db.omega.n > size
        now = [0.0]
        reads_after_expiry = []
        grid = inference.grid_factored_set

        def clock():
            if now[0] == math.inf:
                reads_after_expiry.append(now[0])
            return now[0]

        def entering(n, ks):
            if n >= size:
                now[0] = math.inf
            return grid(n, ks)

        monkeypatch.setattr(inference.time, "monotonic", clock)
        monkeypatch.setattr(inference, "grid_factored_set", entering)
        items = list(
            search_models(
                db, SearchBounds(max_size=size, surjective_only=True, time_budget=1.0)
            )
        )
        assert items == [Truncation(size)]
        assert len(reads_after_expiry) == 1

    @pytest.mark.parametrize("example,max_size", [("ex1", 6), ("ex2", 5)])
    def test_builds_a_model_only_for_each_yielded_labeling(
        self, request, monkeypatch, example, max_size
    ):
        # ex2 has no model up to size 5, so its search builds none at all.
        db = request.getfixturevalue(example).db
        built = []
        post_init = Model.__post_init__

        def spy(model):
            post_init(model)
            built.append(model.labeling)

        monkeypatch.setattr(Model, "__post_init__", spy)
        items = list(search_models(db, SearchBounds(max_size=max_size)))
        assert not any(isinstance(item, Truncation) for item in items)
        assert built == [m.labeling for m in items]
        assert len(items) == {"ex1": 65, "ex2": 0}[example]

    def test_relabeling_preserves_all_verdicts(self, ex1):
        # Push a found model through a random ground permutation and compare
        # every database verdict and every pairwise temporal verdict.
        rng = random.Random(61)
        models = [
            m
            for m in search_models(ex1.db, SearchBounds(max_size=4))
            if not isinstance(m, Truncation)
        ]
        names = ("X", "V", "Y", "_", "!")
        for model in rng.sample(models, min(12, len(models))):
            fs = model.factored
            n = fs.size
            perm = list(range(n))
            rng.shuffle(perm)
            ground = fs.ground
            factors = [
                Partition.from_block_of(
                    ground, {perm[s]: p.block_ids[s] for s in range(n)}
                )
                for p in fs.factors
            ]
            permuted_fs = FactoredSet(ground, factors)
            relabeled = [0] * n
            for s in range(n):
                relabeled[perm[s]] = model.labeling[s]
            permuted = Model(permuted_fs, tuple(relabeled), model.omega)
            for entry, permuted_entry in zip(
                models_database(model, ex1.db).entries,
                models_database(permuted, ex1.db).entries,
            ):
                assert entry == permuted_entry
            for a in names:
                for b in names:
                    lhs = before(
                        fs,
                        pullback(model, ex1.db.resolve(a)),
                        pullback(model, ex1.db.resolve(b)),
                    ).relation
                    rhs = before(
                        permuted_fs,
                        pullback(permuted, ex1.db.resolve(a)),
                        pullback(permuted, ex1.db.resolve(b)),
                    ).relation
                    assert lhs == rhs


class TestInferBefore:
    def test_holds_up_to_bound(self, ex1):
        verdict = infer_before(ex1.db, "X", "Y", SearchBounds(max_size=6))
        assert verdict.kind == "holds-up-to-bound"
        assert verdict.models_checked >= 1
        assert "size <= 6" in verdict.qualifier

    def test_reverse_is_refuted(self, ex1):
        verdict = infer_before(ex1.db, "Y", "X", SearchBounds(max_size=4))
        assert verdict.kind == "refuted"
        assert verdict.counterexample is not None
        fs = verdict.counterexample.factored
        hx = history(fs, pullback(verdict.counterexample, ex1.db.resolve("X")))
        hy = history(fs, pullback(verdict.counterexample, ex1.db.resolve("Y")))
        assert not (hy & hx == hy and hy != hx)

    def test_refutation_is_monotone_in_the_bound(self, ex1):
        for size in (4, 5):
            assert infer_before(ex1.db, "Y", "X", SearchBounds(max_size=size)).kind == "refuted"

    def test_antisymmetric_on_shared_bounds(self, ex1):
        # Strictness cannot hold both ways over the same nonempty model set.
        bounds = SearchBounds(max_size=4)
        forward = infer_before(ex1.db, "X", "Y", bounds)
        reverse = infer_before(ex1.db, "Y", "X", bounds)
        assert forward.kind == "holds-up-to-bound" and forward.models_checked >= 1
        assert reverse.kind == "refuted"

    def test_non_strict_variant(self, ex1):
        strict = infer_before(ex1.db, "X", "X", SearchBounds(max_size=3))
        assert strict.kind == "refuted"
        loose = infer_before(ex1.db, "X", "X", SearchBounds(max_size=3), strict=False)
        assert loose.kind == "holds-up-to-bound"

    def test_vacuous_when_nothing_models(self):
        db = _two_bit_db(
            orthogonal=frozenset(), dependent=frozenset({("_", "_", "_")})
        )
        verdict = infer_before(db, "X", "Y", SearchBounds(max_size=3))
        assert verdict.kind == "vacuous"
        assert verdict.models_checked == 0

    def test_truncation_is_reported(self, ex1):
        verdict = infer_before(
            ex1.db, "X", "Y", SearchBounds(max_size=6, time_budget=0.0)
        )
        assert verdict.truncated
        assert "truncated" in verdict.qualifier

    def test_truncated_verdict_names_the_completed_size(
        self, ex1, expire_budget_in_size
    ):
        expire_budget_in_size(3)
        verdict = infer_before(
            ex1.db, "X", "Y", SearchBounds(max_size=20, time_budget=1.0)
        )
        assert verdict.kind == "holds-up-to-bound"
        assert verdict.truncation.size == 3
        assert verdict.qualifier == (
            "models with size <= 2, search truncated by time budget in size 3"
        )

    def test_truncated_before_any_completed_size_is_inconclusive(
        self, ex1, expire_budget_in_size
    ):
        expire_budget_in_size(1)
        verdict = infer_before(
            ex1.db, "X", "Y", SearchBounds(max_size=20, time_budget=1.0)
        )
        assert verdict.kind == "inconclusive"
        assert "size <= 0" in verdict.qualifier


class TestConsistency:
    def test_two_bit_db_is_consistent(self, ex1):
        verdict = is_consistent_up_to_bound(ex1.db, SearchBounds(max_size=4))
        assert verdict.consistent
        assert models_database(verdict.witness, ex1.db).ok

    def test_contradictory_db_is_not(self):
        db = _two_bit_db(
            orthogonal=frozenset({("X", "V", "_")}),
            dependent=frozenset({("X", "V", "_")}),
        )
        assert not is_consistent_up_to_bound(db, SearchBounds(max_size=4)).consistent

    def test_truncated_search_names_the_completed_size(
        self, ex2, expire_budget_in_size
    ):
        expire_budget_in_size(4)
        verdict = is_consistent_up_to_bound(
            ex2.db, SearchBounds(max_size=20, max_dim=3, time_budget=1.0)
        )
        assert not verdict.consistent
        assert verdict.truncation.size == 4
        assert verdict.bounds.describe(verdict.truncation) == (
            "size <= 3, dim <= 3, search truncated by time budget in size 4"
        )

    def test_twelve_element_witness_proves_consistency(self, ex2):
        # Searching to size 12 is out of reach, but the bundled witness
        # settles the question directly.
        assert models_database(ex2.model, ex2.db).ok


class TestCompleteness:
    def test_sparse_db_is_incomplete(self, ex1):
        assert not is_complete(ex1.db)

    def test_single_point_space(self):
        omega = GroundSet(1)
        db = OrthogonalityDatabase(
            omega=omega,
            partitions={},
            orthogonal_triples=frozenset({("_", "_", "_")}),
            dependent_triples=frozenset(),
        )
        assert is_complete(db)

    def test_two_point_space_with_all_eight_triples(self):
        omega = GroundSet(2)
        names = ("_", "!")
        triples = {(a, b, c) for a in names for b in names for c in names}
        orthogonal = frozenset(t for t in triples if t[0] == "_" or t[1] == "_")
        db = OrthogonalityDatabase(
            omega=omega,
            partitions={},
            orthogonal_triples=orthogonal,
            dependent_triples=frozenset(triples) - orthogonal,
        )
        assert is_complete(db)

    def test_nine_point_space_without_assertions_is_incomplete(self):
        # Bell(9)**3 is about 9e12 triples; counting, not walking, decides it.
        db = OrthogonalityDatabase(
            omega=GroundSet(9),
            partitions={},
            orthogonal_triples=frozenset(),
            dependent_triples=frozenset(),
        )
        assert not is_complete(db)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_a_walk_over_all_triples(self, data):
        omega = GroundSet(data.draw(st.integers(1, 3)))
        parts = list(iter_partitions(omega))
        # One or two declared names per partition; on one element "_" and "!"
        # both name the single partition too.
        named = {"_": Partition.indiscrete(omega), "!": Partition.discrete(omega)}
        for i, part in enumerate(parts):
            for alias in range(data.draw(st.integers(1, 2))):
                named[f"P{i}{'ab'[alias]}"] = part
        aliases = {
            part: sorted(n for n, p in named.items() if p == part) for part in parts
        }
        space = list(itertools.product(parts, repeat=3))
        if data.draw(st.booleans()):
            kept = space
        else:
            kept = [t for t in space if data.draw(st.booleans())]
        orthogonal, dependent = set(), set()
        for triple in kept:
            for _ in range(data.draw(st.integers(1, 2))):
                names = tuple(data.draw(st.sampled_from(aliases[p])) for p in triple)
                (orthogonal if data.draw(st.booleans()) else dependent).add(names)
        db = OrthogonalityDatabase(
            omega=omega,
            partitions={n: p for n, p in named.items() if n not in ("_", "!")},
            orthogonal_triples=frozenset(orthogonal),
            dependent_triples=frozenset(dependent),
        )
        asserted = {
            tuple(named[n] for n in names) for names in orthogonal | dependent
        }
        assert is_complete(db) == all(t in asserted for t in space)


# -- differential oracle: the pruned search against the unpruned one it replaced


def _old_grid_automorphisms(n, ks):
    """Grid automorphisms as first written: runs of equal block counts, digit formula."""
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


def _old_grid_labelings(n, omega_n, auts):
    """The walk before it kept history masks: lex-leader comparisons alone."""
    f = [-1] * n
    tied = [[(p, 0) for p in auts]] + [[]] * n
    i = 0
    while i >= 0:
        f[i] += 1
        if f[i] == omega_n:
            f[i] = -1
            i -= 1
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
                i += 1


def _old_search_models(db, bounds):
    """The search before its walk kept history masks, without a time budget.

    A single discrete factor takes every multiset of labels, every other
    grid the unpruned walk, and each canonical labeling that passes the
    surjectivity filter goes through the per-model pass ``_old_verdicts``.
    """
    triples = db.resolved_triples()
    omega_n = db.omega.n
    for n in range(1, bounds.max_size + 1):
        for ks in inference.factor_size_multisets(n):
            if bounds.max_dim is not None and len(ks) > bounds.max_dim:
                continue
            fs = grid_factored_set(n, ks)
            if ks == (n,):
                candidates = itertools.combinations_with_replacement(range(omega_n), n)
            else:
                auts = inference._grid_automorphisms(n, ks)[1:]
                candidates = _old_grid_labelings(n, omega_n, auts)
            for f in candidates:
                if bounds.surjective_only and len(set(f)) != omega_n:
                    continue
                model = Model(fs, f, db.omega)
                if all(e == a for e, _, a in _old_verdicts(model, triples)):
                    yield model


def _planted_db(rng):
    """A database asserting true verdicts of a random 2x2 or 2x3 grid model."""
    omega = GroundSet(rng.randint(3, 5))
    n, ks = rng.choice([(4, (2, 2)), (6, (2, 3))])
    labeling = tuple(rng.randrange(omega.n) for _ in range(n))
    model = Model(grid_factored_set(n, ks), labeling, omega)
    named = {
        name: Partition.from_block_of(
            omega, {w: rng.randrange(2) for w in range(omega.n)}
        )
        for name in ("A", "B", "C")
    }
    names = ("A", "B", "C", "_")
    unasserted = OrthogonalityDatabase(omega, named, frozenset(), frozenset())
    orthogonal, dependent = set(), set()
    for _ in range(rng.randint(2, 8)):
        triple = tuple(rng.choice(names) for _ in range(3))
        x, y, z = (pullback(model, unasserted.resolve(t)) for t in triple)
        holds = cond_orthogonal(model.factored, x, y, z)
        (orthogonal if holds else dependent).add(triple)
    db = OrthogonalityDatabase(omega, named, frozenset(orthogonal), frozenset(dependent))
    return db, n


PLANTED_DBS = [(f"planted{seed}", *_planted_db(random.Random(seed))) for seed in range(16)]
SEARCH_ORACLE_DBS = [
    ("ex1", ORACLE_DBS["ex1"], 9),
    ("ex2", ORACLE_DBS["ex2"], 7),
    # Without its dependent lines ex2 has thousands of models by size 6.
    ("ex2-orthogonal-only", replace(ORACLE_DBS["ex2"], dependent_triples=()), 6),
    # Y appears in no ex1 assertion, so here it appears only orthogonal to itself.
    (
        "ex1-self-orthogonal",
        replace(
            ORACLE_DBS["ex1"],
            orthogonal_triples=ORACLE_DBS["ex1"].orthogonal_triples | {("Y", "Y", "_")},
        ),
        8,
    ),
] + PLANTED_DBS


@lru_cache(maxsize=None)
def _old_unbounded_stream(name: str) -> tuple[Model, ...]:
    """The old search's models for an oracle case, with no dim or surjectivity bound."""
    _, db, max_size = next(c for c in SEARCH_ORACLE_DBS if c[0] == name)
    return tuple(_old_search_models(db, SearchBounds(max_size=max_size)))


class TestSearchOracle:
    """``search_models`` yields what the old labeling stream plus filter yielded."""

    @pytest.mark.parametrize(
        "name,db,max_size", SEARCH_ORACLE_DBS, ids=[c[0] for c in SEARCH_ORACLE_DBS]
    )
    @pytest.mark.parametrize("max_dim", [None, 1, 2])
    @pytest.mark.parametrize("surjective_only", [False, True])
    def test_same_models_in_the_same_order(
        self, name, db, max_size, max_dim, surjective_only
    ):
        # The old search skips grids by dimension and labelings by their
        # image, so each bounded stream is the unbounded one, filtered.
        bounds = SearchBounds(
            max_size=max_size, max_dim=max_dim, surjective_only=surjective_only
        )
        expected = [
            m
            for m in _old_unbounded_stream(name)
            if (max_dim is None or m.factored.dim <= max_dim)
            and (not surjective_only or len(set(m.labeling)) == db.omega.n)
        ]
        assert list(search_models(db, bounds)) == expected

    @pytest.mark.slow
    @pytest.mark.parametrize("surjective_only", [False, True])
    def test_same_models_in_the_same_order_on_ex2_to_size_eight(self, surjective_only):
        bounds = SearchBounds(max_size=8, surjective_only=surjective_only)
        db = ORACLE_DBS["ex2"]
        assert list(search_models(db, bounds)) == list(_old_search_models(db, bounds))

    def test_planted_databases_have_models(self):
        # The planted model's orbit has a representative of the planted size.
        for _, db, max_size in PLANTED_DBS:
            assert any(
                item.factored.size == max_size
                for item in search_models(db, SearchBounds(max_size=max_size))
            )

    @pytest.mark.parametrize("reads", [1, 2, 3, 40, 700, 4000])
    @pytest.mark.parametrize("example", ["ex1", "ex2"])
    def test_same_truncation_after_the_same_clock_reads(
        self, monkeypatch, example, reads
    ):
        # The clock reads 0 for its first ``reads`` reads and infinity after.
        # A search that reads it no more times than a run on a clock that
        # always reads 0 must give the untimed stream whole; any other must
        # end in a truncation naming the size it was in, after a prefix of
        # that stream, read the expired clock once and check no labeling
        # after that read.
        db = ORACLE_DBS[example]
        untimed = list(search_models(db, SearchBounds(max_size=6)))
        stopped = [0]

        def stopped_clock():
            stopped[0] += 1
            return 0.0

        monkeypatch.setattr(inference.time, "monotonic", stopped_clock)
        bounds = SearchBounds(max_size=6, time_budget=1.0)
        assert list(search_models(db, bounds)) == untimed
        count = [0]
        events = []
        entered = []
        conditioned_hold = inference._conditioned_hold
        grid = inference.grid_factored_set

        def clock():
            count[0] += 1
            if count[0] <= reads:
                return 0.0
            events.append("expired read")
            return math.inf

        def spy(fs, rows, conditioned, labeling):
            events.append("check")
            return conditioned_hold(fs, rows, conditioned, labeling)

        def entering(n, ks):
            entered.append(n)
            return grid(n, ks)

        monkeypatch.setattr(inference.time, "monotonic", clock)
        monkeypatch.setattr(inference, "_conditioned_hold", spy)
        monkeypatch.setattr(inference, "grid_factored_set", entering)
        items = list(search_models(db, bounds))
        if "expired read" not in events:
            assert items == untimed
            assert reads >= stopped[0]
            return
        assert reads < stopped[0]
        *models, last = items
        assert last == Truncation(entered[-1])
        assert models == untimed[: len(models)]
        assert all(m.factored.size <= last.size for m in models)
        assert events.count("expired read") == 1
        assert "check" not in events[events.index("expired read"):]

    def test_grid_automorphisms_match_the_old_construction(self):
        for n in range(2, 17):
            for ks in inference.factor_size_multisets(n):
                if ks != (n,):
                    assert inference._grid_automorphisms(n, ks) == (
                        _old_grid_automorphisms(n, ks)
                    )


@lru_cache(maxsize=None)
def _product_canonical_labelings(n, ks, omega_n):
    """Every labeling in product order, kept when no automorphism image is smaller."""
    images = [
        itemgetter(*p) for p in _old_grid_automorphisms(n, ks) if p != tuple(range(n))
    ]
    return [
        f
        for f in itertools.product(range(omega_n), repeat=n)
        if all(f <= image(f) for image in images)
    ]


class TestCanonicalWalkOracle:
    """The pruned walk keeps what the product walk plus the canonicity filter kept."""

    @pytest.mark.parametrize("omega_n,max_size", [(2, 10), (3, 10), (4, 10), (8, 4)])
    @pytest.mark.parametrize("surjective_only", [False, True])
    def test_same_labelings_in_the_same_order(self, omega_n, max_size, surjective_only):
        # With no assertions every labeling the walk keeps is a model.
        db = OrthogonalityDatabase(GroundSet(omega_n), {}, frozenset(), frozenset())
        bounds = SearchBounds(max_size=max_size, surjective_only=surjective_only)
        walked = {}
        for model in search_models(db, bounds):
            walked.setdefault(model.factored, []).append(model.labeling)
        grids = [
            (n, ks)
            for n in range(1, max_size + 1)
            for ks in inference.factor_size_multisets(n)
            if ks != (n,)
        ]
        assert len(grids) == (7 if max_size == 10 else 2)
        for n, ks in grids:
            expected = [
                f
                for f in _product_canonical_labelings(n, ks, omega_n)
                if not surjective_only or len(set(f)) == omega_n
            ]
            assert walked.get(grid_factored_set(n, ks), []) == expected, (n, ks)


def _cycle_count(p):
    seen = set()
    cycles = 0
    for s in range(len(p)):
        if s not in seen:
            cycles += 1
            while s not in seen:
                seen.add(s)
                s = p[s]
    return cycles


class TestWalkCountOracle:
    """The walk without assertions against Burnside's lemma and sorted multisets."""

    def test_orbit_count_on_every_multi_factor_grid(self):
        grids = [
            (n, ks)
            for n in range(1, 9)
            for ks in inference.factor_size_multisets(n)
            if len(ks) > 1
        ]
        assert grids == [(4, (2, 2)), (6, (2, 3)), (8, (2, 2, 2)), (8, (2, 4))]
        for n, ks in grids:
            auts = inference._grid_automorphisms(n, ks)
            cycles = [_cycle_count(p) for p in auts]
            for omega_n in range(1, 5):
                orbits, rest = divmod(sum(omega_n**c for c in cycles), len(auts))
                assert rest == 0
                walk = inference._grid_labelings(n, ks, omega_n)
                assert sum(1 for _ in walk) == orbits, (n, ks, omega_n)

    def test_adjacent_transpositions_leave_the_sorted_labelings(self):
        for n in range(2, 8):
            for omega_n in range(1, 6):
                walked = list(inference._grid_labelings(n, (n,), omega_n))
                assert walked == list(
                    itertools.combinations_with_replacement(range(omega_n), n)
                ), (n, omega_n)


def _check_pruned_walk(db, max_size):
    """Per grid, the pruned walk against the unpruned one kept by the old ``| _`` verdicts.

    Returns the number of unpruned labelings checked.
    """
    unconditional = [t for t in db.resolved_triples() if t[1][2] == "_"]
    masked = list(dict.fromkeys(x for _, names, _ in unconditional for x in names[:2]))
    rows = [db.resolve(x).block_ids for x in masked]
    pairs = {True: [], False: []}
    for expected, (x, y, _), _ in unconditional:
        pairs[expected].append((masked.index(x), masked.index(y)))
    checked = 0
    for n in range(1, max_size + 1):
        for ks in inference.factor_size_multisets(n):
            fs = grid_factored_set(n, ks)
            kept = []
            for f in inference._grid_labelings(n, ks, db.omega.n):
                old = _old_verdicts(Model(fs, f, db.omega), unconditional)
                if all(e == a for e, _, a in old):
                    kept.append(f)
                checked += 1
            pruned = inference._grid_labelings(
                n, ks, db.omega.n, rows, pairs[True], pairs[False]
            )
            assert list(pruned) == kept, (n, ks)
    return checked


class TestHistoryMasks:
    """The walk keeps exactly the canonical labelings meeting every ``| _`` assertion."""

    @pytest.mark.parametrize("name,max_size,labelings", [("ex1", 8, 4971), ("ex2", 6, 26720)])
    def test_every_canonical_labeling(self, name, max_size, labelings):
        assert _check_pruned_walk(ORACLE_DBS[name], max_size) == labelings

    @pytest.mark.slow
    def test_every_canonical_labeling_of_ex2_to_size_eight(self):
        assert _check_pruned_walk(ORACLE_DBS["ex2"], 8) == 804811


def _restriction_tables(n, ks):
    """Per prefix length ``i``, the automorphisms mapping ``[0, i)`` onto itself.

    Entry ``i`` holds, as itemgetters, their distinct restrictions to
    ``[0, i)`` other than the identity; entry ``n`` is every non-identity
    automorphism.
    """
    auts = inference._grid_automorphisms(n, ks)[1:]
    tables = []
    for i in range(n + 1):
        restrictions = dict.fromkeys(p[:i] for p in auts if max(p[:i], default=-1) < i)
        restrictions.pop(tuple(range(i)), None)
        tables.append(tuple(itemgetter(*r) for r in restrictions))
    return tuple(tables)


def _restriction_table_walk(omega_n, images):
    """The walk the tied-automorphism walk replaced: each prefix against its table."""
    n = len(images) - 1
    f = [-1] * n
    i = 0
    while i >= 0:
        f[i] += 1
        if f[i] == omega_n:
            f[i] = -1
            i -= 1
            continue
        prefix = tuple(f[: i + 1])
        if all(prefix <= image(prefix) for image in images[i + 1]):
            if i + 1 == n:
                yield prefix
            else:
                i += 1


class TestRestrictionTableWalkOracle:
    """The tied-automorphism walk yields what the restriction-table walk yielded."""

    def test_same_labelings_in_the_same_order(self):
        grids = [
            (n, ks)
            for n in range(1, 13)
            for ks in inference.factor_size_multisets(n)
            if ks != (n,)
        ]
        assert {(12, (2, 2, 3)), (12, (2, 6)), (12, (3, 4))} <= set(grids)
        for n, ks in grids:
            walked = list(inference._grid_labelings(n, ks, 3))
            assert walked == list(
                _restriction_table_walk(3, _restriction_tables(n, ks))
            ), (n, ks)


# -- differential oracle: the compiled grid checker against the per-model pass


def _old_verdicts(model, triples):
    """The per-model pass the grid checker replaced: pullbacks, z-block loop."""
    fs = model.factored
    pulled = {}
    for expected, names, parts in triples:
        for name, part in zip(names, parts):
            if name not in pulled:
                pulled[name] = pullback(model, part)
        x, y, z = (pulled[n] for n in names)
        yield expected, names, all(
            orthogonal(fs, x.restrict(zb), y.restrict(zb)) for zb in z.blocks
        )


CHECKER_DBS = {name: db for name, db, _ in SEARCH_ORACLE_DBS}
CHECKER_GRIDS = [
    (1, ()), (3, (3,)), (4, (2, 2)), (6, (2, 3)), (8, (2, 2, 2)), (9, (3, 3))
]


@st.composite
def labelings_of_one_grid(draw):
    name = draw(st.sampled_from(sorted(CHECKER_DBS)))
    n, ks = draw(st.sampled_from(CHECKER_GRIDS))
    label = st.integers(0, CHECKER_DBS[name].omega.n - 1)
    labelings = draw(st.lists(st.tuples(*[label] * n), min_size=1, max_size=12))
    return name, n, ks, labelings


@lru_cache(maxsize=None)
def _grid_models(name, n, ks):
    """The labelings ``search_models`` yields on the one grid ``ks`` of size ``n``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "factor_size_multisets", lambda m: [ks] if m == n else [])
        models = search_models(CHECKER_DBS[name], SearchBounds(max_size=n))
        return frozenset(m.labeling for m in models)


def _search_accepts(name, n, ks, labeling):
    """Whether the search yields the least labeling in the orbit of ``labeling``."""
    orbit = (tuple(labeling[s] for s in p) for p in inference._grid_automorphisms(n, ks))
    return min(orbit) in _grid_models(name, n, ks)


class TestGridCheckOracle:
    """``models_database`` and the search's accept/reject against the old pass."""

    @settings(max_examples=120, deadline=None)
    @given(labelings_of_one_grid())
    # ex2 pairs X with V under ``_`` and with Z under Y, so one pulled-back X
    # meets two conditioning label tuples.
    @example(("ex2", 8, (2, 2, 2), [(0, 0, 2, 3, 6, 7, 4, 4), tuple(range(8))]))
    def test_every_labeling_matches_the_old_pass(self, case):
        name, n, ks, labelings = case
        db = CHECKER_DBS[name]
        fs = grid_factored_set(n, ks)
        triples = db.resolved_triples()
        old = {}
        for f in labelings:
            model = Model(fs, f, db.omega)
            old[f] = list(_old_verdicts(model, triples))
            for (_, _, actual), (_, _, parts) in zip(old[f], triples):
                x, y, z = (pullback(model, p) for p in parts)
                assert actual == _brute_cond_orthogonal(fs, x, y, z)
        for f in labelings + labelings[::-1]:
            report = models_database(Model(fs, f, db.omega), db)
            assert [(e.expected, e.names, e.actual) for e in report.entries] == old[f]
            satisfied = all(e == a for e, _, a in old[f])
            assert report.ok == satisfied
            assert _search_accepts(name, n, ks, f) == satisfied
