import collections
import itertools
import math
import random
import time
from dataclasses import replace
from functools import lru_cache
from operator import and_, itemgetter
from typing import Sequence

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
from factoredsets import inference, polynomial, structure
from factoredsets.partitions import block_triple_identity
from conftest import _old_grid_automorphisms, brute_history, random_partition


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

    @pytest.mark.parametrize("name", ["_", "!"])
    def test_reserved_names_rejected(self, name):
        omega = GroundSet(2)
        with pytest.raises(ValidationError) as caught:
            OrthogonalityDatabase(
                omega=omega,
                partitions={name: Partition.discrete(omega)},
                orthogonal_triples=frozenset(),
                dependent_triples=frozenset(),
            )
        assert str(caught.value) == f"{name!r} is reserved"

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

    @pytest.mark.parametrize("labeling", [(0, 1, 2), (0, 1, 2, 3, 0)])
    def test_labeling_must_cover_every_element(self, ex1, labeling):
        with pytest.raises(ValidationError, match="^labeling must cover every element$"):
            Model(ex1.fs, labeling, ex1.db.omega)


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

    def test_model_of_another_space_is_refused(self, ex1):
        model = Model(ex1.fs, (0, 0, 1, 1), GroundSet(2))
        with pytest.raises(ValidationError, match="^model and database observe different spaces$"):
            models_database(model, _two_bit_db())


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
        # ``| _`` assertions, so during a search the per-labeling check
        # receives the three ``| Y`` assertions, in sorted order.  Y always
        # pulls back to two blocks there, so the one block of ``_`` could
        # never pass for it.  The check reads no history.
        triples = ex2.db.resolved_triples()
        zs = [names[2] for _, names, _ in triples]
        assert zs == ["Y", "_", "Y", "_", "_", "Y"]
        y = ex2.db.resolve("Y")
        block_counts = []
        history_calls = []
        conditioned_hold = inference._conditioned_hold
        block_histories = structure.block_histories

        def check(fs, omega_n, conditioned, labeling):
            assert list(conditioned) == [t for t in triples if t[1][2] == "Y"]
            model = Model(fs, labeling, ex2.db.omega)
            block_counts.append(pullback(model, y).block_count)
            return conditioned_hold(fs, omega_n, conditioned, labeling)

        def spy(*args):
            history_calls.append(args)
            return block_histories(*args)

        monkeypatch.setattr(inference, "_conditioned_hold", check)
        monkeypatch.setattr(structure, "block_histories", spy)
        models = list(search_models(ex2.db, SearchBounds(max_size=8)))
        assert len(models) == 5
        assert block_counts and set(block_counts) == {2}
        assert history_calls == []


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


class TestPushforwardLemma:
    """The search's check on its own: on the observations, with the grid's
    generic masses pushed forward through the labeling as weights, the
    block-triple identity of X, Y and Z is ``cond_orthogonal`` of their
    pull-backs, surjective or not."""

    def test_identity_on_omega_is_cond_orthogonal_of_the_pullbacks(self):
        rng = random.Random(28_028)
        verdicts = {True: 0, False: 0}
        non_surjective = 0
        for _ in range(1500):
            ks = rng.choice([(2, 2), (2, 3), (2, 2, 2), (3, 4)])
            fs = grid_factored_set(math.prod(ks), ks)
            omega = GroundSet(rng.randint(3, 5))
            labeling = tuple(rng.randrange(omega.n) for _ in range(fs.size))
            x, y, z = (random_partition(rng, omega) for _ in range(3))
            masses = [0] * omega.n
            for w, g in zip(labeling, polynomial._generic_masses(fs)):
                masses[w] += g
            model = Model(fs, labeling, omega)
            expected = cond_orthogonal(fs, *(pullback(model, p) for p in (x, y, z)))
            assert block_triple_identity(x, y, z, masses) == expected
            triple = [(True, ("X", "Y", "Z"), (x, y, z))]
            assert inference._conditioned_hold(fs, omega.n, triple, labeling) == expected
            verdicts[expected] += 1
            non_surjective += len(set(labeling)) < omega.n
        assert min(verdicts.values()) >= 300 and non_surjective >= 300


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

    def test_bools_are_stored_as_ints(self):
        bounds = SearchBounds(max_size=True, max_dim=False)
        assert (type(bounds.max_size), type(bounds.max_dim)) == (int, int)
        assert bounds.describe(None) == "size <= 1, dim <= 0"
        assert bounds == SearchBounds(max_size=1, max_dim=0)


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
        # database has observations, no labeling of the size can be a model,
        # so no grid of it is walked.  The budget runs out as the search
        # enters the size, and the one clock read of its first grid stops it.
        db = request.getfixturevalue(example).db
        assert db.omega.n > size
        now = [0.0]
        reads_after_expiry = []
        multisets = inference.factor_size_multisets

        def clock():
            if now[0] == math.inf:
                reads_after_expiry.append(now[0])
            return now[0]

        def entering(n):
            if n >= size:
                now[0] = math.inf
            return multisets(n)

        monkeypatch.setattr(inference.time, "monotonic", clock)
        monkeypatch.setattr(inference, "factor_size_multisets", entering)
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

    @pytest.mark.parametrize("pair", [("W", "X"), ("X", "W")])
    def test_unknown_name_raises_before_any_search(self, ex1, monkeypatch, pair):
        # The search resolves its watched names before it builds a table or
        # a grid, so an unknown one raises with nothing built or walked.
        def no_search(*args):
            raise AssertionError("searched")

        for stage in ("_apart_table", "grid_factored_set", "_grid_labelings"):
            monkeypatch.setattr(inference, stage, no_search)
        with pytest.raises(ValidationError, match="unknown partition name"):
            infer_before(ex1.db, *pair, SearchBounds(max_size=3))

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
                auts = _old_grid_automorphisms(n, ks)[1:]
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


class TestSearchOracle:
    """``search_models`` yields what the old labeling stream plus filter yielded."""

    @pytest.mark.parametrize(
        "name,db,max_size", SEARCH_ORACLE_DBS, ids=[c[0] for c in SEARCH_ORACLE_DBS]
    )
    def test_reference_stream_is_the_old_search(self, name, db, max_size):
        bounds = SearchBounds(max_size=max_size)
        assert _reference_models(name, bounds) == list(_old_search_models(db, bounds))

    @pytest.mark.parametrize(
        "name,db,max_size", SEARCH_ORACLE_DBS, ids=[c[0] for c in SEARCH_ORACLE_DBS]
    )
    @pytest.mark.parametrize("max_dim", [None, 1, 2])
    @pytest.mark.parametrize("surjective_only", [False, True])
    def test_same_models_in_the_same_order(
        self, name, db, max_size, max_dim, surjective_only
    ):
        # Against the reference stream, which the test above equates with
        # the old search up to ``max_size``.
        bounds = SearchBounds(
            max_size=max_size, max_dim=max_dim, surjective_only=surjective_only
        )
        assert list(search_models(db, bounds)) == _reference_models(name, bounds)

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
        multisets = inference.factor_size_multisets

        def clock():
            count[0] += 1
            if count[0] <= reads:
                return 0.0
            events.append("expired read")
            return math.inf

        def spy(fs, rows, conditioned, labeling):
            events.append("check")
            return conditioned_hold(fs, rows, conditioned, labeling)

        def entering(n):
            entered.append(n)
            return multisets(n)

        monkeypatch.setattr(inference.time, "monotonic", clock)
        monkeypatch.setattr(inference, "_conditioned_hold", spy)
        monkeypatch.setattr(inference, "factor_size_multisets", entering)
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


def _old_infer_before(db, models, first, second, strict):
    """``infer_before`` before the walk watched its names, over a model stream.

    ``models`` is the ``search_models`` stream for the bounds; each model's
    two names are pulled back and their histories compared.  Returns the
    kind, the number of models checked and the counterexample.
    """
    x = db.resolve(first)
    y = db.resolve(second)
    checked = 0
    for model in models:
        checked += 1
        fs = model.factored
        hx = history(fs, pullback(model, x))
        hy = history(fs, pullback(model, y))
        if not ((hx & hy == hx) and (not strict or hx != hy)):
            return "refuted", checked, model
    return ("vacuous" if checked == 0 else "holds-up-to-bound"), checked, None


# (case, reference database, bounds)
INFER_ORACLE_CASES = [
    ("ex1", "ex1", SearchBounds(max_size=9)),
    ("ex2", "ex2", SearchBounds(max_size=8)),
    ("ex1-dim-1", "ex1", SearchBounds(max_size=9, max_dim=1)),
    ("ex1-surjective", "ex1", SearchBounds(max_size=9, surjective_only=True)),
] + [(name, name, SearchBounds(max_size=n)) for name, _, n in PLANTED_DBS]


class TestInferOracle:
    """``infer_before`` from the walk's masks against pull-backs and ``history``."""

    @pytest.mark.parametrize(
        "case,name,bounds", INFER_ORACLE_CASES, ids=[c[0] for c in INFER_ORACLE_CASES]
    )
    def test_same_verdicts_as_pullback_histories(self, case, name, bounds):
        db = REFERENCE_DBS[name]
        models = _reference_models(name, bounds)
        names = [*sorted(db.partitions), "_", "!"]
        kinds = set()
        for first, second in itertools.product(names, repeat=2):
            for strict in (True, False):
                verdict = infer_before(db, first, second, bounds, strict=strict)
                expected = _old_infer_before(db, models, first, second, strict)
                assert (
                    verdict.kind, verdict.models_checked, verdict.counterexample
                ) == expected, (first, second, strict)
                kinds.add(verdict.kind)
        assert "refuted" in kinds


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


def _bare_walk(n, ks, omega_n):
    """The walk with no rows to mask: canonicity alone decides."""
    apart = inference._apart_table((), omega_n, 0)
    return inference._grid_labelings(n, ks, omega_n, apart)


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
            auts = _old_grid_automorphisms(n, ks)
            cycles = [_cycle_count(p) for p in auts]
            for omega_n in range(1, 5):
                orbits, rest = divmod(sum(omega_n**c for c in cycles), len(auts))
                assert rest == 0
                walk = _bare_walk(n, ks, omega_n)
                assert sum(1 for _f, _h in walk) == orbits, (n, ks, omega_n)

    def test_adjacent_transpositions_leave_the_sorted_labelings(self):
        for n in range(2, 8):
            for omega_n in range(1, 6):
                walked = [f for f, _ in _bare_walk(n, (n,), omega_n)]
                assert walked == list(
                    itertools.combinations_with_replacement(range(omega_n), n)
                ), (n, omega_n)


def _grid_to_factor_bits(fs, n, ks):
    """Per grid coordinate, the bit of the factor of ``fs`` that is that coordinate."""
    strides = inference.mixed_radix_strides(ks)
    coordinates = [
        Partition.from_block_of(fs.ground, {s: s // stride % k for s in range(n)})
        for stride, k in zip(strides, ks)
    ]
    return [1 << fs.factors.index(c) for c in coordinates]


def _check_pruned_walk(db, max_size):
    """Per grid, the pruned walk against the unpruned one kept by the old ``| _`` verdicts.

    Every row's slice of each kept labeling's masks, mapped from grid
    coordinates to factor bits, is the history of that name's pull-back; a
    watched ``!`` row, asserted nowhere ``| _``, comes after the asserted ones.
    Returns the number of unpruned labelings checked.
    """
    unconditional = [t for t in db.resolved_triples() if t[1][2] == "_"]
    asserted = [x for _, names, _ in unconditional for x in names[:2]]
    assert "!" not in asserted
    masked = list(dict.fromkeys(asserted + ["!"]))
    rows = [db.resolve(x).block_ids for x in masked]
    pairs = {True: [], False: []}
    for expected, (x, y, _), _ in unconditional:
        pairs[expected].append((masked.index(x), masked.index(y)))
    checked = 0
    for n in range(1, max_size + 1):
        for ks in inference.factor_size_multisets(n):
            fs = grid_factored_set(n, ks)
            kept = []
            for f, _ in _bare_walk(n, ks, db.omega.n):
                old = _old_verdicts(Model(fs, f, db.omega), unconditional)
                if all(e == a for e, _, a in old):
                    kept.append(f)
                checked += 1
            # Rows packed at the grid's own dimension, the tightest stride.
            d = len(ks)
            apart = inference._apart_table(rows, db.omega.n, d)
            offsets = {e: [(a * d, b * d) for a, b in pairs[e]] for e in pairs}
            pruned = list(inference._grid_labelings(
                n, ks, db.omega.n, apart, offsets[True], offsets[False]
            ))
            assert [f for f, _ in pruned] == kept, (n, ks)
            bits = _grid_to_factor_bits(fs, n, ks)
            # Grid coordinate j is factor j of the grid ``FactoredSet``.
            assert bits == [1 << j for j in range(d)], (n, ks)
            for f, h in pruned:
                model = Model(fs, f, db.omega)
                for k, name in enumerate(masked):
                    grid_mask = h >> k * d & ((1 << d) - 1)
                    mask = sum(b for j, b in enumerate(bits) if grid_mask >> j & 1)
                    assert mask == history(fs, pullback(model, db.resolve(name))), (
                        n, ks, f, name
                    )
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
    auts = _old_grid_automorphisms(n, ks)[1:]
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
            walked = [f for f, _ in _bare_walk(n, ks, 3)]
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
    orbit = (tuple(labeling[s] for s in p) for p in _old_grid_automorphisms(n, ks))
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


# -- differential oracle: the dimension floor against walking every grid


def _history_conditioned_hold(fs, rows, conditioned, labeling):
    """The search's per-labeling check before it pushed masses forward:
    every name pulled back through ``labeling`` by its row of block ids,
    each conditioned triple decided by the block-by-block histories of its
    first two names on the blocks of its third."""
    pulled = {}
    blocks_of = {}
    for expected, names in conditioned:
        for name in names:
            if name not in pulled:
                pulled[name] = tuple(map(rows[name].__getitem__, labeling))
        x, y, z = names
        if (blocks := blocks_of.get(z)) is None:
            grouped = {}
            for s, b in enumerate(pulled[z]):
                grouped.setdefault(b, []).append(s)
            blocks = blocks_of[z] = [tuple(b) for b in grouped.values()]
        hx = structure.block_histories(fs, pulled[x], blocks)
        hy = structure.block_histories(fs, pulled[y], blocks)
        if expected == any(map(and_, hx, hy)):
            return False
    return True


def _walk_every_grid(db, bounds, watched=()):
    """``inference._search`` before the dimension floor: every grid within
    the bounds is walked, whatever its dimension or size, no time budget.
    Each grid packs its rows at its own dimension, with a table of its own."""
    triples = db.resolved_triples()
    omega_n = db.omega.n
    rows = {n: p.block_ids for _, names, parts in triples for n, p in zip(names, parts)}
    conditioned = [(e, names) for e, names, _ in triples if names[2] != "_"]
    unconditional = [(e, names[:2]) for e, names, _ in triples if names[2] == "_"]
    asserted = [x for _, pair in unconditional for x in pair]
    masked = list(dict.fromkeys(asserted + list(watched)))
    masked_rows = [db.resolve(name).block_ids for name in masked]
    at = masked.index
    disjoint = [(at(x), at(y)) for e, (x, y) in unconditional if e]
    meeting = [(at(x), at(y)) for e, (x, y) in unconditional if not e]
    for n in range(1, bounds.max_size + 1):
        for ks in inference.factor_size_multisets(n):
            d = len(ks)
            if bounds.max_dim is not None and d > bounds.max_dim:
                continue
            fs = grid_factored_set(n, ks)
            walk = inference._grid_labelings(
                n,
                ks,
                omega_n,
                inference._apart_table(masked_rows, omega_n, d),
                [(a * d, b * d) for a, b in disjoint],
                [(a * d, b * d) for a, b in meeting],
            )
            for f, h in walk:
                if bounds.surjective_only and len(set(f)) != omega_n:
                    continue
                if _history_conditioned_hold(fs, rows, conditioned, f):
                    yield fs, f, tuple(h >> at(x) * d & ((1 << d) - 1) for x in watched)


def _cells_conditioned_db():
    """ex2's worlds with ex2's pattern conditioned on the cells of X and V."""
    ex2 = ORACLE_DBS["ex2"]
    cells = Partition.from_block_of(ex2.omega, {w: w >> 1 for w in range(8)})
    return OrthogonalityDatabase(
        ex2.omega,
        {**ex2.partitions, "C": cells},
        frozenset({("X", "V", "_"), ("X", "Z", "C"), ("V", "Z", "C")}),
        frozenset({("X", "X", "_"), ("V", "V", "_"), ("Z", "Z", "C")}),
    )


def _three_and_one_db():
    """ex2 with a Y that splits the four (X, V) cells 3 + 1, not diagonally."""
    ex2 = ORACLE_DBS["ex2"]
    y = Partition.from_block_of(ex2.omega, {w: int(w >= 2) for w in range(8)})
    return replace(ex2, partitions={**ex2.partitions, "Y": y})


def _three_bit_db():
    """Three pairwise orthogonal bits of 8 worlds, each dependent on itself."""
    omega = GroundSet(8)
    bits = {
        name: Partition.from_block_of(omega, {w: w >> j & 1 for w in range(8)})
        for j, name in enumerate("ABC")
    }
    return OrthogonalityDatabase(
        omega,
        bits,
        frozenset((a, b, "_") for a, b in itertools.combinations("ABC", 2)),
        frozenset((a, a, "_") for a in "ABC"),
    )


# (name, database, max_size, floor at that size)
FLOOR_DBS = [
    ("ex1", ORACLE_DBS["ex1"], 9, 1),
    ("ex2", ORACLE_DBS["ex2"], 7, 2),
    # No ``dependent A B | _``: every grid is walked.
    (
        "floor-0",
        _two_bit_db(dependent=frozenset({("V", "Y", "X")})),
        6,
        0,
    ),
    # Two meeting pairs that can share a coordinate: one factor suffices.
    (
        "floor-1-shared",
        _two_bit_db(dependent=frozenset({("V", "V", "_"), ("Y", "Y", "_")})),
        8,
        1,
    ),
    (
        "floor-2",
        _two_bit_db(dependent=frozenset({("X", "X", "_"), ("V", "V", "_")})),
        8,
        2,
    ),
    ("floor-3", _three_bit_db(), 8, 3),
    # Three dimensions do not fit in 7 elements.
    ("floor-3-above-the-cap", _three_bit_db(), 7, None),
    # X is orthogonal to itself, so its history is empty and meets nothing.
    (
        "self-orthogonal-meeting",
        _two_bit_db(
            orthogonal=frozenset({("X", "X", "_")}),
            dependent=frozenset({("X", "V", "_")}),
        ),
        6,
        None,
    ),
    # The one-block partition's history is always empty.
    ("one-block-meeting", _two_bit_db(dependent=frozenset({("_", "V", "_")})), 6, None),
    # ex2's Lemma D pattern conditioned on C, the common refinement of X and
    # V: each C block meets one (X, V) pair, a product, so nothing is
    # excluded, and models of dimension 2 exist from size 6.
    ("cells-conditioned", _cells_conditioned_db(), 6, 2),
    # ex2 without ``dependent X Z | _``: X's history can be empty, so its
    # strong pattern excludes nothing, and models of dimension 2 exist from
    # size 4.
    (
        "ex2-x-unforced",
        replace(
            ORACLE_DBS["ex2"],
            dependent_triples=ORACLE_DBS["ex2"].dependent_triples - {("X", "Z", "_")},
        ),
        6,
        1,
    ),
    # Y's one-cell block meets a product, so the pattern is not strong, and
    # models of dimension 2 exist at size 6.
    ("ex2-three-and-one", _three_and_one_db(), 6, 2),
]
FLOOR_ORACLE_DBS = [(name, db, n) for name, db, n, _ in FLOOR_DBS] + PLANTED_DBS


def _unconditional_rows(db):
    """``_search``'s masked names for ``db`` with no name watched, its
    disjoint pairs (empty rows among them) and its meeting pairs."""
    triples = db.resolved_triples()
    asserted = [x for _, names, _ in triples if names[2] == "_" for x in names[:2]]
    masked = list(dict.fromkeys(asserted))
    pairs = {True: [], False: []}
    for expected, (x, y, z), _ in triples:
        if z == "_":
            pairs[expected].append((masked.index(x), masked.index(y)))
    empty = [
        (k, k) for k, name in enumerate(masked) if db.resolve(name).block_count == 1
    ]
    return masked, pairs[True] + empty, pairs[False]


def _model_floor(disjoint, meeting, cap):
    """The least dimension ``_model_dimensions`` returns with no pattern,
    ``None`` if it returns none."""
    return min(inference._model_dimensions(disjoint, meeting, (), cap), default=None)


def _excludes_two(disjoint, meeting, patterns):
    """Whether the patterns take dimension 2 from ``_model_dimensions``,
    where it is there without them."""
    assert 2 in inference._model_dimensions(disjoint, meeting, (), 2)
    return 2 not in inference._model_dimensions(disjoint, meeting, patterns, 2)


def _floor(db, max_size):
    """The floor ``_search`` computes for ``db`` at ``max_size``."""
    _, disjoint, meeting = _unconditional_rows(db)
    return _model_floor(disjoint, meeting, max_size.bit_length() - 1)


def _excluded(db):
    """The dimensions ``_search`` excludes for ``db`` by Lemma D."""
    masked, disjoint, meeting = _unconditional_rows(db)
    at = masked.index
    pairs = inference._lemma_d_pairs(db.resolved_triples())
    patterns = [(at(x), at(v)) for x, v in pairs]
    return frozenset(
        inference._model_dimensions(disjoint, meeting, (), 2)
        - inference._model_dimensions(disjoint, meeting, patterns, 2)
    )


# -- one reference stream per test database, shared by the oracles above
#    and below: every grid walked, every name watched, no time budget

REFERENCE_DBS = {name: db for name, db, _ in SEARCH_ORACLE_DBS + FLOOR_ORACLE_DBS}
REFERENCE_SIZES = {name: n for name, _, n in SEARCH_ORACLE_DBS + FLOOR_ORACLE_DBS}
REFERENCE_SIZES["ex2"] = 10  # the exclusion oracle reads ex2 up to size 10


def _all_names(db):
    return [*sorted(db.partitions), "_", "!"]


@lru_cache(maxsize=None)
def _reference_stream(name):
    db = REFERENCE_DBS[name]
    bounds = SearchBounds(max_size=REFERENCE_SIZES[name])
    return tuple(_walk_every_grid(db, bounds, _all_names(db)))


def _reference(name, bounds, watched):
    """``_walk_every_grid(db, bounds, watched)`` for test database ``name``,
    read off its one reference stream: each bounded stream is the
    unbounded one, filtered, as a grid is skipped by its dimension and a
    labeling by its image."""
    db = REFERENCE_DBS[name]
    assert bounds.max_size <= REFERENCE_SIZES[name] and bounds.time_budget is None
    at = _all_names(db).index
    return [
        (fs, f, tuple(masks[at(x)] for x in watched))
        for fs, f, masks in _reference_stream(name)
        if fs.size <= bounds.max_size
        and (bounds.max_dim is None or fs.dim <= bounds.max_dim)
        and (not bounds.surjective_only or len(set(f)) == db.omega.n)
    ]


def _reference_models(name, bounds):
    omega = REFERENCE_DBS[name].omega
    return [Model(fs, f, omega) for fs, f, _ in _reference(name, bounds, ())]


def _brute_floor(rows, disjoint, meeting, cap):
    """The least ``d <= cap`` with ``d``-bit masks meeting every pair, by trying all."""
    for d in range(cap + 1):
        for masks in itertools.product(range(1 << d), repeat=rows):
            if all(not masks[a] & masks[b] for a, b in disjoint) and all(
                masks[a] & masks[b] for a, b in meeting
            ):
                return d
    return None


# The floor as the search computed it before regions: an exact colouring of
# the meeting pairs that cannot share a coordinate.  Kept as a reference.
def _colouring_floor(
    disjoint: Sequence[tuple[int, int]],
    meeting: Sequence[tuple[int, int]],
    cap: int,
) -> int | None:
    """The least ``d <= cap`` for which ``d``-bit masks, one per row, can
    keep every ``disjoint`` pair apart and make every ``meeting`` pair meet;
    ``None`` if no ``d <= cap`` can.  A pair ``(k, k)`` reads "mask ``k`` is
    empty" when disjoint and "mask ``k`` is not" when meeting.

    Each meeting pair needs a coordinate both its masks hold.  Disjointness
    is pairwise, so meeting pairs can share one coordinate exactly when
    their rows together hold no disjoint pair: the floor is the chromatic
    number of the graph joining meeting pairs that cannot share, and a
    meeting pair whose own rows hold a disjoint pair meets in no dimension.
    The colouring is exact, by backtracking, since a bound from a greedy
    colouring could lie above the floor and skip a grid holding a model.
    """
    apart = {frozenset(pair) for pair in disjoint}

    def clash(group: frozenset[int]) -> bool:
        return any(frozenset((u, v)) in apart for u in group for v in group)

    groups = list(dict.fromkeys(frozenset(pair) for pair in meeting))
    if any(map(clash, groups)):
        return None
    # Per meeting pair, the earlier ones it cannot share a coordinate with.
    conflicts = [
        [u for u in range(v) if clash(groups[u] | groups[v])]
        for v in range(len(groups))
    ]
    colour = [0] * len(groups)

    def colourable(v: int, colours: int, used: int) -> bool:
        """Whether pairs ``v..`` take colours below ``colours``, ``used`` so
        far; a pair opens at most one new colour, as colours are symmetric."""
        if v == len(groups):
            return True
        for c in range(min(colours, used + 1)):
            if all(colour[u] != c for u in conflicts[v]):
                colour[v] = c
                if colourable(v + 1, colours, max(used, c + 1)):
                    return True
        return False

    return next((d for d in range(cap + 1) if colourable(0, d, 0)), None)


class TestDimensionFloor:
    """Skipping the grids below the floor changes nothing the search yields."""

    @pytest.mark.parametrize(
        "name,db,max_size", FLOOR_ORACLE_DBS, ids=[c[0] for c in FLOOR_ORACLE_DBS]
    )
    @pytest.mark.parametrize("surjective_only", [False, True])
    def test_same_stream_as_walking_every_grid(
        self, name, db, max_size, surjective_only
    ):
        bounds = SearchBounds(max_size=max_size, surjective_only=surjective_only)
        watched = sorted(db.partitions)[:2]
        expected = _reference(name, bounds, watched)
        assert list(inference._search(db, bounds, watched)) == expected

    @pytest.mark.parametrize("name,db,max_size,floor", FLOOR_DBS, ids=[c[0] for c in FLOOR_DBS])
    def test_floor(self, name, db, max_size, floor):
        assert _floor(db, max_size) == floor

    def test_matches_brute_force(self):
        rng = random.Random(24)
        seen = set()
        for _ in range(300):
            rows = rng.randint(1, 4)
            disjoint, meeting = [], []
            for a in range(rows):
                for b in range(a, rows):
                    pair = (a, b) if rng.random() < 0.5 else (b, a)
                    draw = rng.random()
                    if draw < 0.45 or 0.75 <= draw < 0.8:
                        disjoint.append(pair)
                    if 0.45 <= draw < 0.8:
                        meeting.append(pair)
            floor = _model_floor(disjoint, meeting, 3)
            assert floor == _brute_floor(rows, disjoint, meeting, 3), (disjoint, meeting)
            seen.add(floor)
        assert seen == {0, 1, 2, 3, None}

    def test_matches_the_colouring(self):
        # Up to 7 rows and 4 bits, too many for ``_brute_floor``: the regions
        # against the colouring the search used before them, and the Lemma D
        # rule as the search read it then, on the forced rows alone.  Then
        # 12 to 24 rows with at most 3 disjoint pairs, where most forced rows
        # clash with none and join every region.
        rng = random.Random(29)
        seen = collections.Counter()

        def check(rows, cap, disjoint, meeting):
            patterns = [
                tuple(rng.sample(range(rows), 2)) for _ in range(rng.randint(0, 3))
            ] if rows > 1 else []
            floor = _colouring_floor(disjoint, meeting, cap)
            forced = {k for pair in meeting for k in pair}
            excluded = any(x in forced and v in forced for x, v in patterns)
            expected = set() if floor is None else set(range(floor, cap + 1))
            if excluded:
                expected.discard(2)
            dims = inference._model_dimensions(disjoint, meeting, patterns, cap)
            assert dims == expected, (disjoint, meeting, patterns, cap)
            seen[rows > 7, floor] += 1
            seen["2 excluded"] += excluded and floor is not None and floor <= 2 <= cap

        for _ in range(3000):
            rows, cap = rng.randint(1, 7), min(4, rng.randint(0, 7))
            split = rng.random()  # the share of pairs of two rows kept apart
            disjoint, meeting = [], []
            for a in range(rows):
                for b in range(a, rows):
                    pair = (a, b) if rng.random() < 0.5 else (b, a)
                    apart, meet = (0.03, 0.5) if a == b else (split, 0.2)
                    draw = rng.random()
                    if draw < apart or 0.98 < draw:
                        disjoint.append(pair)
                    if apart <= draw < apart + meet or 0.98 < draw:
                        meeting.append(pair)
            check(rows, cap, disjoint, meeting)
        assert min(seen[False, floor] for floor in (0, 1, 2, 3, 4, None)) >= 30, seen
        assert seen["2 excluded"] >= 30, seen
        for _ in range(400):
            rows, cap = rng.randint(12, 24), rng.randint(1, 4)
            few = rng.sample(range(rows), 3)
            disjoint = rng.sample(list(itertools.combinations(few, 2)), rng.randint(0, 3))
            if rng.random() < 0.1:
                disjoint[:1] = [(few[0], few[0])]
            # The clashing rows' pairs first, so the colouring fails fast.
            meeting = [(k, rng.randrange(rows)) for k in few if rng.random() < 0.7] + [
                tuple(rng.sample(range(rows), 2)) for _ in range(rng.randint(1, 2 * rows))
            ]
            check(rows, cap, disjoint, meeting)
        assert min(seen[True, floor] for floor in (1, 2, 3, None)) >= 10, seen

    def test_a_long_chain_of_forced_names_is_quick(self):
        # 40 names, each asserted dependent on the next and orthogonal to
        # none: no forced row clashes, so one region holds them all.  Walking
        # every submask of the forced rows would take 2**40 steps.
        omega = GroundSet(4)
        names = [f"A{i}" for i in range(40)]
        halves = [Partition.from_blocks(omega, [[0, 1], [2, 3]]),
                  Partition.from_blocks(omega, [[0, 2], [1, 3]])]
        db = OrthogonalityDatabase(
            omega,
            {name: halves[i % 2] for i, name in enumerate(names)},
            frozenset(),
            frozenset((a, b, "_") for a, b in zip(names, names[1:])),
        )
        started = time.perf_counter()
        verdict = infer_before(db, "A0", "A1", SearchBounds(max_size=1))
        assert time.perf_counter() - started < 1.0
        assert verdict.kind == "vacuous"
        rows = range(len(names))
        meeting = list(zip(rows, rows[1:]))
        assert inference._model_dimensions([], meeting, [], 4) == {1, 2, 3, 4}

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_ex2_truncates_in_the_size_it_enters(self, ex2, expire_budget_in_size, size):
        # ex2's floor is 2 and Lemma D excludes dimension 2, so no grid of
        # sizes 1 to 5 is walked: each reads the clock once instead.
        expire_budget_in_size(size)
        verdict = infer_before(
            ex2.db, "X", "Z", SearchBounds(max_size=6, time_budget=1.0)
        )
        assert verdict.truncation == Truncation(size)
        assert verdict.kind == ("inconclusive" if size == 1 else "vacuous")

    def test_below_the_floor_nothing_is_walked(self, ex2, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(inference, "_grid_labelings", no_walk)
        verdict = infer_before(ex2.db, "X", "Y", SearchBounds(max_size=9, max_dim=1))
        assert verdict.kind == "vacuous"
        assert verdict.models_checked == 0

    def test_one_apart_table_per_search(self, ex2, monkeypatch):
        # Every grid of size at most 8 has at most 3 dimensions: one table
        # with rows 3 bits apart serves them all.
        built = []
        table = inference._apart_table

        def spy(rows, omega_n, stride):
            built.append(stride)
            return table(rows, omega_n, stride)

        monkeypatch.setattr(inference, "_apart_table", spy)
        verdict = infer_before(ex2.db, "X", "Y", SearchBounds(max_size=8))
        assert verdict.models_checked == 5
        assert built == [3]

    @staticmethod
    def _self_dependent_db(omega_n, x):
        omega = GroundSet(omega_n)
        return OrthogonalityDatabase(
            omega, {"X": x(omega)}, frozenset(), frozenset({("X", "X", "_")})
        )

    @staticmethod
    def _spy_tables(monkeypatch):
        tables = []
        table = inference._apart_table

        def spy(rows, omega_n, stride):
            tables.append(table(rows, omega_n, stride))
            return tables[-1]

        monkeypatch.setattr(inference, "_apart_table", spy)
        return tables

    def test_no_table_row_without_a_walked_grid(self, monkeypatch):
        # A one-block X has an empty history in every model, so no grid can
        # hold ``dependent X X | _`` and none is walked.
        db = self._self_dependent_db(300, Partition.indiscrete)
        tables = self._spy_tables(monkeypatch)
        verdict = is_consistent_up_to_bound(db, SearchBounds(max_size=4))
        assert not verdict.consistent and verdict.truncation is None
        assert [len(t) for t in tables] == [0]

    @pytest.mark.parametrize("reads,size", [(1, 1), (2, 2), (3, 2), (8, 2)])
    def test_table_rows_are_built_inside_the_budget(self, monkeypatch, reads, size):
        # The clock reads 0 for its first ``reads`` reads and infinity after.
        # The first read sets the deadline.  Size 1 walks no grid and reads
        # the clock once; size 2 walks one and reads it per placed label,
        # each of the 40 labels in turn.  So the budget runs out in the size
        # being entered, and no more table rows are built than reads made.
        db = self._self_dependent_db(40, Partition.discrete)
        tables = self._spy_tables(monkeypatch)
        count = [0]

        def clock():
            count[0] += 1
            return 0.0 if count[0] <= reads else math.inf

        monkeypatch.setattr(inference.time, "monotonic", clock)
        items = list(search_models(db, SearchBounds(max_size=2, time_budget=1.0)))
        assert items[-1] == Truncation(size)
        assert count[0] == reads + 1
        assert len(tables) == 1 and len(tables[0]) <= reads

    def test_builds_only_the_grids_it_walks(self, ex2, monkeypatch):
        # ex2's floor is 2 and Lemma D excludes dimension 2, so up to size 8
        # only the one grid of dimension 3 is built.
        built = []
        grid = inference.grid_factored_set

        def spy(n, ks):
            built.append((n, ks))
            return grid(n, ks)

        monkeypatch.setattr(inference, "grid_factored_set", spy)
        verdict = infer_before(ex2.db, "X", "Y", SearchBounds(max_size=8))
        assert verdict.models_checked == 5
        assert built == [(8, (2, 2, 2))]


# -- Lemma D: the dimensions the conditioned assertions exclude


def _brute_excluded(rows, disjoint, meeting, patterns):
    """``{2}`` when every 2-bit mask assignment meeting the pairs gives both
    rows of some pattern a non-empty mask, by trying all."""
    for masks in itertools.product(range(4), repeat=rows):
        if (
            all(not masks[a] & masks[b] for a, b in disjoint)
            and all(masks[a] & masks[b] for a, b in meeting)
            and not any(masks[x] and masks[v] for x, v in patterns)
        ):
            return frozenset()
    return frozenset({2})


def _enumerated_strong(x, v, y):
    """``_lemma_d_strong`` by every choice of at least two X blocks and two
    V blocks whose cells are all observed, with no limit on the choices."""
    cell_block = {}
    for cell, b in zip(zip(x.block_ids, v.block_ids), y.block_ids):
        if cell_block.setdefault(cell, b) != b:
            return False
    choices = [
        [c for r in range(2, k + 1) for c in itertools.combinations(range(k), r)]
        for k in (x.block_count, v.block_count)
    ]
    for rx, rv in itertools.product(*choices):
        cells = list(itertools.product(rx, rv))
        if not all(c in cell_block for c in cells):
            continue
        met = {}
        for c in cells:
            met.setdefault(cell_block[c], []).append(c)
        for pairs in met.values():
            if len(pairs) == len({a for a, _ in pairs}) * len({b for _, b in pairs}):
                return False
    return True


def _choice_count(part):
    """The number of choices of at least two of ``part``'s blocks."""
    return 2**part.block_count - part.block_count - 1


def _partitions_of_cells(cells):
    """X, V and Y on one observation per ``(X block, V block, Y block)``."""
    omega = GroundSet(len(cells))
    return [Partition.from_block_of(omega, dict(enumerate(col))) for col in zip(*cells)]


def _lemma_d_draw(rng):
    """Random X, V and Y of 2-6 blocks each, and whether some 2x2 of
    (X, V) cells is observed in full."""
    kx, kv = rng.randint(2, 6), rng.randint(2, 6)
    cell_y = {}
    if rng.random() < 0.5:
        # Diagonal 2x2s on disjoint pairs of X blocks and of V blocks.
        rows, cols = rng.sample(range(kx), kx), rng.sample(range(kv), kv)
        for k in range(rng.randint(1, min(kx, kv) // 2)):
            x1, x2, v1, v2 = rows[2 * k], rows[2 * k + 1], cols[2 * k], cols[2 * k + 1]
            a, c = rng.sample(range(3), 2)
            cell_y.update({(x1, v1): a, (x2, v2): a, (x1, v2): c, (x2, v1): c})
    else:
        for cell in itertools.product(range(kx), range(kv)):
            if rng.random() < 0.5:
                cell_y[cell] = rng.randrange(3)
    for i in range(kx):
        cell_y.setdefault((i, rng.randrange(kv)), rng.randrange(3))
    for j in range(kv):
        cell_y.setdefault((rng.randrange(kx), j), rng.randrange(3))
    cells = [(*cell, b) for cell, b in cell_y.items() for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.05:
        cells.append((*cells[0][:2], cells[0][2] + 1))  # Y splits a cell
    full = any(
        all(c in cell_y for c in itertools.product(rx, rv))
        for rx in itertools.combinations(range(kx), 2)
        for rv in itertools.combinations(range(kv), 2)
    )
    return *_partitions_of_cells(cells), full


class TestLemmaDExclusion:
    """No model lies in a dimension the Lemma D rule excludes."""

    def test_only_ex2_is_excluded(self):
        excluded = {name: _excluded(db) for name, db in REFERENCE_DBS.items()}
        assert {name: dims for name, dims in excluded.items() if dims} == {"ex2": {2}}

    @pytest.mark.parametrize("name", sorted(REFERENCE_DBS))
    def test_no_model_in_an_excluded_dimension(self, name):
        # The reference stream walks every grid up to the database's size,
        # so filtered to ``max_dim = d`` it is the unfloored walk there.
        for d in _excluded(REFERENCE_DBS[name]):
            bounds = SearchBounds(max_size=REFERENCE_SIZES[name], max_dim=d)
            assert not any(fs.dim == d for fs, _, _ in _reference(name, bounds, ()))

    @pytest.mark.slow
    def test_ex2_has_no_model_of_dimension_two_to_size_twelve(self):
        bounds = SearchBounds(max_size=12, max_dim=2)
        walk = _walk_every_grid(ORACLE_DBS["ex2"], bounds)
        assert not any(fs.dim == 2 for fs, _, _ in walk)

    def test_excluded_dimension_is_not_walked(self, ex2, monkeypatch):
        # Every grid of dimension at most 2 lies below the floor or is excluded.
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(inference, "_grid_labelings", no_walk)
        verdict = infer_before(ex2.db, "X", "Y", SearchBounds(max_size=12, max_dim=2))
        assert (verdict.kind, verdict.models_checked) == ("vacuous", 0)

    def test_matches_brute_force(self):
        # Only where a 2-bit assignment exists: ``_search`` reads the rule
        # only where the floor is at most 2.
        rng = random.Random(26)
        seen = []
        while len(seen) < 300:
            rows = rng.randint(2, 4)
            disjoint, meeting = [], []
            for a in range(rows):
                for b in range(a, rows):
                    draw = rng.random()
                    if draw < 0.3 or 0.7 <= draw < 0.75:
                        disjoint.append((a, b))
                    if 0.3 <= draw < 0.75:
                        meeting.append((a, b))
            if _model_floor(disjoint, meeting, 2) is None:
                continue
            patterns = [
                tuple(rng.sample(range(rows), 2)) for _ in range(rng.randint(1, 8))
            ]
            excluded = _excludes_two(disjoint, meeting, patterns)
            brute = _brute_excluded(rows, disjoint, meeting, patterns)
            assert excluded == bool(brute), (disjoint, meeting, patterns)
            seen.append(excluded)
        assert seen.count(True) >= 30 and seen.count(False) >= 30

    def test_no_pattern_excludes_nothing(self):
        assert _brute_excluded(2, [(0, 1)], [(0, 0), (1, 1)], []) == set()
        assert not _excludes_two([(0, 1)], [(0, 0), (1, 1)], [])

    def test_a_seventh_pattern_counts(self):
        # Rows 0-3 are in meeting pairs and 4 and 5 are not: the first six
        # patterns each hold row 4 or 5, which can be empty; the seventh
        # holds rows 2 and 3, which cannot.
        disjoint, meeting = [(0, 4), (4, 5)], [(0, 1), (2, 3)]
        patterns = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (1, 5), (2, 3)]
        assert _model_floor(disjoint, meeting, 2) is not None
        for count, excluded in ((6, set()), (7, {2})):
            first = patterns[:count]
            assert _brute_excluded(6, disjoint, meeting, first) == excluded
            assert _excludes_two(disjoint, meeting, first) == bool(excluded)

    def test_ex2_pattern_in_either_order(self):
        # Swapping the first two names of every assertion finds the same pair.
        ex2 = ORACLE_DBS["ex2"]
        swapped = replace(
            ex2,
            orthogonal_triples={(b, a, c) for a, b, c in ex2.orthogonal_triples},
            dependent_triples={(b, a, c) for a, b, c in ex2.dependent_triples},
        )
        for db in (ex2, swapped):
            assert inference._lemma_d_pairs(db.resolved_triples()) == [("V", "X")]
        # Without the conditioned dependence there is no pattern.
        plain = replace(ex2, dependent_triples=ex2.dependent_triples - {("Z", "Z", "Y")})
        assert inference._lemma_d_pairs(plain.resolved_triples()) == []

    def test_strong_patterns(self):
        ex2 = ORACLE_DBS["ex2"]
        x, v, y, z = (ex2.resolve(n) for n in "XVYZ")
        cells = _cells_conditioned_db().resolve("C")
        strong = inference._lemma_d_strong
        # Each Y block pairs the X and V blocks diagonally.
        assert strong(x, v, y)
        # A Y block that is a cell, or an X block, meets a product.
        assert not strong(x, v, cells) and not strong(x, v, x)
        # Z is not coarser than the common refinement of X and V.
        assert not strong(x, v, z)
        # Five X and five V blocks, 676 choices: only the two 2x2s on the
        # diagonal are observed in full, and Y splits each into diagonals.
        x, v, y = _partitions_of_cells(
            [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (2, 2, 0), (3, 3, 0)]
            + [(2, 3, 1), (3, 2, 1), (4, 4, 0)]
        )
        assert _choice_count(x) * _choice_count(v) == 676
        assert strong(x, v, y) and _enumerated_strong(x, v, y)

    def test_strong_matches_the_choice_enumeration(self):
        rng = random.Random(27)
        strong = past_256 = 0
        for _ in range(600):
            x, v, y, full = _lemma_d_draw(rng)
            verdict = inference._lemma_d_strong(x, v, y)
            assert verdict == _enumerated_strong(x, v, y), (x, v, y)
            if verdict and full:
                strong += 1
                past_256 += _choice_count(x) * _choice_count(v) > 256
        assert strong >= 60 and past_256 >= 10

    def test_choices_with_an_unobserved_cell_are_skipped(self):
        # Observations are the (X, V) cells (0,0) (0,1) (1,0) (1,1) (2,0);
        # any choice of X blocks with 2 misses the cell (2,1), and Y pairs
        # the rest diagonally.
        omega = GroundSet(5)
        x = Partition.from_blocks(omega, [[0, 1], [2, 3], [4]])
        v = Partition.from_blocks(omega, [[0, 2, 4], [1, 3]])
        y = Partition.from_blocks(omega, [[0, 3, 4], [1, 2]])
        assert inference._lemma_d_strong(x, v, y)
        # With (2, 1) observed, in Y's first block, the choice {1, 2} x V
        # leaves Y's second block the single pair (1, 0), a product.
        omega = GroundSet(6)
        x = Partition.from_blocks(omega, [[0, 1], [2, 3], [4, 5]])
        v = Partition.from_blocks(omega, [[0, 2, 4], [1, 3, 5]])
        y = Partition.from_blocks(omega, [[0, 3, 4, 5], [1, 2]])
        assert not inference._lemma_d_strong(x, v, y)
