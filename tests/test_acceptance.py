"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  The combinatorial checks are exact (zero
tolerance); the only numeric thresholds are the runtime ceilings and the
99% sampled-witness rate of criterion 9, both stated inline.  Lines are
written straight to the real stdout so they appear even under capture.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time

import pytest

from factoredsets import (
    GroundSet,
    Model,
    Partition,
    SearchBounds,
    common_refinement,
    cond_orth_by_divisibility,
    cond_orthogonal,
    conditional_independence_holds,
    count_factorizations,
    counterfactable,
    enumerate_factorizations,
    grid_factored_set,
    history,
    infer_before,
    iter_partitions,
    models_database,
    observes_event,
    pullback,
    random_distribution,
    search_models,
)
from factoredsets import inference
from factoredsets.cli import main as cli_main
from conftest import (
    _old_grid_automorphisms,
    assert_semigraphoid_axioms,
    assert_splice_identities,
    brute_history,
    mixed_random_partition,
    random_factored_set,
    random_partition,
    random_subset,
)

TABLE_COUNTS = (1, 1, 1, 1, 4, 1, 61, 1, 1681, 5041, 15121)


def report(num: int, text: str) -> None:
    sys.__stdout__.write(f"PASS criterion {num}: {text}\n")
    sys.__stdout__.flush()


def fail(num: int, text: str) -> None:
    sys.__stdout__.write(f"FAIL criterion {num}: {text}\n")
    sys.__stdout__.flush()


@contextlib.contextmanager
def criterion(num: int, text_on_pass: str):
    try:
        yield
    except BaseException:
        fail(num, text_on_pass)
        raise
    report(num, text_on_pass)


@pytest.fixture(scope="module")
def square_sweep():
    """All factorizations of a 4-element set crossed with all partition triples."""
    ground = GroundSet(4)
    parts = list(iter_partitions(ground))
    sweep = []
    for fs in enumerate_factorizations(4):
        triples = [
            (x, y, z, cond_orthogonal(fs, x, y, z))
            for x in parts
            for y in parts
            for z in parts
        ]
        sweep.append((fs, triples))
    return sweep


def test_criterion_01_factorization_counts():
    started = time.perf_counter()
    got = tuple(count_factorizations(n) for n in range(11))
    elapsed = time.perf_counter() - started
    with criterion(1, f"counts for sizes 0..10 match exactly in {elapsed:.1f}s (limit 60s)"):
        assert got == TABLE_COUNTS
        assert elapsed <= 60.0


@pytest.mark.slow
def test_criterion_01_optional_size_twelve():
    # Enumerates, so the grid walk keeps its long check beside the formula.
    started = time.perf_counter()
    got = sum(1 for _ in enumerate_factorizations(12))
    elapsed = time.perf_counter() - started
    with criterion(1, f"size-12 count 13638241 in {elapsed:.0f}s (limit 1800s)"):
        assert got == 13638241
        assert elapsed <= 1800.0


def test_criterion_02_four_element_enumeration():
    g = GroundSet(4)

    def blockset(pairs):
        return frozenset(
            frozenset(frozenset(b) for b in blocks) for blocks in pairs
        )

    expected = {
        blockset([[[0], [1], [2], [3]]]),
        blockset([[[0, 1], [2, 3]], [[0, 2], [1, 3]]]),
        blockset([[[0, 1], [2, 3]], [[0, 3], [1, 2]]]),
        blockset([[[0, 2], [1, 3]], [[0, 3], [1, 2]]]),
    }
    got = [
        frozenset(frozenset(p.block_sets) for p in fs.factors)
        for fs in enumerate_factorizations(4)
    ]
    with criterion(2, "the four factorizations of a 4-element set, as canonical sets"):
        assert len(got) == 4
        assert set(got) == expected


def test_criterion_03_chimera_identities():
    rng = random.Random(20_003)
    samples = 10_000
    with criterion(3, f"11 splice identities on {samples} random samples, sizes up to 12"):
        for _ in range(samples):
            fs = random_factored_set(rng, min_n=1, max_n=12)
            n = fs.size
            c = rng.randrange(1 << fs.dim)
            d = rng.randrange(1 << fs.dim)
            s, t, r = (rng.randrange(n) for _ in range(3))
            assert_splice_identities(fs, c, d, s, t, r)


def test_criterion_04_history_laws():
    checked = 0
    with criterion(4, "history laws, exhaustive to size 5 plus 1000 random cases to size 8"):
        for n in range(6):
            for fs in enumerate_factorizations(n):
                parts = list(iter_partitions(fs.ground))
                hs = {p: history(fs, p) for p in parts}
                assert hs[Partition.indiscrete(fs.ground)] == 0
                if n:
                    for j, factor in enumerate(fs.factors):
                        assert hs[factor] == 1 << j
                for x in parts:
                    for y in parts:
                        if x.refines(y):
                            assert hs[y] & hs[x] == hs[y]
                        join = common_refinement([x, y])
                        assert hs[join] == hs[x] | hs[y]
                        checked += 1
        rng = random.Random(20_004)
        for _ in range(1000):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            hx, hy = history(fs, x), history(fs, y)
            if x.refines(y):
                assert hy & hx == hy
            assert history(fs, common_refinement([x, y])) == hx | hy
            assert (history(fs, x) == 0) == (x.block_count <= 1)
            checked += 1
    assert checked > 1000


def test_criterion_05_conditioned_history_lemmas():
    rng = random.Random(20_005)
    lemma_a_fired = 0
    with criterion(5, "conditioned-history lemmas on 1000 random instances"):
        for i in range(1000):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            if i % 2:
                dom = random_subset(rng, fs.size)
                x = random_partition(rng, fs.ground, dom)
                y = random_partition(rng, fs.ground, dom)
            else:
                x = mixed_random_partition(rng, fs)
                y = mixed_random_partition(rng, fs)
            # Lemma A: disjoint histories survive conditioning on the other side.
            if not history(fs, x) & history(fs, y):
                lemma_a_fired += 1
                for blk in y.block_sets:
                    assert history(fs, x.restrict(blk)) == history(fs, x)
            # Lemma B: join history decomposes through one side's blocks.
            expected = history(fs, x)
            for blk in x.block_sets:
                expected |= history(fs, y.restrict(blk))
            assert history(fs, common_refinement([x, y])) == expected
        assert lemma_a_fired >= 100
    sys.__stdout__.write(
        f"  (criterion 5 detail: lemma-A premise fired {lemma_a_fired}/1000 times)\n"
    )


def _is_product(pairs) -> bool:
    return len(pairs) == len({a for a, _ in pairs}) * len({b for _, b in pairs})


def test_lemma_d_non_product_pairs_meet_the_other_history():
    # Lemma D, which lets the search exclude a dimension: if the (X block,
    # V block) pairs met by E form no product set, h(X|E) meets h(V).
    rng = random.Random(36_036)
    fired = 0
    for _ in range(3000):
        fs = random_factored_set(rng, min_n=4, max_n=36)
        x = mixed_random_partition(rng, fs)
        v = mixed_random_partition(rng, fs)
        cells: dict[tuple[int, int], list[int]] = {}
        for s in range(fs.size):
            cells.setdefault((x.block_of[s], v.block_of[s]), []).append(s)
        # Some cells, each with some of its elements, so the pairs often
        # miss a corner of their product.
        e = [
            s
            for members in cells.values()
            if rng.random() < 0.5
            for s in rng.sample(members, rng.randint(1, len(members)))
        ]
        if _is_product({(x.block_of[s], v.block_of[s]) for s in e}):
            continue
        fired += 1
        assert history(fs, x.restrict(e)) & history(fs, v)
    assert fired >= 1200


def test_refuted_history_rules_stay_refuted():
    # Three rules that Lemma D's neighbourhood suggests, each with a
    # counterexample found by brute force over every partition triple.
    square = grid_factored_set(4, (2, 2))  # factors {01|23} (bit 0), {02|13} (bit 1)
    x = Partition.from_blocks(square.ground, [[0, 1, 2], [3]])
    y = Partition.from_blocks(square.ground, [[0, 1], [2, 3]])
    z = Partition.from_blocks(square.ground, [[0, 2, 3], [1]])
    hx, hy, hz = (history(square, p) for p in (x, y, z))
    assert (hx, hy, hz) == (0b11, 0b01, 0b11)
    assert cond_orthogonal(square, x, z, y)
    # "X orthogonal to Z given Y implies h(X) & h(Z) <= h(Y)" is false.
    assert hx & hz & ~hy
    # "X orthogonal to Z given Y, with neither Z nor X determined by Y,
    # implies that h(Z) is not within h(X) | h(Y)" is false.
    assert not y.refines(z) and not y.refines(x)
    assert hz & ~(hx | hy) == 0
    # The strong form of Lemma D, "h(X|E) >= h(X) | h(V)", is false, even
    # with X and V orthogonal.
    cube = grid_factored_set(8, (2, 2, 2))
    x = Partition.from_blocks(cube.ground, [[0, 1, 2, 3, 4, 5], [6, 7]])
    v = cube.factors[2]
    e = (2, 7)
    assert not _is_product({(x.block_of[s], v.block_of[s]) for s in e})
    hx, hv, hxe = history(cube, x), history(cube, v), history(cube, x.restrict(e))
    assert (hx, hv, hxe) == (0b011, 0b100, 0b101)
    assert hxe & hv and (hx | hv) & ~hxe


def test_criterion_06_compositional_semigraphoid():
    rng = random.Random(20_006)
    fired = [0, 0, 0, 0, 0]
    with criterion(6, "five compositional-semigraphoid axioms on 1000 random draws"):
        for _ in range(1000):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            z = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            for i, held in enumerate(assert_semigraphoid_axioms(fs, x, y, z, w)):
                fired[i] += held
        assert all(count >= 50 for count in fired)
    sys.__stdout__.write(
        f"  (criterion 6 detail: premise counts {fired} out of 1000 draws)\n"
    )


def test_criterion_07_divisibility_equivalence(square_sweep):
    started = time.perf_counter()
    total = 0
    with criterion(7, "history and polynomial routes agree on all 13500 square triples"):
        for fs, triples in square_sweep:
            for x, y, z, orth in triples:
                assert cond_orth_by_divisibility(fs, x, y, z) == orth
                total += 1
        assert total == 4 * 15 ** 3
        elapsed = time.perf_counter() - started
        assert elapsed <= 60.0
        rng = random.Random(20_007)
        for _ in range(1000):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            x = mixed_random_partition(rng, fs)
            y = mixed_random_partition(rng, fs)
            z = mixed_random_partition(rng, fs)
            assert cond_orth_by_divisibility(fs, x, y, z) == cond_orthogonal(
                fs, x, y, z
            )


def test_criterion_08_independence_soundness(square_sweep):
    rng = random.Random(20_008)
    orthogonal_count = 0
    with criterion(8, "orthogonal square triples are independent under 20 sampled distributions each, exactly"):
        for fs, triples in square_sweep:
            dists = [random_distribution(fs, rng) for _ in range(20)]
            for x, y, z, orth in triples:
                if not orth:
                    continue
                orthogonal_count += 1
                for dist in dists:
                    assert conditional_independence_holds(fs, dist, x, y, z)
        assert orthogonal_count > 0
    sys.__stdout__.write(
        f"  (criterion 8 detail: {orthogonal_count} orthogonal triples x 20 distributions)\n"
    )


def test_criterion_09_independence_completeness(square_sweep):
    rng = random.Random(20_009)
    dependent_count = 0
    witness_misses = 0
    with criterion(9, "dependent square triples fail the polynomial identity; sampled witness rate >= 99%"):
        for fs, triples in square_sweep:
            for x, y, z, orth in triples:
                if orth:
                    continue
                dependent_count += 1
                assert not cond_orth_by_divisibility(fs, x, y, z)
                found = False
                for _ in range(50):
                    dist = random_distribution(fs, rng)
                    if not conditional_independence_holds(fs, dist, x, y, z):
                        found = True
                        break
                if not found:
                    witness_misses += 1
        assert dependent_count > 0
        assert witness_misses <= dependent_count * 0.01
    sys.__stdout__.write(
        f"  (criterion 9 detail: {dependent_count} dependent triples, "
        f"{witness_misses} without a sampled witness)\n"
    )


def _run_cli_json(argv: list[str]) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["--format", "structured"] + argv)
    return code, json.loads(buf.getvalue())


def ex1_db_path():
    from factoredsets import data_path

    return data_path("ex1.db")


def ex2_db_path():
    from factoredsets import data_path

    return data_path("ex2.db")


def test_criterion_10_two_bit_example(ex1):
    started = time.perf_counter()
    with criterion(10, "two-bit example: bundled model checks out, inference verdicts and bounds as required"):
        from factoredsets import resolve_model

        model = resolve_model(ex1.file, ex1.db.omega)
        assert models_database(model, ex1.db).ok

        verdict = infer_before(ex1.db, "X", "Y", SearchBounds(max_size=6))
        assert verdict.kind == "holds-up-to-bound"
        assert verdict.models_checked >= 1

        code, payload = _run_cli_json(
            ["infer", "--db", str(ex1_db_path()), "--before", "X", "Y",
             "--max-size", "6"]
        )
        assert code == 0
        assert payload["results"]["verdict"] == "holds-up-to-bound"
        assert "size <= 6" in payload["results"]["bound"]

        reverse = infer_before(ex1.db, "Y", "X", SearchBounds(max_size=4))
        assert reverse.kind == "refuted"
        code, payload = _run_cli_json(
            ["infer", "--db", str(ex1_db_path()), "--before", "Y", "X",
             "--max-size", "4"]
        )
        assert code == 1
        assert payload["results"]["verdict"] == "refuted"
        elapsed = time.perf_counter() - started
        assert elapsed <= 300.0


def test_criterion_11_three_bit_example(ex2):
    started = time.perf_counter()
    with criterion(11, "three-bit example: 12-element model satisfies all six assertions; bounded verdicts carry qualifiers"):
        fs = ex2.model.factored
        mf = ex2.model_file
        check = models_database(ex2.model, ex2.db)
        assert check.ok and len(check.entries) == 6

        # Pullbacks and histories pinned to the published witness structure.
        xp, vp, zp = (mf.resolve(n) for n in ("Xp", "Vp", "Zp"))
        jx, jv, jz = (fs.factors.index(p) for p in (xp, vp, zp))
        assert pullback(ex2.model, ex2.db.resolve("X")) == xp
        assert pullback(ex2.model, ex2.db.resolve("V")) == vp
        y_pull = pullback(ex2.model, ex2.db.resolve("Y"))
        z_pull = pullback(ex2.model, ex2.db.resolve("Z"))
        assert history(fs, xp) == 1 << jx
        assert history(fs, vp) == 1 << jv
        assert history(fs, y_pull) == (1 << jx) | (1 << jv)
        assert history(fs, z_pull) == fs.full_mask
        for y_block in y_pull.block_sets:
            assert history(fs, pullback(ex2.model, ex2.db.resolve("X")).restrict(y_block)) == (1 << jx) | (1 << jv)
            assert history(fs, z_pull.restrict(y_block)) == 1 << jz

        for pair in (("X", "Y"), ("Y", "Z")):
            code, payload = _run_cli_json(
                ["infer", "--db", str(ex2_db_path()), "--before", *pair,
                 "--max-size", "5"]
            )
            assert payload["results"]["verdict"] in ("holds-up-to-bound", "vacuous")
            assert "size <= 5" in payload["results"]["bound"]

        # The smallest models have 8 elements: the search reaches them all.
        code, payload = _run_cli_json(
            ["infer", "--db", str(ex2_db_path()), "--before", "X", "Y",
             "--max-size", "8"]
        )
        assert code == 0
        assert payload["results"]["verdict"] == "holds-up-to-bound"
        assert payload["results"]["models_checked"] == 5
        assert "size <= 8" in payload["results"]["bound"]

        # Sizes 9 and 10 add no model.
        code, payload = _run_cli_json(
            ["infer", "--db", str(ex2_db_path()), "--before", "X", "Y",
             "--max-size", "10"]
        )
        assert code == 0
        assert payload["results"]["verdict"] == "holds-up-to-bound"
        assert payload["results"]["models_checked"] == 5
        assert "size <= 10" in payload["results"]["bound"]
        elapsed = time.perf_counter() - started
        assert elapsed <= 600.0


@pytest.mark.slow
def test_criterion_11_size_twelve():
    started = time.perf_counter()
    with criterion(11, "three-bit example: X before Y in all 39 models up to size 12"):
        code, payload = _run_cli_json(
            ["infer", "--db", str(ex2_db_path()), "--before", "X", "Y",
             "--max-size", "12"]
        )
        assert code == 0
        assert payload["results"]["verdict"] == "holds-up-to-bound"
        assert payload["results"]["models_checked"] == 39
        assert "size <= 12" in payload["results"]["bound"]
        elapsed = time.perf_counter() - started
        assert elapsed <= 1800.0


@pytest.mark.slow
def test_criterion_11_bundled_model_is_searched(ex2):
    with criterion(11, "three-bit example: the bundled model's orbit is in the size-12 search"):
        model = ex2.model
        fs = model.factored
        # Move the model onto the reference grid of its block counts, factor
        # ``order[j]`` onto coordinate ``j``, and take its orbit's least labeling.
        order = sorted(range(fs.dim), key=lambda j: fs.factors[j].block_count)
        ks = tuple(fs.factors[j].block_count for j in order)
        assert ks == (2, 2, 3)
        strides = inference.mixed_radix_strides(ks)
        moved = [0] * fs.size
        for s, coords in enumerate(fs.coords):
            code = sum(coords[j] * stride for j, stride in zip(order, strides))
            moved[code] = model.labeling[s]
        canonical = min(
            tuple(moved[p[s]] for s in range(fs.size))
            for p in _old_grid_automorphisms(fs.size, ks)
        )
        reference = Model(grid_factored_set(fs.size, ks), canonical, model.omega)
        assert models_database(reference, ex2.db).ok
        assert reference in search_models(ex2.db, SearchBounds(max_size=12))


def test_criterion_12_agency_predicates(ex1):
    rng = random.Random(20_012)
    with criterion(12, "counterfactability of factors and derived partitions; trivial observation cases"):
        for n in range(1, 6):
            for fs in enumerate_factorizations(n):
                for factor in fs.factors:
                    assert counterfactable(fs, factor)
        assert not counterfactable(ex1.fs, ex1.Y)
        for _ in range(50):
            fs = random_factored_set(rng, min_n=1, max_n=8)
            a = mixed_random_partition(rng, fs)
            w = mixed_random_partition(rng, fs)
            assert observes_event(fs, a, range(fs.size), w)
            e = random_subset(rng, fs.size)
            assert observes_event(fs, Partition.indiscrete(fs.ground), e, w)


def test_criterion_13_history_oracle_equivalence():
    checked = 0
    with criterion(13, "shortcut history equals brute-force minimal generating set, exhaustive to size 5"):
        for n in range(6):
            for fs in enumerate_factorizations(n):
                for part in iter_partitions(fs.ground):
                    assert history(fs, part) == brute_history(fs, part)
                    checked += 1
    sys.__stdout__.write(
        f"  (criterion 13 detail: {checked} partition/factorization pairs)\n"
    )
