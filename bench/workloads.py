"""The benchmark's workloads: ``search``, ``sweep`` and ``queries``.

A workload's constructor is its set-up: it takes the freshly imported
``factoredsets`` package and the seed, and builds every input of the run.
``queries()`` hands out one pass of timed calls, and ``check_pass()`` judges
each answer of a pass, outside the timed region.  Every pass runs on a
workload of its own, built by a fresh set-up.

Where a reference can be computed without the code under test it is (the
coordinate references in ``GridReference``); otherwise two independent routes
of the library are compared, or the answer is replayed against the input it
must satisfy.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
SEARCH_REFERENCE = HERE / "reference" / "search.json"


class Query(NamedTuple):
    kind: str
    call: Callable[[], object]


class Raised(NamedTuple):
    """Stands in for the answer of a query that raised."""

    error: str


# -- search ---------------------------------------------------------------------

EX1 = "src/factoredsets/data/ex1.db"
EX2 = "src/factoredsets/data/ex2.db"


def _infer(db: str, a: str, b: str, size: int, *extra: str) -> tuple[str, ...]:
    return ("--format", "structured", "infer", "--db", db, "--before", a, b,
            "--max-size", str(size), *extra)


def _consistent(db: str, size: int, *extra: str) -> tuple[str, ...]:
    return ("--format", "structured", "consistent", "--db", db,
            "--max-size", str(size), *extra)


def bundled_argvs(small: bool = False) -> list[tuple[str, ...]]:
    """CLI queries on the bundled databases; every one has a stored reference."""
    if small:
        return [_infer(EX1, "X", "Y", 4), _infer(EX1, "V", "X", 4),
                _consistent(EX1, 2), _consistent(EX2, 3)]
    out = []
    pairs = list(itertools.permutations("XVY", 2))
    for size in (2, 3, 4, 5, 6):
        out += [_infer(EX1, a, b, size) for a, b in pairs]
    for size in (2, 3, 4, 5):
        out += [_infer(EX1, a, b, size, "--non-strict") for a, b in pairs]
    out += [_infer(EX1, a, b, size) for a, b in (("X", "Y"), ("Y", "X")) for size in (7, 8)]
    out += [_infer(EX1, a, b, 6) for a, b in (("_", "X"), ("X", "!"), ("_", "!"))]
    out += [_infer(EX1, "X", "Y", 7, "--max-dim", "1"),
            _infer(EX1, "X", "Y", 6, "--surjective")]
    out += [_consistent(EX1, size) for size in (2, 3, 4, 5, 6, 7, 8)]
    out += [_consistent(EX2, size) for size in (2, 3, 4, 5)]
    for a, b in (("X", "Z"), ("V", "Z"), ("X", "Y"), ("Z", "X")):
        out += [_infer(EX2, a, b, size) for size in (2, 3, 4, 5)]
    out += [_infer(EX2, "X", "Z", 4, "--non-strict")]
    return out


def run_cli(cli, argv: tuple[str, ...]) -> tuple[int, str]:
    """``cli.main`` in-process: exit code and captured standard output."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


# Planted databases: (observation-space size, block counts of the planted
# grid model, number of asserted triples).  The seed draws the partitions, the
# labeling and which true (non-)orthogonalities are asserted.  Each is asked
# whether the indiscrete partition ``_`` is non-strictly before one of its
# names.  That holds in every model, so the search walks every model up to the
# planted size: the verdict is fixed, and the work depends on the shape far
# more than on the draw (10-80 ms each on a 2-core machine, above the
# median query and below the tail).  A refutable query would stop at the first
# counterexample, wherever the seed put it, and move the median query by
# landing on either side of it.
PLANTED_SHAPES = (
    (3, (2, 2), 3), (3, (2, 2), 6), (4, (2, 2), 4), (4, (2, 2), 8), (4, (2, 2), 12),
    (5, (2, 2), 5), (5, (2, 2), 10), (3, (2, 3), 3), (3, (2, 3), 6), (3, (2, 3), 9),
)
PLANTED_NAMES = ("A", "B", "C")


def _random_labels(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """A random surjection of ``range(n)`` onto ``range(k)``, ``lo <= k <= hi`` as far as ``n`` allows."""
    k = rng.randint(min(lo, n), min(hi, n))
    while True:
        labels = [rng.randrange(k) for _ in range(n)]
        if len(set(labels)) == k:
            return labels


def _balanced_labels(rng: random.Random, n: int, k: int) -> list[int]:
    """A random labeling of ``range(n)`` with ``min(k, n)`` blocks of equal size, up to one."""
    labels = [i % min(k, n) for i in range(n)]
    rng.shuffle(labels)
    return labels


class Search:
    name = "search"
    why = (
        "bounded temporal inference on the bundled and planted databases: "
        "inference, structure and partitions do the work, probability and "
        "polynomial none"
    )

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg = pkg
        self.cli = importlib.import_module(pkg.__name__ + ".cli")
        self.reference = {
            tuple(entry["argv"]): (entry["exit"], entry["stdout"])
            for entry in json.loads(SEARCH_REFERENCE.read_text(encoding="utf-8"))
        }
        self.bundled = {
            name: pkg.load_database_file(pkg.data_path(name))
            for name in ("ex1.db", "ex2.db")
        }
        rng = random.Random(seed)
        shapes = PLANTED_SHAPES[:2] if small else PLANTED_SHAPES
        self.planted = [self._plant(rng, *shape) for shape in shapes]
        # The order is fixed, with the bundled queries (the same for every seed)
        # first, so that what one query leaves to the next (garbage to collect,
        # a memo filled) does not vary with the seed.
        specs: list[tuple] = [("cli", argv) for argv in bundled_argvs(small)]
        specs += [
            ("planted_infer", index, rng.choice(PLANTED_NAMES))
            for index in range(len(self.planted))
        ]
        self.specs = specs

    def _plant(self, rng: random.Random, omega_n: int, ks: tuple[int, ...], asserts: int):
        pkg = self.pkg
        omega = pkg.GroundSet(omega_n)
        parts = {
            name: pkg.Partition.from_block_of(
                omega, dict(enumerate(_random_labels(rng, omega_n, 2, omega_n - 1)))
            )
            for name in PLANTED_NAMES
        }
        n = math.prod(ks)
        labeling = _random_labels(rng, n, omega_n, omega_n)
        model = pkg.Model(pkg.grid_factored_set(n, ks), tuple(labeling), omega)
        candidates = [
            (a, b, c)
            for a, b in itertools.combinations_with_replacement(PLANTED_NAMES, 2)
            for c in PLANTED_NAMES + ("_",)
        ]
        everything = pkg.OrthogonalityDatabase(omega, parts, frozenset(candidates), frozenset())
        truth = {e.names: e.actual for e in pkg.models_database(model, everything).entries}
        chosen = rng.sample(candidates, asserts)
        db = pkg.OrthogonalityDatabase(
            omega,
            parts,
            frozenset(t for t in chosen if truth[t]),
            frozenset(t for t in chosen if not truth[t]),
        )
        return db, n

    def queries(self) -> list[Query]:
        pkg = self.pkg
        out = []
        for spec in self.specs:
            if spec[0] == "cli":
                call = lambda argv=spec[1]: run_cli(self.cli, argv)
                kind = "cli_" + spec[1][2]
            else:
                db, n = self.planted[spec[1]]
                call = lambda db=db, name=spec[2], n=n: pkg.infer_before(
                    db, "_", name, pkg.SearchBounds(max_size=n), strict=False
                )
                kind = spec[0]
            out.append(Query(kind, call))
        return out

    def _check(self, spec: tuple, answer) -> bool:
        if spec[0] == "cli":
            return self.reference.get(spec[1]) == tuple(answer)
        # The planted model lies within the bound, so at least one model is checked.
        return (
            not answer.truncated
            and answer.kind == "holds-up-to-bound"
            and answer.models_checked >= 1
        )

    def check_pass(self, answers: list) -> list[bool]:
        return [
            not isinstance(answer, Raised) and self._check(spec, answer)
            for spec, answer in zip(self.specs, answers)
        ]

    def properties(self) -> dict:
        def describe(db) -> dict:
            return {
                "omega": db.omega.n,
                "assertions": len(db.orthogonal_triples) + len(db.dependent_triples),
            }

        return {
            "bundled_databases": {k: describe(v) for k, v in self.bundled.items()},
            "planted_databases": [
                {**describe(db), "planted_size": n} for db, n in self.planted
            ],
            "query_kinds": _kind_counts(self.queries()),
        }


# -- sweep -----------------------------------------------------------------------


class Sweep:
    name = "sweep"
    why = (
        "the ft-verify sweep, one query per partition triple: exact Fraction "
        "arithmetic in probability and polynomial does the work, inference none"
    )
    TRIALS = 2
    # Totals of the exhaustive sweep, by largest set size.  The triple count is
    # what `factoredsets ft-verify --max-size N` reports; the orthogonal count
    # is the number of triples whose splice verdict is "orthogonal".
    TOTALS = {4: (13633, 5895), 3: (133, 89)}

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg = pkg
        self.max_size = 3 if small else 4
        self.sets = [
            fs for n in range(2, self.max_size + 1) for fs in pkg.enumerate_factorizations(n)
        ]
        self.triples = []
        for slot, fs in enumerate(self.sets):
            parts = list(pkg.iter_partitions(fs.ground))
            self.triples += [(slot, x, y, z) for x, y, z in itertools.product(parts, repeat=3)]
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 30) for _ in self.triples]

    def queries(self) -> list[Query]:
        check = self.pkg.fundamental_theorem_check
        sets = self.sets
        return [
            Query(
                "fundamental_theorem_check",
                lambda fs=sets[slot], x=x, y=y, z=z, s=s: check(
                    fs, x, y, z, trials=self.TRIALS, seed=s
                ),
            )
            for (slot, x, y, z), s in zip(self.triples, self.seeds)
        ]

    def check_pass(self, answers: list) -> list[bool]:
        ok = [
            not isinstance(r, Raised) and r.trials == self.TRIALS and r.verdicts_agree
            for r in answers
        ]
        orthogonal = sum(1 for r in answers if not isinstance(r, Raised) and r.orthogonal)
        if (len(answers), orthogonal) != self.TOTALS[self.max_size]:
            return [False] * len(answers)
        return ok

    def properties(self) -> dict:
        return {
            "max_size": self.max_size,
            "trials": self.TRIALS,
            "factorizations": len(self.sets),
            "triples": len(self.triples),
        }


# -- queries ---------------------------------------------------------------------


class GridReference:
    """Histories and splices of a mixed-radix grid, computed from coordinates.

    Independent of the library: element ``s`` has coordinate
    ``(s // stride_j) % ks[j]`` in factor ``j``, and factors are identified by
    their canonical block-id tuples.
    """

    def __init__(self, ks: tuple[int, ...]):
        self.ks = ks
        self.n = math.prod(ks)
        self.dim = len(ks)
        self.strides = [math.prod(ks[j + 1:]) for j in range(self.dim)]
        self.coords = [
            tuple((s // self.strides[j]) % ks[j] for j in range(self.dim))
            for s in range(self.n)
        ]
        self.factor_index = {
            canonical(tuple(c[j] for c in self.coords)): j for j in range(self.dim)
        }

    def splice(self, factors: frozenset[int], s: int, t: int) -> int:
        cs, ct = self.coords[s], self.coords[t]
        return sum(
            (cs[j] if j in factors else ct[j]) * self.strides[j] for j in range(self.dim)
        )

    def history(self, labels: dict[int, int]) -> frozenset[int]:
        """History of a (sub)partition given as element -> block label."""
        if len(labels) == self.n:
            # A full partition's history is the set of coordinates it depends on.
            return frozenset(
                j
                for j in range(self.dim)
                if any(
                    labels[s] != labels[s + self.strides[j]]
                    for s in range(self.n)
                    if self.coords[s][j] + 1 < self.ks[j]
                )
            )
        # A subpartition's history is the intersection of all factor sets along
        # which splicing stays in the domain and in the first element's block.
        domain = list(labels)
        out = frozenset(range(self.dim))
        for r in range(self.dim + 1):
            for subset in itertools.combinations(range(self.dim), r):
                factors = frozenset(subset)
                if not out <= factors and all(
                    labels.get(self.splice(factors, s, t)) == labels[s]
                    for s in domain
                    for t in domain
                ):
                    out &= factors
        return out

    def factors_of(self, fs, mask: int) -> frozenset[int]:
        """The grid indices of the library's factor subset ``mask``."""
        return frozenset(self.factor_index[p.block_ids] for p in fs.factors_of_mask(mask))


def canonical(labels: tuple[int, ...]) -> tuple[int, ...]:
    relabel: dict[int, int] = {}
    return tuple(relabel.setdefault(b, len(relabel)) for b in labels)


QUERY_GRIDS = ((2, 2, 3), (2, 2, 2, 2), (2, 3, 4))
# Queries of each kind per grid and pass; the mix is fixed, the seed draws the
# arguments.  Every conditional triple is asked twice, once per route.
KIND_COUNTS = {
    "history_full": 360,
    "history_sub": 720,
    "orthogonal": 180,
    "before": 180,
    "cond_triple": 240,
    "irreducible_components": 240,
    "counterfactable": 240,
    "observes_event": 240,
}


class Queries:
    name = "queries"
    why = (
        "mixed point queries on long-lived 12-24 element sets: structure and "
        "polynomial do the work, with history cache hits beside fresh subpartitions"
    )

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg = pkg
        rng = random.Random(seed)
        self.grids = [GridReference(ks) for ks in QUERY_GRIDS]
        self.sets = [pkg.grid_factored_set(grid.n, grid.ks) for grid in self.grids]
        scale = 30 if small else 1
        self.specs = []
        self.pools = []
        for g, grid in enumerate(self.grids):
            pool = self._pool(rng, grid)
            self.pools.append(pool)
            parts, events = pool["partitions"], pool["events"]
            pick = lambda: rng.randrange(len(parts))
            event = lambda: rng.randrange(len(events))
            counts = {k: max(1, v // scale) for k, v in KIND_COUNTS.items()}
            specs = [("history_full", g, pick()) for _ in range(counts["history_full"])]
            specs += [("history_sub", g, pick(), event()) for _ in range(counts["history_sub"])]
            for kind in ("orthogonal", "before"):
                specs += [(kind, g, pick(), pick()) for _ in range(counts[kind])]
            for t in range(counts["cond_triple"]):
                triple = (pick(), pick(), rng.randrange(pool["conditioning"]), t)
                specs.append(("cond_orthogonal", g, *triple))
                specs.append(("cond_orth_by_divisibility", g, *triple))
            specs += [
                ("irreducible_components", g, event())
                for _ in range(counts["irreducible_components"])
            ]
            specs += [("counterfactable", g, pick()) for _ in range(counts["counterfactable"])]
            specs += [
                ("observes_event", g, pick(), event(), pick())
                for _ in range(counts["observes_event"])
            ]
            self.specs += specs
        rng.shuffle(self.specs)
        self._references: dict[tuple, object] = {}

    def _pool(self, rng: random.Random, grid: GridReference) -> dict:
        """Partitions and events of one grid, as library objects and as labels.

        The first partitions coarsen the join of a random factor subset, so
        their histories vary and are often disjoint; they double as the
        conditioning partitions.  The rest are unstructured.
        """
        Partition, ground = self.pkg.Partition, self.pkg.GroundSet(grid.n)
        labelings = []
        # Subset sizes and block counts cycle and blocks are balanced, rather
        # than drawn, to narrow how much the heaviest queries (divisibility
        # with these as conditions) depend on the seed.  They still do: the
        # draw decides how many triples are orthogonal, and an orthogonal
        # triple walks every block triple where another stops at a mismatch.
        for i in range(24):
            factors = sorted(rng.sample(range(grid.dim), 1 + i % (grid.dim - 1)))
            keys = sorted({tuple(c[j] for j in factors) for c in grid.coords})
            group = dict(zip(keys, _balanced_labels(rng, len(keys), 2 + i % 3)))
            labelings.append([group[tuple(c[j] for j in factors)] for c in grid.coords])
        conditioning = len(labelings)
        labelings += [_balanced_labels(rng, grid.n, 2 + i % 3) for i in range(8)]
        events = []
        for _ in range(12):  # rectangles: a product of block subsets
            chosen = [
                set(rng.sample(range(k), rng.randint(1, k))) for k in grid.ks
            ]
            events.append(frozenset(
                s for s, c in enumerate(grid.coords)
                if all(c[j] in chosen[j] for j in range(grid.dim))
            ))
        while len(events) < 24:
            event = frozenset(s for s in range(grid.n) if rng.random() < 0.5)
            if 0 < len(event) < grid.n:
                events.append(event)
        return {
            "labels": [dict(enumerate(lab)) for lab in labelings],
            "partitions": [
                Partition.from_block_of(ground, dict(enumerate(lab))) for lab in labelings
            ],
            "conditioning": conditioning,
            "events": events,
        }

    def queries(self) -> list[Query]:
        pkg = self.pkg
        out = []
        for spec in self.specs:
            kind, g = spec[0], spec[1]
            fs = self.sets[g]
            parts, events = self.pools[g]["partitions"], self.pools[g]["events"]
            if kind == "history_full":
                call = lambda fs=fs, x=parts[spec[2]]: pkg.history(fs, x)
            elif kind == "history_sub":
                call = lambda fs=fs, x=parts[spec[2]], e=events[spec[3]]: pkg.history(
                    fs, x.restrict(e)
                )
            elif kind == "orthogonal":
                call = lambda fs=fs, x=parts[spec[2]], y=parts[spec[3]]: pkg.orthogonal(fs, x, y)
            elif kind == "before":
                call = lambda fs=fs, x=parts[spec[2]], y=parts[spec[3]]: pkg.before(fs, x, y)
            elif kind in ("cond_orthogonal", "cond_orth_by_divisibility"):
                fn = getattr(pkg, kind)
                call = lambda fs=fs, fn=fn, x=parts[spec[2]], y=parts[spec[3]], z=parts[spec[4]]: fn(
                    fs, x, y, z
                )
            elif kind == "irreducible_components":
                call = lambda fs=fs, e=events[spec[2]]: pkg.irreducible_components(fs, e)
            elif kind == "counterfactable":
                call = lambda fs=fs, x=parts[spec[2]]: pkg.counterfactable(fs, x)
            else:
                call = lambda fs=fs, a=parts[spec[2]], e=events[spec[3]], w=parts[spec[4]]: (
                    pkg.observes_event(fs, a, e, w)
                )
            out.append(Query(kind, call))
        return out

    # -- references ---------------------------------------------------------

    def _history(self, g: int, labels: dict[int, int]) -> frozenset[int]:
        key = (g, tuple(sorted(labels.items())))
        got = self._references.get(key)
        if got is None:
            got = self._references[key] = self.grids[g].history(labels)
        return got

    def _full(self, g: int, i: int) -> frozenset[int]:
        return self._history(g, self.pools[g]["labels"][i])

    def _restricted(self, g: int, i: int, elements) -> frozenset[int]:
        labels = self.pools[g]["labels"][i]
        return self._history(g, {s: labels[s] for s in sorted(elements)})

    def _check(self, spec: tuple, answer, fs) -> bool:
        kind, g = spec[0], spec[1]
        grid = self.grids[g]
        if kind == "history_full":
            return grid.factors_of(fs, answer) == self._full(g, spec[2])
        if kind == "history_sub":
            return grid.factors_of(fs, answer) == self._restricted(
                g, spec[2], self.pools[g]["events"][spec[3]]
            )
        if kind == "orthogonal":
            return answer == (not self._full(g, spec[2]) & self._full(g, spec[3]))
        if kind == "before":
            hx, hy = self._full(g, spec[2]), self._full(g, spec[3])
            relation = (
                "equal-history" if hx == hy
                else "strictly-before" if hx < hy
                else "strictly-after" if hy < hx
                else "incomparable"
            )
            return (
                answer.relation.value == relation
                and grid.factors_of(fs, answer.history_first) == hx
                and grid.factors_of(fs, answer.history_second) == hy
            )
        if kind == "irreducible_components":
            event = self.pools[g]["events"][spec[2]]
            union = 0
            for mask in answer.components:
                if not mask or union & mask:
                    return False
                union |= mask
            return union == fs.full_mask and answer.product() == (
                self.pkg.characteristic_polynomial(fs, event)
            )
        if kind == "counterfactable":
            labels = self.pools[g]["labels"][spec[2]]
            h = sorted(self._full(g, spec[2]))
            keys = {tuple(grid.coords[s][j] for j in h) for s in range(grid.n)}
            return answer == (len(keys) == len(set(labels.values())))
        if kind == "observes_event":
            event = self.pools[g]["events"][spec[3]]
            side = {s: int(s in event) for s in range(grid.n)}
            rest = set(range(grid.n)) - event
            expected = not (self._full(g, spec[2]) & self._history(g, side)) and not (
                self._restricted(g, spec[2], rest) & self._restricted(g, spec[4], rest)
            )
            return answer == expected
        raise AssertionError(f"no reference for {kind}")

    def check_pass(self, answers: list) -> list[bool]:
        ok = []
        routes: dict[tuple, dict[str, object]] = {}
        for index, (spec, answer) in enumerate(zip(self.specs, answers)):
            if isinstance(answer, Raised):
                ok.append(False)
            elif spec[0] in ("cond_orthogonal", "cond_orth_by_divisibility"):
                # Judged below: the two routes must agree on the triple.
                routes.setdefault(spec[1:], {})[spec[0]] = (index, answer)
                ok.append(True)
            else:
                ok.append(self._check(spec, answer, self.sets[spec[1]]))
        for both in routes.values():
            answers_of = {answer for _, answer in both.values()}
            if len(both) != 2 or len(answers_of) != 1:
                for index, _ in both.values():
                    ok[index] = False
        return ok

    def properties(self) -> dict:
        return {
            "grids": [list(ks) for ks in QUERY_GRIDS],
            "set_sizes": [grid.n for grid in self.grids],
            "partitions_per_set": len(self.pools[0]["partitions"]),
            "events_per_set": len(self.pools[0]["events"]),
            "query_kinds": _kind_counts(self.queries()),
        }


def _kind_counts(queries: list[Query]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for q in queries:
        counts[q.kind] = counts.get(q.kind, 0) + 1
    return dict(sorted(counts.items()))


WORKLOADS = {cls.name: cls for cls in (Search, Sweep, Queries)}
