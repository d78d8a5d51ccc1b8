"""Command-line surface.

Every command emits a human-readable report by default; ``--format
structured`` prints a deterministic JSON payload instead (no timing inside,
so identical argv, files and seed give byte-identical output).  Exit codes:
0 success / affirmative, 1 negative verdict on a yes-no query, 2 input
error.

Temporal-inference output always carries its search bound; the unbounded
question is not decided here, so an unqualified "holds" is never printed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import agency, inference, probability, structure
from .factored import (
    count_factorizations,
    enumerate_factorizations,
    factor_size_multisets,
)
from .fileformat import (
    FactoredSetFile,
    ParseError,
    format_database_file,
    format_factored_set_file,
    load_database_file,
    load_distribution_file,
    load_factored_set_file,
    meaningful_lines,
    parse_database_text,
    parse_factored_set_text,
    read_text,
    resolve_model,
)
from .partitions import (
    GroundSet,
    ValidationError,
    bell_number,
    format_partition,
    iter_partitions,
    partition_of_rank,
    read_digits,
)
from .polynomial import (
    characteristic_polynomial,
    format_polynomial,
    irreducible_components,
)
from .probability import DEFAULT_SEED, fundamental_theorem_check


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _event(fsf: FactoredSetFile, text: str) -> frozenset[int]:
    return frozenset(fsf.fs.ground.index_of(tok) for tok in text.split())


def _factor_names_of_mask(fsf: FactoredSetFile, mask: int) -> list[str]:
    return [fsf.factor_names[j] for j in fsf.fs.mask_indices(mask)]


# -- subcommand handlers -----------------------------------------------------
# Each returns (exit_code, results_payload, human_lines).


# Slack, in decimal digits, between the float estimate of the largest term of
# the count and the interpreter's int-to-string limit before refusing early.
_DIGIT_MARGIN = 16


def _largest_term_log10(n: int) -> float:
    """log10 of the largest term ``n! / (prod k_i! * prod m_k!)`` of the count."""
    lg = math.lgamma
    return max(
        lg(n + 1)
        - sum(lg(k + 1) for k in ks)
        - sum(lg(m + 1) for m in Counter(ks).values())
        for ks in factor_size_multisets(n)
    ) / math.log(10)


def _cmd_count_fact(args) -> tuple[int, dict, list[str]]:
    too_long = ValidationError(f"the count for n = {args.n} is too long to print")
    # The count is at least its largest term, so a term whose digits are
    # well past the limit is refused before any factorial is computed.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and args.n > 1 and _largest_term_log10(args.n) > limit + _DIGIT_MARGIN:
        raise too_long
    count = count_factorizations(args.n)
    try:
        return 0, {"n": args.n, "count": count}, [str(count)]
    except ValueError:  # past the interpreter's int-to-string digit limit
        raise too_long from None


# Longest enum-fact listing without --limit.
_LISTING_LIMIT = 10**6


def _cmd_enum_fact(args) -> tuple[int, dict, list[str]]:
    if args.limit is not None and args.limit < 0:
        raise ValidationError("--limit must be at least 0")
    # The count is at least its largest term, and past 10^6 exactly when
    # that term is (sizes up to 11 have at most 15121 factorizations, primes
    # one, and larger composite sizes a term past 10^6), so the estimate
    # decides without computing the count.
    if (
        (args.limit is None or args.limit > _LISTING_LIMIT)
        and args.n > 1
        and _largest_term_log10(args.n) > math.log10(_LISTING_LIMIT)
    ):
        raise ValidationError(
            f"enum-fact {args.n} would list more than {_LISTING_LIMIT} "
            f"factorizations; list the first N with --limit N (N <= {_LISTING_LIMIT})"
        )
    rendered = []
    for i, fs in enumerate(enumerate_factorizations(args.n)):
        if args.limit is not None and i >= args.limit:
            break
        rendered.append([format_partition(p) for p in fs.factors])
    lines = ["  ".join(factors) if factors else "(empty basis)" for factors in rendered]
    lines.append(f"{len(rendered)} factorization(s)")
    return 0, {"n": args.n, "factorizations": rendered}, lines


def _cmd_history(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    part = fsf.resolve(args.partition)
    mask = structure.history(fsf.fs, part)
    names = _factor_names_of_mask(fsf, mask)
    return 0, {"partition": args.partition, "history": names}, [
        "history(%s) = { %s }" % (args.partition, " ".join(names))
    ]


def _cmd_orth(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    fs = fsf.fs
    x = fsf.resolve(args.a)
    y = fsf.resolve(args.b)
    if args.given is not None and args.event is not None:
        raise ValidationError("--given and --event are mutually exclusive")
    if args.given is not None:
        verdict = structure.cond_orthogonal(fs, x, y, fsf.resolve(args.given))
        query = {"kind": "conditional", "given": args.given}
    elif args.event is not None:
        verdict = structure.cond_orthogonal_given_subset(
            fs, x, y, _event(fsf, args.event)
        )
        query = {"kind": "given-event", "event": args.event}
    else:
        verdict = structure.orthogonal(fs, x, y)
        query = {"kind": "plain"}
    word = "orthogonal" if verdict else "entangled"
    return (0 if verdict else 1), {
        "a": args.a, "b": args.b, "query": query, "orthogonal": verdict,
    }, [word]


def _cmd_before(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    fs = fsf.fs
    x = fsf.resolve(args.a)
    y = fsf.resolve(args.b)
    if args.given_event is not None:
        verdict = structure.cond_before(fs, x, y, _event(fsf, args.given_event))
        line = f"{args.a} before {args.b} given event: {'yes' if verdict else 'no'}"
        return (0 if verdict else 1), {
            "a": args.a, "b": args.b, "given_event": args.given_event,
            "before": verdict,
        }, [line]
    verdict = structure.before(fs, x, y)
    payload = {
        "a": args.a,
        "b": args.b,
        "relation": verdict.relation.value,
        "history_a": _factor_names_of_mask(fsf, verdict.history_first),
        "history_b": _factor_names_of_mask(fsf, verdict.history_second),
    }
    return (0 if verdict.is_before else 1), payload, [verdict.relation.value]


def _cmd_poly(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    event = _event(fsf, args.event)
    names = fsf.factor_names
    poly = characteristic_polynomial(fsf.fs, event)
    lines = [format_polynomial(poly, names)]
    payload: dict = {"event": args.event, "polynomial": format_polynomial(poly, names)}
    if args.factor:
        if not event:
            raise ValidationError("cannot factor the polynomial of an empty event")
        decomp = irreducible_components(fsf.fs, event)
        rendered = []
        for mask, factor in zip(decomp.components, decomp.factors):
            comp_names = _factor_names_of_mask(fsf, mask)
            rendered.append(
                {"component": comp_names, "factor": format_polynomial(factor, names)}
            )
            lines.append(
                "component { %s } : %s"
                % (" ".join(comp_names), format_polynomial(factor, names))
            )
        payload["irreducible"] = rendered
    return 0, payload, lines


def _cmd_prob(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    dist = load_distribution_file(args.dist, fsf)
    event = _event(fsf, args.event)
    p = probability.prob(fsf.fs, dist, event)
    return 0, {"event": args.event, "probability": str(p)}, [str(p)]


# Largest ft-verify sweep, in partition triples: --max-size 5 (about 1.5e5
# triples) runs, --max-size 6 (about 5.1e8) needs --sample, and
# --max-size 12 (13638241 factorizations) is refused even with --sample 1.
_TRIPLE_LIMIT = 10**6


def _cmd_ft_verify(args) -> tuple[int, dict, list[str]]:
    # A sweep that checks no triple must not report agreement.
    if args.max_size < 2:
        raise ValidationError("--max-size must be at least 2")
    if args.sample is not None and args.sample < 1:
        raise ValidationError("--sample must be at least 1")
    triples = 0
    for n in range(2, args.max_size + 1):
        per_factorization = bell_number(n) ** 3
        if args.sample is not None:
            per_factorization = min(per_factorization, args.sample)
        triples += count_factorizations(n) * per_factorization
        if triples <= _TRIPLE_LIMIT:
            continue
        if args.sample is None:
            raise ValidationError(
                f"an exhaustive sweep of sizes 2..{n} has {triples} partition "
                f"triples (limit {_TRIPLE_LIMIT}); cap the triples "
                "per factorization with --sample N"
            )
        raise ValidationError(
            f"a sweep of sizes 2..{n} with --sample {args.sample} has {triples} "
            f"partition triples (limit {_TRIPLE_LIMIT}); lower --max-size"
        )
    rng = random.Random(args.seed)
    triples_checked = 0
    mismatches = 0
    missed_witnesses = 0
    for n in range(2, args.max_size + 1):
        ground = GroundSet(n)
        size = bell_number(n)
        sampled = args.sample is not None and size**3 > args.sample
        # A sampled size unranks the partitions it draws; an exhaustive size
        # lists them once, for every factorization.
        if sampled:
            rank = functools.partial(partition_of_rank, ground)
        else:
            rank = list(iter_partitions(ground)).__getitem__
        for fs in enumerate_factorizations(n):
            # Index i is the triple at position i of
            # product(iter_partitions(ground), repeat=3).  ``random.sample``
            # draws from the population's length alone, so sampling the
            # index range picks the same triples as sampling that listed
            # product, and leaves ``rng`` in the same state.
            if sampled:
                indices = rng.sample(range(size**3), args.sample)
            else:
                indices = range(size**3)
            for i in indices:
                xy, c = divmod(i, size)
                a, b = divmod(xy, size)
                x, y, z = rank(a), rank(b), rank(c)
                report = fundamental_theorem_check(
                    fs, x, y, z, trials=args.trials,
                    seed=rng.randrange(1 << 30),
                )
                triples_checked += 1
                if not report.verdicts_agree:
                    mismatches += 1
                # Every dependent triple has the exact generic witness; a
                # missed one is a dependent triple no sampled trial caught.
                if not report.orthogonal and report.independent_trials == report.trials:
                    missed_witnesses += 1
    ok = mismatches == 0
    lines = [
        f"triples checked: {triples_checked}",
        f"verdict mismatches: {mismatches}",
        f"dependent triples without sampled witness: {missed_witnesses}",
        "all three verdict routes agree" if ok else "DISAGREEMENT FOUND",
    ]
    payload = {
        "max_size": args.max_size,
        "trials": args.trials,
        "triples_checked": triples_checked,
        "mismatches": mismatches,
        "missed_witnesses": missed_witnesses,
        "agree": ok,
    }
    return (0 if ok else 1), payload, lines


def _cmd_check_model(args) -> tuple[int, dict, list[str]]:
    db = load_database_file(args.db)
    fsf = load_factored_set_file(args.model)
    model = resolve_model(fsf, db.omega)
    report = inference.models_database(model, db)
    lines = []
    entries = []
    for entry in report.entries:
        a, b, c = entry.names
        status = "satisfied" if entry.ok else "VIOLATED"
        lines.append(f"{entry.kind} {a} {b} | {c} : {status}")
        entries.append(
            {"kind": entry.kind, "triple": list(entry.names), "ok": entry.ok}
        )
    lines.append("models database" if report.ok else "does not model database")
    return (0 if report.ok else 1), {"ok": report.ok, "entries": entries}, lines


def _bounds_from_args(args) -> inference.SearchBounds:
    return inference.SearchBounds(
        max_size=args.max_size,
        max_dim=args.max_dim,
        surjective_only=args.surjective,
        time_budget=args.time_budget,
    )


def _cmd_infer(args) -> tuple[int, dict, list[str]]:
    db = load_database_file(args.db)
    first, second = args.before
    bounds = _bounds_from_args(args)
    verdict = inference.infer_before(
        db, first, second, bounds, strict=not args.non_strict
    )
    relation = "strictly-before" if verdict.strict else "before-or-equal"
    within = bounds.describe(verdict.truncation)  # the qualifier without "models with"
    if verdict.kind == "holds-up-to-bound":
        line = (
            f"{relation} (holds for all {verdict.qualifier}; "
            f"{verdict.models_checked} models checked)"
        )
        code = 0
    elif verdict.kind == "refuted":
        size = verdict.counterexample.factored.size
        line = (
            f"refuted (a model of size {size} violates {relation}; "
            f"{verdict.models_checked} models checked within {within})"
        )
        code = 1
    elif verdict.kind == "inconclusive":
        line = f"inconclusive (no size searched completely: {verdict.qualifier})"
        code = 1
    else:
        line = f"vacuous (no models found within {within})"
        code = 1
    payload = {
        "before": [first, second],
        "strict": verdict.strict,
        "verdict": verdict.kind,
        "models_checked": verdict.models_checked,
        "bound": verdict.qualifier,
        "truncated": verdict.truncated,
    }
    return code, payload, [line]


def _cmd_consistent(args) -> tuple[int, dict, list[str]]:
    db = load_database_file(args.db)
    bounds = _bounds_from_args(args)
    verdict = inference.is_consistent_up_to_bound(db, bounds)
    if verdict.consistent:
        size = verdict.witness.factored.size
        line = f"consistent (witness model of size {size} found)"
        code = 0
    else:
        line = f"no model found within {bounds.describe(verdict.truncation)}"
        code = 1
    payload = {
        "consistent": verdict.consistent,
        "bound": bounds.describe(verdict.truncation),
        "witness_size": verdict.witness.factored.size if verdict.witness else None,
        "truncated": verdict.truncated,
    }
    return code, payload, [line]


def _cmd_observes(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    fs = fsf.fs
    agent = fsf.resolve(args.agent)
    world = fsf.resolve(args.world)
    if (args.event is None) == (args.partition is None):
        raise ValidationError("exactly one of --event and --partition is required")
    if args.event is not None:
        verdict = agency.observes_event(fs, agent, _event(fsf, args.event), world)
        outcome = "yes" if verdict else "no"
        payload = {"agent": args.agent, "event": args.event, "observes": verdict}
        return (0 if verdict else 1), payload, [outcome]
    target = fsf.resolve(args.partition)
    result = agency.observes_partition(fs, agent, target, world)
    lines = [result.outcome]
    witness = None
    if result.witness is not None:
        witness = [format_partition(p) for p in result.witness]
        for i, text in enumerate(witness):
            lines.append(f"subagent {i}: {text}")
    payload = {
        "agent": args.agent,
        "partition": args.partition,
        "outcome": result.outcome,
        "witness": witness,
    }
    return (0 if result.outcome == "yes" else 1), payload, lines


def _cmd_dump(args) -> tuple[int, dict, list[str]]:
    text = read_text(args.file)
    keyword = next((line.split()[0] for _, line in meaningful_lines(text)), "")
    if keyword == "omega":
        text = format_database_file(parse_database_text(text, args.file))
    else:
        text = format_factored_set_file(parse_factored_set_text(text, args.file))
    return 0, {"canonical": text}, [text.rstrip("\n")]


def _cmd_counterfactable(args) -> tuple[int, dict, list[str]]:
    fsf = load_factored_set_file(args.file)
    part = fsf.resolve(args.partition)
    if args.relative_to is not None:
        verdict = agency.relatively_counterfactable(
            fsf.fs, part, fsf.resolve(args.relative_to)
        )
        payload = {
            "partition": args.partition,
            "relative_to": args.relative_to,
            "counterfactable": verdict,
        }
    else:
        verdict = agency.counterfactable(fsf.fs, part)
        payload = {"partition": args.partition, "counterfactable": verdict}
    return (0 if verdict else 1), payload, ["yes" if verdict else "no"]


# -- parser ------------------------------------------------------------------


def _integer(text: str) -> int:
    """An integer argument: an optional ``-`` and ASCII digits.  A negative
    value parses, so each command's range check names it."""
    value = read_digits(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return -value if text.startswith("-") else value


def _seconds(text: str) -> float:
    """A ``float`` argument written in ASCII without ``_``."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid number of seconds: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factoredsets",
        description="Factored-set queries, verification sweeps, and bounded temporal inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("count-fact", _cmd_count_fact, "count the factorizations of an n-element set")
    p.add_argument("n", type=_integer)

    p = command("enum-fact", _cmd_enum_fact, "list the factorizations of an n-element set")
    p.add_argument("n", type=_integer)
    p.add_argument("--limit", type=_integer, default=None)

    p = command("history", _cmd_history, "smallest factor set generating a partition")
    p.add_argument("file")
    p.add_argument("--partition", required=True)

    p = command("orth", _cmd_orth, "orthogonality of two named partitions")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--given", help="conditioning partition name")
    p.add_argument("--event", help="conditioning event, e.g. \"00 01\"")

    p = command("before", _cmd_before, "temporal comparison of two named partitions")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--given-event", dest="given_event")

    p = command("poly", _cmd_poly, "characteristic polynomial of an event")
    p.add_argument("file")
    p.add_argument("--event", required=True)
    p.add_argument("--factor", action="store_true", help="factor into irreducibles")

    p = command("prob", _cmd_prob, "exact probability of an event under weights")
    p.add_argument("file")
    p.add_argument("dist")
    p.add_argument("--event", required=True)

    p = command(
        "ft-verify", _cmd_ft_verify,
        "sweep orthogonality vs. polynomial identity vs. sampled independence",
    )
    p.add_argument("--max-size", type=_integer, default=4, dest="max_size")
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED)
    p.add_argument("--trials", type=_integer, default=5)
    p.add_argument(
        "--sample", type=_integer, default=None,
        help="cap on partition triples per factorization (default: exhaustive)",
    )

    p = command("check-model", _cmd_check_model, "check a model file against a database")
    p.add_argument("--model", required=True)
    p.add_argument("--db", required=True)

    infer = command("infer", _cmd_infer, "temporal inference over all models within bounds")
    infer.add_argument("--db", required=True)
    infer.add_argument("--before", nargs=2, metavar=("A", "B"), required=True)
    consistent = command("consistent", _cmd_consistent, "search for any model of a database")
    consistent.add_argument("--db", required=True)
    for p in (infer, consistent):
        p.add_argument("--max-size", type=_integer, required=True, dest="max_size")
        p.add_argument("--max-dim", type=_integer, default=None, dest="max_dim")
        p.add_argument("--surjective", action="store_true")
        p.add_argument("--time-budget", type=_seconds, default=None, dest="time_budget")
    infer.add_argument(
        "--non-strict", action="store_true",
        help="test history containment instead of strict containment",
    )

    p = command("observes", _cmd_observes, "observation predicates for an agent partition")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--event")
    p.add_argument("--partition")
    p.add_argument("--world", required=True)

    p = command("counterfactable", _cmd_counterfactable, "counterfactability of a partition")
    p.add_argument("file")
    p.add_argument("partition")
    p.add_argument("--relative-to", dest="relative_to")

    p = command("dump", _cmd_dump, "re-emit a file in canonical form")
    p.add_argument("file")

    # One --format, before or after the subcommand.  A subcommand's copy sets
    # nothing unless given, so it never overwrites a leading --format.
    for p in (parser, *sub.choices.values()):
        p.add_argument(
            "--format", choices=("text", "structured"),
            default="text" if p is parser else argparse.SUPPRESS,
            help="output format; 'structured' is deterministic JSON",
        )
    return parser


# Built on the first ``main`` call, not at import, then reused: parsing
# returns a fresh namespace each time and no default is mutable.
_parser = functools.lru_cache(maxsize=None)(build_parser)

_INPUT_ARGS = ("file", "dist", "db", "model")


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, results, lines = args.handler(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    if args.format == "structured":
        inputs = {}
        for attr in _INPUT_ARGS:
            path = getattr(args, attr, None)
            if path is not None:
                try:
                    inputs[path] = _digest(path)
                except OSError:
                    inputs[path] = None
        payload = {
            "command": argv,
            "inputs": inputs,
            "results": results,
        }
        seed = getattr(args, "seed", None)
        if seed is not None:
            payload["seed"] = seed
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
