"""Span tracing around the public functions of each ``factoredsets`` module.

The tracer wraps functions from outside the package, at every name a caller
looks up: a module attribute is replaced in each package module that binds the
same function object (``inference`` binds ``history`` at import, so
``inference.history`` is wrapped as well as ``structure.history``), and a
method is replaced on its class.  Each call records a span (name, start, end,
parent span, query id) and adds to two aggregates per metric name: the call
count and the self time, which is the span's duration minus the time covered
by its child spans.

Generator functions (``search_models``, ``iter_partitions``,
``enumerate_factorizations``) get one span per ``next()``, so their self time
is the work done inside the generator and not the consumer's work between
items.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "factoredsets"
MAX_SPANS = 100_000  # full span records kept; the aggregates cover every call

# (metric name, module, attribute or Class.attribute, how to wrap)
TARGETS = (
    ("cli.main", "cli", "main", "call"),
    ("fileformat.load", "fileformat", "load_database_file", "call"),
    ("fileformat.load", "fileformat", "load_factored_set_file", "call"),
    ("fileformat.load", "fileformat", "load_distribution_file", "call"),
    ("inference.search_models", "inference", "search_models", "generator"),
    ("inference.pullback", "inference", "pullback", "call"),
    ("partitions.restrict", "partitions", "Partition.restrict", "call"),
    ("partitions.from_block_of", "partitions", "Partition.from_block_of", "classmethod"),
    ("partitions.iter_partitions", "partitions", "iter_partitions", "generator"),
    ("structure.history", "structure", "history", "history"),
    ("structure.generates", "structure", "generates", "call"),
    ("structure.cond_orthogonal", "structure", "cond_orthogonal", "call"),
    ("polynomial.cond_orth_by_divisibility", "polynomial", "cond_orth_by_divisibility", "call"),
    ("polynomial.characteristic_polynomial", "polynomial", "characteristic_polynomial", "call"),
    ("polynomial.SetPolynomial_mul", "polynomial", "SetPolynomial.__mul__", "call"),
    ("polynomial.irreducible_components", "polynomial", "irreducible_components", "call"),
    ("probability.fundamental_theorem_check", "probability", "fundamental_theorem_check", "call"),
    ("probability.conditional_independence_holds", "probability", "conditional_independence_holds", "call"),
    ("probability.random_distribution", "probability", "random_distribution", "call"),
    ("probability.point_mass", "probability", "FactoredDistribution.point_mass", "call"),
    ("factored.enumerate_factorizations", "factored", "enumerate_factorizations", "generator"),
    ("factored.FactoredSet_init", "factored", "FactoredSet.__init__", "call"),
    ("agency.counterfactable", "agency", "counterfactable", "call"),
    ("agency.observes_event", "agency", "observes_event", "call"),
)

# Metrics that take the form ``<name>.calls`` and ``<name>.self_s``.
SPAN_METRICS = (
    "inference.search_models",
    "inference.pullback",
    "partitions.restrict",
    "partitions.from_block_of",
    "partitions.iter_partitions",
    "structure.history_full",
    "structure.history_sub",
    "structure.generates",
    "structure.cond_orthogonal",
    "polynomial.cond_orth_by_divisibility",
    "polynomial.characteristic_polynomial",
    "polynomial.SetPolynomial_mul",
    "polynomial.irreducible_components",
    "probability.fundamental_theorem_check",
    "probability.conditional_independence_holds",
    "probability.random_distribution",
    "probability.point_mass",
    "factored.enumerate_factorizations",
    "factored.FactoredSet_init",
    "agency.counterfactable",
    "agency.observes_event",
    "fileformat.load",
    "cli.main",
)

SEARCH_SPAN = "inference.search_models"


class Tracer:
    """Installs span wrappers into the imported package and aggregates them."""

    def __init__(self):
        self.spans: list[list] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.query_id: object = None
        self.candidates = 0
        self.models_yielded = 0
        self.history_repeats = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index or -1, child ns, name]
        self._seen_history: dict[int, tuple[object, set]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.query_id])
        else:
            index = -1
            self.dropped += 1
        frame = [index, 0, name, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        index, child, name, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if index >= 0:
            record = self.spans[index]
            record[1] = start
            record[2] = end

    def _wrap_call(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self
        model_type = None
        if name == SEARCH_SPAN:
            model_type = self._module("inference").Model

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    if model_type is not None and isinstance(item, model_type):
                        tracer.models_yielded += 1
                    yield item

            return traced()

        return wrapper

    def _wrap_history(self, fn):
        tracer = self
        seen = self._seen_history

        @functools.wraps(fn)
        def wrapper(fs, part, *args, **kwargs):
            entry = seen.get(id(fs))
            if entry is None:
                entry = seen[id(fs)] = (fs, set())  # holding fs keeps its id unique
            parts = entry[1]
            if part in parts:
                tracer.history_repeats += 1
            else:
                parts.add(part)
            name = "structure.history_full" if part.is_full else "structure.history_sub"
            frame = tracer._enter(name)
            try:
                return fn(fs, part, *args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _module(self, short: str):
        return importlib.import_module(f"{PACKAGE}.{short}")

    def _package_modules(self) -> list:
        prefix = PACKAGE + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(prefix))
        ]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for _, short, _, _ in TARGETS:
            self._module(short)  # import first, so that every binding is seen
        modules = self._package_modules()
        for metric, short, path, how in TARGETS:
            mod = self._module(short)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                if owner is None or attr not in owner.__dict__:
                    self.missing.append(f"{short}.{path}")
                    continue
                raw = owner.__dict__[attr]
                if how == "classmethod":
                    self._set(owner, attr, classmethod(self._wrap_call(metric, raw.__func__)))
                    continue
                wrapped = self._wrap_call(metric, raw)
                for name, value in list(owner.__dict__.items()):
                    if value is raw:  # aliases such as __rmul__ = __mul__
                        self._set(owner, name, wrapped)
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{short}.{path}")
                continue
            if how == "generator":
                wrapped = self._wrap_generator(metric, original)
            elif how == "history":
                wrapped = self._wrap_history(original)
            else:
                wrapped = self._wrap_call(metric, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapped)
        self._count_candidates()

    def _count_candidates(self) -> None:
        """Count ``Model`` constructions made directly inside the search generator."""
        model = getattr(self._module("inference"), "Model", None)
        post_init = getattr(model, "__dict__", {}).get("__post_init__")
        if post_init is None:
            self.missing.append("inference.Model.__post_init__")
            return
        tracer = self

        @functools.wraps(post_init)
        def counted(obj):
            stack = tracer._stack
            if stack and stack[-1][2] == SEARCH_SPAN:
                tracer.candidates += 1
            return post_init(obj)

        self._set(model, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_ns.get(name, 0) / 1e9, "s")
        out["inference.candidates"] = (self.candidates, "count")
        out["inference.models_yielded"] = (self.models_yielded, "count")
        out["inference.yield_ratio"] = (
            self.models_yielded / self.candidates if self.candidates else 0.0,
            "ratio",
        )
        history_calls = self.calls.get("structure.history_full", 0) + self.calls.get(
            "structure.history_sub", 0
        )
        out["structure.history.repeat_ratio"] = (
            self.history_repeats / history_calls if history_calls else 0.0,
            "ratio",
        )
        return out

    def module_self_s(self) -> dict[str, float]:
        """Self time summed by module (the part of each metric name before the dot)."""
        out: dict[str, float] = defaultdict(float)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return dict(sorted(out.items()))
