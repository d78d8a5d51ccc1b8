"""Benchmark of the ``factoredsets`` library: one workload per run.

    python3 bench/run.py --workload {search,sweep,queries} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from ``src/``
next to this directory.  One process, one closed-loop client: each query is
issued only after the previous one returned.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the environment, the measured
properties of the workload and the tail percentile used.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from spans import PACKAGE  # noqa: E402

SETUP_REPEATS = 5  # set-ups timed before the first pass; each pass adds one
SETUP_YARDSTICK_SAMPLES = 8  # kernel timings on each side of a set-up
TAIL_LADDER = (50, 75, 90, 95, 99, Fraction(995, 10), Fraction(999, 10))
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (for example, the package is missing)."""


def import_package():
    """Import ``factoredsets`` afresh from ``src/``, never from elsewhere."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} package under {SRC}")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def timed_build(name: str, seed: int, small: bool):
    """One set-up: import the package afresh and build the workload's inputs.

    Returns the workload and the set-up's time, scaled by kernel timings taken
    on each side of it, and raw.
    """
    gc.collect()
    ruler = yardstick.Yardstick()
    for _ in range(SETUP_YARDSTICK_SAMPLES):
        ruler.sample()
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](import_package(), seed, small)
    elapsed = time.perf_counter() - start
    for _ in range(SETUP_YARDSTICK_SAMPLES):
        ruler.sample()
    return workload, elapsed * yardstick.REFERENCE_S / statistics.median(ruler.took), elapsed


class PassResult:
    """Latencies of one pass, raw and scaled to the yardstick's reference speed."""

    def __init__(self, raw: array, scales: list[float], kinds: list[str], ok: list[bool]):
        self.raw = raw
        self.latencies = array("d", (x * k for x, k in zip(raw, scales)))
        self.wall = math.fsum(self.latencies)
        self.raw_wall = math.fsum(raw)
        self.attempted = len(ok)
        self.failed = ok.count(False)
        self.failed_kinds = {kind for kind, good in zip(kinds, ok) if not good}


def run_pass(workload, tracer=None) -> PassResult:
    """Issue one pass of queries back to back; check the answers afterwards.

    Between queries, outside their timing, the yardstick kernel is timed every
    few tens of milliseconds.
    """
    queries = workload.queries()
    ruler = yardstick.Yardstick()
    middles = array("d")
    latencies = array("d")
    answers = []
    reported = False
    clock = time.perf_counter
    ruler.sample()
    for index, query in enumerate(queries):
        ruler.maybe_sample()
        if tracer is not None:
            tracer.query_id = index
        begin = clock()
        try:
            answer = query.call()
        except Exception as exc:  # a failed query is counted, not fatal
            answer = workloads.Raised(repr(exc))
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        latency = clock() - begin
        latencies.append(latency)
        middles.append(begin + latency / 2)
        answers.append(answer)
    ruler.sample()
    if tracer is not None:
        tracer.query_id = None
        tracer.uninstall()
    ok = workload.check_pass(answers)
    return PassResult(latencies, ruler.scales(middles), [q.kind for q in queries], ok)


def run_passes(name: str, seed: int, small: bool, seconds: float):
    """Run whole passes while the next one is expected to end within ``seconds``.

    Each pass gets a set-up of its own, timed apart from the queries, so it
    starts from fresh module state and repeats the work of the first pass.
    Returns the last workload, the passes and the set-up times (scaled, raw).
    """
    passes, setups, durations = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        workload = None  # drop the previous pass's objects before the next set-up
        workload, scaled, raw = timed_build(name, seed, small)
        setups.append((scaled, raw))
        passes.append(run_pass(workload))
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return workload, passes, setups


def tail_percentile(per_pass: int):
    """Highest ladder percentile with at least ten of one pass's queries above it."""
    best = None
    for p in TAIL_LADDER:
        if per_pass - math.ceil(Fraction(p) * per_pass / 100) >= TAIL_BEYOND:
            best = p
    return best


def quantile(sorted_values: list[float], p) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(Fraction(p) * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def latency_metrics(per_pass: list[array], tail) -> dict[str, float]:
    """``wall_s``, ``query_s.p50`` and ``query_s.tail`` from per-query medians.

    Every pass issues the same queries, so each query's median latency over
    the passes filters out bursts of machine noise that hit single passes;
    ``wall_s`` is the sum of those medians, the time to finish the query list.
    """
    per_query = sorted(statistics.median(times) for times in zip(*per_pass))
    return {
        "wall_s": math.fsum(per_query),
        "query_s.p50": statistics.median(per_query),
        "query_s.tail": quantile(per_query, tail),
    }


def end_to_end(passes: list[PassResult], setups: list) -> tuple[dict, dict]:
    """End-to-end metrics and the info that goes with them.

    ``setup_s`` is the median of the run's set-ups, spread over the whole run
    like the passes, so that it sees the machine as they do.
    """
    per_pass = len(passes[0].latencies)
    tail = tail_percentile(per_pass)
    if tail is None:
        tail = 100  # too few queries in a pass for a tail (tiny self-test runs): the maximum
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    scaled = latency_metrics([p.latencies for p in passes], tail)
    raw = latency_metrics([p.raw for p in passes], tail)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        **{name: (value, "s") for name, value in scaled.items()},
        "correct_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "raw_seconds": {"setup_s": statistics.median(r for _, r in setups), **raw},
        "setups": len(setups),
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "pass_raw_walls_s": [p.raw_wall for p in passes],
        "queries_per_pass": per_pass,
        "tail_percentile": float(tail),
        "tail_queries_beyond": per_pass - math.ceil(Fraction(tail) * per_pass / 100),
        "failed_ratio": failed / attempted,
        "failed_kinds": sorted(set().union(*(p.failed_kinds for p in passes))),
    }
    return metrics, info


def traced_round(name: str, seed: int, small: bool, untraced_wall: float):
    """One traced set-up plus one traced pass; returns metrics and the tracer."""
    gc.collect()
    pkg = import_package()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.query_id = "setup"
        workload = workloads.WORKLOADS[name](pkg, seed, small)
        result = run_pass(workload, tracer)  # uninstalls the tracer before checking
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (result.wall - untraced_wall, "s")
    return metrics, tracer, result


def environment(seed: int) -> dict:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": cores,
        "commit": commit(),
        "seed": seed,
        "src_loc": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / PACKAGE).glob("*.py"))
        ),
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one workload and return the result object that run.py prints last."""
    if trace:
        workload, passes, setups = run_passes(name, seed, small, seconds / 2)
        untraced_wall = statistics.median(p.wall for p in passes)
        metrics, tracer, traced = traced_round(name, seed, small, untraced_wall)
        _, info = end_to_end(passes, setups)
        passes.append(traced)
        info["traced_wall_s"] = traced.wall
        info["traced_raw_wall_s"] = traced.raw_wall
        info["module_self_s"] = tracer.module_self_s()
        info["spans_kept"] = len(tracer.spans)
        info["spans_dropped"] = tracer.dropped
        info["untraced_targets"] = tracer.missing
        info["spans_file"] = write_spans(name, seed, tracer)
    else:
        start = time.perf_counter()
        setups = [timed_build(name, seed, small)[1:] for _ in range(SETUP_REPEATS)]
        left = seconds - (time.perf_counter() - start)
        workload, passes, more = run_passes(name, seed, small, left)
        metrics, info = end_to_end(passes, setups + more)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info.update(
        workload=name,
        why=workload.why,
        trace=trace,
        environment=environment(seed),
        properties=workload.properties(),
    )
    if trace:
        info["properties"]["structure.history.repeat_ratio"] = metrics[
            "structure.history.repeat_ratio"
        ][0]
    return {
        "info": info,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def write_spans(name: str, seed: int, tracer) -> str:
    """Write the kept spans as JSON lines: name, start_ns, end_ns, parent, query."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-spans.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for record in tracer.spans:
            fh.write(json.dumps(record) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # the CLI queries name the bundled files relative to the root
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in out["result"]["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"info": out["info"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
