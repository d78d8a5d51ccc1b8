"""Self-test of the benchmark: tiny workloads, metric names and units, the gate.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["search", "sweep", "queries"]
    assert set(workloads.WORKLOADS) == {"search", "sweep", "queries"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    out = run.measure(name, seed=3, seconds=0, trace=trace, small=True)
    result = out["result"]
    assert result["correct"], out["info"]["failed_kinds"]
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    info = out["info"]
    assert set(info["environment"]) == {"python", "nproc", "commit", "seed", "src_loc"}
    assert info["properties"]


def test_traced_run_restores_the_package():
    run.measure("queries", seed=1, seconds=0, trace=True, small=True)
    structure = sys.modules["factoredsets.structure"]
    partitions = sys.modules["factoredsets.partitions"]
    assert not hasattr(structure.history, "__wrapped__")
    assert not hasattr(sys.modules["factoredsets.inference"].history, "__wrapped__")
    assert not hasattr(partitions.Partition.restrict, "__wrapped__")


def test_trace_sees_the_search_layers():
    out = run.measure("search", seed=2, seconds=0, trace=True, small=True)
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert metrics["inference.candidates"] >= metrics["inference.models_yielded"] > 0
    assert metrics["cli.main.calls"] == len(workloads.bundled_argvs(small=True))
    assert metrics["inference.pullback.calls"] > 0
    assert metrics["probability.fundamental_theorem_check.calls"] == 0


def tamper_search(monkeypatch):
    original = workloads.Search.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        argv = workloads.bundled_argvs(small=True)[0]
        code, stdout = self.reference[argv]
        self.reference[argv] = (code, stdout.replace('"models_checked": ', '"models_checked": 1'))

    monkeypatch.setattr(workloads.Search, "__init__", init)


def tamper_sweep(monkeypatch):
    monkeypatch.setattr(workloads.Sweep, "TOTALS", {3: (133, 88), 4: (13633, 5894)})


def tamper_queries(monkeypatch):
    history = workloads.GridReference.history

    def wrong(self, labels):
        return history(self, labels) ^ {0}

    monkeypatch.setattr(workloads.GridReference, "history", wrong)


@pytest.mark.parametrize(
    "name, tamper",
    [("search", tamper_search), ("sweep", tamper_sweep), ("queries", tamper_queries)],
)
def test_wrong_reference_fails_the_run(monkeypatch, name, tamper):
    tamper(monkeypatch)
    out = run.measure(name, seed=1, seconds=0, trace=False, small=True)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["correct_ratio"]["value"] < 1
    assert out["info"]["failed_ratio"] > 0


def test_missing_package_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    code = run.main(["--workload", "sweep", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_tail_percentile_keeps_ten_queries_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(7920) == Fraction(995, 10)
    assert run.tail_percentile(13633) == Fraction(999, 10)
    assert run.tail_percentile(19) is None
