import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from factoredsets import (
    data_path,
    enumerate_factorizations,
    fundamental_theorem_check,
    iter_partitions,
)
from factoredsets import cli
from factoredsets.cli import main
from factoredsets.fileformat import MAX_ELEMENTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EX1 = str(data_path("ex1.ffs"))
DB1 = str(data_path("ex1.db"))
DB2 = str(data_path("ex2.db"))
MODEL2 = str(data_path("ex2-model.ffs"))
DIST1 = str(data_path("ex1-uniform.dist"))
HUGE = "9" * 5000  # past int()'s default limit of 4300 digits


class TestBasicCommands:
    def test_count_fact(self, capsys):
        code, out, _ = run(capsys, "count-fact", "8")
        assert code == 0
        assert out.splitlines()[0] == "1681"

    def test_enum_fact_lists_four(self, capsys):
        code, out, _ = run(capsys, "enum-fact", "4")
        assert code == 0
        assert "4 factorization(s)" in out

    def test_enum_fact_limit(self, capsys):
        _, out, _ = run(capsys, "enum-fact", "4", "--limit", "2")
        assert "2 factorization(s)" in out

    def test_count_fact_twelve_by_formula(self, capsys):
        code, out, _ = run(capsys, "count-fact", "12")
        assert code == 0
        assert out == "13638241\n"

    def test_history(self, capsys):
        code, out, _ = run(capsys, "history", EX1, "--partition", "Y")
        assert code == 0
        assert "history(Y) = { X V }" in out

    def test_orth_exit_codes(self, capsys):
        code, out, _ = run(capsys, "orth", EX1, "X", "V")
        assert code == 0 and "orthogonal" in out
        code, out, _ = run(capsys, "orth", EX1, "V", "V")
        assert code == 1 and "entangled" in out

    def test_orth_given_partition(self, capsys):
        code, out, _ = run(capsys, "orth", EX1, "X", "X", "--given", "X")
        assert code == 0  # conditioning on itself makes anything orthogonal to itself

    def test_orth_given_event(self, capsys):
        # Restricted to the first X block, V and Y induce the same split.
        code, _, _ = run(capsys, "orth", EX1, "V", "Y", "--event", "00 01")
        assert code == 1
        # X restricted to its own block collapses, so it is orthogonal there.
        code, _, _ = run(capsys, "orth", EX1, "X", "Y", "--event", "00 01")
        assert code == 0

    def test_before(self, capsys):
        code, out, _ = run(capsys, "before", EX1, "X", "Y")
        assert code == 0 and "strictly-before" in out
        code, out, _ = run(capsys, "before", EX1, "Y", "X")
        assert code == 1 and "strictly-after" in out

    def test_before_given_event(self, capsys):
        # Restricted to the first X block, X collapses and Y does not.
        code, out, _ = run(capsys, "before", EX1, "X", "Y", "--given-event", "00 01")
        assert code == 0 and out == "X before Y given event: yes\n"
        code, out, _ = run(capsys, "before", EX1, "Y", "X", "--given-event", "00 01")
        assert code == 1 and out == "Y before X given event: no\n"

    def test_before_given_event_structured(self, capsys):
        argv = ["--format", "structured", "before", EX1, "Y", "X", "--given-event", "00 01"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["results"] == {
            "a": "Y", "b": "X", "before": False, "given_event": "00 01",
        }

    def test_poly_factor(self, capsys):
        code, out, _ = run(capsys, "poly", EX1, "--event", "00 01", "--factor")
        assert code == 0
        assert "X.0" in out
        assert "component { V } : V.0 + V.1" in out

    def test_prob(self, capsys):
        code, out, _ = run(capsys, "prob", EX1, DIST1, "--event", "00 11")
        assert code == 0
        assert out.splitlines()[0] == "1/2"


EX1_DIGEST = "2b16711cef5c93cd"
MODEL2_DIGEST = "e2c51784e90f5ebe"
DIST1_DIGEST = "58ecf0a57106e1d1"
MODEL2_DIST = "weights Xp 1/3 2/3\nweights Vp 1/4 3/4\nweights Zp 1/5 3/10 1/2\n"
MODEL2_DIST_DIGEST = "e31ad4be321c7854"


class TestPolyProbGolden:
    """Structured ``poly`` and ``prob`` output, pinned byte for byte.

    The inputs are copies of the bundled files (and one distribution written
    here) named relative to the working directory, so the echoed command and
    the input digests are fixed too.
    """

    @pytest.fixture(autouse=True)
    def inputs_in_cwd(self, tmp_path, monkeypatch):
        for name in ("ex1.ffs", "ex1-uniform.dist", "ex2-model.ffs"):
            (tmp_path / name).write_bytes(data_path(name).read_bytes())
        (tmp_path / "ex2-model.dist").write_text(MODEL2_DIST)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv, inputs, results",
        [
            (("poly", "ex1.ffs", "--event", "00 01"),
             {"ex1.ffs": EX1_DIGEST},
             {"event": "00 01", "polynomial": "X.0*V.0 + X.0*V.1"}),
            (("poly", "ex1.ffs", "--event", "00 01 10"),
             {"ex1.ffs": EX1_DIGEST},
             {"event": "00 01 10", "polynomial": "X.0*V.0 + X.0*V.1 + X.1*V.1"}),
            (("poly", "ex1.ffs", "--event", ""),
             {"ex1.ffs": EX1_DIGEST},
             {"event": "", "polynomial": "0"}),
            (("poly", "ex1.ffs", "--event", "00 11", "--factor"),
             {"ex1.ffs": EX1_DIGEST},
             {"event": "00 11",
              "irreducible": [{"component": ["X"], "factor": "X.0 + X.1"},
                              {"component": ["V"], "factor": "V.0"}],
              "polynomial": "X.0*V.0 + X.1*V.0"}),
            (("poly", "ex1.ffs", "--event", "00 01 10 11", "--factor"),
             {"ex1.ffs": EX1_DIGEST},
             {"event": "00 01 10 11",
              "irreducible": [{"component": ["X"], "factor": "X.0 + X.1"},
                              {"component": ["V"], "factor": "V.0 + V.1"}],
              "polynomial": "X.0*V.0 + X.0*V.1 + X.1*V.0 + X.1*V.1"}),
            (("poly", "ex2-model.ffs", "--event", "000 001 00 01"),
             {"ex2-model.ffs": MODEL2_DIGEST},
             {"event": "000 001 00 01",
              "polynomial": "Xp.0*Vp.0*Zp.0 + Xp.0*Vp.0*Zp.1 + Xp.0*Vp.0*Zp.2"
                            " + Xp.0*Vp.1*Zp.2"}),
            (("poly", "ex2-model.ffs", "--event", "000 001 00 01", "--factor"),
             {"ex2-model.ffs": MODEL2_DIGEST},
             {"event": "000 001 00 01",
              "irreducible": [
                  {"component": ["Xp"], "factor": "Xp.0"},
                  {"component": ["Vp", "Zp"],
                   "factor": "Vp.0*Zp.0 + Vp.0*Zp.1 + Vp.0*Zp.2 + Vp.1*Zp.2"}],
              "polynomial": "Xp.0*Vp.0*Zp.0 + Xp.0*Vp.0*Zp.1 + Xp.0*Vp.0*Zp.2"
                            " + Xp.0*Vp.1*Zp.2"}),
            (("poly", "ex2-model.ffs", "--event", "010 011 100 101 01 10", "--factor"),
             {"ex2-model.ffs": MODEL2_DIGEST},
             {"event": "010 011 100 101 01 10",
              "irreducible": [{"component": ["Xp"], "factor": "Xp.0 + Xp.1"},
                              {"component": ["Vp"], "factor": "Vp.1"},
                              {"component": ["Zp"], "factor": "Zp.0 + Zp.1 + Zp.2"}],
              "polynomial": "Xp.0*Vp.1*Zp.0 + Xp.0*Vp.1*Zp.1 + Xp.0*Vp.1*Zp.2"
                            " + Xp.1*Vp.1*Zp.0 + Xp.1*Vp.1*Zp.1 + Xp.1*Vp.1*Zp.2"}),
            (("poly", "ex2-model.ffs", "--event", "111 11 000", "--factor"),
             {"ex2-model.ffs": MODEL2_DIGEST},
             {"event": "111 11 000",
              "irreducible": [
                  {"component": ["Xp", "Zp"],
                   "factor": "Xp.0*Zp.0 + Xp.1*Zp.1 + Xp.1*Zp.2"},
                  {"component": ["Vp"], "factor": "Vp.0"}],
              "polynomial": "Xp.0*Vp.0*Zp.0 + Xp.1*Vp.0*Zp.1 + Xp.1*Vp.0*Zp.2"}),
            (("prob", "ex1.ffs", "ex1-uniform.dist", "--event", "00 11"),
             {"ex1-uniform.dist": DIST1_DIGEST, "ex1.ffs": EX1_DIGEST},
             {"event": "00 11", "probability": "1/2"}),
            (("prob", "ex1.ffs", "ex1-uniform.dist", "--event", "00 01 10"),
             {"ex1-uniform.dist": DIST1_DIGEST, "ex1.ffs": EX1_DIGEST},
             {"event": "00 01 10", "probability": "3/4"}),
            (("prob", "ex2-model.ffs", "ex2-model.dist", "--event", "000 001 00 01"),
             {"ex2-model.dist": MODEL2_DIST_DIGEST, "ex2-model.ffs": MODEL2_DIGEST},
             {"event": "000 001 00 01", "probability": "5/24"}),
            (("prob", "ex2-model.ffs", "ex2-model.dist",
              "--event", "010 011 100 101 01 10"),
             {"ex2-model.dist": MODEL2_DIST_DIGEST, "ex2-model.ffs": MODEL2_DIGEST},
             {"event": "010 011 100 101 01 10", "probability": "3/4"}),
            (("prob", "ex2-model.ffs", "ex2-model.dist", "--event", ""),
             {"ex2-model.dist": MODEL2_DIST_DIGEST, "ex2-model.ffs": MODEL2_DIGEST},
             {"event": "", "probability": "0"}),
        ],
    )
    def test_structured_output(self, capsys, argv, inputs, results):
        argv = ["--format", "structured", *argv]
        code, out, _ = run(capsys, *argv)
        payload = {"command": argv, "inputs": inputs, "results": results}
        assert code == 0
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestInputDigests:
    def test_text_mode_reads_no_digest(self, capsys, monkeypatch):
        def refuse(path):
            raise AssertionError(f"digest of {path} computed in text mode")

        monkeypatch.setattr(cli, "_digest", refuse)
        code, out, _ = run(capsys, "history", EX1, "--partition", "Y")
        assert code == 0
        assert "history(Y) = { X V }" in out


class TestInferenceCommands:
    def test_check_model(self, capsys):
        code, out, _ = run(capsys, "check-model", "--model", MODEL2, "--db", DB2)
        assert code == 0
        assert out.count("satisfied") == 6

    def test_check_model_reports_in_sorted_order(self, capsys):
        # Orthogonal assertions sorted, then dependent ones sorted, whatever
        # order the search's own check takes them in.
        for model, db in ((EX1, DB1), (MODEL2, DB2)):
            code, out, _ = run(
                capsys, "--format", "structured", "check-model", "--model", model,
                "--db", db,
            )
            assert code == 0
            entries = json.loads(out)["results"]["entries"]
            kinds = [e["kind"] for e in entries]
            triples = [tuple(e["triple"]) for e in entries]
            split = kinds.count("orthogonal")
            assert kinds == ["orthogonal"] * split + ["dependent"] * (len(kinds) - split)
            assert triples[:split] == sorted(triples[:split])
            assert triples[split:] == sorted(triples[split:])
        assert [t[2] for t in triples] == ["Y", "_", "Y", "_", "_", "Y"]

    # A 2x2 model of ex2.db: its first factor feeds both X and V, and Z is
    # constant on each block of Y.
    VIOLATING_MODEL = (
        "set 4\nlabels 00 01 10 11\n"
        "factor A { 00 01 | 10 11 }\nfactor B { 00 10 | 01 11 }\n"
        "map 00 -> 000\nmap 01 -> 000\nmap 10 -> 011\nmap 11 -> 100\n"
    )

    def test_check_model_reports_each_violation(self, capsys, tmp_path):
        model = tmp_path / "violating.ffs"
        model.write_text(self.VIOLATING_MODEL)
        code, out, _ = run(capsys, "check-model", "--model", str(model), "--db", DB2)
        assert code == 1
        assert out == (
            "orthogonal V Z | Y : satisfied\n"
            "orthogonal X V | _ : VIOLATED\n"
            "orthogonal X Z | Y : satisfied\n"
            "dependent V Z | _ : satisfied\n"
            "dependent X Z | _ : satisfied\n"
            "dependent Z Z | Y : VIOLATED\n"
            "does not model database\n"
        )
        code, out, _ = run(
            capsys, "--format", "structured", "check-model", "--model", str(model),
            "--db", DB2,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["inputs"][str(model)] == "6da212ea4e19ec1c"
        assert payload["results"] == {
            "entries": [
                {"kind": kind, "ok": ok, "triple": list(triple)}
                for kind, ok, triple in (
                    ("orthogonal", True, "VZY"),
                    ("orthogonal", False, "XV_"),
                    ("orthogonal", True, "XZY"),
                    ("dependent", True, "VZ_"),
                    ("dependent", True, "XZ_"),
                    ("dependent", False, "ZZY"),
                )
            ],
            "ok": False,
        }

    def test_infer_holds_with_qualifier(self, capsys):
        code, out, _ = run(
            capsys, "infer", "--db", DB1, "--before", "X", "Y", "--max-size", "6"
        )
        assert code == 0
        assert "strictly-before (holds for all models with size <= 6" in out
        assert "models checked" in out

    def test_infer_refuted(self, capsys):
        code, out, _ = run(
            capsys, "infer", "--db", DB1, "--before", "Y", "X", "--max-size", "4"
        )
        assert code == 1
        assert out == (
            "refuted (a model of size 2 violates strictly-before; "
            "1 models checked within size <= 4)\n"
        )

    def test_infer_vacuous_names_its_bounds_once(self, capsys):
        argv = ("infer", "--db", DB2, "--before", "X", "Y", "--max-size", "3",
                "--max-dim", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out == "vacuous (no models found within size <= 3, dim <= 0)\n"
        code, out, _ = run(capsys, "--format", "structured", *argv)
        assert code == 1
        assert json.loads(out)["results"]["bound"] == "models with size <= 3, dim <= 0"

    def test_infer_never_prints_unqualified_holds(self, capsys):
        _, out, _ = run(
            capsys, "infer", "--db", DB2, "--before", "X", "Y", "--max-size", "4"
        )
        assert "holds" not in out or "up to" in out or "size <=" in out

    def test_consistent(self, capsys):
        code, out, _ = run(capsys, "consistent", "--db", DB1, "--max-size", "4")
        assert code == 0
        assert "consistent (witness model of size 2 found)" in out


# Each call flips options or defaults the one before it set, so a value
# kept from one parse would change an exit code or the printed output.
REUSE_SEQUENCE = [
    ("--format", "structured", "infer", "--db", DB1, "--before", "X", "Y",
     "--max-size", "4", "--non-strict", "--surjective", "--max-dim", "2"),
    ("infer", "--db", DB1, "--before", "Y", "X", "--max-size", "4"),
    ("consistent", "--db", DB2, "--max-size", "3"),
    ("--format", "structured", "consistent", "--db", DB1, "--max-size", "3",
     "--max-dim", "1"),
    ("check-model", "--model", MODEL2, "--db", DB2),
    ("--format", "structured", "check-model", "--model", EX1, "--db", DB1),
    ("ft-verify", "--max-size", "3", "--sample", "2", "--seed", "5", "--trials", "2"),
    ("--format", "structured", "ft-verify", "--max-size", "3", "--sample", "1"),
    ("poly", EX1, "--event", "00 01", "--factor"),
    ("poly", EX1, "--event", "00 01"),
    ("infer", "--db", DB1, "--max-size", "2"),
    ("--format", "structured", "infer", "--db", DB1, "--before", "X", "Y",
     "--max-size", "4"),
]


class TestParserReuse:
    """``main`` builds its parser once per process and keeps nothing between calls."""

    @staticmethod
    def outcomes(capsys):
        out = []
        for argv in REUSE_SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse's own errors
                code = exc.code
            captured = capsys.readouterr()
            error = captured.err if code == 2 else None
            out.append((code, captured.out, error))
        return out

    def test_same_outcomes_as_fresh_parsers(self, capsys, monkeypatch):
        reused = self.outcomes(capsys)
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0]
        assert "required: --before" in reused[10][2]

    def test_built_on_the_first_call_not_at_import(self):
        probe = (
            "from factoredsets import cli; "
            "print(cli._parser.cache_info().currsize); "
            "cli.main(['count-fact', '4']); "
            "print(cli._parser.cache_info().currsize)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.stdout.split() == ["0", "4", "1"]


class TestFormatPosition:
    """``--format`` is accepted before or after the subcommand."""

    INFER = ("infer", "--db", DB1, "--before", "X", "Y", "--max-size", "4")

    def test_trailing_format_gives_the_leading_results(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", *self.INFER)
        trailing_code, trailing_out, _ = run(capsys, *self.INFER, "--format", "structured")
        assert code == trailing_code == 0
        leading, trailing = json.loads(out), json.loads(trailing_out)
        assert trailing["results"] == leading["results"]
        assert trailing["command"] == [*self.INFER, "--format", "structured"]

    def test_subcommand_help_names_the_option(self, capsys):
        with pytest.raises(SystemExit):
            main(["infer", "--help"])
        assert "--format {text,structured}" in capsys.readouterr().out


class TestTruncatedVerdicts:
    """A truncated search names the largest size it searched completely."""

    INFER = ("infer", "--db", DB1, "--before", "X", "Y", "--max-size", "20",
             "--time-budget", "1")

    def test_infer_holds_up_to_the_completed_size(self, capsys, expire_budget_in_size):
        expire_budget_in_size(3)
        code, out, _ = run(capsys, *self.INFER)
        assert code == 0
        assert out.startswith(
            "strictly-before (holds for all models with size <= 2, "
            "search truncated by time budget in size 3; "
        )

    def test_infer_structured_bound(self, capsys, expire_budget_in_size):
        expire_budget_in_size(3)
        code, out, _ = run(capsys, "--format", "structured", *self.INFER)
        results = json.loads(out)["results"]
        assert code == 0
        assert results["verdict"] == "holds-up-to-bound"
        assert results["truncated"] is True
        assert results["bound"] == (
            "models with size <= 2, search truncated by time budget in size 3"
        )

    def test_infer_with_no_completed_size_is_inconclusive(
        self, capsys, expire_budget_in_size
    ):
        expire_budget_in_size(1)
        code, out, _ = run(capsys, "--format", "structured", *self.INFER)
        results = json.loads(out)["results"]
        assert code == 1
        assert results["verdict"] == "inconclusive"
        expire_budget_in_size(1)
        code, out, _ = run(capsys, *self.INFER)
        assert code == 1
        assert out == (
            "inconclusive (no size searched completely: models with size <= 0, "
            "search truncated by time budget in size 1)\n"
        )

    def test_consistent_names_the_completed_size(self, capsys, expire_budget_in_size):
        expire_budget_in_size(4)
        code, out, _ = run(
            capsys, "consistent", "--db", DB2, "--max-size", "20",
            "--time-budget", "1",
        )
        assert code == 1
        assert out == (
            "no model found within size <= 3, "
            "search truncated by time budget in size 4\n"
        )


class TestAgencyCommands:
    def test_observes_event_no(self, capsys):
        path = str(data_path("newcomb-transparent.ffs"))
        code, out, _ = run(
            capsys, "observes", path, "--agent", "Act",
            "--event", "full-calm full-quirky", "--world", "Box",
        )
        assert code == 1 and "no" in out

    def test_observes_partition_yes(self, capsys):
        code, out, _ = run(
            capsys, "observes", EX1, "--agent", "_", "--partition", "V",
            "--world", "Y",
        )
        assert code == 0 and "yes" in out
        assert "subagent 0" in out

    def test_counterfactable(self, capsys):
        code, _, _ = run(capsys, "counterfactable", EX1, "X")
        assert code == 0
        code, _, _ = run(capsys, "counterfactable", EX1, "Y")
        assert code == 1
        code, _, _ = run(capsys, "counterfactable", EX1, "Y", "--relative-to", "Y")
        assert code == 0


class TestReports:
    def test_structured_output_is_deterministic(self, capsys):
        _, first, _ = run(
            capsys, "--format", "structured", "infer", "--db", DB1,
            "--before", "X", "Y", "--max-size", "4",
        )
        _, second, _ = run(
            capsys, "--format", "structured", "infer", "--db", DB1,
            "--before", "X", "Y", "--max-size", "4",
        )
        assert first == second
        payload = json.loads(first)
        assert payload["results"]["verdict"] == "holds-up-to-bound"
        assert payload["inputs"]
        assert "elapsed" not in first

    def test_structured_seed_recorded(self, capsys):
        _, out, _ = run(
            capsys, "--format", "structured", "ft-verify", "--max-size", "2",
            "--trials", "2", "--seed", "7",
        )
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert payload["results"]["agree"] is True

    def test_text_mode_reports_timing_on_stderr(self, capsys):
        _, out, err = run(capsys, "count-fact", "4")
        assert "elapsed:" in err
        assert "elapsed:" not in out

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ffs"
        bad.write_text("set 4\nfactor X { 0 1 | 1 2 }\n")
        code = main(["history", str(bad), "--partition", "X"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}:2" in err

    def test_missing_file_exits_2(self, capsys):
        code = main(["history", "nope.ffs", "--partition", "X"])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_distribution_file_exits_2(self, capsys):
        code, out, err = run(capsys, "prob", EX1, "nope.dist", "--event", "00")
        assert code == 2
        assert out == ""
        assert err == "error: no such file: nope.dist\n"

    def test_negative_count_fact_exits_2(self, capsys):
        code, out, err = run(capsys, "count-fact", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="the interpreter has no int-to-string digit limit",
    )
    def test_count_too_long_to_print_exits_2(self, capsys):
        # The count for 2048 elements has more digits than the interpreter
        # converts to text by default.
        for argv in (["count-fact", "2048"], ["--format", "structured", "count-fact", "2048"]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == "error: the count for n = 2048 is too long to print\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="the interpreter has no int-to-string digit limit",
    )
    def test_huge_count_is_refused_before_the_arithmetic(self, capsys):
        # 1000000! alone has 5.5 million digits and takes seconds to compute.
        started = time.perf_counter()
        code, out, err = run(capsys, "count-fact", "1000000")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: the count for n = 1000000 is too long to print\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="the interpreter has no int-to-string digit limit",
    )
    def test_count_fact_without_the_limit_getter(self, capsys, monkeypatch):
        # Without the getter nothing is refused early: the count is computed,
        # and the limit, still in force, fails its conversion to text.
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        counted = []
        count = cli.count_factorizations
        monkeypatch.setattr(
            cli, "count_factorizations", lambda n: counted.append(n) or count(n)
        )
        code, out, _ = run(capsys, "count-fact", "12")
        assert code == 0
        assert out.splitlines()[0] == "13638241"
        code, out, err = run(capsys, "count-fact", "2048")
        assert code == 2
        assert out == ""
        assert err == "error: the count for n = 2048 is too long to print\n"
        assert counted == [12, 2048]

    def test_prime_size_has_one_factorization(self, capsys):
        code, out, _ = run(capsys, "count-fact", "1009")
        assert code == 0
        assert out == "1\n"

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("infer", ["--max-dim", "-1"], "max_dim must be at least 0"),
            ("infer", ["--time-budget", "-1"], "time_budget must be a number of seconds >= 0"),
            ("infer", ["--time-budget", "nan"], "time_budget must be a number of seconds >= 0"),
            ("consistent", ["--time-budget", "nan"], "time_budget must be a number of seconds >= 0"),
            ("infer", ["--max-size", "0"], "max_size must be at least 1"),
        ],
    )
    def test_bad_search_bounds_exit_2(self, capsys, command, flags, message):
        before = ["--before", "X", "Y"] if command == "infer" else []
        code, out, err = run(
            capsys, command, "--db", DB1, *before, "--max-size", "4", *flags
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count-fact", "\u0663"],  # an Arabic-Indic three
            ["count-fact", "1_2"],
            ["count-fact", "+3"],
            ["enum-fact", "4", "--limit", "1_0"],
            ["infer", "--db", DB1, "--before", "X", "Y", "--max-size", "\u0664"],
            ["infer", "--db", DB1, "--before", "X", "Y", "--max-size", "4",
             "--max-dim", "\u0662"],
            ["consistent", "--db", DB1, "--max-size", "2", "--time-budget", "\u0661"],
            ["consistent", "--db", DB1, "--max-size", "2", "--time-budget", "1_0"],
            ["ft-verify", "--max-size", "2", "--seed", "1_0"],
            ["ft-verify", "--max-size", "2", "--trials", "\u0661"],
            ["ft-verify", "--max-size", "2", "--sample", "1_0"],
            ["consistent", "--db", DB1, "--max-size", "2", "--time-budget", "abc"],
            pytest.param(["count-fact", HUGE], id="count-fact-5000-digits"),
            pytest.param(["ft-verify", "--seed", "-" + HUGE], id="seed-5000-digits"),
        ],
    )
    def test_numbers_in_ascii_digits_only(self, capsys, argv):
        # ``int`` and ``float`` read each of these up to ``--sample 1_0``.
        # The rest are text that ``float`` refuses and digit strings that
        # ``int`` refuses.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        kind = "number of seconds" if argv[-2] == "--time-budget" else "integer"
        assert err.endswith(f": invalid {kind}: {argv[-1]!r}\n")

    def test_negative_enum_fact_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "enum-fact", "4", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --limit must be at least 0\n"


class TestEnumFactGuard:
    def test_size_12_is_refused_before_any_enumeration(self, capsys, monkeypatch):
        def never(n):
            raise AssertionError("the enumeration started")

        monkeypatch.setattr(cli, "enumerate_factorizations", never)
        for argv in (["enum-fact", "12"], ["enum-fact", "12", "--limit", "1000001"]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == (
                "error: enum-fact 12 would list more than 1000000 factorizations; "
                "list the first N with --limit N (N <= 1000000)\n"
            )

    def test_huge_size_is_refused_at_once(self, capsys):
        started = time.perf_counter()
        code, _, err = run(capsys, "enum-fact", "1000000")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "would list more than 1000000" in err

    def test_limit_caps_the_listing(self, capsys):
        code, out, _ = run(capsys, "enum-fact", "12", "--limit", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6 and lines[-1] == "5 factorization(s)"

    def test_largest_sizes_below_the_limit_run(self, capsys):
        code, out, _ = run(capsys, "enum-fact", "10", "--limit", "2")
        assert code == 0
        assert out.splitlines()[-1] == "2 factorization(s)"
        code, out, _ = run(capsys, "--format", "structured", "enum-fact", "11")
        assert code == 0
        assert len(json.loads(out)["results"]["factorizations"]) == 1

    @pytest.mark.parametrize("n,dim", [(997, 1), (2000, 7)])
    def test_sizes_past_the_recursion_limit_list(self, capsys, n, dim):
        # The grid walk fills one row per element without recursing.
        argv = ["--format", "structured", "enum-fact", str(n), "--limit", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == ""
        [factors] = json.loads(out)["results"]["factorizations"]
        assert len(factors) == dim


class TestBadInputFiles:
    """A file that cannot be parsed or read exits 2 with an error naming it."""

    @pytest.mark.parametrize(
        "name,keyword,argv",
        [
            ("bad.ffs", "set", ["history", "{}", "--partition", "X"]),
            ("bad.db", "omega", ["consistent", "--db", "{}", "--max-size", "2"]),
            ("bad.ffs", "set", ["dump", "{}"]),
        ],
    )
    def test_superscript_count(self, capsys, tmp_path, name, keyword, argv):
        # str.isdigit accepts a superscript two, which int() rejects.
        bad = tmp_path / name
        bad.write_text(f"{keyword} \u00b2\n", encoding="utf-8")
        code, out, err = run(capsys, *[a.format(bad) for a in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:1: '{keyword}' expects one count (at '\u00b2')\n"

    @pytest.mark.parametrize(
        "name,keyword,argv",
        [
            ("bad.ffs", "set", ["dump", "{}"]),
            ("bad.db", "omega", ["consistent", "--db", "{}", "--max-size", "2"]),
        ],
    )
    def test_non_ascii_digit_count(self, capsys, tmp_path, name, keyword, argv):
        # str.isdecimal and int() both accept an Arabic-Indic three.
        bad = tmp_path / name
        bad.write_text(f"{keyword} \u0663\n", encoding="utf-8")
        code, out, err = run(capsys, *[a.format(bad) for a in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:1: '{keyword}' expects one count (at '\u0663')\n"

    @pytest.mark.parametrize("token", ["+1", "-0", "1_0", "\u0663"])
    def test_element_token_not_in_ascii_digits(self, capsys, tmp_path, token):
        # int() reads each as an index: 1, 0, 10 and 3.
        bad = tmp_path / "bad.ffs"
        bad.write_text(f"set 4\nfactor X {{ 0 {token} | 2 3 }}\n", encoding="utf-8")
        code, out, err = run(capsys, "dump", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:2: unknown element {token!r}\n"

    @pytest.mark.parametrize(
        "name,text,argv,lineno,message",
        [
            ("huge.ffs", f"set {HUGE}\n", ["dump", "{}"], 1,
             f"'set' expects one count (at {HUGE!r})"),
            ("huge.ffs", f"set 4\nfactor X {{ 0 1 | 2 {HUGE} }}\n", ["dump", "{}"], 2,
             f"unknown element {HUGE!r}"),
            ("huge.db", f"omega {HUGE}\n", ["consistent", "--db", "{}", "--max-size", "2"],
             1, f"'omega' expects one count (at {HUGE!r})"),
            ("huge.db", f"# count\nomega {HUGE}\n", ["dump", "{}"], 2,
             f"'omega' expects one count (at {HUGE!r})"),
            ("huge.dist", f"weights X 1/2 1/2\nweights V {HUGE} 1\n",
             ["prob", EX1, "{}", "--event", "00"], 2, f"bad fraction: {HUGE!r}"),
        ],
        ids=["set-count", "element-token", "omega-count", "omega-count-dump", "weight"],
    )
    def test_digits_past_the_int_limit(
        self, capsys, tmp_path, name, text, argv, lineno, message
    ):
        # ASCII digits, but more than ``int``'s default limit of 4300: each
        # is refused at its line, as any other malformed number is.
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run(capsys, *[a.format(bad) for a in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:{lineno}: {message}\n"

    @pytest.mark.parametrize(
        "name,text,argv",
        [
            ("huge.ffs", f"set {10**30}\nfactor X _\n", ["dump", "{}"]),
            ("huge.db", f"omega {10**30}\npartition X !\ndependent X X | _\n",
             ["consistent", "--db", "{}", "--max-size", "2"]),
        ],
        ids=["set-count", "omega-count"],
    )
    def test_count_past_the_largest_index(self, capsys, tmp_path, name, text, argv):
        # Digits ``int()`` reads, but a set that no index could reach: the
        # .ffs crashed and the search on the .db never finished.
        bad = tmp_path / name
        bad.write_text(text)
        code, out, err = run(capsys, *[a.format(bad) for a in argv])
        assert code == 2
        assert out == ""
        keyword = text.split()[0]
        assert err == (
            f"error: {bad}:1: '{keyword}' count must be <= {MAX_ELEMENTS}, got {10**30}\n"
        )

    @pytest.mark.parametrize("count", [10**12, MAX_ELEMENTS + 1])
    @pytest.mark.parametrize(
        "name,text,argv",
        [
            ("huge.ffs", "set {}\nfactor X _\n", ["dump", "{}"]),
            ("huge.db", "omega {}\npartition X _\n",
             ["consistent", "--db", "{}", "--max-size", "2"]),
        ],
        ids=["set-count", "omega-count"],
    )
    def test_count_past_the_element_limit(self, capsys, tmp_path, name, text, argv, count):
        # Within any index, but a partition line would build tuples of
        # ``count`` elements: at 10**12 both commands died of MemoryError.
        bad = tmp_path / name
        bad.write_text(text.format(count))
        code, out, err = run(capsys, *[a.format(bad) for a in argv])
        assert code == 2
        assert out == ""
        keyword = text.split()[0]
        assert err == (
            f"error: {bad}:1: '{keyword}' count must be <= {MAX_ELEMENTS}, got {count}\n"
        )

    @pytest.mark.parametrize(
        "name,text,argv,expected",
        [
            ("small.ffs", "set 2\nfactor X !\n", ["dump", "{}"], "set 2\nfactor X !\n"),
            ("small.db", "omega 2\npartition X !\n",
             ["consistent", "--db", "{}", "--max-size", "2"],
             "consistent (witness model of size 1 found)\n"),
        ],
        ids=["set-count", "omega-count"],
    )
    def test_count_within_the_element_limit(
        self, capsys, tmp_path, name, text, argv, expected
    ):
        good = tmp_path / name
        good.write_text(text)
        code, out, _ = run(capsys, *[a.format(good) for a in argv])
        assert (code, out) == (0, expected)

    @pytest.mark.parametrize("token", ["+0", "-0", "0_1", "\u0663"])
    def test_event_token_not_in_ascii_digits(self, capsys, tmp_path, token):
        unlabeled = tmp_path / "grid.ffs"
        unlabeled.write_text("set 4\nfactor X { 0 1 | 2 3 }\nfactor V { 0 2 | 1 3 }\n")
        code, out, err = run(capsys, "orth", str(unlabeled), "X", "V", "--event", token)
        assert code == 2
        assert out == ""
        assert err == f"error: unknown element {token!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [["history", "{}", "--partition", "X"], ["dump", "{}"]],
    )
    def test_not_utf8(self, capsys, tmp_path, argv):
        bad = tmp_path / "latin1.ffs"
        bad.write_bytes("set 4\n# caf\u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, *[a.format(bad) for a in argv])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {bad}:2: not UTF-8 text: invalid continuation byte at byte 11\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["history", "{}", "--partition", "X"],
            ["dump", "{}"],
            ["prob", EX1, "{}", "--event", "00"],
        ],
    )
    def test_directory(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *[a.format(tmp_path) for a in argv])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_path_through_a_file(self, capsys):
        # ex1.ffs is a file, so nothing can lie under it.
        path = os.path.join(EX1, "x")
        code, out, err = run(capsys, "history", path, "--partition", "X")
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {path}: Not a directory\n"

    def test_symlink_loop(self, capsys, tmp_path):
        loop = tmp_path / "loop.ffs"
        loop.symlink_to(loop)
        code, out, err = run(capsys, "history", str(loop), "--partition", "X")
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {loop}: Too many levels of symbolic links\n"

    def test_first_error_in_file_order_is_reported(self, capsys, tmp_path):
        bad = tmp_path / "two-errors.ffs"
        bad.write_text(
            "set 4\nfactor X { 0 1 | 2 3 }\nfactor Y { 0 1 | 2 3 }\n"
            "factor V { 0 2 | 1 3 }\nbogus line\n"
        )
        code, out, err = run(capsys, "history", str(bad), "--partition", "X")
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:3: factor 'Y' duplicates factor 'X'\n"

    def test_dump_reads_the_keyword_after_comments(self, capsys, tmp_path):
        # The comment glued to 'omega' still leaves a database header.
        bad = tmp_path / "glued.db"
        bad.write_text("omega# note\n")
        code, out, err = run(capsys, "dump", str(bad))
        assert code == 2
        assert out == ""
        assert err == f"error: {bad}:1: 'omega' expects one count (at 'omega')\n"


class TestBadFlagCombinations:
    """Flags that contradict each other, or ask the impossible, exit 2 without output."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["orth", EX1, "X", "Y", "--given", "X", "--event", "00"],
             "--given and --event are mutually exclusive"),
            (["poly", EX1, "--event", "", "--factor"],
             "cannot factor the polynomial of an empty event"),
            (["observes", EX1, "--agent", "X", "--world", "Y"],
             "exactly one of --event and --partition is required"),
            (["observes", EX1, "--agent", "X", "--world", "Y", "--event", "00",
              "--partition", "V"],
             "exactly one of --event and --partition is required"),
        ],
        ids=["orth-given-and-event", "poly-factor-empty", "observes-neither",
             "observes-both"],
    )
    def test_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestMapLineErrors:
    """A bad ``map`` line in a model file is reported as ``file:line: message``."""

    def check(self, capsys, tmp_path, map_lines, message, lineno):
        model = tmp_path / "model.ffs"
        model.write_text(
            "set 4\nlabels 00 01 10 11\n"
            "factor X { 00 01 | 10 11 }\nfactor V { 00 11 | 01 10 }\n"
            + "".join(f"map {line}\n" for line in map_lines)
        )
        code, _, err = run(capsys, "check-model", "--model", str(model), "--db", DB1)
        assert code == 2
        assert err.startswith(f"error: {model}:{lineno}: {message}")

    def test_unknown_element(self, capsys, tmp_path):
        self.check(
            capsys, tmp_path, ["00 -> 00", "01 -> 9", "10 -> 10", "11 -> 11"],
            "unknown element '9'", 6,
        )

    def test_element_mapped_twice(self, capsys, tmp_path):
        self.check(
            capsys, tmp_path, ["00 -> 00", "01 -> 01", "00 -> 10", "11 -> 11"],
            "element '00' mapped twice", 7,
        )

    def test_map_leaves_an_element_out(self, capsys, tmp_path):
        self.check(
            capsys, tmp_path, ["00 -> 00", "10 -> 10", "11 -> 11"],
            "map does not cover element '01'", 5,
        )


class TestModelBindingErrors:
    """A model file without ``map`` lines that cannot be bound is named first."""

    def test_labels_missing_from_the_observations(self, capsys):
        code, out, err = run(capsys, "check-model", "--model", EX1, "--db", DB2)
        assert code == 2
        assert out == ""
        assert err == f"error: {EX1}: no map lines, and unknown element '00'\n"

    def test_sizes_differ(self, capsys, tmp_path):
        model = tmp_path / "model.ffs"
        model.write_text("set 2\nfactor A { 0 | 1 }\n")
        code, out, err = run(capsys, "check-model", "--model", str(model), "--db", DB2)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {model}: no map lines, and sizes differ so identity "
            "labeling is impossible\n"
        )


class TestFtVerify:
    def test_small_sweep_agrees(self, capsys):
        code, out, _ = run(
            capsys, "ft-verify", "--max-size", "3", "--trials", "3"
        )
        assert code == 0
        assert "verdict mismatches: 0" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-size", "1"], "--max-size must be at least 2"),
            (["--max-size", "0"], "--max-size must be at least 2"),
            (["--sample", "0"], "--sample must be at least 1"),
            (["--sample", "-1"], "--sample must be at least 1"),
        ],
    )
    def test_sweep_that_checks_nothing_is_an_input_error(self, capsys, flags, message):
        code, out, err = run(capsys, "ft-verify", *flags)
        assert code == 2
        assert "agree" not in out
        assert err == f"error: {message}\n"


def _sample_the_triples(parts, sample, rng):
    """Sample the full list of triples."""
    space = list(itertools.product(parts, repeat=3))
    return rng.sample(space, sample) if len(space) > sample else space


def _decode_listed_partitions(parts, sample, rng):
    """Sample triple indices and decode them into the listed partitions."""
    size = len(parts)
    if size**3 <= sample:
        return itertools.product(parts, repeat=3)
    triples = []
    for i in rng.sample(range(size**3), sample):
        xy, c = divmod(i, size)
        a, b = divmod(xy, size)
        triples.append((parts[a], parts[b], parts[c]))
    return triples


def _materialising_sweep(argv, max_size, sample, seed, trials, pick=_sample_the_triples):
    """ft-verify's sampled sweep as it was, over a list of every partition.

    ``pick`` chooses one factorization's triples from that list.  Returns
    the structured output ``main`` prints for ``argv`` and the (triple,
    seed) pairs the sweep checked.
    """
    rng = random.Random(seed)
    checked = []
    mismatches = missed = 0
    for n in range(2, max_size + 1):
        for fs in enumerate_factorizations(n):
            parts = list(iter_partitions(fs.ground))
            for x, y, z in pick(parts, sample, rng):
                s = rng.randrange(1 << 30)
                report = fundamental_theorem_check(fs, x, y, z, trials=trials, seed=s)
                checked.append((fs, x, y, z, s))
                mismatches += not report.verdicts_agree
                missed += not report.orthogonal and report.independent_trials == report.trials
    results = {
        "max_size": max_size,
        "trials": trials,
        "triples_checked": len(checked),
        "mismatches": mismatches,
        "missed_witnesses": missed,
        "agree": mismatches == 0,
    }
    payload = {"command": argv, "inputs": {}, "results": results, "seed": seed}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n", checked


class TestFtVerifySample:
    @pytest.mark.parametrize("seed,sample", [(1, 7), (7, 30), (1729, 200)])
    def test_matches_sampling_the_materialised_triples(
        self, capsys, monkeypatch, seed, sample
    ):
        argv = [
            "--format", "structured", "ft-verify", "--max-size", "4",
            "--sample", str(sample), "--trials", "2", "--seed", str(seed),
        ]
        expected_out, expected_checked = _materialising_sweep(
            argv, 4, sample, seed, 2
        )
        checked = []

        def recording(fs, x, y, z, trials, seed):
            checked.append((fs, x, y, z, seed))
            return fundamental_theorem_check(fs, x, y, z, trials=trials, seed=seed)

        monkeypatch.setattr(cli, "fundamental_theorem_check", recording)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected_out
        assert checked == expected_checked

    @pytest.mark.parametrize("max_size", [6, 7])
    @pytest.mark.parametrize("seed", [3, 11, 2024])
    def test_unranking_matches_decoding_the_listed_partitions(
        self, capsys, monkeypatch, seed, max_size
    ):
        argv = [
            "--format", "structured", "ft-verify", "--max-size", str(max_size),
            "--sample", "4", "--trials", "2", "--seed", str(seed),
        ]
        expected_out, expected_checked = _materialising_sweep(
            argv, max_size, 4, seed, 2, pick=_decode_listed_partitions
        )
        checked = []

        def recording(fs, x, y, z, trials, seed):
            checked.append((fs, x, y, z, seed))
            return fundamental_theorem_check(fs, x, y, z, trials=trials, seed=seed)

        def never(*args, **kwargs):
            raise AssertionError("a sampled size listed its partitions")

        monkeypatch.setattr(cli, "fundamental_theorem_check", recording)
        monkeypatch.setattr(cli, "iter_partitions", never)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected_out
        assert checked == expected_checked

    def test_exhaustive_size_6_is_refused_before_any_work(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli, "enumerate_factorizations", never)
        code, out, err = run(capsys, "ft-verify", "--max-size", "6")
        assert code == 2
        assert out == ""
        assert err == (
            "error: an exhaustive sweep of sizes 2..6 has 510445288 partition "
            "triples (limit 1000000); cap the triples per factorization with "
            "--sample N\n"
        )

    @pytest.mark.parametrize(
        "max_size,sample,triples",
        [
            # Even one triple per factorization is 13660154 triples up to size 12.
            ("12", "1", 13660154),
            # Sizes 2 and 3 have 8 and 125 triples, fewer than the sample; every
            # factorization of sizes 4..9 counts 200: 133 + 200 * 6789 triples.
            ("9", "200", 1357933),
        ],
    )
    def test_sampled_sweep_past_the_limit_is_refused_before_any_work(
        self, capsys, monkeypatch, max_size, sample, triples
    ):
        def never(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(cli, "enumerate_factorizations", never)
        monkeypatch.setattr(cli, "iter_partitions", never)
        started = time.perf_counter()
        code, out, err = run(
            capsys, "ft-verify", "--max-size", max_size, "--sample", sample
        )
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            f"error: a sweep of sizes 2..{max_size} with --sample {sample} has "
            f"{triples} partition triples (limit 1000000); lower --max-size\n"
        )

    def test_sampled_size_6_runs(self, capsys):
        code, out, _ = run(
            capsys, "--format", "structured", "ft-verify", "--max-size", "6",
            "--sample", "10", "--trials", "2",
        )
        assert code == 0
        results = json.loads(out)["results"]
        # Size 2 has all its 8 triples; the 1 + 4 + 1 + 61 factorizations of
        # sizes 3..6 have 10 sampled triples each.
        assert results["triples_checked"] == 8 + 10 * 67
        assert results["agree"] is True


class TestDump:
    def test_round_trip_through_the_cli(self, capsys, tmp_path):
        for name in ("ex1.ffs", "ex2-model.ffs", "ex1.db", "ex2.db"):
            code, out, _ = run(capsys, "dump", str(data_path(name)))
            assert code == 0
            resaved = tmp_path / name
            resaved.write_text(out)
            code, again, _ = run(capsys, "dump", str(resaved))
            assert code == 0
            assert again == out


def _statement_per_handler_parser():
    """The parser as declared one ``set_defaults`` per subcommand, kept as an oracle."""
    parser = argparse.ArgumentParser(
        prog="factoredsets",
        description="Factored-set queries, verification sweeps, and bounded temporal inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-fact", help="count the factorizations of an n-element set")
    p.add_argument("n", type=cli._integer)
    p.set_defaults(handler=cli._cmd_count_fact)

    p = sub.add_parser("enum-fact", help="list the factorizations of an n-element set")
    p.add_argument("n", type=cli._integer)
    p.add_argument("--limit", type=cli._integer, default=None)
    p.set_defaults(handler=cli._cmd_enum_fact)

    p = sub.add_parser("history", help="smallest factor set generating a partition")
    p.add_argument("file")
    p.add_argument("--partition", required=True)
    p.set_defaults(handler=cli._cmd_history)

    p = sub.add_parser("orth", help="orthogonality of two named partitions")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--given", help="conditioning partition name")
    p.add_argument("--event", help="conditioning event, e.g. \"00 01\"")
    p.set_defaults(handler=cli._cmd_orth)

    p = sub.add_parser("before", help="temporal comparison of two named partitions")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--given-event", dest="given_event")
    p.set_defaults(handler=cli._cmd_before)

    p = sub.add_parser("poly", help="characteristic polynomial of an event")
    p.add_argument("file")
    p.add_argument("--event", required=True)
    p.add_argument("--factor", action="store_true", help="factor into irreducibles")
    p.set_defaults(handler=cli._cmd_poly)

    p = sub.add_parser("prob", help="exact probability of an event under weights")
    p.add_argument("file")
    p.add_argument("dist")
    p.add_argument("--event", required=True)
    p.set_defaults(handler=cli._cmd_prob)

    p = sub.add_parser(
        "ft-verify",
        help="sweep orthogonality vs. polynomial identity vs. sampled independence",
    )
    p.add_argument("--max-size", type=cli._integer, default=4, dest="max_size")
    p.add_argument("--seed", type=cli._integer, default=cli.DEFAULT_SEED)
    p.add_argument("--trials", type=cli._integer, default=5)
    p.add_argument(
        "--sample", type=cli._integer, default=None,
        help="cap on partition triples per factorization (default: exhaustive)",
    )
    p.set_defaults(handler=cli._cmd_ft_verify)

    p = sub.add_parser("check-model", help="check a model file against a database")
    p.add_argument("--model", required=True)
    p.add_argument("--db", required=True)
    p.set_defaults(handler=cli._cmd_check_model)

    p = sub.add_parser("infer", help="temporal inference over all models within bounds")
    p.add_argument("--db", required=True)
    p.add_argument("--before", nargs=2, metavar=("A", "B"), required=True)
    p.add_argument("--max-size", type=cli._integer, required=True, dest="max_size")
    p.add_argument("--max-dim", type=cli._integer, default=None, dest="max_dim")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--time-budget", type=cli._seconds, default=None, dest="time_budget")
    p.add_argument(
        "--non-strict", action="store_true",
        help="test history containment instead of strict containment",
    )
    p.set_defaults(handler=cli._cmd_infer)

    p = sub.add_parser("consistent", help="search for any model of a database")
    p.add_argument("--db", required=True)
    p.add_argument("--max-size", type=cli._integer, required=True, dest="max_size")
    p.add_argument("--max-dim", type=cli._integer, default=None, dest="max_dim")
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--time-budget", type=cli._seconds, default=None, dest="time_budget")
    p.set_defaults(handler=cli._cmd_consistent)

    p = sub.add_parser("observes", help="observation predicates for an agent partition")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--event")
    p.add_argument("--partition")
    p.add_argument("--world", required=True)
    p.set_defaults(handler=cli._cmd_observes)

    p = sub.add_parser("counterfactable", help="counterfactability of a partition")
    p.add_argument("file")
    p.add_argument("partition")
    p.add_argument("--relative-to", dest="relative_to")
    p.set_defaults(handler=cli._cmd_counterfactable)

    p = sub.add_parser("dump", help="re-emit a file in canonical form")
    p.add_argument("file")
    p.set_defaults(handler=cli._cmd_dump)

    # One --format, before or after the subcommand.  A subcommand's copy sets
    # nothing unless given, so it never overwrites a leading --format.
    for p in (parser, *sub.choices.values()):
        p.add_argument(
            "--format", choices=("text", "structured"),
            default="text" if p is parser else argparse.SUPPRESS,
            help="output format; 'structured' is deterministic JSON",
        )
    return parser


def _parser_facts(parser):
    """Help text, actions and handler of a parser and of each subcommand."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    facts = []
    for name, p in [("", parser), *sub.choices.items()]:
        actions = [
            (a.option_strings, a.dest, a.default, a.required, a.nargs, a.type,
             None if a.choices is None else list(a.choices))
            for a in p._actions
        ]
        facts.append((name, p.format_help(), actions, p.get_default("handler")))
    return facts


class TestParserOracle:
    def test_same_help_actions_and_handlers(self):
        old = _parser_facts(_statement_per_handler_parser())
        new = _parser_facts(cli.build_parser())
        assert len(new) == 15
        assert [f[0] for f in new] == [f[0] for f in old]
        for got, want in zip(new, old):
            assert got == want
