import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import matchforce
from matchforce import _core, cli, graphio, harness, to_edge_list, to_graph6
from matchforce.cli import main

from graphs import cycle_graph, path_graph, star_graph
from test_reach import FAMILIES


def count_calls(monkeypatch, func) -> list:
    """Count calls of `func` through every matchforce module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "matchforce" and vars(mod).get(func.__name__) is func:
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestAnalyze:
    def test_k33_graph6_profile(self, capsys, monkeypatch, k33):
        code, out, _ = run(
            capsys,
            ["analyze", "--format", "graph6", "--profile", "--classify"],
            stdin=to_graph6(k33) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        record = json.loads(out)
        assert record["schema"] == "matchforce-report/v2"
        assert record["sections"]["profile"]["spectrum"] == [2]
        assert record["sections"]["classification"]["tag"] == "CompleteMultipartite"

    def test_c6_edge_list_default_format(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["analyze", "--profile", "--classify"],
            stdin=to_edge_list(cycle_graph(6)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        record = json.loads(out)
        assert record["sections"]["profile"]["spectrum"] == [1]
        assert record["sections"]["classification"]["tag"] == "Neither"

    def test_all_sections_by_default(self, capsys, monkeypatch, k4):
        code, out, _ = run(
            capsys,
            ["analyze", "--format", "graph6"],
            stdin=to_graph6(k4) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        record = json.loads(out)
        assert set(record["sections"]) == {
            "profile",
            "classification",
            "extendability",
            "switch",
        }
        assert record["sections"]["switch"]["reach_max"] is True
        assert record["sections"]["extendability"]["extendable"]["1"] is True

    def test_extend_probes_bicriticality_once(self, capsys, monkeypatch, k6):
        # the brick entry reuses the section's bicriticality and vertex
        # connectivity, so the kernel runs its probes once
        probed = []
        for cls in (_core.pure.Kernel, _core.NativeKernel):
            def counted(self, original=cls.__dict__["bicritical"]):
                probed.append(type(self))
                return original(self)

            monkeypatch.setattr(cls, "bicritical", counted)
        code, out, _ = run(
            capsys,
            ["analyze", "--format", "graph6", "--extend"],
            stdin=to_graph6(k6) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        section = json.loads(out)["sections"]["extendability"]
        assert (section["bicritical"], section["brick"]) == (True, True)
        assert probed == [type(_core.make_kernel(k6.rows))]

    def test_no_pm_exit_2(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["analyze", "--profile"],
            stdin=to_edge_list(star_graph(3)),
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_graph6_limit_checked_before_work(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the profile ran before the graph6 check")

        monkeypatch.setattr("matchforce.cli.forcing_profile", unreachable)
        code, out, err = run(
            capsys,
            ["analyze", "--profile"],
            stdin=to_edge_list(path_graph(64)),
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert out == ""
        assert "graph6 output supports order <= 62" in err

    def test_csv_has_no_graph6_limit(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["analyze", "--profile", "--csv"],
            stdin=to_edge_list(path_graph(64)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out

    def test_odd_order_exit_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys,
            ["analyze", "--profile"],
            stdin=to_edge_list(cycle_graph(5)),
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_extend_without_pm_still_reports(self, capsys, monkeypatch):
        # K_{1,3} has no perfect matching but extendability still summarizes
        code, out, _ = run(
            capsys,
            ["analyze", "--extend"],
            stdin=to_edge_list(star_graph(3)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        section = json.loads(out)["sections"]["extendability"]
        assert section["extendable"]["1"] is False
        assert section["deficiency"] is None

    def test_parse_error_exit_1(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            ["analyze", "--format", "graph6"],
            stdin="~~~not graph6\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert "parse error" in err

    def test_second_graph6_graph_exit_1(self, capsys, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text("C~\nE?~w\n")
        code = main(["analyze", "--format", "graph6", str(path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "second graph at line 2 (byte 3)" in err

    def test_cap_exceeded_exit_3(self, capsys, monkeypatch, k6):
        monkeypatch.setenv("MATCHFORCE_MATCHING_CAP", "3")
        code, _, _ = run(
            capsys,
            ["analyze", "--format", "graph6", "--profile"],
            stdin=to_graph6(k6) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 3

    @pytest.mark.parametrize("raw", ["-2", "0", "abc"])
    def test_bad_cap_exit_1(self, capsys, monkeypatch, k6, raw):
        monkeypatch.setenv("MATCHFORCE_MATCHING_CAP", raw)
        code, out, err = run(
            capsys,
            ["analyze", "--format", "graph6", "--profile"],
            stdin=to_graph6(k6) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert out == ""
        assert f"MATCHFORCE_MATCHING_CAP must be a positive integer, got '{raw}'" in err

    def test_empty_cap_means_default(self, capsys, monkeypatch, k6):
        monkeypatch.setenv("MATCHFORCE_MATCHING_CAP", "")
        code, _, _ = run(
            capsys,
            ["analyze", "--format", "graph6", "--profile"],
            stdin=to_graph6(k6) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_missing_input_exit_1(self, capsys, tmp_path):
        path = tmp_path / "missing.g6"
        code, out, err = run(capsys, ["analyze", str(path), "--format", "graph6"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"parse error: cannot read input {str(path)!r}")

    def test_directory_input_exit_1(self, capsys, tmp_path):
        code, out, err = run(capsys, ["analyze", str(tmp_path), "--format", "graph6"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"parse error: cannot read input {str(tmp_path)!r}")

    def test_csv_output(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            ["analyze", "--profile", "--csv"],
            stdin=to_edge_list(cycle_graph(6)),
            monkeypatch=monkeypatch,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "matching,forcing"
        assert lines[1] == "0-1 2-3 4-5,1"

    def _forbid_non_profile_sections(self, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("a non-profile section was computed")

        for name in (
            "build_switch_graph",
            "classify_min_forcing",
            "_extendability_section",
        ):
            monkeypatch.setattr(cli, name, computed)

    def test_csv_computes_only_the_profile(self, capsys, monkeypatch):
        text = to_edge_list(cycle_graph(8))
        _, expected, _ = run(
            capsys, ["analyze", "--profile", "--csv"], stdin=text, monkeypatch=monkeypatch
        )
        self._forbid_non_profile_sections(monkeypatch)
        code, out, _ = run(capsys, ["analyze", "--csv"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert out == expected

    def test_csv_without_profile_fails_before_sections(self, capsys, monkeypatch):
        self._forbid_non_profile_sections(monkeypatch)
        code, out, err = run(
            capsys,
            ["analyze", "--classify", "--extend", "--csv"],
            stdin=to_edge_list(cycle_graph(6)),
            monkeypatch=monkeypatch,
        )
        assert code == 1
        assert out == ""
        assert "--csv needs the forcing profile section" in err

    def test_file_input(self, capsys, tmp_path, k33):
        path = tmp_path / "g.g6"
        path.write_text(to_graph6(k33) + "\n")
        code = main(["analyze", str(path), "--format", "graph6", "--classify"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["sections"]["classification"]["tag"] == (
            "CompleteMultipartite"
        )


def _generator_sweep():
    """Every `generate` argv the sweep digest covers: the reach families,
    every ladder H(n, k) for n <= 7, every parallel-pair set for n <= 4,
    and both non-2-extendable cases under each of their options."""
    runs = [list(family) for family in FAMILIES]
    for n in range(1, 8):
        runs += [["hk", "--n", str(n), "--k", str(k)] for k in range((n + 1) // 2)]
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            chosen = [f"{i}-{j}" for b, (i, j) in enumerate(pairs) if mask >> b & 1]
            runs.append(["signature", "--n", str(n), "--parallel", ",".join(chosen)])
    for n in range(4, 7):
        for opts in (
            [],
            ["--u-edges", "0-1,1-2,2-3"],
            ["--u-edges", "0-2,1-3"],
            ["--u-edges", "0-1"],
            ["--triangle", "0,1,2"],
            ["--triangle", "0,2,3"],
            ["--parallel-index", "-1"],
            ["--extra-v", "0-3"],
        ):
            runs.append(["non2ext", "--case", "i", "--n", str(n), *opts])
    for n in range(3, 7):
        pivot = n - 1
        for opts in (
            [],
            ["--u-edges", "0-1"],
            ["--triangle", "0,1,2"],
            ["--parallel-index", "-1"],
            ["--parallel-index", str(n - 2)],
            ["--extra-v", f"{n - 2}-{pivot}"],
            ["--parallel-index", "-1", "--u-edges", "0-1", "--extra-v", f"0-{pivot}"],
            ["--u-edges", "0-1", "--extra-v", f"1-{pivot}"],
        ):
            runs.append(["non2ext", "--case", "ii", "--n", str(n), *opts])
    return runs


# sha256 over every sweep run's argv, exit code and stdout; a change to
# any generated graph, its m0 line or which options are refused moves it
GENERATOR_SWEEP_SHA256 = (
    "fd9b8a8234d651eff59bd2832ffb6f02d39fbcc314b93108b58fbca12f2af558"
)


class TestGenerate:
    def test_hk_regular(self, capsys):
        code = main(["generate", "hk", "--n", "6", "--k", "2"])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# m0:")
        from matchforce import parse_graph6

        g = parse_graph6(lines[1])
        assert g.order == 12
        assert all(g.degree(v) == 6 for v in range(12))

    def test_multipartite(self, capsys):
        code = main(
            ["generate", "multipartite", "--sizes", "2,2,2", "--format", "edge-list"]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.startswith("6 12\n")

    def test_hk_bad_k_exit_1(self, capsys):
        code = main(["generate", "hk", "--n", "4", "--k", "3"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "out of range" in err

    def test_generate_pipes_into_analyze(self, capsys, monkeypatch):
        for argv in (
            ["generate", "hk", "--n", "3", "--k", "1"],
            ["generate", "knnplus", "--n", "3", "--extra", "3-4"],
            ["generate", "signature", "--n", "3", "--parallel", "0-1"],
            ["generate", "non2ext", "--case", "ii", "--n", "3"],
            ["generate", "random", "--order", "6", "--p", "1/2", "--seed", "9"],
            ["generate", "multipartite", "--sizes", "3,3"],
        ):
            code = main(argv)
            out, _ = capsys.readouterr()
            assert code == 0
            code2, out2, _ = run(
                capsys,
                ["analyze", "--format", "graph6", "--classify"],
                stdin=out,
                monkeypatch=monkeypatch,
            )
            if code2 == 2:  # random graphs may lack a perfect matching
                continue
            assert code2 == 0 and json.loads(out2)["sections"]["classification"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["signature", "--n", "3", "--parallel", "0-1,1-0"], "(1, 0) repeated"),
            (["signature", "--n", "3", "--parallel", "0-3"], "(0, 3) out of range"),
            (
                ["non2ext", "--case", "i", "--n", "4", "--u-edges", "0-1,2-3,3-2"],
                "(3, 2) repeated",
            ),
            (
                ["non2ext", "--case", "ii", "--n", "4", "--extra-v", "1-3,3-1"],
                "(3, 1) repeated",
            ),
            (
                ["non2ext", "--case", "i", "--n", "4", "--parallel-index", "0"],
                "case i takes no parallel_index",
            ),
            (
                ["non2ext", "--case", "i", "--n", "4", "--extra-v", "0-3"],
                "case i takes no extra_v_edges",
            ),
            (
                ["non2ext", "--case", "ii", "--n", "3", "--triangle", "0,1,2"],
                "case ii takes no triangle",
            ),
        ],
    )
    def test_bad_pair_exit_1(self, capsys, argv, message):
        code = main(["generate", *argv])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert message in err

    def test_generator_sweep_digest(self, capsys):
        digest = hashlib.sha256()
        for argv in _generator_sweep():
            code = main(["generate", *argv])
            out, _ = capsys.readouterr()
            digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
        assert digest.hexdigest() == GENERATOR_SWEEP_SHA256

    def test_random_deterministic(self, capsys):
        main(["generate", "random", "--order", "8", "--p", "1/2", "--seed", "5"])
        out1, _ = capsys.readouterr()
        main(["generate", "random", "--order", "8", "--p", "1/2", "--seed", "5"])
        out2, _ = capsys.readouterr()
        assert out1 == out2


class TestVerify:
    def test_exhaustive_4_passes(self, capsys):
        code = main(["verify", "--corpus", "exhaustive-4"])
        out, _ = capsys.readouterr()
        assert code == 0
        record = json.loads(out)
        assert record["graphs_total"] == 64
        assert all(b["passed"] == b["checked"] for b in record["blocks"])

    def test_runs_as_a_module(self, capsys):
        argv = ["verify", "--corpus", "exhaustive-4"]
        env = dict(os.environ, PYTHONPATH=str(Path(matchforce.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "matchforce", *argv], capture_output=True, env=env
        )
        assert main(argv) == 0
        out, _ = capsys.readouterr()
        assert proc.returncode == 0
        assert proc.stdout == out.encode()

    def test_theorem_selection(self, capsys):
        code = main(["verify", "--corpus", "exhaustive-3", "--theorems", "thm33"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert [b["theorem"] for b in json.loads(out)["blocks"]] == ["thm33"]

    def test_theorem_list_with_spaces(self, capsys):
        code = main(
            ["verify", "--corpus", "exhaustive-3", "--theorems", "thm13, lemma22"]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        blocks = [b["theorem"] for b in json.loads(out)["blocks"]]
        assert blocks == ["thm13", "lemma22"]

    def test_repeated_theorem_exit_1(self, capsys):
        code = main(
            ["verify", "--corpus", "exhaustive-3", "--theorems", "thm13,thm13"]
        )
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "'thm13' selected twice" in err

    def test_worker_determinism(self, capsys):
        main(["verify", "--corpus", "exhaustive-4", "--workers", "1"])
        out1, _ = capsys.readouterr()
        main(["verify", "--corpus", "exhaustive-4", "--workers", "4"])
        out2, _ = capsys.readouterr()
        assert out1 == out2

    def test_corpus_file(self, capsys, tmp_path, k33, c6):
        path = tmp_path / "corpus.g6"
        path.write_text(to_graph6(k33) + "\n" + to_graph6(c6) + "\n")
        code = main(["verify", "--corpus", str(path)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["graphs_total"] == 2

    def test_builtin_corpus_is_never_graph6(self, capsys, monkeypatch):
        parses = count_calls(monkeypatch, graphio.parse_graph6)
        encodes = count_calls(monkeypatch, graphio.to_graph6)
        assert main(["verify", "--corpus", "exhaustive-4"]) == 0
        capsys.readouterr()
        assert (len(parses), len(encodes)) == (0, 0)

    def test_file_corpus_parsed_once_per_line(self, capsys, monkeypatch, tmp_path, k33, c6):
        path = tmp_path / "corpus.g6"
        path.write_text(f"# two graphs\n{to_graph6(k33)}\n\n{to_graph6(c6)}\n")
        parses = count_calls(monkeypatch, graphio.parse_graph6)
        encodes = count_calls(monkeypatch, graphio.to_graph6)
        # refute lemma23 on K33 alone (C6 has F < n - 1, so the block skips it)
        monkeypatch.setattr(harness, "vertex_connectivity", lambda g: 0)
        code = main(["verify", "--corpus", str(path), "--theorems", "lemma23"])
        out, _ = capsys.readouterr()
        assert code == 1
        (block,) = json.loads(out)["blocks"]
        assert block["counterexamples"] == [to_graph6(k33)]
        assert len(parses) == 2
        assert encodes == [(k33,)]

    def test_unreadable_corpus_exit_1(self, capsys, tmp_path):
        code = main(["verify", "--corpus", str(tmp_path / "missing.g6")])
        _, err = capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize(
        "name, message",
        [
            ("exhaustive-9", "exhaustive corpora exist for orders 1..6"),
            ("families-99", "unknown builtin corpus 'families-99'"),
        ],
    )
    def test_bad_builtin_name_exit_1(self, capsys, name, message):
        code = main(["verify", "--corpus", name])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert message in err
        assert "parse error" not in err

    def test_corpus_directory_exit_1(self, capsys, tmp_path):
        code = main(["verify", "--corpus", str(tmp_path)])
        _, err = capsys.readouterr()
        assert code == 1
        assert "cannot read corpus" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, capsys, workers):
        code = main(["verify", "--corpus", "exhaustive-3", "--workers", workers])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert f"worker count must be at least 1, got {workers}" in err

    def test_usage_error_exit_1(self, capsys):
        code = main(["verify", "--workers", "x"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "error" in err
