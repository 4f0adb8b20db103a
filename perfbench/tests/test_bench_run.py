"""The benchmark driver, the child-side probe and the tracer."""

import json
import shutil
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import child
import run
import tracing

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


class TinyVerify(run.Workload):
    """verify on the complete 4-vertex corpus: a run of well under a second."""

    name = "tiny-verify"
    tail_pct = 50.0

    def job(self, k):
        return ["verify", "--corpus", "exhaustive-4", "--theorems", "all"], None

    def check(self, report, expected):
        run._check_all_passed(report)


class SmallTopForcing(run.TopForcing10):
    GRAPHS = 12


def _inject(tmp_path, monkeypatch, block_body: str) -> None:
    """Make every child interpreter replace block thm13 at start-up."""
    (tmp_path / "sitecustomize.py").write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from matchforce import harness\n"
        "def _block(ctx):\n"
        f"    {block_body}\n"
        "harness._BLOCKS['thm13'] = _block\n"
    )
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))


def test_clean_run_is_correct(tmp_path):
    result = run.run(TinyVerify, 1, 0, False, out=tmp_path)
    assert result["correct"]
    assert result["attempted"] == 64 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["meta"]["backend"] in ("pure", "compiled")


def test_crashing_block_counts_as_errored(tmp_path, monkeypatch):
    _inject(tmp_path, monkeypatch, "raise RuntimeError('injected')")
    result = run.run(TinyVerify, 1, 0, False, out=tmp_path)
    assert result["failed_frac"] > 0
    assert result["errored"] == 37 and result["refuted"] == 0
    assert not result["correct"]
    assert "RuntimeError: injected" in result["errors"][0]


def test_refuting_block_counts_as_refuted(tmp_path, monkeypatch):
    _inject(tmp_path, monkeypatch, "return 1, False")
    result = run.run(TinyVerify, 1, 0, False, out=tmp_path)
    assert result["failed_frac"] > 0
    assert result["refuted"] == 37 and result["errored"] == 0
    assert not result["correct"]


class MissingCorpus(run.Exhaustive6):
    """verify on a corpus file that does not exist: every invocation fails."""

    name = "missing-corpus"

    def job(self, k):
        return ["verify", "--corpus", "no-such-corpus.g6"], None


def test_failed_invocation_ends_the_run(tmp_path):
    for trace in (False, True):
        result = run.run(MissingCorpus, 1, 30, trace, out=tmp_path)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] == 1 + trace
        assert "exit code 1" in result["problems"][0]
        json.dumps(result["metrics"], allow_nan=False)


def test_traced_runs_repeat_counters_and_digests(tmp_path):
    plain = run.run(SmallTopForcing, 4, 0, False, out=tmp_path / "plain")
    first = run.run(SmallTopForcing, 4, 0, True, out=tmp_path / "a")
    second = run.run(SmallTopForcing, 4, 0, True, out=tmp_path / "b")
    assert plain["correct"] and first["correct"] and second["correct"]
    # same job, same report bytes, with or without the tracer
    assert first["report_sha256"]["0"] == plain["report_sha256"]["0"]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if run.is_count(k)}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["harness.check_graph.calls"] == SmallTopForcing.GRAPHS
    assert counts[0]["switch.build_switch_graph.calls"] == SmallTopForcing.GRAPHS
    assert set(first["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    spans_file = next((tmp_path / "a").glob("*/spans-0.jsonl"))
    spans = [json.loads(line) for line in spans_file.open()]
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    # spans inside a graph's check carry its index, the rest none
    assert {s["request"] for s in spans} == set(range(SmallTopForcing.GRAPHS)) | {None}


def _snapshot():
    import matchforce
    from matchforce import cli, harness  # noqa: F401  (cli is patched too)

    mods = {n: m for n, m in sys.modules.items() if n == "matchforce" or n.startswith("matchforce.")}
    state = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    state.update({("_GraphContext", k): v for k, v in vars(harness._GraphContext).items()})
    return matchforce, state


def test_tracer_restores_every_attribute(capsys):
    matchforce, before = _snapshot()
    from matchforce import graph, harness

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert harness.check_graph is not before[("matchforce.harness", "check_graph")]
        assert isinstance(vars(harness._GraphContext)["profile"], cached_property)
    finally:
        tracer.uninstall()
    code, probe = child.invoke(["verify", "--corpus", "exhaustive-3"], tracing.Tracer())
    capsys.readouterr()
    assert code == 0 and probe.graphs == 8
    _, after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert graph._kernel_cached.cache_info().currsize == 0


def test_without_sources_exits_nonzero_silently(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhaustive-6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_file_matches_the_code():
    bench = _benchmark()
    assert [m["name"] for m in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == run.per_layer_names()
