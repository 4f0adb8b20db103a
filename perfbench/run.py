#!/usr/bin/env python3
"""The matchforce benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing is installed.  Every timed invocation is a fresh
interpreter running one ``matchforce`` CLI command, one at a time, with no
worker pool (`child.py` observes it from inside).  Inputs are made by this
benchmark's own generators (`gen.py`) from ``--seed``; the program only
ever sees graph6 text.

Workloads:

- ``exhaustive-6``: ``verify --corpus exhaustive-6`` with all blocks, the
  complete corpus of 32768 labelled 6-vertex graphs (the seed is unused).
  Per-graph fixed costs dominate: graph6 parse, validation, the matching
  test and block dispatch.
- ``top-forcing-10``: ``verify --corpus FILE.g6`` with all blocks over a
  seeded sample of order-10 graphs with maximum forcing number n - 1, so
  every top-gated block and the switch-graph build run on every graph.
- ``analyze-14``: one ``analyze --format graph6 --profile --switch FILE``
  invocation per seeded dense order-14 graph (edge probability 2/3, 4000 to
  4200 perfect matchings): deep kernel memos, switch graphs with tens of
  thousands of edges and multi-megabyte reports.

Per-graph latency is one ``harness.check_graph`` call for verify and one
invocation for analyze.  The tail is a fixed percentile per workload that
the fewest samples a run may take leaves at least ten samples beyond: p99
on exhaustive-6 (32768 graphs per invocation), p95 on top-forcing-10 (200)
and only the median on analyze-14, whose runs hold 20 to 35 invocations.

With ``--trace 0`` a run repeats invocations for ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced invocations of a fixed job and reports per-layer counts and
times (see `tracing.py`) plus the tracing overhead.  Every report is
checked; the report digests, failures and run metadata are written to
``perfbench/out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from tracing import SHARED, function_keys  # noqa: E402

# A run stops starting invocations after this many seconds, whatever
# --seconds says, so that it ends well within three minutes.
HARD_LIMIT_S = 150.0
INVOCATION_TIMEOUT_S = 170.0

# the harness's theorem blocks, all of which every verify report must hold
THEOREM_IDS = (
    "thm13", "lemma22", "lemma23", "lemma25", "thm33",
    "thm41", "cor52", "lemma56", "thm57", "lemma22min",
)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str
    # tail percentile; a run takes samples until ten lie beyond it
    tail_pct: float

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir

    def job(self, k: int) -> tuple[list[str], object]:
        """CLI arguments of the k-th invocation, and what its check needs."""
        raise NotImplementedError

    def trace_jobs(self) -> list[int]:
        return [0]

    def check(self, report: dict, expected) -> None:
        """Raise CheckFailed unless the report is right."""
        raise NotImplementedError

    @property
    def min_samples(self) -> int:
        return math.ceil(10 / (1 - self.tail_pct / 100) - 1e-9)


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _blocks(report: dict) -> dict:
    return {b["theorem"]: b for b in report["blocks"]}


def _check_all_passed(report: dict) -> None:
    blocks = _blocks(report)
    _require(set(blocks) == set(THEOREM_IDS), f"blocks {sorted(blocks)}")
    for theorem, b in blocks.items():
        _require(b["passed"] == b["checked"], f"{theorem} passed {b['passed']} of {b['checked']}")
        _require(not b["counterexamples"], f"{theorem} has counterexamples")


class Exhaustive6(Workload):
    name = "exhaustive-6"
    # p99.9 would leave 32 samples beyond per invocation, but calls of about
    # a millisecond are the ones CPU steal stretches: over ten seeds on a
    # contended 2-vCPU machine p99.9 spread 13%, against 4.7% for the median
    tail_pct = 99.0
    # report counts of the complete corpus
    EXPECTED = {"thm13": 2200, "lemma23": 1696, "thm41": 1546}

    def job(self, k):
        return ["verify", "--corpus", "exhaustive-6", "--theorems", "all"], None

    def check(self, report, expected):
        _require(report["graphs_total"] == 32768, f"graphs_total {report['graphs_total']}")
        _require(report["graphs_with_pm"] == 24823, f"graphs_with_pm {report['graphs_with_pm']}")
        _check_all_passed(report)
        blocks = _blocks(report)
        for theorem, checked in self.EXPECTED.items():
            _require(blocks[theorem]["checked"] == checked, f"{theorem} checked {blocks[theorem]['checked']}")


class TopForcing10(Workload):
    name = "top-forcing-10"
    tail_pct = 95.0
    GRAPHS = 200
    # blocks gated on F(G) = n - 1 that must see every graph
    TOP_GATED = ("cor52", "lemma23", "lemma25", "lemma56")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._stream = gen.top_forcing_graphs(seed)
        self._corpora: list[str] = []

    def job(self, k):
        """Invocation k checks the k-th batch of the seed's graph stream."""
        while len(self._corpora) <= k:
            batch = [next(self._stream)[0] for _ in range(self.GRAPHS)]
            self._corpora.append("".join(g6 + "\n" for g6 in batch))
        path = self.workdir / "top-forcing-10.g6"
        path.write_text(self._corpora[k])
        return ["verify", "--corpus", str(path), "--theorems", "all"], None

    def check(self, report, expected):
        _require(report["graphs_total"] == self.GRAPHS, f"graphs_total {report['graphs_total']}")
        _require(report["graphs_with_pm"] == self.GRAPHS, f"graphs_with_pm {report['graphs_with_pm']}")
        _check_all_passed(report)
        blocks = _blocks(report)
        for theorem in self.TOP_GATED:
            _require(blocks[theorem]["checked"] == self.GRAPHS, f"{theorem} checked {blocks[theorem]['checked']}")


class Analyze14(Workload):
    name = "analyze-14"
    tail_pct = 50.0
    ORDER = 14
    # matching counts kept; a narrow band keeps per-graph cost even, so a
    # run's figures depend little on which graphs the seed drew
    BAND = (4000, 4200)
    TRACE_GRAPHS = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._stream = gen.dense_graphs(seed, self.ORDER, self.BAND)
        self._graphs: list[tuple[str, int]] = []

    def job(self, k):
        while len(self._graphs) <= k:
            self._graphs.append(next(self._stream))
        g6, count = self._graphs[k]
        path = self.workdir / f"graph-{k}.g6"
        path.write_text(g6 + "\n")
        args = ["analyze", "--format", "graph6", "--profile", "--switch", str(path)]
        return args, (g6, count)

    def trace_jobs(self):
        return list(range(self.TRACE_GRAPHS))

    def check(self, report, expected):
        g6, count = expected
        n = self.ORDER // 2
        _require(report.get("kind") == "analysis", "not an analysis record")
        _require(report["graph6"] == g6, f"graph6 {report['graph6']} for input {g6}")
        profile = report["sections"]["profile"]
        switch = report["sections"]["switch"]
        _require(profile["matching_count"] == count, f"matching_count {profile['matching_count']}, expected {count}")
        _require(len(switch["nodes"]) == count, f"{len(switch['nodes'])} switch nodes, expected {count}")
        spectrum = profile["spectrum"]
        _require(bool(spectrum) and all(0 <= f <= n - 1 for f in spectrum), f"spectrum {spectrum}")
        _require(len(switch["forcing"]) == count, "forcing list length")


WORKLOADS = {w.name: w for w in (Exhaustive6, TopForcing10, Analyze14)}


# ---------------------------------------------------------------------------
# invocations


@dataclass
class Invocation:
    k: int
    exit_code: int
    wall_s: float
    setup_s: float | None
    graph_s: float | None
    latencies: list[float]
    graphs: int
    errored: int
    refuted: int
    maxrss_mb: float
    digest: str
    check_error: str | None
    record: dict = field(repr=False)

    @property
    def failed(self) -> int:
        """Graphs counted as failed: errored or refuted ones, and at least
        one for a nonzero exit or a failed output check."""
        bad = self.errored + self.refuted
        if bad == 0 and (self.exit_code != 0 or self.check_error is not None):
            bad = 1
        return bad


def invoke(workload: Workload, k: int, traced: bool, deadline: float, spans: Path | None = None) -> Invocation:
    args, expected = workload.job(k)
    record_path = workload.workdir / f"record-{k}-{int(traced)}.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), "--record", str(record_path)]
    if traced:
        cmd += ["--trace", "--request", str(k)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
    cmd += ["--", *args]
    timeout = max(5.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    wall = time.perf_counter() - spawned

    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    check_error = None
    if timed_out:
        check_error = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        check_error = f"exit code {proc.returncode}: {err.decode(errors='replace')[-400:]}"
    else:
        try:
            workload.check(json.loads(out), expected)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            check_error = f"{type(exc).__name__}: {exc}"

    first_start = record.get("first_start")
    last_end = record.get("last_end")
    loaded_at = record.get("loaded_at")
    if first_start is not None:  # verify: setup ends when the first graph is checked
        setup = first_start - spawned
        graph_s = last_end - first_start
        latencies = record["latencies"]
        graphs = record["graphs"]
    else:  # analyze: setup ends when the graph is loaded; one graph per invocation
        setup = None if loaded_at is None else loaded_at - spawned
        graph_s = None if setup is None else wall - setup
        latencies = [wall]
        graphs = 1
    return Invocation(
        k=k,
        exit_code=proc.returncode,
        wall_s=wall,
        setup_s=setup,
        graph_s=graph_s,
        latencies=latencies,
        graphs=graphs,
        errored=record.get("errored", 0),
        refuted=record.get("refuted", 0),
        maxrss_mb=record.get("maxrss_kb", 0) / 1024,
        digest=hashlib.sha256(out).hexdigest(),
        check_error=check_error,
        record=record,
    )


# ---------------------------------------------------------------------------
# metrics


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of already sorted values (0 for none,
    which only a failed run has)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def end_to_end(workload: Workload, invs: list[Invocation]) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and notes for the log."""
    lat = sorted(x for inv in invs for x in inv.latencies)
    graphs = sum(inv.graphs for inv in invs)
    graph_s = sum(inv.graph_s or 0.0 for inv in invs)
    setups = [inv.setup_s for inv in invs if inv.setup_s is not None]
    beyond = sum(1 for x in lat if x > percentile(lat, workload.tail_pct))
    metrics = {
        "graphs_per_s": (graphs / graph_s if graph_s > 0 else 0.0, "1/s"),
        "graph_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "graph_tail_ms": (percentile(lat, workload.tail_pct) * 1e3, "ms"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (statistics.median(inv.maxrss_mb for inv in invs), "MB"),
    }
    notes = {
        "graph_tail_ms": f"p{workload.tail_pct:g} of {len(lat)} samples, {beyond} beyond it",
        "setup_s": f"median of {len(setups)} invocations",
        "peak_rss_mb": f"median of {len(invs)} invocations",
    }
    return metrics, notes


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for key in function_keys():
        if key.startswith("harness.shared."):
            continue
        out += [(f"{key}.calls", "count", "lower"), (f"{key}.s", "s", "lower"), (f"{key}.self_s", "s", "lower")]
    out += [
        ("graphio.parse_per_graph", "1/graph", "lower"),
        ("graph.enumerations_per_graph", "1/graph", "lower"),
        ("graph.enumerate_perfect_matchings.matchings", "count", "lower"),
        ("graph.alternating_four_cycles.cycles", "count", "lower"),
        ("core.forcing_scan.tested", "count", "lower"),
        ("core.forcing_scan.found_frac", "ratio", "higher"),
        ("forcing.nodes_explored", "count", "lower"),
        ("forcing.lower_bound_tight_frac", "ratio", "higher"),
        ("switch.nodes", "count", "lower"),
        ("switch.edges", "count", "lower"),
        ("switch.apply_cycle_per_edge", "ratio", "lower"),
        ("records.dumps.bytes", "bytes", "lower"),
    ]
    out += [(f"harness.block.{t}.s", "s", "lower") for t in THEOREM_IDS]
    out += [(f"harness.shared.{name}.s", "s", "lower") for name in SHARED]
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(raw: dict, graphs: int) -> dict:
    """Per-layer metric values (without the overhead) from summed counters."""
    def get(name):  # a traced invocation that failed reports no layers
        return raw.get(name, 0)

    values = {name: get(name) for name, _unit, _better in per_layer_names()[:-1]}
    values["graphio.parse_per_graph"] = _ratio(get("graphio.parse_graph6.calls"), graphs)
    values["graph.enumerations_per_graph"] = _ratio(get("graph.enumerate_perfect_matchings.calls"), graphs)
    values["core.forcing_scan.found_frac"] = _ratio(get("core.forcing_scan.found"), get("core.forcing_scan.calls"))
    values["forcing.lower_bound_tight_frac"] = _ratio(get("forcing.lower_bound_tight"), get("forcing.forcing_number.calls"))
    values["switch.apply_cycle_per_edge"] = _ratio(get("graph.apply_cycle.calls"), get("switch.edges"))
    return values


def _sum_layers(invs: list[Invocation]) -> dict:
    total: dict = {}
    for inv in invs:
        for key, val in (inv.record.get("layers") or {}).items():
            total[key] = total.get(key, 0) + val
    return total


def is_count(name: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly; the rest
    are times."""
    return not (name.endswith((".s", "_s")) or name.startswith("trace."))


# ---------------------------------------------------------------------------
# runs


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: Workload, seconds: float, start: float) -> list[Invocation]:
    """Untraced invocations for `seconds`, and until the tail percentile
    has ten samples beyond it; a failed invocation ends the run."""
    invs: list[Invocation] = []
    k = 0
    while True:
        invs.append(invoke(workload, k, False, start + INVOCATION_TIMEOUT_S))
        k += 1
        elapsed = time.perf_counter() - start
        samples = sum(len(inv.latencies) for inv in invs)
        if invs[-1].check_error is not None or elapsed >= HARD_LIMIT_S:
            return invs
        if elapsed >= seconds and samples >= workload.min_samples:
            return invs


def measure_traced(workload: Workload, seconds: float, start: float) -> tuple[list[list[Invocation]], list[list[Invocation]]]:
    """Passes over the fixed trace jobs, each untraced then traced, for
    `seconds`; a failed invocation ends the run.  Spans of the first
    traced pass are written out."""
    plain_passes, traced_passes = [], []
    deadline = start + INVOCATION_TIMEOUT_S
    while True:
        first = not traced_passes
        plain = [invoke(workload, k, False, deadline) for k in workload.trace_jobs()]
        traced = [
            invoke(workload, k, True, deadline, workload.workdir / f"spans-{k}.jsonl" if first else None)
            for k in workload.trace_jobs()
        ]
        plain_passes.append(plain)
        traced_passes.append(traced)
        elapsed = time.perf_counter() - start
        if any(inv.check_error is not None for inv in plain + traced):
            return plain_passes, traced_passes
        if elapsed >= seconds or elapsed + (elapsed / len(traced_passes)) >= HARD_LIMIT_S:
            return plain_passes, traced_passes


def run(workload_cls: type[Workload], seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """One benchmark run; writes ``result.json`` and returns its content."""
    start = time.perf_counter()
    name = workload_cls.name
    workdir = out / f"{name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()
    workload = workload_cls(seed, workdir)
    load_before = os.getloadavg()

    problems: list[str] = []
    if not trace:
        invs = measure(workload, seconds, start)
        metrics, notes = end_to_end(workload, invs)
        trace_info = None
    else:
        plain_passes, traced_passes = measure_traced(workload, seconds, start)
        invs = [inv for p in plain_passes + traced_passes for inv in p]
        graphs = sum(inv.graphs for inv in traced_passes[0])
        per_pass = [layer_values(_sum_layers(p), graphs) for p in traced_passes]
        metrics = {}
        for mname, unit, _better in per_layer_names()[:-1]:
            values = [pp[mname] for pp in per_pass]
            if is_count(mname):
                if len(set(values)) != 1:
                    problems.append(f"counter {mname} differs between traced passes: {values}")
                metrics[mname] = (values[0], unit)
            else:
                metrics[mname] = (statistics.median(values), unit)
        overheads = [
            sum(t.wall_s for t in traced) / sum(p.wall_s for p in plain) - 1
            for plain, traced in zip(plain_passes, traced_passes)
        ]
        metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
        notes = {"trace.overhead_frac": f"median of {len(overheads)} passes"}
        trace_info = {"graphs_per_pass": graphs, "passes": len(traced_passes)}
        for plain, traced in zip(plain_passes, traced_passes):
            for p, t in zip(plain, traced):
                if p.digest != t.digest:
                    problems.append(f"job {p.k}: traced report digest differs from untraced")

    # identical inputs must give identical reports
    digests: dict[int, str] = {}
    for inv in invs:
        if digests.setdefault(inv.k, inv.digest) != inv.digest:
            problems.append(f"job {inv.k}: report digest differs between invocations")
    problems += [f"job {inv.k}: {inv.check_error}" for inv in invs if inv.check_error]
    errors = [e for inv in invs for e in inv.record.get("errors", [])]

    attempted = sum(inv.graphs for inv in invs)
    failed = sum(inv.failed for inv in invs)
    backends = sorted({inv.record.get("backend", "?") for inv in invs})
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errored": sum(inv.errored for inv in invs),
        "refuted": sum(inv.refuted for inv in invs),
        "invocations": len(invs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "problems": problems[:20],
        "errors": errors[:20],
        "report_sha256": {str(k): d for k, d in sorted(digests.items())},
        "trace_passes": trace_info,
        "meta": {
            "backend": backends[0] if len(backends) == 1 else backends,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "elapsed_s": time.perf_counter() - start,
        },
    }
    for stale in workdir.glob("*.g6"):
        stale.unlink()
    for stale in workdir.glob("record-*.json"):
        stale.unlink()
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def print_summary(result: dict) -> None:
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['invocations']} invocations, {result['attempted']} graphs, "
        f"backend {result['meta']['backend']}"
    )
    if result["trace"] == 0:
        for name, m in result["metrics"].items():
            note = result["notes"].get(name)
            print(f"  {name:<16} {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    else:
        m = result["metrics"]["trace.overhead_frac"]
        print(f"  trace.overhead_frac {m['value']:.4g}  ({result['notes']['trace.overhead_frac']})")
        print(f"  {len(result['metrics'])} per-layer metrics in {OUT.name}/")
    print(
        f"  {'failed_frac':<16} {result['failed_frac']:.6g} ratio  "
        f"({result['failed']} of {result['attempted']}; errored {result['errored']}, refuted {result['refuted']})"
    )
    for problem in result["problems"] + result["errors"]:
        print(f"  problem: {problem}")
    meta = dict(result["meta"], report_sha256=result["report_sha256"])
    print("  meta " + json.dumps(meta, sort_keys=True))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    # let a terminated run stop its child process (see `invoke`)
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not (SRC / "matchforce" / "__init__.py").is_file():
        print(f"error: no matchforce sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    for name in names:
        result = run(WORKLOADS[name], opts.seed, opts.seconds, bool(opts.trace))
        print_summary(result)
        line = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
