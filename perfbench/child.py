"""One matchforce CLI invocation, observed from inside its interpreter.

    python3 child.py --src SRC --record RECORD.json [--trace] [--spans FILE]
                     [--request N] -- <matchforce CLI arguments>

Imports matchforce from SRC, runs ``matchforce.cli.main`` with the given
arguments (the report goes to standard output, as from the CLI) and writes
RECORD.json with what the benchmark measures from inside:

- the start and end of every ``harness.check_graph`` call, and the outcome
  of its blocks, counted here rather than by the harness: a graph is
  *errored* when a block's info carries an ``error`` key and *refuted* when
  a block checked it and did not pass;
- when the graph of an ``analyze`` run finished loading;
- the process's peak resident set size and the kernel backend;
- with ``--trace``, the per-layer counters of `tracing.Tracer`.

The exit code is the CLI's.  Timestamps are ``time.perf_counter`` values,
which on Linux share one clock across processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from time import perf_counter

_MAX_ERRORS = 5


class Probe:
    """Times `harness.check_graph` and tallies block outcomes per graph."""

    def __init__(self):
        self.latencies: list[float] = []
        self.first_start: float | None = None
        self.last_end: float | None = None
        self.loaded_at: float | None = None
        self.graphs = 0
        self.errored = 0
        self.refuted = 0
        self.errors: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, harness, cli) -> None:
        check_graph = harness.check_graph
        load_graph = cli.load_graph

        def timed_check_graph(*args, **kwargs):
            start = perf_counter()
            if self.first_start is None:
                self.first_start = start
            result = check_graph(*args, **kwargs)
            end = perf_counter()
            self.last_end = end
            self.latencies.append(end - start)
            self.tally(result)
            return result

        def stamped_load_graph(*args, **kwargs):
            g = load_graph(*args, **kwargs)
            self.loaded_at = perf_counter()
            return g

        for obj, attr, value in (
            (harness, "check_graph", timed_check_graph),
            (cli, "load_graph", stamped_load_graph),
        ):
            self._patches.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def tally(self, result: dict) -> None:
        self.graphs += 1
        errored = refuted = False
        for theorem, outcome in result.get("blocks", {}).items():
            checked, ok, info = outcome[0], outcome[1], outcome[-1]
            if isinstance(info, dict) and "error" in info:
                errored = True
                if len(self.errors) < _MAX_ERRORS:
                    self.errors.append(f"{result.get('g6')} {theorem}: {info['error']}")
            elif checked and not ok:
                refuted = True
        if errored:
            self.errored += 1
        elif refuted:
            self.refuted += 1

    def record(self) -> dict:
        return {
            "latencies": self.latencies,
            "first_start": self.first_start,
            "last_end": self.last_end,
            "loaded_at": self.loaded_at,
            "graphs": self.graphs,
            "errored": self.errored,
            "refuted": self.refuted,
            "errors": self.errors,
        }


def invoke(cli_args: list[str], tracer=None) -> tuple[int, Probe]:
    """Run the CLI in this process with the probe (and tracer) installed,
    and restore every patched attribute afterwards."""
    from matchforce import cli, harness

    probe = Probe()
    if tracer is not None:
        tracer.install()
    probe.install(harness, cli)
    try:
        code = cli.main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 70
    finally:
        probe.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return code, probe


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--request", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    sys.path.insert(0, opts.src)
    import matchforce

    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer(request=opts.request)
    code, probe = invoke(cli_args, tracer)
    sys.stdout.flush()

    record = probe.record()
    record.update(
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        backend=matchforce.kernel_backend(),
        layers=None if tracer is None else tracer.summary(),
    )
    with open(opts.record, "w") as fh:
        json.dump(record, fh)
    if tracer is not None and opts.spans:
        tracer.write_spans(opts.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
