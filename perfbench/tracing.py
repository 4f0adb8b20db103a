"""Per-layer tracing of matchforce from outside the program.

`Tracer.install` replaces public functions of the package's modules with
timing wrappers.  Several modules import these functions by name, so every
matchforce module attribute bound to the original object is replaced, and
`Tracer.uninstall` puts each one back.  Kernel objects (the compiled one is
a C type) are wrapped through a proxy returned by `_core.make_kernel`.

Calls into the layers are recorded in memory:

- every traced function gets a call count, inclusive seconds (`.s`) and
  self seconds (`.self_s`: inclusive time minus time spent in traced
  callees);
- functions that are not hot leaves also leave one span each,
  ``(id, parent id, request id, name, start, end)``, where the request id
  is the index of the graph being checked;
- a few functions feed counters from their arguments or results.

Nothing is written until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from functools import cached_property

# (layer, defining module, function, hot leaf).  Hot leaves are aggregated
# only; the others also record one span per call.
FUNCTIONS = (
    ("graphio", "graphio", "parse_graph6", True),
    ("graphio", "graphio", "to_graph6", True),
    ("graph", "graph", "has_perfect_matching", True),
    ("graph", "graph", "enumerate_perfect_matchings", True),
    ("graph", "graph", "alternating_four_cycles", True),
    ("graph", "graph", "apply_cycle", True),
    ("graph", "graph", "vertex_connectivity", False),
    ("forcing", "forcing", "forcing_profile", False),
    ("forcing", "forcing", "forcing_number", True),
    ("structure", "structure", "classify_min_forcing", False),
    ("structure", "structure", "pairwise_alternating_condition", True),
    ("structure", "structure", "is_minimal_max_forcing", False),
    ("structure", "structure", "max_independent_set_size", False),
    ("structure", "structure", "has_fixed_double_bond", False),
    ("structure", "structure", "is_knn_plus", False),
    ("extend", "extend", "is_brick", False),
    ("extend", "extend", "is_l_extendable", False),
    ("extend", "extend", "non_2_extendable_structure", False),
    ("switch", "switch", "build_switch_graph", False),
    ("switch", "switch", "verify_spectrum_continuity", False),
    ("harness", "harness", "check_graph", False),
    ("records", "records", "dumps", False),
    ("records", "records", "switch_payload", False),
    ("records", "records", "spectrum_payload", False),
    ("records", "records", "verification_payload", False),
)

# Kernel methods, reported under the layer name "core" (metric names may
# not start with an underscore).
KERNEL_METHODS = ("count2", "enumerate_pms", "forcing_scan")

# Lazily built sub-results shared by the harness blocks of one graph.
SHARED = ("profile", "switch_graph", "knn_plus")

COUNTERS = (
    "graph.enumerate_perfect_matchings.matchings",
    "graph.alternating_four_cycles.cycles",
    "core.forcing_scan.tested",
    "core.forcing_scan.found",
    "forcing.nodes_explored",
    "forcing.lower_bound_tight",
    "switch.nodes",
    "switch.edges",
    "records.dumps.bytes",
)


def function_keys() -> list[str]:
    keys = [f"{layer}.{name}" for layer, _mod, name, _leaf in FUNCTIONS]
    keys += [f"core.{name}" for name in KERNEL_METHODS]
    keys += [f"harness.shared.{name}" for name in SHARED]
    return keys


class _KernelProxy:
    """Forwards to a kernel, with its hot methods wrapped."""

    def __init__(self, kernel, tracer: "Tracer"):
        self._kernel = kernel
        for name in KERNEL_METHODS:
            method = getattr(kernel, name, None)
            if method is not None:
                setattr(self, name, tracer.wrap(method, f"core.{name}", True))

    def __getattr__(self, name):
        return getattr(self._kernel, name)


class Tracer:
    def __init__(self, request: int = 0):
        self.stats = {key: [0, 0.0, 0.0] for key in function_keys()}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.block_runtime: dict[str, float] = {}
        self.spans: list[tuple] = []
        # one [child seconds, span id] frame per open traced call; the
        # bottom frame stands for the untraced caller
        self._frames: list[list] = [[0.0, None]]
        self._span_parents: list = [None]
        self._next_span = 0
        # request id stamped on spans: the analysed graph's index, or in a
        # verify run the index of the graph being checked (None between)
        self.request: int | None = request
        self._next_request = request
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, key: str, leaf: bool):
        stat = self.stats[key]
        frames = self._frames
        parents = self._span_parents
        spans = self.spans
        on_result = _ON_RESULT.get(key)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if not leaf:
                span_id = tracer._next_span
                tracer._next_span = span_id + 1
                frame[1] = span_id
                parents.append(span_id)
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if not leaf:
                    parents.pop()
                    spans.append(
                        (frame[1], parents[-1], tracer.request, key, start, end)
                    )
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def _per_graph(self, check_graph):
        """Give each checked graph the next request id."""

        def scoped(*args, **kwargs):
            self.request = self._next_request
            self._next_request += 1
            try:
                return check_graph(*args, **kwargs)
            finally:
                self.request = None

        return scoped

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        import matchforce  # noqa: F401  (loads every submodule)
        from matchforce import _core, graph, harness

        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "matchforce" or name.startswith("matchforce."))
        ]
        for layer, mod_name, name, leaf in FUNCTIONS:
            home = sys.modules.get(f"matchforce.{mod_name}")
            original = getattr(home, name, None)
            if original is None:
                continue
            wrapped = self.wrap(original, f"{layer}.{name}", leaf)
            if name == "check_graph":
                wrapped = self._per_graph(wrapped)
            for mod in modules:
                if mod.__dict__.get(name) is original:
                    self._patch(mod, name, wrapped)

        make_kernel = _core.make_kernel
        self._patch(_core, "make_kernel", lambda rows: _KernelProxy(make_kernel(rows), self))
        graph._kernel_cached.cache_clear()

        context = getattr(harness, "_GraphContext", None)
        for name in SHARED:
            prop = None if context is None else context.__dict__.get(name)
            if isinstance(prop, cached_property):
                timed = cached_property(self.wrap(prop.func, f"harness.shared.{name}", False))
                timed.__set_name__(context, name)
                self._patch(context, name, timed)

    def uninstall(self) -> None:
        from matchforce import graph

        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)
        graph._kernel_cached.cache_clear()

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts and seconds, keyed like the benchmark's metric names."""
        out = {}
        for key, (calls, total, own) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = total
            out[f"{key}.self_s"] = own
        out.update(self.counters)
        for theorem, seconds in self.block_runtime.items():
            out[f"harness.block.{theorem}.s"] = seconds
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "request": request,
                         "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


# -- counters fed from arguments and results ---------------------------------


def _matchings(tracer, _args, result):
    tracer.counters["graph.enumerate_perfect_matchings.matchings"] += len(result)


def _cycles(tracer, _args, result):
    tracer.counters["graph.alternating_four_cycles.cycles"] += len(result)


def _forcing_scan(tracer, _args, result):
    found, tested = result
    tracer.counters["core.forcing_scan.tested"] += tested
    tracer.counters["core.forcing_scan.found"] += found is not None


def _forcing_number(tracer, _args, cert):
    tracer.counters["forcing.nodes_explored"] += cert.nodes_explored
    tracer.counters["forcing.lower_bound_tight"] += cert.optimum == cert.lower_bound_used


def _switch_graph(tracer, _args, sg):
    tracer.counters["switch.nodes"] += len(sg.nodes)
    tracer.counters["switch.edges"] += len(sg.edges())


def _dumps(tracer, _args, text):
    tracer.counters["records.dumps.bytes"] += len(text)  # reports are ASCII JSON


def _verification_payload(tracer, args, _result):
    for block in args[0].blocks:
        tracer.block_runtime[block.theorem] = (
            tracer.block_runtime.get(block.theorem, 0.0) + block.runtime_s
        )


_ON_RESULT = {
    "graph.enumerate_perfect_matchings": _matchings,
    "graph.alternating_four_cycles": _cycles,
    "core.forcing_scan": _forcing_scan,
    "forcing.forcing_number": _forcing_number,
    "switch.build_switch_graph": _switch_graph,
    "records.dumps": _dumps,
    "records.verification_payload": _verification_payload,
}
