"""Spans around calls into the program's layers, recorded from outside `src/`.

`install` rebinds each traced public function, in every loaded `portvc`
module that holds it (so `from .checks import analyze` in the CLI is traced
too), to a wrapper; `uninstall` restores the originals. The algorithm layer
is reached only through `simulator.run`, once per node per step, so it is
measured inside that span rather than wrapped.

Spans live in flat `array`s, which the garbage collector does not track, and
the wrappers keep no reference to what the layer returns: a traced op holds
no more live objects than the op itself.
"""
from __future__ import annotations

import sys
import tracemalloc
from array import array
from collections import Counter
from time import perf_counter

TRACED = (
    ("graph", "parse"),
    ("graph", "parse_edge_list"),
    ("graph", "from_edge_list"),
    ("graph", "generate"),
    ("simulator", "run"),
    ("simulator", "replay"),
    ("simulator", "format_transcript"),
    ("simulator", "parse_transcript"),
    ("analysis", "check_cover"),
    ("analysis", "build_pair_graphs"),
    ("analysis", "certify"),
    ("double_cover", "build_double_cover"),
    ("double_cover", "extract_matching"),
    ("double_cover", "project_cover"),
    ("double_cover", "project_matching_edges"),
    ("oracle", "solve"),
    ("checks", "analyze"),
)
# time the tracer spends deriving counts; excluded from every layer's self time
COUNT_SPAN = "bench.count"


def _count_parse(counts: Counter, g) -> None:
    counts["sum_deg_sq"] += sum(len(p) ** 2 for p in g.ports)


def _count_run(counts: Counter, out) -> None:
    result, transcript = out
    counts["run_calls"] += 1
    counts["steps_run"] += result.rounds_run
    counts["last_active_step"] += result.last_active_step
    counts["messages"] += len(transcript.entries)
    counts.update(e.kind.value for e in transcript.entries)


def _count_pair_graphs(counts: Counter, pg) -> None:
    counts["components"] += len(pg.components)


def _count_solve(counts: Counter, res) -> None:
    counts["explored_nodes"] += res.explored_nodes


COUNTERS = {
    "graph.parse": _count_parse,
    "simulator.run": _count_run,
    "analysis.build_pair_graphs": _count_pair_graphs,
    "oracle.solve": _count_solve,
}


def _patch(make_wrapper) -> list:
    import importlib

    undo = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "portvc" and m]
    for mod_name, fn_name in TRACED:
        original = getattr(importlib.import_module(f"portvc.{mod_name}"), fn_name)
        wrapper = make_wrapper(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    return undo


def _unpatch(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


class Tracer:
    """Records spans (name, start, end, parent span, op id) in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counts: Counter = Counter()
        self.op_keys: list[str] = []  # per op id, the key of the op's input
        self.op_top = array("d")  # per op id, the time in its top-level spans
        self._current = -1
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int, parent: int) -> int:
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(len(self.op_keys) - 1)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return len(self.start) - 1

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()

    def _wrapper(self, name: str, fn):
        name_id, count_id, counter = self._id(name), self._id(COUNT_SPAN), COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self._current
            idx = self._open(name_id, parent)
            self._current = idx
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._current = parent
            if counter is not None:
                c = self._open(count_id, parent)
                counter(self.counts, out)
                self._close(c)
            return out

        return traced

    def begin_op(self, key: str) -> None:
        self.op_keys.append(key)
        self.op_top.append(0.0)
        self._undo = _patch(self._wrapper)

    def end_op(self) -> None:
        _unpatch(self._undo)
        self._undo = []

    def cli_main(self, cli_main):
        """`cli_main` under a top-level span named after the subcommand."""

        def main(argv):
            idx = self._open(self._id(f"cli.{argv[0]}"), -1)
            self._current = idx
            try:
                return cli_main(argv)
            finally:
                self._close(idx)
                self._current = -1
                self.op_top[-1] += self.end[idx] - self.start[idx]

        return main

    def totals(self, key: str | None = None) -> tuple[Counter, Counter, float]:
        """Per span name: total time and self time; plus total top-level time.

        With `key`, only the spans of ops on that input count.
        """
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total, self_time, top = Counter(), Counter(), 0.0
        for i, nid in enumerate(self.name):
            if key is not None and self.op_keys[self.op[i]] != key:
                continue
            dur = self.end[i] - self.start[i]
            total[self.names[nid]] += dur
            self_time[self.names[nid]] += dur - child[i]
            if self.parent[i] < 0:
                top += dur
        return total, self_time, top

    def write_tsv(self, path: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("op\tinput\tspan\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.op[i]}\t{self.op_keys[self.op[i]]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[nid]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


class MemTracer:
    """Peak `tracemalloc` memory above the level at entry, per span name.

    Used in its own pass: tracemalloc slows allocation, so these runs give
    no times.
    """

    def __init__(self) -> None:
        self.peak: Counter = Counter()
        self._stack: list[list[int]] = []
        self._undo: list = []

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._stack.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                base, top = self._stack.pop()
                top = max(top, peak)
                self.peak[name] = max(self.peak[name], top - base)
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], top)

        return traced

    def __enter__(self) -> "MemTracer":
        tracemalloc.start()
        self._undo = _patch(self._wrapper)
        return self

    def __exit__(self, *exc) -> None:
        _unpatch(self._undo)
        tracemalloc.stop()
