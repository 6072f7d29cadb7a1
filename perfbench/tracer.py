"""Spans around the public functions of each sralloc module, from outside.

``Tracer.install`` replaces every binding of a layer's public functions in
the loaded ``sralloc`` modules with a timing wrapper, including the names
other modules import (``sralloc.allocate.find_cuts`` is the same function
as ``sralloc.dfg.find_cuts`` and gets the same wrapper), so spans nest
exactly as the calls do: one ``dfg.find_cuts`` span per CPA round under
its ``allocate.critical_path_aware`` span.  ``uninstall`` restores the
originals, so untraced passes run the unmodified program.  No file under
``src/`` is touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

#: the program's modules, in pipeline order; each is one traced layer
LAYERS = ("kernel", "reuse", "allocate", "dfg", "simulate", "oracle", "cli")

#: work counted at the boundary where it is done, from the call's result
_WORK = {
    "kernel.parse_kernel": lambda k: len(k.refs),
    "kernel.parse_kernel_file": lambda k: len(k.refs),
    "reuse.analyze_all": lambda r: (sum(i.total_accesses for i in r.values()),
                                    sum(i.after_accesses for i in r.values())),
    "dfg.critical_graph": lambda g: len(g.nodes),
    "dfg.find_cuts": len,
    "simulate.steady_state_cycles": lambda rep: rep.inner_iterations,
    "oracle.trace": len,
}

#: run_allocator spans are named after the algorithm they run
_ALG_SHORT = {"fr": "fr", "fr-ra": "fr", "pr": "pr", "pr-ra": "pr", "cpa": "cpa", "cpa-ra": "cpa"}


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    work: object  # count from _WORK, or None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets() -> list[tuple[object, str, object, str]]:
    """(module, attribute, original function, span name) for every binding."""
    names: dict[int, str] = {}
    funcs: dict[int, object] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"sralloc.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names[id(obj)] = f"{layer}.{obj.__name__}"  # not an alias's name
                funcs[id(obj)] = obj
    out = []
    for modname, mod in list(sys.modules.items()):
        if modname != "sralloc" and not modname.startswith("sralloc."):
            continue
        for attr, obj in list(vars(mod).items()):
            if funcs.get(id(obj)) is obj:
                out.append((mod, attr, obj, names[id(obj)]))
    return out


class Tracer:
    """In-memory span recorder; spans are kept until the caller writes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work_of = _WORK.get(name)
        by_alg = name == "allocate.run_allocator"
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if by_alg:
                alg = args[0] if args else kwargs.get("name")
                label = "allocate." + _ALG_SHORT.get(alg, str(alg))
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                work = work_of(result) if work_of is not None and result is not None else None
                spans.append(Span(sid, parent, label, start, end, work))

        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        wrappers: dict[int, object] = {}
        for mod, attr, fn, name in _targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# metrics from one window of spans

def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in its own code: span time minus child spans."""
    ids = {s.sid for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s.parent in ids:
            child[s.parent] += s.duration
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.name.split(".", 1)[0]] += s.duration - child[s.sid]
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and work counts of one pass (see README.md)."""
    by_id = {s.sid: s for s in spans}

    def ancestors(s: Span):
        p = s.parent
        while p in by_id:
            yield by_id[p]
            p = by_id[p].parent

    def outer(*names: str) -> list[Span]:
        """Spans of these names not nested in another span of these names."""
        return [s for s in spans if s.name in names
                and not any(a.name in names for a in ancestors(s))]

    def secs(*names: str) -> float:
        return sum(s.duration for s in outer(*names))

    def work(name: str, index: int | None = None) -> int:
        total = 0
        for s in outer(name):
            if s.work is not None:
                total += s.work if index is None else s.work[index]
        return total

    selfs = self_times(spans)
    cpa_calls = outer("allocate.critical_path_aware")
    cpa_ids = {s.sid for s in cpa_calls}
    rounds = [s for s in spans if s.name == "dfg.find_cuts"
              and any(a.sid in cpa_ids for a in ancestors(s))]
    cuts = work("dfg.find_cuts")
    chosen = sum(1 for s in rounds if s.work)
    return {
        "kernel.parse_s": secs("kernel.parse_kernel", "kernel.parse_kernel_file"),
        "kernel.refs": work("kernel.parse_kernel") + work("kernel.parse_kernel_file"),
        "kernel.self_s": selfs["kernel"],
        "reuse.analyze_s": secs("reuse.analyze_all"),
        "reuse.self_s": selfs["reuse"],
        "reuse.accesses": work("reuse.analyze_all", 0),
        "reuse.footprint": work("reuse.analyze_all", 1),
        "allocate.fr_s": secs("allocate.fr"),
        "allocate.pr_s": secs("allocate.pr"),
        "allocate.cpa_s": secs("allocate.cpa"),
        "allocate.self_s": selfs["allocate"],
        "allocate.cpa_rounds": len(rounds) / len(cpa_calls) if cpa_calls else 0.0,
        "dfg.build_s": secs("dfg.build_dfg"),
        "dfg.critical_s": secs("dfg.critical_paths", "dfg.critical_graph"),
        "dfg.cuts_s": secs("dfg.find_cuts"),
        "dfg.self_s": selfs["dfg"],
        "dfg.cg_nodes": work("dfg.critical_graph"),
        "dfg.cuts": cuts,
        "dfg.cut_yield": chosen / cuts if cuts else 0.0,
        "simulate.cycles_s": secs("simulate.steady_state_cycles"),
        "simulate.self_s": selfs["simulate"],
        "simulate.inner_points": work("simulate.steady_state_cycles"),
        "oracle.analysis_s": secs("oracle.oracle_analysis"),
        "oracle.replay_s": secs("oracle.oracle_replay"),
        "oracle.self_s": selfs["oracle"],
        "oracle.trace_points": work("oracle.trace"),
        "trace.spans": len(spans),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
