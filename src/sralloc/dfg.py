"""Loop-body data-flow graphs, critical paths, and cuts of the critical graph.

One graph abstracts a single innermost-body iteration.  Memory nodes carry
latency 0 when their array is fully register resident under the current
allocation and 1 otherwise; arithmetic nodes carry configured latencies.
A cut is a minimal set of improvable reference nodes whose removal breaks
every root-to-sink path of the critical graph; registering a whole cut is
the only way to shorten all critical paths at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_LATENCIES
from .kernel import Kernel, KernelError, KernelValidationError
from .reuse import ReuseInfo


@dataclass(frozen=True)
class DfgNode:
    node_id: int
    kind: str  # "mem" | "op"
    label: str  # array name for mem nodes, operator kind for op nodes
    latency: int
    stmt: int
    ref_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class Dfg:
    nodes: tuple[DfgNode, ...]
    edges: tuple[tuple[int, int], ...]

    def node(self, node_id: int) -> DfgNode:
        return self._by_id()[node_id]

    def _by_id(self) -> dict[int, DfgNode]:
        return {n.node_id: n for n in self.nodes}

    def succs(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {n.node_id: [] for n in self.nodes}
        for a, b in self.edges:
            out[a].append(b)
        return out

    def preds(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {n.node_id: [] for n in self.nodes}
        for a, b in self.edges:
            out[b].append(a)
        return out

    def roots(self) -> list[int]:
        p = self.preds()
        return [n.node_id for n in self.nodes if not p[n.node_id]]

    def sinks(self) -> list[int]:
        s = self.succs()
        return [n.node_id for n in self.nodes if not s[n.node_id]]

    def mem_nodes(self) -> list[DfgNode]:
        return [n for n in self.nodes if n.kind == "mem"]


def _toposort(g: Dfg) -> list[int]:
    preds = g.preds()
    missing = {n.node_id: len(preds[n.node_id]) for n in g.nodes}
    ready = sorted(nid for nid, c in missing.items() if c == 0)
    succs = g.succs()
    order = []
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for s in succs[nid]:
            missing[s] -= 1
            if missing[s] == 0:
                ready.append(s)
        ready.sort()
    if len(order) != len(g.nodes):
        raise KernelValidationError("cyclic dependence in data-flow graph")
    return order


def mem_latency(info: ReuseInfo, beta: int) -> int:
    """0 only for a fully replaced array that actually reuses data."""
    return 0 if (beta == info.required_regs and info.save > 0) else 1


def build_dfg(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc=None,
              latencies: dict[str, int] | None = None) -> Dfg:
    """Data-flow graph of one body iteration under an allocation.

    ``alloc`` may be an Allocation or None for the mandatory one register
    per array.  A ``latencies`` table replaces the default one entirely; a
    statement op kind missing from it is an error.  Reads whose element was
    written by an earlier statement in the same iteration attach to the
    producing store node instead of loading (the d-style forwarding merge).
    """
    lat = dict(DEFAULT_LATENCIES) if latencies is None else dict(latencies)
    beta = {a: 1 for a in reuse} if alloc is None else dict(alloc.beta)

    nodes: list[DfgNode] = []
    edges: list[tuple[int, int]] = []
    write_node: dict[tuple[str, tuple], tuple[int, int]] = {}  # pattern -> (node, stmt)
    extra_refs: dict[int, list[int]] = {}  # node -> forwarded read refs it serves

    def new_node(kind, label, latency, stmt, ref_ids=()):
        n = DfgNode(len(nodes), kind, label, latency, stmt, tuple(ref_ids))
        nodes.append(n)
        return n.node_id

    def op_latency(kind: str) -> int:
        if kind not in lat:
            raise KernelError(f"unknown op kind {kind!r}")
        return lat[kind]

    for stmt in kernel.statements:
        inputs: list[int] = []
        for r in stmt.explicit_reads:
            key = (r.array, r.subscripts)
            if key in write_node and write_node[key][1] < stmt.stmt_id:
                nid = write_node[key][0]  # forwarded, no load node
                extra_refs.setdefault(nid, []).append(r.ref_id)
                inputs.append(nid)
            else:
                inputs.append(new_node("mem", r.array, mem_latency(reuse[r.array], beta[r.array]),
                                       stmt.stmt_id, (r.ref_id,)))
        top: int | None = None
        if stmt.op != "copy" and len(stmt.explicit_reads) > 1:
            top = new_node("op", stmt.op, op_latency(stmt.op), stmt.stmt_id)
            for i in inputs:
                edges.append((i, top))
        elif inputs:
            top = inputs[0]
        if stmt.accumulate:
            acc = new_node("op", "accumulate", op_latency("accumulate"), stmt.stmt_id)
            if top is not None:
                edges.append((top, acc))
            top = acc
        w = stmt.write
        ref_ids = [w.ref_id] + [r.ref_id for r in stmt.reads if r.implicit]
        wid = new_node("mem", w.array, mem_latency(reuse[w.array], beta[w.array]),
                       stmt.stmt_id, ref_ids)
        if top is not None:
            edges.append((top, wid))
        write_node[(w.array, w.subscripts)] = (wid, stmt.stmt_id)

    for nid, extra in extra_refs.items():
        n = nodes[nid]
        nodes[nid] = DfgNode(n.node_id, n.kind, n.label, n.latency, n.stmt,
                             n.ref_ids + tuple(extra))

    g = Dfg(tuple(nodes), tuple(edges))
    _toposort(g)
    return g


# ---------------------------------------------------------------------------
# critical paths

def critical_paths(g: Dfg) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(T_exec, all maximum-latency root-to-sink paths)."""
    if not g.nodes:
        return 0, ()
    by_id = g._by_id()
    succs = g.succs()
    best_from: dict[int, int] = {}
    for nid in reversed(_toposort(g)):
        tail = max((best_from[s] for s in succs[nid]), default=0)
        best_from[nid] = by_id[nid].latency + tail
    t_exec = max(best_from[r] for r in g.roots())

    paths: list[tuple[int, ...]] = []

    def walk(nid: int, prefix: tuple[int, ...]):
        prefix = prefix + (nid,)
        if not succs[nid]:
            paths.append(prefix)
            return
        # a path is critical iff it keeps following maximum continuations
        for s in sorted(succs[nid]):
            if best_from[s] == best_from[nid] - by_id[nid].latency:
                walk(s, prefix)

    for r in sorted(g.roots()):
        if best_from[r] == t_exec:
            walk(r, ())
    return t_exec, tuple(paths)


def critical_graph(g: Dfg) -> Dfg:
    """Subgraph holding the union of all critical paths (the critical graph)."""
    _, paths = critical_paths(g)
    keep: set[int] = set()
    keep_edges: set[tuple[int, int]] = set()
    for p in paths:
        keep.update(p)
        keep_edges.update(zip(p, p[1:]))
    nodes = tuple(n for n in g.nodes if n.node_id in keep)
    edges = tuple(sorted(keep_edges))
    return Dfg(nodes, edges)


# ---------------------------------------------------------------------------
# cuts

@dataclass(frozen=True)
class Cut:
    """Minimal set of improvable reference nodes breaking every critical path."""

    node_ids: tuple[int, ...]
    arrays: tuple[str, ...]
    omega: int  # registers to fully replace every member array

    def __str__(self) -> str:
        return "{" + ", ".join(self.arrays) + "}"


def _all_paths(g: Dfg) -> list[tuple[int, ...]]:
    succs = g.succs()
    sinks = set(g.sinks())
    out: list[tuple[int, ...]] = []

    def walk(nid, prefix):
        prefix = prefix + (nid,)
        if nid in sinks:
            out.append(prefix)
            return
        for s in sorted(succs[nid]):
            walk(s, prefix)

    for r in sorted(g.roots()):
        walk(r, ())
    return out


def _minimal_hitting_sets(requirements: list[frozenset[int]]) -> list[frozenset[int]]:
    reqs = sorted(set(requirements), key=len)
    reqs = [r for i, r in enumerate(reqs) if not any(q < r for q in reqs[:i])]
    found: set[frozenset[int]] = set()

    def extend(chosen: frozenset[int]):
        for r in reqs:
            if not (r & chosen):
                for v in sorted(r):
                    extend(chosen | {v})
                return
        found.add(chosen)

    extend(frozenset())
    return sorted((s for s in found if not any(t < s for t in found)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def find_cuts(cg: Dfg, reuse: dict[str, ReuseInfo], alloc=None) -> tuple[Cut, ...]:
    """Enumerate all cuts of the critical graph over improvable references.

    Candidates are memory nodes whose array still saves accesses (and, when
    an allocation is given, is not already fully replaced).  If some
    critical path contains no candidate at all it cannot be disconnected,
    so no cut exists.  Worst case is exponential; critical graphs stay
    small in practice.
    """
    beta = None if alloc is None else alloc.beta
    candidates = set()
    for n in cg.mem_nodes():
        info = reuse[n.label]
        if info.save <= 0:
            continue
        if beta is not None and beta[n.label] >= info.required_regs:
            continue
        candidates.add(n.node_id)
    if not candidates or not cg.nodes:
        return ()

    requirements = []
    for path in _all_paths(cg):
        req = frozenset(nid for nid in path if nid in candidates)
        if not req:
            return ()
        requirements.append(req)

    by_id = cg._by_id()
    cuts = []
    for s in _minimal_hitting_sets(requirements):
        arrays = tuple(sorted({by_id[nid].label for nid in s}))
        omega = sum(reuse[a].required_regs for a in arrays)
        cuts.append(Cut(tuple(sorted(s)), arrays, omega))
    return tuple(sorted(cuts, key=lambda c: (len(c.node_ids), c.arrays, c.node_ids)))


def cut_register_need(cut: Cut, reuse: dict[str, ReuseInfo], alloc,
                      accounting: str = "incremental") -> int:
    """Registers needed to satisfy a cut.

    The default charges only the increment over registers the member
    arrays already hold; "full-alpha" charges the whole replacement cost,
    mirroring the coarser bookkeeping some allocators use.
    """
    if accounting == "full-alpha":
        return cut.omega
    if accounting != "incremental":
        raise ValueError(f"unknown accounting mode {accounting!r}")
    return sum(max(0, reuse[a].required_regs - alloc.beta[a]) for a in cut.arrays)


def to_dot(g: Dfg, title: str = "dfg") -> str:
    """Graphviz rendering for documentation dumps."""
    lines = [f"digraph {title} {{", "  rankdir=TB;"]
    for n in g.nodes:
        shape = "box" if n.kind == "mem" else "ellipse"
        lines.append(f'  n{n.node_id} [label="{n.label}\\nlat={n.latency}" shape={shape}];')
    for a, b in g.edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
