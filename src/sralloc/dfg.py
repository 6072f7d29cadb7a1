"""Loop-body data-flow graphs, their critical graph, and cuts of it.

One graph abstracts a single innermost-body iteration; no allocation
enters it.  ``node_latencies`` prices an allocation: arithmetic nodes keep
configured latencies, and a memory node costs 0 when its array is fully
register resident and 1 otherwise.  Edges point to higher node ids, so
ascending id is a topological order.  ``T_exec`` is the latency of the
longest root-to-sink path.  One forward and one backward longest-path pass
give each node the longest latency into it and out of it; a node or edge
lies on some longest path exactly when its slack, ``T_exec`` minus the
longest path through it, is zero (the critical-path method).  Those
zero-slack nodes and edges form the critical graph.  A cut is a minimal
set of improvable reference nodes whose removal breaks every root-to-sink
path of the critical graph; registering a whole cut is the only way to
shorten all critical paths at once.  ``find_cuts`` returns only the cut
cheapest to satisfy, found by branch-and-bound over the candidate arrays
of each weakly connected part of the critical graph, without listing
paths or cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import DEFAULT_LATENCIES, CapExceededError
from .kernel import Kernel, KernelError, KernelValidationError
from .reuse import ReuseInfo

#: branch-and-bound nodes one component's cut search may pop before it gives up
MAX_CUT_NODES = 1 << 14


@dataclass(frozen=True)
class DfgNode:
    node_id: int
    kind: str  # "mem" | "op"
    label: str  # array name for mem nodes, operator kind for op nodes
    latency: int  # op latency; 1 (a RAM access) for mem nodes
    stmt: int
    ref_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class Dfg:
    """Edges point to higher node ids; adjacency lists, keyed in id order, are built once."""

    nodes: tuple[DfgNode, ...]
    edges: tuple[tuple[int, int], ...]
    _preds: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    _succs: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        preds: dict[int, list[int]] = {nid: [] for nid in sorted(n.node_id for n in self.nodes)}
        succs: dict[int, list[int]] = {nid: [] for nid in preds}
        for a, b in self.edges:
            if a >= b:  # ascending id must stay a topological order
                raise KernelValidationError("cyclic dependence in data-flow graph")
            succs[a].append(b)
            preds[b].append(a)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_succs", succs)

    def succs(self) -> dict[int, list[int]]:  # shared, not a copy
        return self._succs

    def preds(self) -> dict[int, list[int]]:  # shared, not a copy
        return self._preds

    def roots(self) -> list[int]:
        p = self.preds()
        return [n.node_id for n in self.nodes if not p[n.node_id]]

    def sinks(self) -> list[int]:
        s = self.succs()
        return [n.node_id for n in self.nodes if not s[n.node_id]]

    def mem_nodes(self) -> list[DfgNode]:
        return [n for n in self.nodes if n.kind == "mem"]


def _longest(before: dict[int, list[int]], weight: dict[int, int],
             backward: bool = False) -> dict[int, int]:
    """Heaviest chain ending at each node, its own weight included.

    Visits ``before``'s keys in order, or reversed with ``backward``, so
    each ``before[n]`` must be visited earlier: a ``Dfg``'s predecessor
    lists give the heaviest path into each node, its successor lists
    visited backward the heaviest path out of it.
    """
    best: dict[int, int] = {}
    for nid in (reversed(before) if backward else before):
        best[nid] = weight[nid] + max((best[p] for p in before[nid]), default=0)
    return best


def mem_latency(info: ReuseInfo, beta: int) -> int:
    """0 only for a fully replaced array that actually reuses data."""
    return 0 if (beta == info.required_regs and info.save > 0) else 1


def node_latencies(g: Dfg, reuse: dict[str, ReuseInfo], alloc=None) -> dict[int, int]:
    """Each node's latency by id: op nodes keep theirs, mem nodes get ``mem_latency``.

    ``alloc`` may be an Allocation or None for one register per array.
    """
    beta = {a: 1 for a in reuse} if alloc is None else alloc.beta
    mem = {a: mem_latency(info, beta[a]) for a, info in reuse.items()}
    return {n.node_id: mem[n.label] if n.kind == "mem" else n.latency for n in g.nodes}


def build_dfg(kernel: Kernel, latencies: dict[str, int] | None = None) -> Dfg:
    """Data-flow graph of one body iteration, each node numbered after its inputs.

    Memory nodes get latency 1; ``node_latencies`` prices an allocation.  A
    ``latencies`` table replaces the default one entirely; a statement op
    kind missing from it is an error.  Reads whose element was written by
    an earlier statement in the same iteration attach to the producing
    store node instead of loading (the d-style forwarding merge).
    """
    lat = dict(DEFAULT_LATENCIES) if latencies is None else dict(latencies)

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
                inputs.append(new_node("mem", r.array, 1, stmt.stmt_id, (r.ref_id,)))
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
        wid = new_node("mem", w.array, 1, stmt.stmt_id, ref_ids)
        if top is not None:
            edges.append((top, wid))
        write_node[(w.array, w.subscripts)] = (wid, stmt.stmt_id)

    for nid, extra in extra_refs.items():
        n = nodes[nid]
        nodes[nid] = DfgNode(n.node_id, n.kind, n.label, n.latency, n.stmt,
                             n.ref_ids + tuple(extra))

    return Dfg(tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# critical graph

def critical_length(g: Dfg, lat: dict[int, int]) -> int:
    """T_exec under node latencies ``lat``, 0 for no nodes."""
    into = _longest(g.preds(), lat)
    return max((into[nid] for nid in g.sinks()), default=0)


def critical_graph(g: Dfg, lat: dict[int, int]) -> Dfg:
    """Zero-slack nodes and edges under ``lat``: the union of all critical paths.

    Node ids are kept, so ``lat`` prices the result too.
    """
    into = _longest(g.preds(), lat)
    out = _longest(g.succs(), lat, backward=True)
    t_exec = max((into[nid] for nid in g.sinks()), default=0)
    nodes = tuple(n for n in g.nodes
                  if into[n.node_id] + out[n.node_id] - lat[n.node_id] == t_exec)
    edges = tuple(sorted({(a, b) for a, b in g.edges if into[a] + out[b] == t_exec}))
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


def _open_path(removed: set[int], roots: list[int],
               succs: dict[int, list[int]]) -> list[int] | None:
    """A root-to-sink path from ``roots`` that avoids ``removed``, or None."""
    came_from = {r: None for r in roots if r not in removed}
    stack = list(came_from)
    while stack:
        nid = stack.pop()
        if not succs[nid]:
            path = []
            while nid is not None:
                path.append(nid)
                nid = came_from[nid]
            return path
        for s in succs[nid]:
            if s not in removed and s not in came_from:
                came_from[s] = nid
                stack.append(s)
    return None


def _components(cg: Dfg, label: dict[int, str]) -> list[list[int]]:
    """Weakly connected components, merged where they share a candidate array.

    ``label`` maps each candidate node to its array.  Node order within a
    component follows ``cg.nodes``.
    """
    parent = {n.node_id: n.node_id for n in cg.nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first: dict[str, int] = {}
    for nid, array in label.items():
        parent[find(nid)] = find(first.setdefault(array, nid))
    for a, b in cg.edges:
        parent[find(a)] = find(b)
    groups: dict[int, list[int]] = {}
    for n in cg.nodes:
        groups.setdefault(find(n.node_id), []).append(n.node_id)
    return list(groups.values())


def _cheapest_cover(nodes_of: dict[str, set[int]], need: dict[str, int],
                    label: dict[int, str], roots: list[int],
                    succs: dict[int, list[int]], comp_size: int) -> tuple[str, ...] | None:
    """Least ``(need, size, names)`` set of arrays whose nodes break every path.

    ``nodes_of`` maps each candidate array to its nodes, ``label`` each
    candidate node to its array.  Branch-and-bound over the arrays in name
    order, include-first, on an explicit stack.  Include-first visits
    equal-size sets in name order, so the first set found at the best
    ``(need, size)`` also wins the name tie-break, and a branch that can
    only tie is pruned.  None when even every array together leaves a path.
    Past ``MAX_CUT_NODES`` popped search nodes it raises
    ``CapExceededError``, naming the component's ``comp_size`` in nodes.
    """
    arrays = sorted(nodes_of)

    def still_needed(chosen: tuple[str, ...], undecided: set[str]) -> tuple[int, int] | None:
        """Lower bound on the (need, size) still to add; None if no completion covers.

        Open paths whose undecided arrays are pairwise disjoint each need
        one more array of their own, at least the cheapest of them.
        """
        blocked = set().union(*(nodes_of[a] for a in chosen))
        more, size = 0, 0
        while (path := _open_path(blocked, roots, succs)) is not None:
            options = {label[n] for n in path if label.get(n) in undecided}
            if not options:
                return None
            more += min(need[a] for a in options)
            size += 1
            blocked.update(*(nodes_of[a] for a in options))
        return more, size

    best: tuple[int, int, tuple[str, ...]] | None = None
    stack: list[tuple[int, tuple[str, ...], int]] = [(0, (), 0)]
    popped = 0
    while stack:
        popped += 1
        if popped > MAX_CUT_NODES:
            raise CapExceededError(
                f"cut search over a critical-graph component of {comp_size} nodes and "
                f"{len(arrays)} candidate arrays passed {MAX_CUT_NODES} search nodes")
        i, chosen, cost = stack.pop()
        bound = still_needed(chosen, set(arrays[i:]))
        if bound is None:
            continue
        more, size = bound
        if size == 0:  # chosen already breaks every path
            if best is None or (cost, len(chosen)) < best[:2]:
                best = (cost, len(chosen), chosen)
            continue
        if best is not None and (cost + more, len(chosen) + size) >= best[:2]:
            continue
        stack.append((i + 1, chosen, cost))
        stack.append((i + 1, chosen + (arrays[i],), cost + need[arrays[i]]))
    return None if best is None else best[2]


def find_cuts(cg: Dfg, reuse: dict[str, ReuseInfo], alloc=None,
              accounting: str = "incremental") -> tuple[Cut, ...]:
    """The cut cheapest to satisfy, as a one-element tuple, or () if none.

    Candidates are memory nodes whose array still saves accesses and, when
    an allocation is given, is not already fully replaced.  A cut's need is
    ``cut_register_need`` under ``accounting``; ``alloc=None`` prices every
    array at one register held, as in ``node_latencies``.  The cut returned
    has the least ``(need, len(arrays), arrays)``; its ``node_ids`` are a
    minimal subset of its arrays' candidate nodes that still breaks every
    root-to-sink path.

    Covering is monotone and a strict subset of an array set is strictly
    cheaper in ``(need, size)``, so the cheapest covering array set is the
    array set of some minimal cut.  Weakly connected components that share
    no candidate array are independent, and the union of their cheapest
    covers is the cheapest cover overall, name tie-break included.  Each
    component is searched by branch-and-bound, bounded below by open paths
    that share no undecided array; the worst case is still exponential in
    one component's candidate arrays, so a search that pops more than
    ``MAX_CUT_NODES`` nodes raises ``CapExceededError``.
    """
    beta = {a: 1 for a in reuse} if alloc is None else alloc.beta
    need = _array_needs(reuse, reuse, beta, accounting)
    label: dict[int, str] = {}
    for n in cg.mem_nodes():
        info = reuse[n.label]
        if info.save <= 0:
            continue
        if alloc is not None and beta[n.label] >= info.required_regs:
            continue
        label[n.node_id] = n.label
    if not label:
        return ()

    succs = cg.succs()
    roots = set(cg.roots())
    node_ids: list[int] = []
    arrays: list[str] = []
    for comp in _components(cg, label):
        comp_roots = [nid for nid in comp if nid in roots]
        nodes_of: dict[str, set[int]] = {}
        for nid in comp:
            if nid in label:
                nodes_of.setdefault(label[nid], set()).add(nid)
        best = _cheapest_cover(nodes_of, need, label, comp_roots, succs, len(comp))
        if best is None:
            return ()
        keep = set().union(*(nodes_of[a] for a in best))
        for nid in sorted(keep, reverse=True):
            if _open_path(keep - {nid}, comp_roots, succs) is None:
                keep.discard(nid)
        node_ids += keep
        arrays += best
    arrays.sort()
    omega = sum(reuse[a].required_regs for a in arrays)
    return (Cut(tuple(sorted(node_ids)), tuple(arrays), omega),)


def _array_needs(arrays, reuse: dict[str, ReuseInfo], beta: dict[str, int],
                 accounting: str) -> dict[str, int]:
    """Registers each array needs toward full replacement under ``accounting``."""
    if accounting == "full-alpha":
        return {a: reuse[a].required_regs for a in arrays}
    if accounting != "incremental":
        raise ValueError(f"unknown accounting mode {accounting!r}")
    return {a: max(0, reuse[a].required_regs - beta[a]) for a in arrays}


def cut_register_need(cut: Cut, reuse: dict[str, ReuseInfo], alloc,
                      accounting: str = "incremental") -> int:
    """Registers needed to satisfy a cut.

    The default charges only the increment over registers the member
    arrays already hold; "full-alpha" charges the whole replacement cost,
    mirroring the coarser bookkeeping some allocators use.
    """
    return sum(_array_needs(cut.arrays, reuse, alloc.beta, accounting).values())


def to_dot(g: Dfg, lat: dict[int, int], title: str = "dfg") -> str:
    """Graphviz rendering under node latencies ``lat``, for documentation dumps."""
    lines = [f"digraph {title} {{", "  rankdir=TB;"]
    for n in g.nodes:
        shape = "box" if n.kind == "mem" else "ellipse"
        lines.append(f'  n{n.node_id} [label="{n.label}\\nlat={lat[n.node_id]}" shape={shape}];')
    for a, b in g.edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
