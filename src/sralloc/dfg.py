"""Loop-body data-flow graphs, their memory levels, critical graph, and cuts.

One graph abstracts a single innermost-body iteration; neither an
allocation nor a latency table enters it.  ``build_dfg`` builds it once per
kernel object, and the allocators, the simulator and the dot dumps share
it; it lives as long as its kernel.  A graph builds its adjacency lists,
roots, sinks and per-node rows once, and every pass reads them.
``node_latencies`` prices it: an arithmetic node costs its op kind's
latency, and a memory node 0 when its array is fully register resident and
1 otherwise.  Edges point to higher node ids, so ascending id is a
topological order, and one longest-path routine, ``_longest``, serves
``T_exec`` (the latency of the longest root-to-sink path), the memory
levels (memory nodes by dependence depth) and the critical graph.  A node
or edge lies on some longest path exactly when its slack, ``T_exec`` minus
the longest path through it, is zero (the critical-path method); those
zero-slack nodes and edges form the critical graph.  A cut is a set of
candidate arrays whose memory nodes together break every root-to-sink path
of the critical graph, priced by its register need; a candidate saves
accesses and holds fewer registers than its ``required_regs`` (one each
when no allocation is given).  Registering a whole cut is the only way to
shorten all critical paths at once.  ``find_cuts`` returns only the cut
cheapest to satisfy, with its need, found by branch-and-bound over the
candidate arrays of each weakly connected part of the critical graph,
without listing paths or cuts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .config import DEFAULT_LATENCIES, CapExceededError
from .kernel import Kernel, KernelError, KernelValidationError
from .reuse import ReuseInfo, forwarded_read_ids

#: branch-and-bound nodes one component's cut search may pop before it gives up
MAX_CUT_NODES = 1 << 14


@dataclass(frozen=True)
class DfgNode:
    node_id: int
    kind: str  # "mem" | "op"
    label: str  # array name for mem nodes, operator kind for op nodes
    ref_ids: tuple[int, ...] = ()  # load: its read; store: its write, then its implicit read


@dataclass(frozen=True)
class Dfg:
    """Edges point to higher node ids.  Built once and shared, not copied: adjacency
    lists keyed in id order, roots and sinks, and an ``(id, is_mem, label)`` row per node."""

    nodes: tuple[DfgNode, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        preds: dict[int, list[int]] = {nid: [] for nid in sorted(n.node_id for n in self.nodes)}
        succs: dict[int, list[int]] = {nid: [] for nid in preds}
        for a, b in self.edges:
            if a >= b:  # ascending id must stay a topological order
                raise KernelValidationError("cyclic dependence in data-flow graph")
            succs[a].append(b)
            preds[b].append(a)
        rows = [(n.node_id, n.kind == "mem", n.label) for n in self.nodes]
        for name, value in (("_preds", preds), ("_succs", succs), ("_rows", rows),
                            ("_roots", [nid for nid, _, _ in rows if not preds[nid]]),
                            ("_sinks", [nid for nid, _, _ in rows if not succs[nid]])):
            object.__setattr__(self, name, value)  # no fields: == and hash read nodes, edges

    def succs(self) -> dict[int, list[int]]:
        return self._succs

    def preds(self) -> dict[int, list[int]]:
        return self._preds

    def roots(self) -> list[int]:
        return self._roots

    def sinks(self) -> list[int]:
        return self._sinks

    def mem_nodes(self) -> list[DfgNode]:
        return [n for n in self.nodes if n.kind == "mem"]


def _longest(before: dict[int, list[int]], weight: dict[int, int],
             backward: bool = False) -> dict[int, int]:
    """Heaviest chain ending at each node, its own weight included.

    Visits ``before``'s keys in order, or reversed with ``backward``, so each
    ``before[n]`` must be visited earlier: a ``Dfg``'s predecessor lists give the
    heaviest path into each node, its successor lists backward the path out of it.
    """
    best: dict[int, int] = {}
    for nid, prior in (reversed(before.items()) if backward else before.items()):
        best[nid] = weight[nid] + (max(map(best.__getitem__, prior)) if prior else 0)
    return best


def memory_levels(g: Dfg, ports: int = 1) -> tuple[tuple[int, ...], ...]:
    """Memory nodes grouped by dependence depth, as-soon-as-possible.

    A node's depth is the largest number of memory nodes on one path into
    it, itself excluded: one longest-path pass with weight 1 on memory
    nodes and 0 on arithmetic ones.  Same-array nodes beyond the port
    limit split off into follow-on levels, serializing their accesses.
    """
    if ports < 1:
        raise ValueError("ports must be >= 1")
    chain = _longest(g._preds, {nid: int(is_mem) for nid, is_mem, _ in g._rows})
    seen: dict[tuple[int, str], int] = {}  # (chain, array) -> its nodes so far
    levels: dict[tuple[int, int], list[int]] = {}  # (chain, port round) -> node ids
    for nid, _, label in sorted(row for row in g._rows if row[1]):
        at = (chain[nid], label)
        seen[at] = seen.get(at, 0) + 1
        levels.setdefault((at[0], (seen[at] - 1) // ports), []).append(nid)
    return tuple(tuple(levels[k]) for k in sorted(levels))


def mem_latency(info: ReuseInfo, beta: int) -> int:
    """0 only for a fully replaced array that actually reuses data."""
    return 0 if (beta == info.required_regs and info.save > 0) else 1


def node_latencies(g: Dfg, reuse: dict[str, ReuseInfo], alloc=None,
                   latencies: dict[str, int] | None = None) -> dict[int, int]:
    """Each node's latency by id: op nodes from the table, mem nodes by ``mem_latency``.

    ``alloc`` may be an Allocation or None for one register per array.  A
    ``latencies`` table replaces ``DEFAULT_LATENCIES`` entirely; an op kind
    of the graph missing from it raises ``KernelError``.
    """
    ops = DEFAULT_LATENCIES if latencies is None else latencies
    beta = {a: 1 for a in reuse} if alloc is None else alloc.beta
    mem = {a: mem_latency(info, beta[a]) for a, info in reuse.items()}
    try:
        return {nid: mem[label] if is_mem else ops[label] for nid, is_mem, label in g._rows}
    except KeyError:
        for _, is_mem, label in g._rows:
            if not is_mem and label not in ops:
                raise KernelError(f"unknown op kind {label!r}") from None
        raise


#: each live kernel's graph; an entry dies with its kernel
_GRAPHS: weakref.WeakKeyDictionary[Kernel, Dfg] = weakref.WeakKeyDictionary()


def build_dfg(kernel: Kernel) -> Dfg:
    """The kernel's graph, built by ``_build`` once per kernel object."""
    return _GRAPHS.get(kernel) or _GRAPHS.setdefault(kernel, _build(kernel))


def _build(kernel: Kernel) -> Dfg:
    """Data-flow graph of one body iteration, each node numbered after its inputs.

    ``forwarded_read_ids`` reads attach to the latest earlier store of their
    pattern instead of loading (the d-style forwarding merge) and add no id
    to that store's ``ref_ids``.
    """
    nodes: list[DfgNode] = []
    edges: list[tuple[int, int]] = []
    forwarded = forwarded_read_ids(kernel)
    write_node: dict[tuple[str, tuple], int] = {}  # pattern -> latest store node

    def new_node(kind, label, ref_ids=()):
        n = DfgNode(len(nodes), kind, label, tuple(ref_ids))
        nodes.append(n)
        return n.node_id

    for stmt in kernel.statements:
        inputs: list[int] = []
        for r in stmt.explicit_reads:
            if r.ref_id in forwarded:
                inputs.append(write_node[(r.array, r.subscripts)])  # no load node
            else:
                inputs.append(new_node("mem", r.array, (r.ref_id,)))
        top: int | None = None
        if stmt.op != "copy" and len(stmt.explicit_reads) > 1:
            top = new_node("op", stmt.op)
            for i in inputs:
                edges.append((i, top))
        elif inputs:
            top = inputs[0]
        if stmt.accumulate:
            acc = new_node("op", "accumulate")
            if top is not None:
                edges.append((top, acc))
            top = acc
        w = stmt.write
        ref_ids = [w.ref_id] + [r.ref_id for r in stmt.reads if r.implicit]
        wid = new_node("mem", w.array, ref_ids)
        if top is not None:
            edges.append((top, wid))
        write_node[(w.array, w.subscripts)] = wid

    return Dfg(tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# critical graph

def critical_length(g: Dfg, lat: dict[int, int]) -> int:
    """T_exec under node latencies ``lat``, 0 for no nodes."""
    into = _longest(g._preds, lat)
    return max(map(into.__getitem__, g._sinks), default=0)


def critical_graph(g: Dfg, lat: dict[int, int]) -> Dfg:
    """Zero-slack nodes and edges under ``lat``: the union of all critical paths.

    Node ids are kept, so ``lat`` prices the result too.
    """
    into = _longest(g._preds, lat)
    out = _longest(g._succs, lat, backward=True)
    t_exec = max(map(into.__getitem__, g._sinks), default=0)
    nodes = tuple(n for n in g.nodes
                  if into[n.node_id] + out[n.node_id] - lat[n.node_id] == t_exec)
    edges = tuple(sorted({(a, b) for a, b in g.edges if into[a] + out[b] == t_exec}))
    return Dfg(nodes, edges)


# ---------------------------------------------------------------------------
# cuts

@dataclass(frozen=True)
class Cut:
    """Candidate arrays whose memory nodes together break every critical path."""

    arrays: tuple[str, ...]
    need: int  # registers its arrays still lack under the accounting

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

    An array is a candidate when it saves accesses and its registers held
    stay below its ``required_regs``; ``alloc=None`` holds one register per
    array, as in ``node_latencies``.  An array's need is its increment over
    the registers held ("incremental") or its whole replacement cost
    ("full-alpha").  The cut returned is the set of candidate arrays whose
    memory nodes break every root-to-sink path with the least
    ``(need, len(arrays), arrays)``, and it carries that need.

    Covering is monotone and a strict subset of an array set is strictly
    cheaper in ``(need, size)``, so dropping any one array of the cut
    leaves a path.  Weakly connected components that share no candidate
    array are independent, and the union of their cheapest covers is the
    cheapest cover overall, name tie-break included.  Each component is
    searched by branch-and-bound, bounded below by open paths that share no
    undecided array; the worst case is still exponential in one component's
    candidate arrays, so a search that pops more than ``MAX_CUT_NODES``
    nodes raises ``CapExceededError``.
    """
    beta = {a: 1 for a in reuse} if alloc is None else alloc.beta
    if accounting == "incremental":
        need = {a: info.required_regs - beta[a] for a, info in reuse.items()}
    elif accounting == "full-alpha":
        need = {a: info.required_regs for a, info in reuse.items()}
    else:
        raise ValueError(f"unknown accounting mode {accounting!r}")
    label = {nid: a for nid, is_mem, a in cg._rows
             if is_mem and reuse[a].save > 0 and beta[a] < reuse[a].required_regs}
    if not label:
        return ()

    succs, roots = cg._succs, set(cg._roots)
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
        arrays += best
    arrays.sort()
    return (Cut(tuple(arrays), sum(need[a] for a in arrays)),)


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
