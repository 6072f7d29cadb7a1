"""Steady-state memory-cycle evaluation of an allocation.

The measured window is one interior iteration of the outermost loop:
prologue loads that fill registers and epilogue write-backs of deferred
stores sit outside it.  Memory accesses are grouped into dependence
levels; accesses in one level touch distinct RAM blocks and overlap, so a
level costs one cycle in an iteration exactly when some member access is
not register resident there.

Residency is one rule.  A memory node touches one element per iteration;
its rank is that element's first-access rank in the array's carrier
window, in execution order (statements in sequence, reads before the
write).  The access hits exactly when the rank is below the array's
threshold: infinite under full replacement; 0 for an array that saves
nothing, or that holds one register under the staging-only policy (a
staging latch) or with a store forwarded to a same-iteration read (the
forwarding conduit); beta otherwise.  Ranks do not depend on beta (the
inclusion property of Mattson et al.'s stack algorithm), and one array's
ranks depend only on its own addresses.

So the inner iterations are priced in blocks of ``BLOCK`` points: rank per
array per window, then byteset OR and popcount per level.  A rank is below
a threshold ``t`` exactly when the element is one of the window's first
``t`` distinct addresses, so an array keeps only those, in a set cleared
when its carrier window starts.  Its nodes' integer address streams are
interleaved; each stretch of a block inside one window adds its new
addresses to the set until it holds ``t``, then marks every access hit or
miss by membership in one C-level pass over the stretch.  A node's
misses in a block are a byteset, one byte per point; a level's cycles are
the popcount of its members' OR, an array's the popcount of its nodes'
bytesets.  Arrays that miss everywhere (threshold 0) or nowhere (infinite
threshold, or no carrier: rank 0) are never walked.  Memory stays one
block of addresses and one byteset per memory node, plus at most ``t``
addresses per array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .allocate import Allocation
from .config import CapExceededError, POLICIES, POLICY_ELEMENT, POLICY_STAGING
from .dfg import Dfg, DfgNode, _longest, build_dfg, critical_length, mem_latency, node_latencies
from .kernel import Kernel, iteration_space_size
from .reuse import ReuseInfo, _address_forms

#: inner points priced together; each node's misses in a block are one byteset
BLOCK = 1 << 14
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@dataclass(frozen=True)
class CycleReport:
    kernel: str
    algorithm: str
    policy: str
    register_budget: int
    registers_used: int
    beta: tuple[tuple[str, int], ...]
    memory_cycles: int
    per_level: tuple[int, ...]
    per_array: tuple[tuple[str, int], ...]
    t_exec_per_iter: int
    inner_iterations: int

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "algorithm": self.algorithm,
            "policy": self.policy,
            "budget": self.register_budget,
            "used": self.registers_used,
            "beta": dict(self.beta),
            "memory_cycles": self.memory_cycles,
            "per_level": list(self.per_level),
            "per_array": dict(self.per_array),
            "t_exec_per_iter": self.t_exec_per_iter,
            "inner_iterations": self.inner_iterations,
        }


# ---------------------------------------------------------------------------
# dependence levels

def memory_levels(g: Dfg, ports: int = 1) -> tuple[tuple[int, ...], ...]:
    """Memory nodes grouped by dependence depth, as-soon-as-possible.

    A node's depth is the largest number of memory nodes on one path into
    it, itself excluded: one longest-path pass with weight 1 on memory
    nodes and 0 on arithmetic ones.  Same-array nodes beyond the port
    limit split off into follow-on levels, serializing their accesses.
    """
    if ports < 1:
        raise ValueError("ports must be >= 1")
    is_mem = {n.node_id: int(n.kind == "mem") for n in g.nodes}
    chain = _longest(g.preds(), is_mem)

    by_depth: dict[int, list[DfgNode]] = {}
    for n in sorted(g.mem_nodes(), key=lambda n: n.node_id):
        by_depth.setdefault(chain[n.node_id] - 1, []).append(n)

    levels: list[tuple[int, ...]] = []
    for d in sorted(by_depth):
        slots: dict[int, list[int]] = {}
        seen: dict[str, int] = {}
        for n in by_depth[d]:
            slot = seen.get(n.label, 0) // ports
            seen[n.label] = seen.get(n.label, 0) + 1
            slots.setdefault(slot, []).append(n.node_id)
        for s in sorted(slots):
            levels.append(tuple(slots[s]))
    return tuple(levels)


# ---------------------------------------------------------------------------
# ranks and thresholds

def _threshold(info: ReuseInfo, beta: int, policy: str) -> float:
    """Lowest first-access rank that misses the registers of an array holding beta."""
    if mem_latency(info, beta) == 0:
        return math.inf
    if info.save <= 0 or (beta < 2 and (policy == POLICY_STAGING or info.forwarded_store)):
        return 0
    return beta


def _block_misses(kernel: Kernel, reuse: dict[str, ReuseInfo], mem: list[DfgNode],
                  threshold: dict[str, float]):
    """Each memory node's misses, one block of interior inner points at a time.

    The outermost index sits at its middle value; the inner points follow
    in loop order, ``BLOCK`` to a block.  Yields one list per block,
    indexed like ``mem``: a node's byteset has byte ``i`` set to 1 when it
    misses at the block's ``i``-th point.  Only the arrays in ``threshold``
    are priced; other nodes read 0.

    An array misses everywhere at threshold 0, and nowhere at infinity or
    without a carrier (rank 0).  Otherwise each stretch of a block inside
    one carrier window extends the set of the window's first ``t`` distinct
    addresses, the ranks below ``t``, and an access hits exactly when its
    address is in that set.
    """
    loops = kernel.loops
    mid = loops[0].lower + (loops[0].trip // 2) * loops[0].step
    pattern = {r.ref_id: r.subscripts for r in kernel.refs}
    always: list[int] = []
    walks = []
    for a, t in threshold.items():
        nodes = [p for p, n in enumerate(mem) if n.label == a]
        if t <= 0:
            always += nodes
        if not 0 < t < math.inf or reuse[a].carrier is None:
            continue
        subs = [pattern[mem[p].ref_ids[0]] for p in nodes]
        pats = list(dict.fromkeys(subs))
        form = dict(zip(pats, _address_forms(kernel, a, pats)))
        streams = []
        for base, coeffs in map(form.__getitem__, subs):
            offsets = [(base + coeffs[0] * mid,)]
            offsets += [tuple(c * x for x in lp.range) for c, lp in zip(coeffs[1:], loops[1:])]
            streams.append(map(sum, itertools.product(*offsets)))
        span = iteration_space_size(kernel, reuse[a].carrier + 1)
        walks.append((nodes, itertools.chain.from_iterable(zip(*streams)), span, t, set()))

    count = iteration_space_size(kernel, 1)
    for start in range(0, count, BLOCK):
        end = min(count, start + BLOCK)
        miss = [0] * len(mem)
        everywhere = int.from_bytes(b"\1" * (end - start), "little")
        for p in always:
            miss[p] = everywhere
        for nodes, stream, span, t, first in walks:
            hits = bytearray()
            lo = start
            while lo < end:
                if lo % span == 0:
                    first.clear()
                hi = min(end, lo - lo % span + span)
                seg = list(itertools.islice(stream, (hi - lo) * len(nodes)))
                # the filter reads the set as it grows: first accesses only
                fresh = itertools.filterfalse(first.__contains__, seg)
                for x in itertools.islice(fresh, t - len(first)):
                    first.add(x)
                hits.extend(map(first.__contains__, seg))
                lo = hi
            flags = hits.translate(_FLIP)
            for q, p in enumerate(nodes):
                miss[p] = int.from_bytes(flags[q::len(nodes)], "little")
        yield miss


# ---------------------------------------------------------------------------
# cycle counting

def steady_state_cycles(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc: Allocation,
                        policy: str = POLICY_ELEMENT, ports: int = 1,
                        latencies: dict[str, int] | None = None,
                        cap: int | None = None) -> CycleReport:
    """Memory cycles of one interior outermost-loop iteration.

    Walks every inner iteration once, a block at a time; a dependence level
    charges one cycle at each point where any member node's rank reaches
    its array's threshold: the popcount of the OR of its members' misses.
    Deferred stores and forwarded reads charge nothing; an array that saves
    nothing charges on every access.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    alloc.validate(reuse)
    g = build_dfg(kernel, latencies)
    t_exec_val = critical_length(g, node_latencies(g, reuse, alloc))
    levels = memory_levels(g, ports)
    inner_count = iteration_space_size(kernel, 1)
    if cap is not None and inner_count > cap:
        raise CapExceededError(f"inner iteration space {inner_count} exceeds cap {cap}")

    mem = g.mem_nodes()
    pos = {n.node_id: p for p, n in enumerate(mem)}
    members = [[pos[nid] for nid in level] for level in levels]
    threshold = {a: _threshold(info, alloc.beta[a], policy) for a, info in reuse.items()}
    per_level = [0] * len(levels)
    per_array = {a: 0 for a in reuse}
    for miss in _block_misses(kernel, reuse, mem, threshold):
        for n, m in zip(mem, miss):
            per_array[n.label] += m.bit_count()
        for li, level in enumerate(members):
            union = 0
            for p in level:
                union |= miss[p]
            per_level[li] += union.bit_count()

    return CycleReport(
        kernel=kernel.name,
        algorithm=alloc.algorithm,
        policy=policy,
        register_budget=alloc.register_budget,
        registers_used=alloc.registers_used,
        beta=tuple(sorted(alloc.beta.items())),
        memory_cycles=sum(per_level),
        per_level=tuple(per_level),
        per_array=tuple(sorted(per_array.items())),
        t_exec_per_iter=t_exec_val,
        inner_iterations=inner_count,
    )
