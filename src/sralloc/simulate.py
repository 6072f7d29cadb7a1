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
inclusion property of Mattson et al.'s stack algorithm), so one streaming
walk over integer addresses, holding one window per array, finds them.
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


def _rank_rows(kernel: Kernel, reuse: dict[str, ReuseInfo], g: Dfg):
    """Each memory node's first-access rank, by ascending id, at every interior inner point.

    The outermost index sits at its middle value; the inner points follow
    in loop order.  A node's address is its pattern's linear form; its
    array's ranks restart whenever the carrier window does.  Arrays with
    no carrier rank 0: their threshold alone decides.
    """
    loops = kernel.loops
    mid = loops[0].lower + (loops[0].trip // 2) * loops[0].step if loops else 0
    mem = g.mem_nodes()
    pattern = {r.ref_id: r.subscripts for r in kernel.refs}
    subs = [pattern[n.ref_ids[0]] for n in mem]

    # a node without a carrier reads address 0 from a never-cleared dict
    count = math.prod(lp.trip for lp in loops[1:])
    streams = [itertools.repeat(0, count) for _ in mem]
    seen: list[dict[int, int]] = [{}] * len(mem)
    windows = []
    for a, info in reuse.items():
        if info.carrier is None:
            continue
        nodes = [p for p, n in enumerate(mem) if n.label == a]
        pats = list(dict.fromkeys(subs[p] for p in nodes))
        form = dict(zip(pats, _address_forms(kernel, a, pats)))
        ranks: dict[int, int] = {}
        windows.append((ranks, iteration_space_size(kernel, info.carrier + 1)))
        for p in nodes:
            base, coeffs = form[subs[p]]
            offsets = [(base + coeffs[0] * mid,)]
            offsets += [tuple(c * x for x in lp.range) for c, lp in zip(coeffs[1:], loops[1:])]
            streams[p] = map(sum, itertools.product(*offsets))
            seen[p] = ranks
    for i, addrs in enumerate(zip(*streams)):
        for ranks, span in windows:
            if i % span == 0:
                ranks.clear()
        yield [s.setdefault(a, len(s)) for s, a in zip(seen, addrs)]


# ---------------------------------------------------------------------------
# cycle counting

def steady_state_cycles(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc: Allocation,
                        policy: str = POLICY_ELEMENT, ports: int = 1,
                        latencies: dict[str, int] | None = None,
                        cap: int | None = None) -> CycleReport:
    """Memory cycles of one interior outermost-loop iteration.

    Walks every inner iteration once; a dependence level charges one cycle
    when any member node's rank reaches its array's threshold.  Deferred
    stores and forwarded reads charge nothing; an array that saves nothing
    charges on every access.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    alloc.validate(reuse)
    g = build_dfg(kernel, latencies)
    t_exec_val = critical_length(g, node_latencies(g, reuse, alloc))
    levels = memory_levels(g, ports)
    inner_count = iteration_space_size(kernel, 1) if kernel.loops else 0
    if cap is not None and inner_count > cap:
        raise CapExceededError(f"inner iteration space {inner_count} exceeds cap {cap}")

    mem = g.mem_nodes()
    pos = {n.node_id: p for p, n in enumerate(mem)}
    threshold = [_threshold(reuse[n.label], alloc.beta[n.label], policy) for n in mem]
    members = [[pos[nid] for nid in level] for level in levels]
    labels = [n.label for n in mem]
    per_level = [0] * len(levels)
    per_array = {a: 0 for a in reuse}
    for row in _rank_rows(kernel, reuse, g):
        for li, level in enumerate(members):
            charged = [p for p in level if row[p] >= threshold[p]]
            if charged:
                per_level[li] += 1
                for p in charged:
                    per_array[labels[p]] += 1

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
