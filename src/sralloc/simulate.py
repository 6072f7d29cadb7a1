"""Steady-state memory-cycle evaluation of an allocation.

The measured window is one interior iteration of the outermost loop:
prologue loads that fill registers and epilogue write-backs of deferred
stores sit outside it.  Memory accesses are grouped into dependence
levels; accesses in one level touch distinct RAM blocks and overlap, so a
level costs one cycle in an iteration exactly when some member access is
not register resident there.

Residency is decided per element: the first elements of an array's
carrier working set, in first-access order, live in its registers.  Under
the default element-level policy every register exploits reuse; under the
staging-only policy a single register is a staging latch and confers
nothing.  An array whose store is forwarded to a same-iteration read
needs at least two registers before its stores can be deferred, because
one register is permanently the forwarding conduit.  First-access ranks
follow execution order: statements in sequence, reads before the write.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .allocate import Allocation
from .config import CapExceededError, POLICIES, POLICY_ELEMENT, POLICY_STAGING
from .dfg import Dfg, DfgNode, _longest, build_dfg, critical_length, node_latencies
from .kernel import ArrayRef, Kernel, KernelValidationError, iteration_space_size
from .reuse import ReuseInfo, forwarded_read_ids


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
# residency

class _ArrayResidency:
    """Streaming first-access ranks within the current carrier window."""

    def __init__(self, info: ReuseInfo, beta: int, policy: str):
        self.carrier = info.carrier
        self.beta = beta
        self.window_key: tuple | None = None
        self.ranks: dict[tuple, int] = {}
        always = info.save > 0 and beta == info.required_regs
        never = (info.save <= 0
                 or (beta < 2 and (policy == POLICY_STAGING or info.forwarded_store)))
        self.fixed: bool | None = True if always else (False if never else None)

    def touch(self, point: tuple[int, ...], element: tuple[int, ...]) -> bool:
        if self.fixed is not None:
            return self.fixed
        key = point[: self.carrier + 1]
        if key != self.window_key:
            self.window_key = key
            self.ranks = {}
        rank = self.ranks.setdefault(element, len(self.ranks))
        return rank < self.beta


def _policy_check(policy: str):
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")


def _access_order(kernel: Kernel) -> list[ArrayRef]:
    """Memory accesses of one iteration in execution order.

    Statements run in sequence; a statement's reads precede its write, the
    implicit reduction read after the explicit ones.  Forwarded reads are
    not memory accesses and are skipped.
    """
    forwarded = forwarded_read_ids(kernel)
    order: list[ArrayRef] = []
    for stmt in kernel.statements:
        for r in stmt.reads:
            if r.ref_id not in forwarded:
                order.append(r)
        order.append(stmt.write)
    return order


def residency(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc: Allocation,
              array: str, iteration: tuple[int, ...],
              policy: str = POLICY_ELEMENT) -> bool:
    """Whether every access of ``array`` at ``iteration`` hits a register.

    Replays the carrier window containing the iteration to recover
    first-access ranks.
    """
    _policy_check(policy)
    if len(iteration) != kernel.depth:
        raise KernelValidationError("iteration vector length differs from nest depth")
    info = reuse[array]
    state = _ArrayResidency(info, alloc.beta[array], policy)
    if state.fixed is not None:
        return state.fixed
    accesses = [r for r in _access_order(kernel) if r.array == array]
    names = kernel.index_names
    carrier = info.carrier
    prefix = iteration[: carrier + 1]
    hit = True
    for inner in itertools.product(*(lp.range for lp in kernel.loops[carrier + 1:])):
        point = prefix + inner
        env = dict(zip(names, point))
        for r in accesses:
            ok = state.touch(point, r.element(env))
            if point == tuple(iteration):
                hit = hit and ok
    return hit


# ---------------------------------------------------------------------------
# cycle counting

def steady_state_cycles(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc: Allocation,
                        policy: str = POLICY_ELEMENT, ports: int = 1,
                        latencies: dict[str, int] | None = None,
                        cap: int | None = None) -> CycleReport:
    """Memory cycles of one interior outermost-loop iteration.

    Walks every inner iteration once; a dependence level charges one cycle
    when any member access misses the registers.  Deferred stores and
    forwarded reads charge nothing; an array that saves nothing charges on
    every access.
    """
    _policy_check(policy)
    alloc.validate(reuse)
    g = build_dfg(kernel, latencies)
    t_exec_val = critical_length(g, node_latencies(g, reuse, alloc))
    levels = memory_levels(g, ports)
    inner_count = iteration_space_size(kernel, 1) if kernel.loops else 0
    if cap is not None and inner_count > cap:
        raise CapExceededError(f"inner iteration space {inner_count} exceeds cap {cap}")

    # map each memory node to the access that defines its element
    ref_node: dict[int, int] = {}
    for n in g.mem_nodes():
        for rid in n.ref_ids:
            ref_node[rid] = n.node_id
    accesses = [(r, ref_node[r.ref_id]) for r in _access_order(kernel)]

    names = kernel.index_names
    outer = kernel.loops[0] if kernel.loops else None
    mid = outer.lower + (outer.trip // 2) * outer.step if outer else 0

    state = {a: _ArrayResidency(info, alloc.beta[a], policy) for a, info in reuse.items()}
    per_level = [0] * len(levels)
    per_array = {a: 0 for a in reuse}
    label = {n.node_id: n.label for n in g.nodes}

    for inner in itertools.product(*(lp.range for lp in kernel.loops[1:])):
        point = (mid,) + inner
        env = dict(zip(names, point))
        node_hit: dict[int, bool] = {}
        for r, nid in accesses:
            ok = state[r.array].touch(point, r.element(env))
            node_hit[nid] = node_hit.get(nid, True) and ok
        for li, level in enumerate(levels):
            miss = False
            for nid in level:
                if not node_hit[nid]:
                    miss = True
                    per_array[label[nid]] += 1
            if miss:
                per_level[li] += 1

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
