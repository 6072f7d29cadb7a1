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
forwarding conduit); beta otherwise.

Ranks do not depend on beta (the inclusion property of Mattson et al.'s
stack algorithm), so each array is walked once per kernel object and port
count.  Each call takes the kernel's one graph from ``build_dfg`` and
prices ``T_exec`` on it with ``node_latencies`` under its latency table.
The first call for a kernel object and port count builds one cost model
from that graph: the memory levels, each array's node positions and
subscripts, the all-miss
bitset once a call has passed the cap and, per walked array, carrier and
``required_regs``, a column of each access's rank at every interior inner
point, clipped at ``required_regs`` (exact: beta = ``required_regs`` prices
at infinity) in the narrowest ``array`` typecode, walked ``BLOCK`` points at
a time from one block per node over the innermost loops that fit, shifted
per outer point.  A node misses where its rank is ``>= t``, the threshold: a
call compares the column's byte planes, keeping nothing per threshold, and a
level's cycles are the popcount of its members' OR.  Arrays that miss
everywhere (threshold 0) or nowhere (infinite threshold, or no carrier:
rank 0) are never walked, and a call walks at most ``MAX_RANK_ENTRIES``
accesses.  The models sit in a ``WeakKeyDictionary`` keyed by the kernel
and hold no reference to it, so a model lives as long as its kernel object.
"""

from __future__ import annotations

import itertools
import math
import sys
import weakref
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, or_

from .config import CapExceededError, POLICIES, POLICY_ELEMENT, POLICY_STAGING
from .dfg import build_dfg, critical_length, mem_latency, memory_levels, node_latencies
from .kernel import Kernel, iteration_space_size
from .reuse import ReuseInfo, _address_forms

#: inner points whose addresses are streamed together while a rank column is built
BLOCK = 1 << 14
#: accesses one call may rank: interior inner points times walked memory nodes
MAX_RANK_ENTRIES = 1 << 25


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
# ranks and thresholds

def _threshold(info: ReuseInfo, beta: int, policy: str) -> float:
    """Lowest first-access rank that misses the registers of an array holding beta."""
    if mem_latency(info, beta) == 0:
        return math.inf
    if info.save <= 0 or (beta < 2 and (policy == POLICY_STAGING or info.forwarded_store)):
        return 0
    return beta


def _at_least(column: array, t: int, k: int, ones: int) -> list[int]:
    """Bitsets of ``column[q::k] >= t`` for each ``q < k``, bit ``8p`` per access.

    Per node, over little-endian byte planes from the least significant:
    ``out = (plane > d) | ((plane == d) & out)``, ``d`` being ``t``'s byte and
    ``out`` starting as ``ones`` (bit ``8p`` per access).  Plane ``i``'s
    ``bytes.translate`` maps below, at and above ``d`` to 0, ``2^i`` and
    ``2^(i+1)``; added to ``out``, no carry leaves a byte: bit ``i + 1`` is ``out``.
    """
    raw, w = column.tobytes(), column.itemsize
    out = []
    for q in range(k):
        total = ones
        for i in range(w):
            d = t >> 8 * i & 255
            table = bytes(d) + bytes((1 << i,)) + bytes((2 << i,)) * (255 - d)
            plane = slice(q * w + (i if sys.byteorder == "little" else w - 1 - i), None, k * w)
            total += int.from_bytes(raw[plane].translate(table), "little")
        out.append(total >> w & ones)
    return out


def _shifted(block: list[int], cols: list[list[int]]) -> Iterator[int]:
    """``block`` once per point of the columns' product, in loop order, shifted by its sum."""
    return itertools.chain.from_iterable(
        map(add, block, itertools.repeat(s)) if s else block
        for s in map(sum, itertools.product(*cols)))


class _CostModel:
    """One kernel's memory levels, node index and rank columns; holds no reference to
    the kernel or its graph, whose structure no latency table changes."""

    def __init__(self, kernel: Kernel, graph, ports: int):
        self.mem = graph.mem_nodes()
        pos = {n.node_id: p for p, n in enumerate(self.mem)}
        self.members = [[pos[nid] for nid in lev] for lev in memory_levels(graph, ports)]
        self.points = iteration_space_size(kernel, 1)
        self.index: dict[str, tuple[list[int], list]] = {}  # array -> positions in mem, subscripts
        pattern = {r.ref_id: r.subscripts for r in kernel.refs}
        for p, n in enumerate(self.mem):
            at, subs = self.index.setdefault(n.label, ([], []))
            at.append(p)
            subs.append(pattern[n.ref_ids[0]])
        self.ranks: dict[tuple, array] = {}  # (array, carrier, required_regs) -> column

    @cached_property
    def everywhere(self) -> int:
        """The all-miss bitset, first built by a call that passed the cap."""
        return int.from_bytes(b"\1" * self.points, "little")

    def misses(self, kernel: Kernel, reuse: dict[str, ReuseInfo],
               threshold: dict[str, float]) -> list[int]:
        """Miss bitsets, indexed like ``mem``; nodes of arrays not in ``threshold`` read 0."""
        walk = {a: t for a, t in threshold.items()
                if 0 < t < math.inf and reuse[a].carrier is not None}
        entries = self.points * sum(len(self.index[a][0]) for a in walk)
        if entries > MAX_RANK_ENTRIES:
            raise CapExceededError(
                f"kernel {kernel.name!r} walks {entries} accesses for first-access "
                f"ranks, above the rank ceiling of {MAX_RANK_ENTRIES}")
        miss = [self.everywhere if threshold.get(n.label, 1) <= 0 else 0 for n in self.mem]
        for a, t in walk.items():
            key = (a, reuse[a].carrier, reuse[a].required_regs)
            if key not in self.ranks:
                self.ranks[key] = self._walk(kernel, *key)
            at = self.index[a][0]
            for p, bits in zip(at, _at_least(self.ranks[key], t, len(at), self.everywhere)):
                miss[p] = bits
        return miss

    def _walk(self, kernel: Kernel, a: str, carrier: int, clip: int) -> array:
        """``a``'s ranks, clipped at ``clip``: inner points in loop order, the outermost
        index at its middle value, and at each point ``a``'s nodes in execution order."""
        loops = kernel.loops
        mid = loops[0].lower + (loops[0].trip // 2) * loops[0].step
        subs = self.index[a][1]
        pats = list(dict.fromkeys(subs))
        form = dict(zip(pats, _address_forms(kernel, a, pats)))
        cut, size = len(loops), 1  # a block over loops[cut:], at most BLOCK points
        while cut > 1 and size * loops[cut - 1].trip <= BLOCK:
            cut -= 1
            size *= loops[cut].trip
        streams = []
        for base, coeffs in map(form.__getitem__, subs):
            block = [base + coeffs[0] * mid]
            for c, lp in zip(reversed(coeffs[cut:]), reversed(loops[cut:])):
                block = [x + off for off in [c * v for v in lp.range] for x in block]
            streams.append(_shifted(block, [[c * v for v in lp.range]
                                            for c, lp in zip(coeffs[1:cut], loops[1:cut])]))
        stream = streams[0] if len(streams) == 1 else itertools.chain.from_iterable(zip(*streams))
        span = iteration_space_size(kernel, carrier + 1)
        column = array("B" if clip < 1 << 8 else "H" if clip < 1 << 16 else "I")
        pack, append = (bytes, column.frombytes) if clip < 1 << 8 else (list, column.fromlist)
        for _ in range(self.points // span):
            first: dict[int, int] = {}
            for lo in range(0, span, BLOCK):
                seg = list(itertools.islice(stream, min(BLOCK, span - lo) * len(subs)))
                # the filter reads the dict as it grows: first accesses only
                fresh = itertools.filterfalse(first.__contains__, seg)
                first.update(zip(itertools.islice(fresh, clip - len(first)),
                                 itertools.count(len(first))))
                append(pack(map(first.get, seg, itertools.repeat(clip))))
        return column


#: each live kernel's cost models by port count; an entry dies with its kernel
_MODELS: weakref.WeakKeyDictionary[Kernel, dict] = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# cycle counting

def steady_state_cycles(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc,
                        policy: str = POLICY_ELEMENT, ports: int = 1,
                        latencies: dict[str, int] | None = None,
                        cap: int | None = None) -> CycleReport:
    """Memory cycles of one interior outermost-loop iteration.

    Prices the allocation on the kernel's cost model: a dependence level
    charges one cycle at each point where any member node's rank reaches
    its array's threshold.  Deferred stores and forwarded reads charge
    nothing; an array that saves nothing charges on every access.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    alloc.validate(reuse)
    graph = build_dfg(kernel)
    lat = node_latencies(graph, reuse, alloc, latencies)
    models = _MODELS.setdefault(kernel, {})
    model = models[ports] = models.get(ports) or _CostModel(kernel, graph, ports)
    if cap is not None and model.points > cap:
        raise CapExceededError(f"inner iteration space {model.points} exceeds cap {cap}")
    threshold = {a: _threshold(info, alloc.beta[a], policy) for a, info in reuse.items()}
    miss = model.misses(kernel, reuse, threshold)
    per_array = {a: 0 for a in reuse}
    for n, m in zip(model.mem, miss):
        per_array[n.label] += m.bit_count()
    per_level = [reduce(or_, map(miss.__getitem__, level), 0).bit_count()
                 for level in model.members]

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
        t_exec_per_iter=critical_length(graph, lat),
        inner_iterations=model.points,
    )
