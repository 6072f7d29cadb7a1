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
stack algorithm), so the first call for a kernel object and port count
builds a cost model from the kernel's one graph (``build_dfg``) that later
calls read: each level's member nodes, each array's node subscripts, the
all-miss bitset, and per walked array, carrier and ``required_regs`` a rank
column over the interior inner points, clipped at ``required_regs`` (beta =
``required_regs`` prices at infinity) and walked as ``range`` runs of at
most ``BLOCK`` addresses.

Ranks also do not change when a window is translated, so a walk ranks only
what decides the column and copies the rest.  A loop inside the carrier
window along which no node of the array moves is still: after its first
value it touches ranked addresses again, in the same order, so its chunk of
the column repeats.  An enclosing loop (between the outermost loop and the
carrier, the carrier included) along which all nodes move alike only
translates the window, so its chunk repeats too.  The walk streams the
other loops, and builds each repeated chunk by slice assignments into one
preallocated column.

A call prices ``T_exec`` with ``node_latencies`` and ``critical_length``,
then each array's misses (``array_misses``, a byte-plane compare of its
column with the threshold) and each level's cycles (``level_cycles``, the
popcount of an OR).  The model keeps nothing per threshold or allocation,
and dies with its kernel.
"""

from __future__ import annotations

import math
import sys
import weakref
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, filterfalse, groupby, islice, repeat, tee
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


#: plane ``i``'s compare table for a threshold byte ``d``: its slice ``[255 - d:511 - d]``
_PLANES = [bytes([i == 0] * 255 + [(i == 0) + (1 << i), *[(i == 0) + (2 << i)] * 255])
           for i in range(4)]
#: its slice ``[256 - t:512 - t]`` maps a byte to whether it is ``>= t``; at ``2^w``, bit ``w``
_BIT = bytes(256) + b"\1" * 256


def _at_least(column: array, t: int, k: int) -> list[int]:
    """Bitsets of ``column[q::k] >= t`` for each ``q < k``, bit ``8p`` per access.

    One ``bytes.translate`` for a one-byte column.  A wider one sums its byte
    planes ``i``, each translated to 0, ``2^i`` or ``2^(i+1)`` below, at or above
    ``t``'s byte ``i``, plus 1 in plane 0: no carry leaves an access's byte, whose
    bit ``w`` is whether it reaches ``t``.  Each table is a slice of a fixed one.
    """
    raw, w = column.tobytes(), column.itemsize
    if w == 1:
        hits = raw.translate(_BIT[256 - t:512 - t])
    else:
        total = 0
        for i in range(w):
            d = t >> 8 * i & 255
            plane = raw[i if sys.byteorder == "little" else w - 1 - i::w]
            total += int.from_bytes(plane.translate(_PLANES[i][255 - d:511 - d]), "little")
        hits = total.to_bytes(len(column), "little").translate(_BIT[256 - (1 << w):512 - (1 << w)])
    return [int.from_bytes(hits[q::k], "little") for q in range(k)]


def _runs(x: int, coeffs, loops) -> Iterator:
    """``x`` plus ``coeffs`` dotted with each point of ``loops``, in loop order, as
    runs of the last loop, each a ``range`` of at most ``BLOCK`` points or for a
    move of 0 a repeat, and each placed by the loops outside it: no address costs
    Python work.  A loop whose move spans the run inside it joins that run."""
    shape = []  # (move, trip) per loop, joined runs merged
    for c, lp in zip(coeffs, loops):
        x, s, n = x + c * lp.lower, c * lp.step, lp.trip
        if shape and shape[-1][0] == s * n:
            shape[-1] = (s, shape[-1][1] * n)
        else:
            shape.append((s, n))
    runs = iter(((x,),))
    for s, n in shape:
        starts = chain.from_iterable(runs)
        if s == 0:
            runs = map(repeat, starts, repeat(n))
        else:
            starts, ends = tee(starts)
            runs = map(range, starts, map(add, ends, repeat(s * n)), repeat(s))
    if shape and shape[-1][0] and shape[-1][1] > BLOCK:  # the last loop's runs, in pieces
        runs = (run[j:j + BLOCK] for run in runs for j in range(0, shape[-1][1], BLOCK))
    return runs


class _CostModel:
    """One kernel's levels, node index and rank columns, and no reference to the kernel
    or its graph.  ``index`` maps each array, in name order, to its nodes' subscripts
    in execution order; ``members`` numbers each level's nodes in that order."""

    def __init__(self, kernel: Kernel, graph, ports: int):
        pattern = {r.ref_id: r.subscripts for r in kernel.refs}
        nodes = sorted(graph.mem_nodes(), key=lambda n: (n.label, n.node_id))
        pos = {n.node_id: p for p, n in enumerate(nodes)}
        self.members = [[pos[nid] for nid in lev] for lev in memory_levels(graph, ports)]
        self.points = iteration_space_size(kernel, 1)
        self.index = {a: [pattern[n.ref_ids[0]] for n in group]  # array -> its nodes' subscripts
                      for a, group in groupby(nodes, key=lambda n: n.label)}
        self.ranks: dict[tuple, array] = {}  # (array, carrier, required_regs) -> column

    @cached_property
    def everywhere(self) -> int:
        """The all-miss bitset, first built by a call that passed the cap."""
        return int.from_bytes(b"\1" * self.points, "little")

    def array_misses(self, kernel: Kernel, info: ReuseInfo, t: float) -> list[int]:
        """Miss bitsets of ``info.array``'s nodes at threshold ``t``, in ``index``
        order: where a node's rank is ``>= t``, its array walked on first need."""
        k = len(self.index[info.array])
        if t <= 0 or t == math.inf or info.carrier is None:  # misses everywhere or nowhere
            return [self.everywhere if t <= 0 else 0] * k
        key = (info.array, info.carrier, info.required_regs)
        column = self.ranks.get(key) or self.ranks.setdefault(key, self._walk(kernel, *key))
        return _at_least(column, t, k)

    @staticmethod
    def level_cycles(bitsets) -> int:
        """A level's cycles: the points where some of the given miss bitsets is set."""
        return reduce(or_, bitsets, 0).bit_count()

    def _walk(self, kernel: Kernel, a: str, carrier: int, clip: int) -> array:
        """``a``'s ranks, clipped at ``clip``: inner points in loop order, the outermost
        index at its middle value, and at each point ``a``'s nodes in execution order.

        Streams only the loops that move some node inside the window, or move
        the nodes apart outside it; the chunks along the other loops are copies
        (the rules are in the module docstring).
        """
        outer, inner = kernel.loops[0], kernel.loops[1:]
        subs = self.index[a]  # a repeated pattern gets the same form: no wider box
        mid = outer.lower + (outer.trip // 2) * outer.step
        forms = [(base + c0 * mid, cs) for base, (c0, *cs) in _address_forms(kernel, a, subs)]
        k, span, loops = len(subs), iteration_space_size(kernel, carrier + 1), inner
        windows = self.points // span
        if carrier or 0 in forms[0][1]:  # enclosing loops, or one the first node stays along
            cols = [*zip(*[cs for _, cs in forms])]  # each inner loop's coefficients, by node
            walked = [len(set(c)) > 1 for c in cols[:carrier]]  # moves the nodes apart,
            walked += map(any, cols[carrier:])  # or moves some node in the window
            loops = list(compress(inner, walked))
            forms = [(base, [*compress(cs, walked)]) for base, cs in forms]
            trips = [lp.trip for lp in inner]
            span = math.prod(compress(trips[carrier:], walked[carrier:]))
            windows = math.prod(compress(trips[:carrier], walked))
        streams = [chain.from_iterable(_runs(base, cs, loops)) for base, cs in forms]
        stream = streams[0] if len(streams) == 1 else chain.from_iterable(zip(*streams))
        column = array("B" if clip < 1 << 8 else "H" if clip < 1 << 16 else "I")
        pack, append = (bytes, column.frombytes) if clip < 1 << 8 else (list, column.fromlist)
        for _ in range(windows):
            first: dict[int, int] = {}
            for lo in range(0, span, BLOCK):
                seg = list(islice(stream, min(BLOCK, span - lo) * k))
                # the filter reads the dict as it grows: first accesses only
                first.update(zip(filterfalse(first.__contains__, seg), range(len(first), clip)))
                append(pack(map(first.get, seg, repeat(clip))))
        if len(loops) < len(inner):
            size = k  # entries per point of the loops inside ``lp``
            for lp, kept in zip(reversed(inner), reversed(walked)):
                if not kept and lp.trip > 1:
                    column = _repeated(column, size, lp.trip)
                size *= lp.trip
        return column


def _repeated(column: array, size: int, n: int) -> array:
    """``column`` with each chunk of ``size`` entries repeated ``n`` times.

    Filled in place by slice assignments, with no object per chunk: per chunk,
    one copy and then doublings of it, or, when that takes more assignments,
    one strided copy per entry of a repeated chunk.
    """
    out = array(column.typecode, [0]) * (len(column) * n)
    src, dst, whole = memoryview(column), memoryview(out), size * n
    if len(column) // size * n.bit_length() <= whole:
        for at in range(0, len(out), whole):
            dst[at:at + size] = src[at // n:at // n + size]
            done = size  # entries filled
            while done < whole:  # double them
                m = min(done, whole - done)
                dst[at + done:at + done + m] = dst[at:at + m]
                done += m
    else:
        for j in range(whole):
            dst[j::whole] = src[j % size::size]
    return out


#: each live kernel's cost models by port count; an entry dies with its kernel
_MODELS: weakref.WeakKeyDictionary[Kernel, dict] = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# cycle counting

def steady_state_cycles(kernel: Kernel, reuse: dict[str, ReuseInfo], alloc,
                        policy: str = POLICY_ELEMENT, ports: int = 1,
                        latencies: dict[str, int] | None = None,
                        cap: int | None = None) -> CycleReport:
    """Memory cycles of one interior outermost-loop iteration.

    A dependence level charges one cycle at each point where any member
    node's rank reaches its array's threshold.  Deferred stores and forwarded
    reads charge nothing; an array that saves nothing charges on every access.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    alloc.validate(reuse)
    graph = build_dfg(kernel)
    t_exec = critical_length(graph, node_latencies(graph, reuse, alloc, latencies))
    models = _MODELS.get(kernel) or _MODELS.setdefault(kernel, {})
    model = models[ports] = models.get(ports) or _CostModel(kernel, graph, ports)
    if cap is not None and model.points > cap:
        raise CapExceededError(f"inner iteration space {model.points} exceeds cap {cap}")
    threshold = {a: _threshold(info, alloc.beta[a], policy) for a, info in reuse.items()}
    entries = model.points * sum(len(model.index[a]) for a, t in threshold.items()
                                 if 0 < t < math.inf and reuse[a].carrier is not None)
    if entries > MAX_RANK_ENTRIES:
        raise CapExceededError(
            f"kernel {kernel.name!r} walks {entries} accesses for first-access "
            f"ranks, above the rank ceiling of {MAX_RANK_ENTRIES}")
    miss, per_array = [], []
    for a in model.index:
        bits = model.array_misses(kernel, reuse[a], threshold[a])
        miss += bits
        per_array.append((a, sum(map(int.bit_count, bits))))
    per_level = [model.level_cycles(map(miss.__getitem__, level)) for level in model.members]
    return CycleReport(
        kernel=kernel.name, algorithm=alloc.algorithm, policy=policy,
        register_budget=alloc.register_budget, registers_used=alloc.registers_used,
        beta=tuple(sorted(alloc.beta.items())), memory_cycles=sum(per_level),
        per_level=tuple(per_level), per_array=tuple(per_array),
        t_exec_per_iter=t_exec, inner_iterations=model.points)
