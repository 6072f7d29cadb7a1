"""Brute-force ground truth for the analytic modules.

Everything here enumerates every iteration point and keeps its own
bookkeeping.  A reference's trace is the linearized address at each point,
in loop order, from the oracle's own per-dimension layout (one per kernel)
rather than the analyzer's address forms, grown from the innermost loop
outward by bulk copies once it is read.  A carrier window is one iteration
of the loops down to the carrier, not a window in the analyzer's algebra:
the distinct addresses of the block inside it, shifted by the run of the
carrier loop and by the offset of its enclosing iteration, built one array
at a time and never as an offset per point.  Windows are consecutive only
inside one enclosing iteration; enclosing iterations placed alike, and
pairs whose runs move alike, are compared once, and an array none of whose
addresses occurs twice has no carrier.  The replay
reads each array's events point-major over the middle outer iteration and
gives each carrier window a fill-once register file, holding the window's
first distinct addresses, instead of rank arithmetic; it levels
dependences on its own and returns each event's hit column.
Agreement with the analytic modules is therefore evidence of correctness
rather than shared code, at the price of being slower.
"""

from __future__ import annotations

import random
import weakref
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, islice, pairwise, repeat, starmap
from math import prod
from operator import add, and_, sub
from typing import NamedTuple

from .config import CapExceededError, DEFAULT_CAP, POLICIES, POLICY_ELEMENT, POLICY_STAGING
from .kernel import AffineExpr, ArrayRef, Kernel, Loop, iteration_space_size, parse_kernel


@dataclass(frozen=True)
class AccessTrace:
    ref_id: int
    array: str
    access: str
    shape: tuple[int, ...]  # trip count of each loop
    ref: ArrayRef = field(repr=False)
    layout: tuple[tuple[int, int], ...] = field(repr=False)
    loops: tuple[Loop, ...] = field(repr=False)

    @cached_property
    def addrs(self) -> array:  # linearized address at every point, in loop order, once read
        return _address_stream(self.ref, self.layout, self.loops)

    def __len__(self) -> int:
        return prod(self.shape)


#: each live kernel's layouts, computed once; an entry dies with its kernel
_LAYOUTS: weakref.WeakKeyDictionary[Kernel, dict] = weakref.WeakKeyDictionary()


def _array_layouts(kernel: Kernel) -> dict[str, tuple[tuple[int, int], ...]]:
    """Per-array (lo, hi) value range of each subscript dimension, once per kernel."""
    if kernel in _LAYOUTS:
        return _LAYOUTS[kernel]
    bounds = {lp.index: (lp.lower, lp.upper - ((lp.upper - lp.lower - 1) % lp.step) - 1)
              for lp in kernel.loops}
    layouts: dict[str, list[list[int]]] = {}
    for r in kernel.refs:
        dims = layouts.setdefault(r.array, [[0, 0] for _ in r.subscripts])
        for d, expr in enumerate(r.subscripts):
            lo = hi = expr.const
            for name, coef in expr.terms:
                blo, bhi = bounds[name]
                lo += min(coef * blo, coef * bhi)
                hi += max(coef * blo, coef * bhi)
            dims[d][0] = min(dims[d][0], lo)
            dims[d][1] = max(dims[d][1], hi)
    _LAYOUTS[kernel] = {a: tuple((lo, hi) for lo, hi in dims) for a, dims in layouts.items()}
    return _LAYOUTS[kernel]


def _address_stream(ref: ArrayRef, layout, loops, relative: bool = False) -> array:
    """Linearized address of ``ref`` at every point of ``loops``, in loop order.

    The layout's row-major strides fold the subscripts into one coefficient
    per loop.  The stream grows from the innermost loop outward: each value of
    a loop appends the inner block shifted by its offset, a loop the subscripts
    do not use repeats the block in place, and a loop that runs once moves the
    base.  A ``relative`` stream leaves out the address at all-zero indices.
    """
    stride, base, coef = 1, 0, {}
    for expr, (lo, hi) in zip(reversed(ref.subscripts), reversed(layout)):
        base += (expr.const - lo) * stride
        for name, c in expr.terms:
            coef[name] = coef.get(name, 0) + c * stride
        stride *= hi - lo + 1
    base = (0 if relative else base) + sum(coef.get(lp.index, 0) * lp.lower
                                           for lp in loops if lp.trip == 1)
    block = array("q", [base])
    for lp in reversed([lp for lp in loops if lp.trip > 1]):
        if not (c := coef.get(lp.index, 0)):
            block *= lp.trip
        elif len(block) == 1:  # the first loop that moves the address: one arithmetic run
            block = array("q", range(block[0] + c * lp.lower, block[0] + c * lp.upper, c * lp.step))
        else:
            out = array("q")
            for off in (c * v for v in lp.range):
                out.extend(map(add, block, repeat(off)) if off else block)
            block = out
    return block


def trace(kernel: Kernel, ref: ArrayRef, cap: int = DEFAULT_CAP) -> AccessTrace:
    """Exhaustive access trace of one static reference, in loop order."""
    points = iteration_space_size(kernel, 0)
    if points > cap:
        raise CapExceededError(f"iteration space {points} exceeds cap {cap}")
    return AccessTrace(ref.ref_id, ref.array, ref.access, tuple(lp.trip for lp in kernel.loops),
                       ref, _array_layouts(kernel)[ref.array], kernel.loops)


def _forwarded(kernel: Kernel) -> set[int]:
    """Re-derived set of reads fed by an earlier same-iteration write."""
    seen: set[tuple] = set()
    out: set[int] = set()
    for stmt in kernel.statements:
        for r in stmt.reads:
            if (r.array, r.subscripts) in seen:
                out.add(r.ref_id)
        seen.add((stmt.write.array, stmt.write.subscripts))
    return out


# ---------------------------------------------------------------------------
# reuse quantities from traces

#: a stream's block inside a level, its run over the level, its enclosing offsets
_Block = tuple[set[int], array, "array | tuple[int]"]


def _blocks(traces: list[AccessTrace], level: int) -> list[_Block]:
    """(distinct addresses of the block inside ``level``, the run over
    ``level`` alone, the offset of each enclosing iteration) of each distinct
    stream.  The block and the run are relative, the enclosing offsets are
    not; a lone stream's enclosing iterations are translates of each other,
    so it builds no enclosing column and its offset is ``(0,)``."""
    streams = {(t.array, t.ref.subscripts): t for t in traces}.values()
    return [(set(_address_stream(t.ref, t.layout, t.loops[level + 1:], relative=True)),
             _address_stream(t.ref, t.layout, t.loops[level:level + 1], relative=True),
             _address_stream(t.ref, t.layout, t.loops[:level]) if len(streams) > 1 else (0,))
            for t in streams]


def _overlap(blocks: list[_Block]) -> int:
    """Max overlap of consecutive windows inside one enclosing iteration, each
    window the union of every stream's distinct addresses shifted by its
    enclosing offset plus its run value; a pair across enclosing iterations
    is not consecutive, so no pair is masked.

    Windows of enclosing iterations whose placements (each stream's enclosing
    offset minus the first stream's) are equal are translates, and so are
    pairs whose runs move alike, since |(A+t) & (B+t)| = |A & B|.  A lone
    stream is therefore keyed by its run's moves alone.  Where every block is
    one address, each distinct placement compares its windows as rows of
    addresses.  Otherwise each pair is keyed by its runs: the first stream's
    move and every other stream's run in both windows, relative to the first
    stream's run in the earlier one.  A key builds two windows, so each
    placement uses the keys while they number at most half its windows; else
    each of its windows is built once and met twice.
    """
    inners, runs, offsets = zip(*blocks)
    first = runs[0]
    moves = map(sub, islice(first, 1, None), first)
    if len(blocks) == 1:
        inner = inners[0]
        return max((len(inner & {a + d for a in inner}) for d in set(moves)), default=0)
    places = [(0,) + place for place in set(zip(*(map(sub, offs, offsets[0])
                                                  for offs in offsets[1:])))]

    def window(shifts) -> set[int]:
        return {a + s for inner, s in zip(inners, shifts) for a in inner}

    def rows(place, heads):  # each window's shift of every stream, plus its head
        return zip(*(map(add, run, repeat(h + d)) for run, h, d in zip(runs, heads, place)))

    if max(map(len, inners)) == 1:
        heads = [a for (a,) in inners]
        pairs = (pair for place in places for pair in pairwise(map(set, rows(place, heads))))
    else:
        cols = [moves]
        for run in runs[1:]:
            cols += [map(sub, run, first), map(sub, islice(run, 1, None), first)]
        keys = set(zip(*cols))
        if 2 * len(keys) <= len(first):
            return max((len(window(map(add, place, (0,) + key[1::2]))
                            & window(map(add, place, key[::2])))
                        for place in places for key in keys), default=0)
        pairs = (pair for place in places
                 for pair in pairwise(map(window, rows(place, repeat(0)))))
    return max(map(len, starmap(set.intersection, pairs)), default=0)


def oracle_alpha(trc: AccessTrace | list[AccessTrace], carrier: int) -> int:
    """Max overlap of consecutive carrier-iteration working sets in a trace.

    A carrier window is the distinct addresses of the trace's block over the
    inner loops, shifted by the carrier iteration's offset; a group's window
    is the union over its traces.  Windows are consecutive only inside one
    iteration of the loops outside the carrier, so no pair straddles a wrap
    of the carrier loop.
    """
    traces = trc if isinstance(trc, list) else [trc]
    return _overlap(_blocks(traces, carrier)) if traces[0].shape[carrier] > 1 else 0


def oracle_carrier(kernel: Kernel, traces: list[AccessTrace]) -> tuple[int | None, int]:
    """(carrier level, registers) recomputed from exhaustive traces."""
    overlaps = (oracle_alpha(traces, level) for level in range(kernel.depth))
    return next(((lvl, a) for lvl, a in enumerate(overlaps) if a > 0), (None, 1))


def _union_size(sets) -> int:
    first, *rest = list(sets) or [set()]
    return len(first.union(*rest) if rest else first)  # a lone set is not copied


def _array_fields(kernel: Kernel, refs: list[ArrayRef], fwd: set[int], cap: int) -> dict:
    """One array's fields from its distinct streams, each traced once."""
    distinct = {r.subscripts: r for r in refs}
    traces = [trace(kernel, r, cap) for r in distinct.values()]
    points = iteration_space_size(kernel, 0)
    # loops that run once carry nothing; a stream's set is the union of its
    # windows at the first loop that runs more (equal offsets, equal windows),
    # relative for a lone stream, whose set is counted only by its size
    first = next((lvl for lvl, lp in enumerate(kernel.loops) if lp.trip > 1), kernel.depth - 1)
    blocks = _blocks(traces, first)
    sets = {key: {a + o for o in {pre[0] + r for r in run} for a in inner}
            for key, (inner, run, pre) in zip(distinct, blocks)}
    counted = [r for r in refs if r.ref_id not in fwd]
    after = sum(_union_size(map(sets.get, {r.subscripts for r in counted if r.access == acc}))
                for acc in ("read", "write"))
    carrier, regs = None, 1
    if _union_size(sets.values()) < len(sets) * points:  # else no two windows can overlap
        overlaps = chain([_overlap(blocks)],
                         (oracle_alpha(traces, lvl) for lvl in range(first + 1, kernel.depth)))
        carrier, regs = next(((lvl, a) for lvl, a in enumerate(overlaps, first) if a > 0),
                             (None, 1))
    total = len(counted) * points
    return {"carrier": carrier, "required_regs": regs, "total": total, "after": after,
            "save": total - after, "forwarded_store": any(r.ref_id in fwd for r in refs)}


class _Record(NamedTuple):
    """A kernel's per-array fields and what its replays share; nothing per point."""

    arrays: dict[str, dict]
    layouts: dict[str, tuple[tuple[int, int], ...]]
    loops: tuple[Loop, ...]  # the middle outer iteration
    events: list[tuple[int, ArrayRef]]
    depth_groups: list[list[int]]
    by_array: dict[str, list[int]]  # event indices of each array


@lru_cache(maxsize=32)
def _analysis_cached(kernel: Kernel, cap: int) -> _Record:
    fwd, refs = _forwarded(kernel), kernel.refs
    # one array at a time: an array's streams are gone before the next one's are built
    arrays = {a: _array_fields(kernel, [r for r in refs if r.array == a], fwd, cap)
              for a in kernel.arrays}
    outer = kernel.loops[0]
    mid = outer.lower + (outer.trip // 2) * outer.step
    events, depth_groups = _event_schedule(kernel)
    by_array = {a: [i for i, (_, r) in enumerate(events) if r.array == a]
                for a in dict.fromkeys(r.array for _, r in events)}
    return _Record(arrays, _array_layouts(kernel), (Loop(outer.index, mid, mid + 1),)
                   + kernel.loops[1:], events, depth_groups, by_array)


def oracle_analysis(kernel: Kernel, cap: int = DEFAULT_CAP) -> dict[str, dict]:
    """Carrier, registers, and counts per array, all trace-derived."""
    return {a: dict(v) for a, v in _analysis_cached(kernel, cap).arrays.items()}


# ---------------------------------------------------------------------------
# steady-state replay with explicit register files

def _event_schedule(kernel: Kernel) -> tuple[list[tuple[int, ArrayRef]], list[list[int]]]:
    """Memory events of one iteration with their dependence depth.

    Returns the events in execution order (statement sequence, reads before
    the write) and the event indices grouped by depth.
    """
    events: list[tuple[int, ArrayRef]] = []
    write_depth: dict[tuple, int] = {}  # a read forwards iff its pattern is here
    for stmt in kernel.statements:
        feeding = [0]
        for r in stmt.reads:
            if r.implicit:
                continue  # reduction read rides with the write transaction
            key = (r.array, r.subscripts)
            if key in write_depth:
                feeding.append(write_depth[key])
            else:
                events.append((0, r))
        depth = max(feeding) + 1
        events.append((depth, stmt.write))
        write_depth[stmt.write.array, stmt.write.subscripts] = depth
    groups: dict[int, list[int]] = {}
    for idx, (depth, _) in enumerate(events):
        groups.setdefault(depth, []).append(idx)
    return events, [groups[d] for d in sorted(groups)]


def _split_ports(events, group: list[int], ports: int) -> list[list[int]]:
    slots: dict[int, list[int]] = {}
    seen: dict[str, int] = {}
    for idx in group:
        arr = events[idx][1].array
        slots.setdefault(seen.get(arr, 0) // ports, []).append(idx)
        seen[arr] = seen.get(arr, 0) + 1
    return [slots[s] for s in sorted(slots)]


def oracle_replay(kernel: Kernel, alloc, policy: str = POLICY_ELEMENT,
                  ports: int = 1, cap: int = DEFAULT_CAP):
    """(memory cycles, hit columns) of one interior outermost iteration,
    simulated with explicit register files.

    Each array's events are read point-major, one carrier window at a time;
    the window's register file holds its first β distinct addresses, and an
    access hits if its address is held.  The columns map each array to one
    list per event of that array, in execution order; a list holds one bool
    per point of the middle outer iteration, in loop order, true where the
    event hits a register.  The cap is checked before β, whose bound
    ``required_regs`` comes from traces.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if ports < 1:
        raise ValueError("ports must be >= 1")
    rec = _analysis_cached(kernel, cap)
    for name, info in rec.arrays.items():
        if not 1 <= (b := alloc.beta.get(name, 0)) <= info["required_regs"]:
            raise ValueError(f"beta[{name}] = {b} outside 1..{info['required_regs']}")
    levels = [part for grp in rec.depth_groups for part in _split_ports(rec.events, grp, ports)]
    n = prod(lp.trip for lp in rec.loops)

    cols: list[list[bool]] = [[]] * len(rec.events)
    for name, idxs in rec.by_array.items():
        info, beta = rec.arrays[name], alloc.beta[name]
        if info["save"] == 0 or beta == info["required_regs"] or (
                beta < 2 and (policy == POLICY_STAGING or info["forwarded_store"])):
            fixed = info["save"] != 0 and beta == info["required_regs"]
            for idx in idxs:
                cols[idx] = [fixed] * n
        else:
            m = len(idxs)
            span = m * prod(lp.trip for lp in rec.loops[(info["carrier"] or 0) + 1:])
            streams = (_address_stream(rec.events[idx][1], rec.layouts[name], rec.loops)
                       for idx in idxs)
            flat = next(streams) if m == 1 else array("q", [0]) * (n * m)
            for j, stream in enumerate(streams):  # interleaved point-major
                flat[j::m] = stream
            hits: list[bool] = []
            view = memoryview(flat)  # a window's segment is a view, not a copy
            for start in range(0, len(flat), span):
                seg = view[start:start + span]
                held = set(islice(dict.fromkeys(seg), beta))
                hits += map(held.__contains__, seg)
            for j, idx in enumerate(idxs):
                cols[idx] = hits[j::m] if m > 1 else hits

    # a level costs a cycle at each point where one of its events misses
    cycles = sum(n - sum(reduce(partial(map, and_), (cols[i] for i in level))) for level in levels)
    return cycles, {name: [cols[i] for i in idxs] for name, idxs in rec.by_array.items()}


# ---------------------------------------------------------------------------
# randomized kernels for the agreement suite

ARRAY_POOL = ("A", "B", "C", "D")


def random_kernel(rng: random.Random, max_depth: int = 3, max_trip: int = 16,
                  max_points: int = 1024) -> Kernel:
    """Small random affine kernel exercising self and group reuse.

    Bounds follow the agreement-suite limits: at most three loops, trip
    counts bounded by ``max_trip``, subscript coefficients in [-2, 2].
    """
    depth = rng.randint(1, max_depth)
    while True:
        trips = [rng.randint(2, max_trip) for _ in range(depth)]
        if prod(trips) <= max_points:
            break
    indices = [f"i{d}" for d in range(depth)]
    dims: dict[str, int] = {}

    def subscript() -> str:
        coeffs = {name: rng.choice([-2, -1, 1, 2]) for name in indices if rng.random() < 0.55}
        return str(AffineExpr.make(rng.randint(0, 3), coeffs))

    def ref(array: str) -> str:
        ndim = dims.setdefault(array, rng.randint(1, 2))
        return array + "".join(f"[{subscript()}]" for _ in range(ndim))

    n_stmts = rng.randint(1, 2)
    writable = list(ARRAY_POOL)
    rng.shuffle(writable)
    lines = []
    for s in range(n_stmts):
        target = writable.pop()
        op = rng.choice(["*", "+", "-", "=="])
        assign = "+=" if rng.random() < 0.4 else "="
        nreads = rng.randint(1, 2)
        reads = [ref(rng.choice(ARRAY_POOL)) for _ in range(nreads)]
        rhs = f" {op} ".join(reads) if nreads == 2 else reads[0]
        lines.append(f"S{s}: {ref(target)} {assign} {rhs};")

    src = ["  " * d + f"loop {name} = 0..{trips[d]} {{" for d, name in enumerate(indices)]
    src.extend("  " * depth + ln for ln in lines)
    src.extend("  " * d + "}" for d in reversed(range(depth)))
    return parse_kernel("\n".join(src), name=f"rand{rng.randint(0, 10**9)}")
