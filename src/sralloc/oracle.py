"""Brute-force ground truth for the analytic modules.

Every quantity here is counted on concrete address columns, never read from
subscript coefficients.  A reference's address stream is the linearized
address at each point, in loop order, from the oracle's own per-dimension
layout (one per kernel) rather than the analyzer's address forms, grown from
the innermost loop outward, each shifted copy of a block one integer add over
its 64-bit lanes.  A stream's distinct addresses are counted on one int
bitset: its block inside the first loop that runs more than once, copied
along that loop's run by doubling.  A carrier window is one iteration of the
loops down to the carrier, not a window in the analyzer's algebra: the
distinct addresses of the block inside it, shifted by the run of the carrier
loop and by the offset of its enclosing iteration, built one array at a time
and never as an offset per point.  Windows are consecutive only inside one
enclosing iteration, and enclosing iterations placed alike are compared once.
Where every stream of an array has the same run, a placement's windows are
translates of one window, which is built once and met with itself shifted by
each distinct move; otherwise each window is built once and met with the
next.  An array none of whose addresses occurs twice has no carrier.  The
replay reads each array's events point-major over the middle outer iteration
and gives each carrier window a fill-once register file, holding the window's
first distinct addresses, read from the shortest doubling prefix of the
window that holds them, instead of rank arithmetic; it levels dependences on
its own and returns each event's hit column.  Agreement with the analytic
modules is therefore evidence of correctness rather than shared code, at the
price of being slower.
"""

from __future__ import annotations

import random
import sys
from array import array
from functools import lru_cache, partial, reduce
from itertools import islice, pairwise, repeat
from math import inf, prod
from operator import add, and_, sub
from typing import NamedTuple

from .config import (CapExceededError, DEFAULT_CAP, MAX_ADDRESS_BITS, POLICIES, POLICY_ELEMENT,
                     POLICY_STAGING)
from .kernel import AffineExpr, ArrayRef, Kernel, Loop, iteration_space_size, parse_kernel


def _array_layouts(kernel: Kernel) -> dict[str, tuple[tuple[int, int], ...]]:
    """Per-array (lo, hi) value range of each subscript dimension over its references."""
    bounds = {lp.index: (lp.lower, lp.upper - ((lp.upper - lp.lower - 1) % lp.step) - 1)
              for lp in kernel.loops}
    layouts: dict[str, list[list[int]]] = {}
    for r in kernel.refs:
        dims = layouts.setdefault(r.array, [[inf, -inf] for _ in r.subscripts])
        for d, expr in enumerate(r.subscripts):
            lo = hi = expr.const
            for name, coef in expr.terms:
                blo, bhi = bounds[name]
                lo += min(coef * blo, coef * bhi)
                hi += max(coef * blo, coef * bhi)
            dims[d][0] = min(dims[d][0], lo)
            dims[d][1] = max(dims[d][1], hi)
    return {a: tuple((lo, hi) for lo, hi in dims) for a, dims in layouts.items()}


def _address_stream(ref: ArrayRef, layout, loops, relative: bool = False) -> array:
    """Linearized address of ``ref`` at every point of ``loops``, in loop order.

    The layout's row-major strides fold the subscripts into one coefficient
    per loop.  The stream grows from the innermost loop outward: each value of
    a loop appends the inner block shifted by its offset, one integer add over
    the whole block (``_shifted``), a loop the subscripts do not use repeats
    the block in place, and a loop that runs once moves the base.  A
    ``relative`` stream leaves out the address at all-zero indices, so its
    addresses can be negative.
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
            block = _shifted(block, range(c * lp.lower, c * lp.upper, c * lp.step))
    return block


#: addresses read as one int, which bounds the builder's temporaries
_LANES = 1 << 13


def _shifted(block: array, offsets: range) -> array:
    """``block`` once per offset in turn, shifted by it, one integer add per copy
    (Lamport, "Multiple byte processing with full-word instructions", 1975).

    Each part of up to ``_LANES`` addresses is read once as one int of 64-bit
    lanes, each lane biased by 2^63 so that a negative address borrows nothing
    from its neighbour; a copy adds the offset times a one in every lane, and
    unbiases.  The parts share one bias and one ones int, so the copies hold
    one biased copy of the block and temporaries of one part.
    """
    n, order, parts = len(block), sys.byteorder, []
    top, ones = (int.from_bytes(array("q", [v]) * min(n, _LANES), order) for v in (-1 << 63, 1))
    for s in range(0, n, _LANES):
        part = block[s:s + _LANES]
        if len(part) < _LANES < n:  # a short last part: the bias and ones of its lanes
            top, ones = top >> 64 * (_LANES - len(part)), ones >> 64 * (_LANES - len(part))
        parts.append((int.from_bytes(part, order) ^ top, top, ones, 8 * len(part)))
    out = array("q")
    for off in offsets:
        for lanes, top, ones, width in parts:
            out.frombytes((lanes + off * ones ^ top).to_bytes(width, order))
    return out


def _points(kernel: Kernel, cap: int) -> int:
    """The kernel's iteration-space size, checked against ``cap``."""
    points = iteration_space_size(kernel, 0)
    if points > cap:
        raise CapExceededError(f"iteration space {points} exceeds cap {cap}")
    return points


# ---------------------------------------------------------------------------
# reuse quantities from address streams

#: a stream's block inside a level, its run over the level, its enclosing offsets
_Block = tuple[set[int], array, "array | tuple[int]"]


def _blocks(streams: list[ArrayRef], layout, loops: tuple[Loop, ...], level: int) -> list[_Block]:
    """(distinct addresses of the block inside ``level``, the run over
    ``level`` alone, the offset of each enclosing iteration) of each of one
    array's ``streams``, references with distinct subscripts.  The block and
    the run are relative, the enclosing offsets are not; a lone stream's
    enclosing iterations are translates of each other, so it builds no
    enclosing column and its offset is ``(0,)``."""
    return [(set(_address_stream(r, layout, loops[level + 1:], relative=True)),
             _address_stream(r, layout, loops[level:level + 1], relative=True),
             _address_stream(r, layout, loops[:level]) if len(streams) > 1 else (0,))
            for r in streams]


def _overlap(blocks: list[_Block]) -> int:
    """Max overlap of consecutive windows inside one enclosing iteration, each
    window the union of every stream's distinct addresses shifted by its
    enclosing offset plus its run value; a pair across enclosing iterations
    is not consecutive, so no pair is masked.

    Enclosing iterations whose placements (each stream's enclosing offset
    minus the first stream's) are equal hold translated windows, so each
    distinct placement is compared once, since |(A+t) & (B+t)| = |A & B|.
    When every stream has the same run, a placement's windows are
    translates of its window W by the run, so a pair that moves by d
    overlaps in |W & (W + d)|, one per distinct move, counted without
    building W + d.  Otherwise each window is built once and met with the next.
    """
    inners, runs, offsets = zip(*blocks)
    places = set(zip(*(map(sub, offs, offsets[0]) for offs in offsets)))

    def window(shifts) -> set[int]:
        return {a + s for inner, s in zip(inners, shifts) for a in inner}

    first = runs[0]
    if all(run == first for run in runs[1:]):
        moves = set(map(sub, islice(first, 1, None), first))
        return max((sum(map(w.__contains__, map(add, w, repeat(d))))
                    for w in map(window, places) for d in moves), default=0)

    def rows(place):  # each window's shift of every stream
        return zip(*(map(add, run, repeat(d)) for run, d in zip(runs, place)))

    windows = (map(window, rows(place)) for place in places)
    return max((len(a & b) for ws in windows for a, b in pairwise(ws)), default=0)


def oracle_alpha(kernel: Kernel, array: str, level: int, cap: int = DEFAULT_CAP) -> int:
    """Max overlap of consecutive carrier windows of ``array`` at loop ``level``.

    A carrier window is one iteration of the loops down to ``level``: the
    distinct addresses of each of the array's streams over the inner loops,
    shifted by the iteration's offset, united over the streams.  Windows are
    consecutive only inside one iteration of the loops outside ``level``, so
    no pair straddles a wrap of that loop, and a loop that runs once has none.
    """
    _points(kernel, cap)
    layout = _array_layouts(kernel)[array]
    streams = list({r.subscripts: r for r in kernel.refs if r.array == array}.values())
    return _overlap(_blocks(streams, layout, kernel.loops, level))


def _run_bits(block: set[int], start: int, stride: int, count: int) -> tuple[int, int]:
    """(origin, bits) of {a + start + k*stride : a in block, 0 <= k < count}, bit j
    for address origin + j: the block is marked once in a bytearray read as one int,
    then copied along the run by doubling, from the top bit of ``count`` down (the
    copies so far doubled, one more where the bit is set): O(log count) shift-ORs."""
    if stride < 0:  # the same set, walked from its lowest copy
        start, stride = start + (count - 1) * stride, -stride
    lo, hi = min(block), max(block)
    marks = bytearray(b"0") * (hi - lo + 1)
    for a in block:
        marks[hi - a] = 49  # "1"; the first digit is the most significant, the highest address
    bits, out, copies = int(marks, 2), 0, 0
    for digit in bin(count)[2:]:
        out |= out << copies * stride
        copies *= 2
        if digit == "1":
            out |= bits << copies * stride
            copies += 1
    return lo + start, out


def _count(bitsets: list[tuple[int, int]]) -> int:
    """Distinct addresses of origin-sorted (origin, bits) bitsets: the first is
    taken as it is and each later one ORed onto it, shifted by its origin's
    distance, so a lone bitset is counted in place."""
    (low, bits), *rest = bitsets or [(0, 0)]
    for origin, more in rest:
        bits |= more << origin - low
    return bits.bit_count()


def _array_fields(kernel: Kernel, refs: list[ArrayRef], layout, fwd: set[int],
                  points: int) -> dict:
    """One array's fields from its distinct streams, each built once per level."""
    distinct = {r.subscripts: r for r in refs}
    streams = list(distinct.values())
    # loops that run once carry nothing, so at the first loop that runs more a stream's
    # enclosing column is one offset and its run one progression (stride 0 for one value)
    # that its bitset spreads its block along; relative for a lone stream, counted by size
    levels = [lvl for lvl, lp in enumerate(kernel.loops) if lp.trip > 1] or [kernel.depth - 1]
    blocks = _blocks(streams, layout, kernel.loops, levels[0])
    bitsets = {key: _run_bits(inner, pre[0] + run[0], run[len(run) > 1] - run[0], len(run))
               for key, (inner, run, pre) in zip(distinct, blocks)}
    counted = [r for r in refs if r.ref_id not in fwd]
    kinds = ({r.subscripts for r in counted if r.access == acc} for acc in ("read", "write"))
    after = sum(_count(sorted(map(bitsets.get, keys))) for keys in kinds)
    addresses = _count(sorted(bitsets.values()))
    del bitsets  # no bitset is held while windows are built
    carrier, regs = None, 1
    if addresses < len(distinct) * points:  # else no two windows can overlap
        overlaps = (_overlap(blocks if lvl == levels[0] else
                             _blocks(streams, layout, kernel.loops, lvl)) for lvl in levels)
        carrier, regs = next(((lvl, a) for lvl, a in zip(levels, overlaps) if a > 0), (None, 1))
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
    points, refs = _points(kernel, cap), kernel.refs
    events, depth_groups, fwd = _event_schedule(kernel)
    layouts = _array_layouts(kernel)
    for a, box in layouts.items():  # each array's addresses are counted on one bitset
        if (width := prod(hi - lo + 1 for lo, hi in box)) > MAX_ADDRESS_BITS:
            raise CapExceededError(f"array {a!r} spans an address range of {width} elements, "
                                   f"above the bitset ceiling of {MAX_ADDRESS_BITS}")
    # one array at a time: an array's streams are gone before the next one's are built
    arrays = {a: _array_fields(kernel, [r for r in refs if r.array == a], layouts[a], fwd, points)
              for a in kernel.arrays}
    outer = kernel.loops[0]
    mid = outer.lower + (outer.trip // 2) * outer.step
    by_array = {a: [i for i, (_, r) in enumerate(events) if r.array == a]
                for a in dict.fromkeys(r.array for _, r in events)}
    return _Record(arrays, layouts, (Loop(outer.index, mid, mid + 1),)
                   + kernel.loops[1:], events, depth_groups, by_array)


def oracle_analysis(kernel: Kernel, cap: int = DEFAULT_CAP) -> dict[str, dict]:
    """Carrier, registers, and counts per array, all from address streams."""
    return {a: dict(v) for a, v in _analysis_cached(kernel, cap).arrays.items()}


# ---------------------------------------------------------------------------
# steady-state replay with explicit register files

def _event_schedule(kernel: Kernel) -> tuple[list[tuple[int, ArrayRef]], list[list[int]], set[int]]:
    """Memory events of one iteration with their dependence depth: the events in
    execution order (statement sequence, reads before the write), their indices
    grouped by depth, and the ids of the reads that an earlier write of the
    iteration feeds, implicit reads included."""
    events: list[tuple[int, ArrayRef]] = []
    forwarded: set[int] = set()
    write_depth: dict[tuple, int] = {}  # a read forwards iff its pattern is here
    for stmt in kernel.statements:
        feeding = [0]
        for r in stmt.reads:
            key = (r.array, r.subscripts)
            if key in write_depth:
                forwarded.add(r.ref_id)
                if not r.implicit:  # a reduction read rides with the write transaction
                    feeding.append(write_depth[key])
            elif not r.implicit:
                events.append((0, r))
        depth = max(feeding) + 1
        events.append((depth, stmt.write))
        write_depth[stmt.write.array, stmt.write.subscripts] = depth
    groups: dict[int, list[int]] = {}
    for idx, (depth, _) in enumerate(events):
        groups.setdefault(depth, []).append(idx)
    return events, [groups[d] for d in sorted(groups)], forwarded


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
                seg, width = view[start:start + span], beta
                # the shortest doubling prefix that holds beta distinct addresses
                while len(first := dict.fromkeys(seg[:width])) < beta and width < len(seg):
                    width *= 2
                held = set(islice(first, beta))
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

    Bounds follow the agreement-suite limits: at most ``max_depth`` loops,
    trip counts bounded by ``max_trip`` and at most ``max_points`` points,
    subscript coefficients in [-2, 2].
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
