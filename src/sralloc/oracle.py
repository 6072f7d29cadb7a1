"""Brute-force ground truth for the analytic modules.

Everything here walks the full iteration space and keeps its own
bookkeeping: linearized addresses instead of subscript tuples, trace
grouping instead of window algebra, fill-once register files instead of
rank arithmetic, and its own dependence leveling.  Agreement with the
analytic modules is therefore evidence of correctness rather than shared
code, at the price of being much slower.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .config import CapExceededError, DEFAULT_CAP, POLICY_ELEMENT, POLICY_STAGING
from .kernel import ArrayRef, Kernel, parse_kernel


@dataclass(frozen=True)
class AccessTrace:
    ref_id: int
    array: str
    access: str
    entries: tuple[tuple[tuple[int, ...], int], ...]  # (iteration vector, address)

    def __len__(self) -> int:
        return len(self.entries)

    def addresses(self) -> set[int]:
        return {addr for _, addr in self.entries}


def _array_layouts(kernel: Kernel) -> dict[str, tuple[tuple[int, int], ...]]:
    """Per-array (lo, hi) value range of each subscript dimension."""
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
    return {a: tuple((lo, hi) for lo, hi in dims) for a, dims in layouts.items()}


def _linearize(layout, values) -> int:
    addr = 0
    for (lo, hi), v in zip(layout, values):
        addr = addr * (hi - lo + 1) + (v - lo)
    return addr


def space_size(kernel: Kernel) -> int:
    n = 1
    for lp in kernel.loops:
        n *= lp.trip
    return n


def _address_plan(kernel: Kernel, ref: ArrayRef, layout):
    """Closure computing the linearized address straight from a point tuple."""
    pos = {n: i for i, n in enumerate(kernel.index_names)}
    dims = [(e.const, tuple((pos[n], c) for n, c in e.terms)) for e in ref.subscripts]
    strides = []
    stride = 1
    for lo, hi in reversed(layout):
        strides.append((stride, lo))
        stride *= hi - lo + 1
    strides.reverse()

    def addr(point: tuple[int, ...]) -> int:
        total = 0
        for (const, terms), (stride, lo) in zip(dims, strides):
            v = const
            for p, c in terms:
                v += c * point[p]
            total += (v - lo) * stride
        return total

    return addr


def trace(kernel: Kernel, ref: ArrayRef, cap: int = DEFAULT_CAP) -> AccessTrace:
    """Exhaustive access trace of one static reference, in loop order."""
    if space_size(kernel) > cap:
        raise CapExceededError(
            f"iteration space {space_size(kernel)} exceeds cap {cap}")
    addr = _address_plan(kernel, ref, _array_layouts(kernel)[ref.array])
    entries = []
    for point in itertools.product(*(lp.range for lp in kernel.loops)):
        entries.append((point, addr(point)))
    return AccessTrace(ref.ref_id, ref.array, ref.access, tuple(entries))


def _forwarded(kernel: Kernel) -> set[int]:
    """Re-derived set of reads fed by an earlier same-iteration write."""
    seen: dict[tuple, int] = {}
    out: set[int] = set()
    for stmt in kernel.statements:
        for r in stmt.reads:
            key = (r.array, tuple(str(e) for e in r.subscripts))
            if key in seen and seen[key] < stmt.stmt_id:
                out.add(r.ref_id)
        wkey = (stmt.write.array, tuple(str(e) for e in stmt.write.subscripts))
        seen[wkey] = stmt.stmt_id
    return out


# ---------------------------------------------------------------------------
# reuse quantities from traces

def _windows(trc: AccessTrace | list[AccessTrace], carrier: int) -> dict[tuple, set[int]]:
    traces = trc if isinstance(trc, list) else [trc]
    wins: dict[tuple, set[int]] = {}
    for t in traces:
        for point, addr in t.entries:
            wins.setdefault(point[: carrier + 1], set()).add(addr)
    return wins


def oracle_alpha(trc: AccessTrace | list[AccessTrace], carrier: int, step: int = 1) -> int:
    """Max overlap of consecutive carrier-iteration working sets in a trace."""
    wins = _windows(trc, carrier)
    best = 0
    for key, ws in wins.items():
        nxt = key[:-1] + (key[-1] + step,)
        if nxt in wins:
            best = max(best, len(ws & wins[nxt]))
    return best


def oracle_carrier(kernel: Kernel, traces: list[AccessTrace]) -> tuple[int | None, int]:
    """(carrier level, registers) recomputed from exhaustive traces."""
    for level, lp in enumerate(kernel.loops):
        overlap = oracle_alpha(traces, level, lp.step)
        if overlap > 0:
            return level, overlap
    return None, 1


@lru_cache(maxsize=32)
def _analysis_cached(kernel: Kernel, cap: int) -> dict[str, dict]:
    fwd = _forwarded(kernel)
    per_array: dict[str, list[AccessTrace]] = {}
    for r in kernel.refs:
        per_array.setdefault(r.array, []).append(trace(kernel, r, cap))
    out = {}
    for array, traces in per_array.items():
        carrier, regs = oracle_carrier(kernel, traces)
        counted = [t for t in traces if t.ref_id not in fwd]
        total = sum(len(t) for t in counted)
        reads = set().union(*(t.addresses() for t in counted if t.access == "read")) \
            if any(t.access == "read" for t in counted) else set()
        writes = set().union(*(t.addresses() for t in counted if t.access == "write")) \
            if any(t.access == "write" for t in counted) else set()
        after = len(reads) + len(writes)
        out[array] = {
            "carrier": carrier,
            "required_regs": regs,
            "total": total,
            "after": after,
            "save": total - after,
            "forwarded_store": any(t.ref_id in fwd for t in traces),
        }
    return out


def oracle_analysis(kernel: Kernel, cap: int = DEFAULT_CAP) -> dict[str, dict]:
    """Carrier, registers, and counts per array, all trace-derived."""
    return {a: dict(v) for a, v in _analysis_cached(kernel, cap).items()}


# ---------------------------------------------------------------------------
# steady-state replay with explicit register files

def _event_schedule(kernel: Kernel) -> tuple[list[tuple[int, ArrayRef]], list[list[int]]]:
    """Memory events of one iteration with their dependence depth.

    Returns the events in execution order (statement sequence, reads before
    the write) and the event indices grouped by depth.
    """
    fwd = _forwarded(kernel)
    events: list[tuple[int, ArrayRef]] = []
    write_depth: dict[tuple, tuple[int, int]] = {}
    for stmt in kernel.statements:
        feeding = [0]
        for r in stmt.reads:
            if r.implicit:
                continue  # reduction read rides with the write transaction
            key = (r.array, tuple(str(e) for e in r.subscripts))
            if r.ref_id in fwd:
                feeding.append(write_depth[key][0])
            else:
                events.append((0, r))
        depth = max(feeding) + 1
        events.append((depth, stmt.write))
        wkey = (stmt.write.array, tuple(str(e) for e in stmt.write.subscripts))
        write_depth[wkey] = (depth, stmt.stmt_id)
    groups: dict[int, list[int]] = {}
    for idx, (depth, _) in enumerate(events):
        groups.setdefault(depth, []).append(idx)
    return events, [groups[d] for d in sorted(groups)]


def _split_ports(events, group: list[int], ports: int) -> list[list[int]]:
    slots: dict[int, list[int]] = {}
    seen: dict[str, int] = {}
    for idx in group:
        arr = events[idx][1].array
        slot = seen.get(arr, 0) // ports
        seen[arr] = seen.get(arr, 0) + 1
        slots.setdefault(slot, []).append(idx)
    return [slots[s] for s in sorted(slots)]


class _RegisterFile:
    """Fill-once register file over one carrier window: the first distinct
    elements admitted model the prologue-preloaded working set."""

    def __init__(self, size: int):
        self.size = size
        self.held: set[int] = set()
        self.window: tuple | None = None

    def access(self, window: tuple, addr: int) -> bool:
        if window != self.window:
            self.window = window
            self.held = set()
        if addr in self.held:
            return True
        if len(self.held) < self.size:
            self.held.add(addr)
            return True
        return False


def oracle_replay(kernel: Kernel, alloc, policy: str = POLICY_ELEMENT,
                  ports: int = 1, cap: int = DEFAULT_CAP):
    """(memory cycles, per-iteration per-array hit map) for one interior
    outermost iteration, simulated with explicit register files."""
    analysis = oracle_analysis(kernel, cap)
    layouts = _array_layouts(kernel)
    events, depth_groups = _event_schedule(kernel)
    levels = [sub for grp in depth_groups for sub in _split_ports(events, grp, ports)]

    files = {a: _RegisterFile(alloc.beta[a]) for a in analysis}
    outer = kernel.loops[0]
    mid = outer.lower + (outer.trip // 2) * outer.step

    def hits(array: str, window: tuple, addr: int) -> bool:
        info = analysis[array]
        beta = alloc.beta[array]
        if info["save"] == 0:
            return False
        if beta == info["required_regs"]:
            return True
        if beta < 2 and (policy == POLICY_STAGING or info["forwarded_store"]):
            return False
        return files[array].access(window, addr)

    plans = []
    for _, ref in events:
        carrier = analysis[ref.array]["carrier"]
        window_len = (carrier if carrier is not None else 0) + 1
        plans.append((ref.array, window_len,
                      _address_plan(kernel, ref, layouts[ref.array])))

    cycles = 0
    hit_map: dict[tuple[str, tuple], bool] = {}
    for inner in itertools.product(*(lp.range for lp in kernel.loops[1:])):
        point = (mid,) + inner
        event_hit: dict[int, bool] = {}
        for idx, (array, window_len, addr_of) in enumerate(plans):
            ok = hits(array, point[:window_len], addr_of(point))
            event_hit[idx] = ok
            key = (array, point)
            hit_map[key] = hit_map.get(key, True) and ok
        for level in levels:
            if any(not event_hit[idx] for idx in level):
                cycles += 1
    return cycles, hit_map


def oracle_residency_cycles(kernel: Kernel, alloc, policy: str = POLICY_ELEMENT,
                            ports: int = 1, cap: int = DEFAULT_CAP) -> int:
    return oracle_replay(kernel, alloc, policy, ports, cap)[0]


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
        pts = 1
        for t in trips:
            pts *= t
        if pts <= max_points:
            break
    indices = [f"i{d}" for d in range(depth)]
    dims: dict[str, int] = {}

    def subscript() -> str:
        terms = []
        for name in indices:
            if rng.random() < 0.55:
                terms.append((name, rng.choice([-2, -1, 1, 2])))
        const = rng.randint(0, 3)
        text = ""
        for name, coef in terms:
            mag = name if abs(coef) == 1 else f"{abs(coef)}*{name}"
            if not text:
                text = mag if coef > 0 else f"-{mag}"
            else:
                text += f" + {mag}" if coef > 0 else f" - {mag}"
        if not text:
            return str(const)
        if const:
            text += f" + {const}"
        return text

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

    src = []
    for d, name in enumerate(indices):
        src.append("  " * d + f"loop {name} = 0..{trips[d]} {{")
    src.extend("  " * depth + ln for ln in lines)
    for d in range(depth - 1, -1, -1):
        src.append("  " * d + "}")
    return parse_kernel("\n".join(src), name=f"rand{rng.randint(0, 10**9)}")
