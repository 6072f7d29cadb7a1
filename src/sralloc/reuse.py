"""Per-array data-reuse analysis for scalar replacement.

For every array the analyzer determines the carrier loop (the outermost
loop whose consecutive iterations re-access overlapping elements), the
register count needed for full scalar replacement (the overlap of two
consecutive carrier working sets), the dynamic access counts before and
after full replacement, and the benefit/cost ratio used by the greedy
allocators.

The analysis is exact and never walks the iteration space point by point.
Each subscript pattern is linearised over the array's bounding box
(mixed-radix strides), so it becomes ``base + sum(a_l * x_l)``; its image of
a loop box is a Minkowski sum of one arithmetic progression per loop, built
on a Python-int bitset by shift-OR with binary doubling.  A footprint is the
popcount of the OR of its patterns' images.  A working-set overlap is the
popcount of the AND of two windows, each an OR of shifted inner-loop images;
only outer and carrier values on which the patterns' coefficients differ
are walked.  Address ranges above ``MAX_ADDRESS_BITS`` raise
``CapExceededError``.  The brute-force oracle module recomputes the same
quantities from exhaustive traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .config import MAX_ADDRESS_BITS, CapExceededError
from .kernel import ArrayRef, Kernel, iteration_space_size


@dataclass(frozen=True)
class ReuseInfo:
    """Reuse summary for one array (all its static references pooled)."""

    array: str
    ref_ids: tuple[int, ...]
    carrier: int | None
    required_regs: int
    total_accesses: int
    after_accesses: int
    save: int
    bc: Fraction
    forwarded_store: bool  # a later statement reads the written element back


def forwarded_read_ids(kernel: Kernel) -> frozenset[int]:
    """Reads that a strictly earlier statement writes with identical subscripts.

    Such reads are satisfied by value forwarding inside the iteration and
    never touch memory under any allocation.
    """
    written: set[tuple[str, tuple]] = set()  # a statement's own write joins after its reads
    out = set()
    for stmt in kernel.statements:
        out.update(r.ref_id for r in stmt.reads if (r.array, r.subscripts) in written)
        written.add((stmt.write.array, stmt.write.subscripts))
    return frozenset(out)


# ---------------------------------------------------------------------------
# working-set machinery: linear address forms and their bitset images

def _address_forms(kernel: Kernel, array: str, patterns) -> list[tuple[int, tuple[int, ...]]]:
    """(base, per-loop coefficients) of each pattern's address ``base + sum(a_l * x_l)``.

    The patterns share one row-major layout over their per-dimension bounding
    box, so distinct elements have distinct addresses, all non-negative.
    Dimensions are folded in Horner form, the first dimension most significant.
    """
    ends = {lp.index: (lp.lower, lp.lower + (lp.trip - 1) * lp.step) for lp in kernel.loops}
    lows, sizes = [], []
    for exprs in zip(*patterns):  # each dimension's least and greatest subscript on the box
        lo, hi = math.inf, -math.inf
        for e in exprs:
            low = high = e.const
            for n, c in e.terms:
                low, high = low + c * ends[n][c < 0], high + c * ends[n][c > 0]
            lo, hi = min(lo, low), max(hi, high)
        lows.append(lo)
        sizes.append(hi - lo + 1)
    width = math.prod(sizes)
    if width > MAX_ADDRESS_BITS:
        raise CapExceededError(
            f"array {array!r} spans an address range of {width} elements, above "
            f"the bitset ceiling of {MAX_ADDRESS_BITS}")
    forms, stride = [], width
    strides = [stride := stride // size for size in sizes]  # the Horner fold's weights
    for p in patterns:
        base, coeffs = 0, dict.fromkeys(ends, 0)
        for e, lo, weight in zip(p, lows, strides):
            base += weight * (e.const - lo)
            for n, c in e.terms:
                coeffs[n] += weight * c
        forms.append((base, tuple(coeffs.values())))
    return forms


def _spread(bits: int, stride: int, count: int) -> int:
    """Minkowski sum of the bitset with {0, stride, ..., (count-1)*stride}.

    Binary doubling: the sum for count is two copies of the sum for
    count // 2, plus one more term when count is odd.
    """
    if count == 1 or stride == 0:
        return bits
    half = count // 2
    out = _spread(bits, stride, half)
    out |= out << (half * stride)
    if count & 1:
        out |= bits << ((count - 1) * stride)
    return out


def _image(coeffs, loops) -> tuple[int, int]:
    """(low, bits): bit k of bits is set iff sum(a_l * x_l) = low + k on the box."""
    low, bits = 0, 1
    for a, lp in zip(coeffs, loops):
        step = a * lp.step
        low += a * lp.lower + min(0, step * (lp.trip - 1))
        bits = _spread(bits, abs(step), lp.trip)
    return low, bits


def _footprint(kernel: Kernel, forms) -> int:
    """Distinct addresses the given forms touch over the whole nest."""
    union = 0
    for base, coeffs in forms:
        low, bits = _image(coeffs, kernel.loops)
        union |= bits << (base + low)
    return union.bit_count()


def _window_overlap(kernel: Kernel, forms, level: int) -> int:
    """Max |WS(t) & WS(t+1)| over consecutive iterations of loops[level].

    Each form's inner-loop image is built once and shifted to its place in
    every window.  Only the relative placement of the forms' images decides
    an overlap, so each distinct placement is evaluated once; a loop whose
    coefficient is the same in every form only translates every window and
    is not walked.
    """
    loops = kernel.loops
    carrier = loops[level]
    if carrier.trip < 2:
        return 0
    images = [_image(coeffs[level + 1:], loops[level + 1:]) for _, coeffs in forms]
    succ = [coeffs[level] * carrier.step for _, coeffs in forms]

    def placement(shifts) -> tuple[int, ...]:
        # translated so that the lowest image shift of WS(t) or WS(t+1) is 0
        low = min(min(shifts), min(s + m for s, m in zip(shifts, succ)))
        return tuple(s - low for s in shifts)

    start = [base + low + sum(a * lp.lower for a, lp in zip(coeffs[:level + 1], loops))
             for (base, coeffs), (low, _) in zip(forms, images)]
    windows = {placement(start)}
    for depth, lp in enumerate(loops[:level + 1]):
        moves = [coeffs[depth] * lp.step for _, coeffs in forms]
        if len(set(moves)) == 1:
            continue
        # the carrier's last iteration has no successor window
        count = lp.trip - 1 if depth == level else lp.trip
        windows = {placement([s + k * m for s, m in zip(shifts, moves)])
                   for shifts in windows for k in range(count)}

    best = 0
    for shifts in windows:
        now = later = 0
        for (_, bits), s, m in zip(images, shifts, succ):
            now |= bits << s
            later |= bits << (s + m)
        best = max(best, (now & later).bit_count())
    return best


def _carrier_and_regs(kernel: Kernel, forms) -> tuple[int | None, int]:
    for level in range(kernel.depth):
        overlap = _window_overlap(kernel, forms, level)
        if overlap > 0:
            return level, overlap
    return None, 1


def _bc(save: int, required_regs: int) -> Fraction:
    """Saved accesses per required register; floors at 1 when nothing is saved."""
    if save <= 0:
        return Fraction(1)
    return Fraction(save, required_regs)


# ---------------------------------------------------------------------------
# whole-kernel driver

def analyze_all(kernel: Kernel) -> dict[str, ReuseInfo]:
    """ReuseInfo per array, keyed by name, in first-reference order.

    Static references to one array share a register pool, so identical
    write/read subscript pairs collapse into a single record; forwarded
    reads contribute no memory accesses.  After full replacement each
    distinct element costs one residual access per direction: one load if
    it is read, one final store if it is written (intermediate stores of a
    re-written element are deferred).
    """
    forwarded = forwarded_read_ids(kernel)
    per_array: dict[str, list[ArrayRef]] = {}
    for r in kernel.refs:
        per_array.setdefault(r.array, []).append(r)

    iter_points = iteration_space_size(kernel, 0)

    out: dict[str, ReuseInfo] = {}
    for array, members in per_array.items():
        patterns = list(dict.fromkeys(m.subscripts for m in members))
        forms = dict(zip(patterns, _address_forms(kernel, array, patterns)))
        level, regs = _carrier_and_regs(kernel, list(forms.values()))

        counted = [m for m in members if m.ref_id not in forwarded]
        total = iter_points * len(counted)
        after = sum(_footprint(kernel, [forms[p] for p in
                                        dict.fromkeys(m.subscripts for m in counted
                                                      if m.access == access)])
                    for access in ("read", "write"))
        save = total - after

        out[array] = ReuseInfo(
            array=array,
            ref_ids=tuple(m.ref_id for m in members),
            carrier=level,
            required_regs=regs,
            total_accesses=total,
            after_accesses=after,
            save=save,
            bc=_bc(save, regs),
            forwarded_store=any(m.ref_id in forwarded for m in members),
        )
    return out


def bc_order(reuse: dict[str, ReuseInfo]) -> list[str]:
    """Array names by descending benefit/cost; ties keep source order."""
    return sorted(reuse, key=lambda name: reuse[name].bc, reverse=True)  # a stable sort
