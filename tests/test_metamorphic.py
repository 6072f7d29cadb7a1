"""Metamorphic relations: pairs of kernels that must give the same answers.

The analyzer, the simulator and the oracle share the row-major
bounding-box layout and the trip and step arithmetic (``Loop.trip``,
``Loop.range``), so a fault there shows on both sides of an agreement
check.  A relation between a kernel and a rewritten copy catches such a
fault without a third model (Chen, Cheung and Yiu, 1998).  Each relation
runs on the bundled corpus and on seeded random kernels, and compares
every ``analyze`` field, every ``oracle_analysis`` field, each allocator's
beta at budgets n, n + 10 and n + 60 for n arrays, and each allocation's
``CycleReport`` and oracle replay under both policies.

- Shift one loop's bounds by c and substitute ``i - c`` for its index.
- Append an innermost loop of one iteration.
- Add a constant to every subscript of one array, one constant per
  dimension: the array's box moves and the answers stay.
- Run a loop of T iterations as ``L..L + s*T step s``: it must answer as
  the loop ``0..T`` whose index every subscript reads as ``L + s*i``.
- Reverse the order of every array's subscripts, in every reference: the
  layout's strides change and the answers stay, since reuse is equality of
  elements, not of addresses.
- Linearise every 2-D array, ``a[e1][e2] -> a[W*e1 + e2]``, with ``W``
  wider than ``e2``'s range over the array's references: distinct elements
  keep distinct addresses, in the same order, under a stride of ``W``.

Some rewrites change the answers on purpose and are not relations:
renaming an array, because ties break by name; strip-mining, because it
moves carriers; and a unit-trip *outermost* loop, because it changes the
measured window.

Permuting the loops moves carriers too, so it keeps fewer answers: the
point set and the statement order stay, and with them every array's
``total``, ``after``, ``save`` and ``forwarded_store``.  Under each loop
order, the analyzer and the oracle must still agree on every array's
carrier and registers, and on each allocation's cycles under both policies.
"""

import dataclasses
import itertools
import random

import pytest

from sralloc import (
    KERNEL_NAMES,
    POLICIES,
    AffineExpr,
    Loop,
    analyze_all,
    bundled_kernel,
    oracle_analysis,
    oracle_replay,
    random_kernel,
    run_allocator,
    steady_state_cycles,
)

SEEDS = range(30)


def map_refs(kernel, sub):
    """``kernel`` with every reference, in every statement, replaced by ``sub(ref)``."""
    statements = tuple(dataclasses.replace(s, write=sub(s.write), reads=tuple(map(sub, s.reads)))
                       for s in kernel.statements)
    return dataclasses.replace(kernel, statements=statements)


def rewrite_loop(kernel, level: int, loop, start: int = 0, scale: int = 1):
    """Loop ``level`` replaced by ``loop``, and every subscript reads its index
    ``i`` as ``start + scale*i``."""
    index = kernel.loops[level].index

    def sub(ref):
        exprs = tuple(AffineExpr(e.const + start * e.coeff(index),
                                 tuple((n, c * scale if n == index else c) for n, c in e.terms))
                      for e in ref.subscripts)
        return dataclasses.replace(ref, subscripts=exprs)

    loops = kernel.loops[:level] + (loop,) + kernel.loops[level + 1:]
    return dataclasses.replace(map_refs(kernel, sub), loops=loops)


def shift_loop(kernel, level: int, c: int):
    """Loop ``level`` runs c later, and every subscript reads its index as ``i - c``."""
    lp = kernel.loops[level]
    return rewrite_loop(kernel, level, dataclasses.replace(lp, lower=lp.lower + c,
                                                           upper=lp.upper + c), start=-c)


def stepped_pair(kernel, level: int, start: int, step: int):
    """Loop ``level``, of T iterations, run as ``start..start + step*T step step``
    with the subscripts unchanged, and run as ``0..T`` with its index read as
    ``start + step*i``."""
    lp = kernel.loops[level]
    stepped = Loop(lp.index, start, start + step * lp.trip, step)
    return (rewrite_loop(kernel, level, stepped),
            rewrite_loop(kernel, level, Loop(lp.index, 0, lp.trip), start, step))


def offset_array(kernel, array: str, consts):
    """Every subscript of ``array``, in every reference, plus its dimension's constant."""

    def sub(ref):
        if ref.array != array:
            return ref
        exprs = tuple(AffineExpr(e.const + c, e.terms) for e, c in zip(ref.subscripts, consts))
        return dataclasses.replace(ref, subscripts=exprs)

    return map_refs(kernel, sub)


def offset_copies(kernel, rng):
    """Each array in turn offset by seeded constants, the other arrays left as they are."""
    dims = {r.array: len(r.subscripts) for r in kernel.refs}
    return [offset_array(kernel, a, [rng.choice([-9, -2, 1, 6]) for _ in range(dims[a])])
            for a in kernel.arrays]


def reverse_dims(kernel):
    """Every array's subscripts in reverse order, in every reference."""
    return map_refs(kernel, lambda ref: dataclasses.replace(ref, subscripts=ref.subscripts[::-1]))


def linearize_2d(kernel, rng):
    """Every 2-D array read as 1-D, ``a[e1][e2] -> a[W*e1 + e2]`` in every
    reference, ``W`` the range of ``e2`` over the array's references plus a
    seeded margin of 0, 1 or 5."""
    ends = {lp.index: (lp.lower, lp.lower + (lp.trip - 1) * lp.step) for lp in kernel.loops}

    def span(e):
        return [e.const + sum(f(c * v for v in ends[n]) for n, c in e.terms) for f in (min, max)]

    bounds = {}
    for ref in kernel.refs:
        if len(ref.subscripts) == 2:
            lo, hi = span(ref.subscripts[1])
            old_lo, old_hi = bounds.get(ref.array, (lo, hi))
            bounds[ref.array] = min(lo, old_lo), max(hi, old_hi)
    width = {a: hi - lo + 1 + rng.choice([0, 1, 5]) for a, (lo, hi) in bounds.items()}

    def sub(ref):
        if ref.array not in width:
            return ref
        w, (e1, e2) = width[ref.array], ref.subscripts
        names = e1.indices() | e2.indices()
        flat = AffineExpr.make(w * e1.const + e2.const,
                               {n: w * e1.coeff(n) + e2.coeff(n) for n in names})
        return dataclasses.replace(ref, subscripts=(flat,))

    return map_refs(kernel, sub)


def append_unit_loop(kernel):
    """One more innermost loop, of one iteration, whose index no subscript reads."""
    taken = {lp.index for lp in kernel.loops} | {p for p, _ in kernel.params}
    index = next(f"u{n}" for n in range(len(taken) + 1) if f"u{n}" not in taken)
    return dataclasses.replace(kernel, loops=kernel.loops + (Loop(index, 0, 1),))


def shifted_copies(kernel, rng):
    """Each loop in turn shifted by a seeded c, the other loops left as they are."""
    return [shift_loop(kernel, level, rng.choice([-5, -1, 2, 7])) for level in range(kernel.depth)]


RELATIONS = {
    "shift": shifted_copies,
    "unit-innermost": lambda kernel, rng: [append_unit_loop(kernel)],
    "offset-array": offset_copies,
    "reverse-dims": lambda kernel, rng: [reverse_dims(kernel)],
    "linearize-2d": lambda kernel, rng: [linearize_2d(kernel, rng)],
}


def answers(kernel) -> tuple:
    """Every analyze and oracle_analysis field, each allocator's beta at three
    budgets, and each allocation's CycleReport and oracle replay under both
    policies."""
    reuse = analyze_all(kernel)
    allocs = [run_allocator(alg, kernel, reuse, len(reuse) + extra)
              for alg in ("fr", "pr", "cpa") for extra in (0, 10, 60)]
    reports = [steady_state_cycles(kernel, reuse, alloc, policy)
               for alloc in allocs for policy in POLICIES]
    # the replay depends on beta and policy alone, and budgets often repeat a beta
    distinct = {tuple(sorted(alloc.beta.items())): alloc for alloc in allocs}
    replays = [oracle_replay(kernel, alloc, policy)
               for alloc in distinct.values() for policy in POLICIES]
    return reuse, oracle_analysis(kernel), [alloc.beta for alloc in allocs], reports, replays


KERNELS = {name: lambda name=name: bundled_kernel(name) for name in KERNEL_NAMES}
KERNELS |= {f"random-{seed}": lambda seed=seed: random_kernel(random.Random(seed)) for seed in SEEDS}


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("case", KERNELS)
def test_relation_keeps_every_answer(case, relation):
    kernel = KERNELS[case]()
    want = answers(kernel)
    for rewritten in RELATIONS[relation](kernel, random.Random(case)):
        assert answers(rewritten) == want, rewritten.loops


@pytest.mark.parametrize("case", KERNELS)
def test_stepped_loop_answers_as_its_substitution(case):
    kernel = KERNELS[case]()
    rng = random.Random(case)
    for level in range(kernel.depth):
        stepped, substituted = stepped_pair(kernel, level, rng.choice([-4, 0, 5]),
                                            rng.choice([2, 3]))
        assert answers(stepped) == answers(substituted), stepped.loops


def permute_loops(kernel, order):
    """``kernel`` with its loops in ``order``, a permutation of their positions;
    the subscripts name the indices, so they stay as they are."""
    return dataclasses.replace(kernel, loops=tuple(kernel.loops[level] for level in order))


#: the fields that depend on the point set and the statement order alone
ORDER_FREE = ("total_accesses", "after_accesses", "save", "forwarded_store")


@pytest.mark.parametrize("case", KERNELS)
def test_permuted_loops_keep_counts_and_agree_with_the_oracle(case):
    kernel = KERNELS[case]()
    reuse = analyze_all(kernel)
    want = {a: [getattr(i, f) for f in ORDER_FREE] for a, i in reuse.items()}
    for order in itertools.permutations(range(kernel.depth)):
        permuted = permute_loops(kernel, order)
        mine = analyze_all(permuted)
        assert {a: [getattr(i, f) for f in ORDER_FREE] for a, i in mine.items()} == want, order
        theirs = oracle_analysis(permuted)
        assert {a: (i.carrier, i.required_regs, i.total_accesses, i.after_accesses, i.save,
                    i.forwarded_store) for a, i in mine.items()} == \
            {a: (t["carrier"], t["required_regs"], t["total"], t["after"], t["save"],
                 t["forwarded_store"]) for a, t in theirs.items()}, order
        for alg in ("fr", "pr", "cpa"):
            alloc = run_allocator(alg, permuted, mine, len(mine) + 10)
            for policy in POLICIES:
                assert steady_state_cycles(permuted, mine, alloc, policy).memory_cycles == \
                    oracle_replay(permuted, alloc, policy)[0], (order, alg, policy)
