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

Some rewrites change the answers on purpose and are not relations:
renaming an array, because ties break by name; loop interchange and
strip-mining, because they move carriers; and a unit-trip *outermost*
loop, because it changes the measured window.
"""

import dataclasses
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
    statements = tuple(dataclasses.replace(s, write=sub(s.write), reads=tuple(map(sub, s.reads)))
                       for s in kernel.statements)
    return dataclasses.replace(kernel, loops=loops, statements=statements)


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

    statements = tuple(dataclasses.replace(s, write=sub(s.write), reads=tuple(map(sub, s.reads)))
                       for s in kernel.statements)
    return dataclasses.replace(kernel, statements=statements)


def offset_copies(kernel, rng):
    """Each array in turn offset by seeded constants, the other arrays left as they are."""
    dims = {r.array: len(r.subscripts) for r in kernel.refs}
    return [offset_array(kernel, a, [rng.choice([-9, -2, 1, 6]) for _ in range(dims[a])])
            for a in kernel.arrays]


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
