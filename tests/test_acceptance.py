"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked "derived" were recomputed from first
principles (exhaustive enumeration or an independent reimplementation)
before being frozen here.
"""

import itertools
import random

import sralloc as sa
from sralloc import (
    POLICY_ELEMENT,
    POLICY_STAGING,
    REFERENCE_DISTRIBUTIONS,
    REFERENCE_REQUIRED,
)

from conftest import beta_tuple, hit
from test_properties import (
    assert_matches_brute_force,
    random_dag,
    reference_cuts,
    synthetic_reuse,
)


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_example_reuse_metrics(example_reuse):
    """Required registers and benefit/cost for the worked example, exact."""
    regs = {a: example_reuse[a].required_regs for a in "abcde"}
    assert regs == {"a": 30, "b": 600, "c": 20, "d": 30, "e": 1}
    bc = {a: example_reuse[a].bc for a in "abcde"}
    assert bc == {"a": 1999, "b": 99, "c": 2999, "d": 1900, "e": 1}
    report("1 example reuse metrics (regs 30/600/20/30/1, bc 1999/99/2999/1900/1): PASS")


def test_criterion_2_example_allocations(example, example_reuse):
    """The three allocators at a 64-register budget, exact."""
    fr = sa.full_reuse(example_reuse, 64)
    assert (fr.beta["c"], fr.beta["a"], fr.beta["d"], fr.beta["b"], fr.beta["e"]) == \
        (20, 30, 1, 1, 1)
    pr = sa.partial_reuse(example_reuse, 64)
    assert (pr.beta["c"], pr.beta["a"], pr.beta["d"], pr.beta["b"], pr.beta["e"]) == \
        (20, 30, 12, 1, 1)
    cpa = sa.critical_path_aware(example, example_reuse, 64)
    assert cpa.beta["d"] == 30          # cut {d} satisfied first
    assert cpa.beta["a"] == cpa.beta["b"]  # remainder split equally
    assert cpa.beta["a"] == 16          # derived: 30 leftover over two members
    assert cpa.registers_used <= 64
    report("2 example allocations (fr 20/30/1/1/1, pr +11 to d, cpa d=30 a=b=16): PASS")


def test_criterion_3_example_cycle_counts(example, example_reuse):
    """Steady-state cycles under both residency policies."""
    allocs = {
        "fr": sa.full_reuse(example_reuse, 64),
        "pr": sa.partial_reuse(example_reuse, 64),
        "cpa": sa.critical_path_aware(example, example_reuse, 64),
    }
    element = tuple(
        sa.steady_state_cycles(example, example_reuse, allocs[a], POLICY_ELEMENT).memory_cycles
        for a in ("fr", "pr", "cpa"))
    assert element == (1799, 1559, 1184)
    # classic narrative values, one-cycle tolerance on the greedy pair
    for got, classic in zip(element, (1800, 1560, 1184)):
        assert abs(got - classic) <= 1
    assert element[2] == 1184  # exact, no tolerance
    staging = tuple(
        sa.steady_state_cycles(example, example_reuse, allocs[a], POLICY_STAGING).memory_cycles
        for a in ("fr", "pr", "cpa"))
    assert staging[:2] == (1800, 1560)  # exact under the staging policy
    assert staging[2] == 1200
    report("3 example cycles element (1799, 1559, 1184), staging (1800, 1560): PASS")


def test_criterion_4_required_register_column(kernels, reuse_map):
    """Per-array full-replacement registers across the corpus, exact.

    dec-fir is a documented calibration: the corpus kernel keeps a unit
    stride window so the consecutive overlap is 127 (true decimated
    addressing would give 126); see CORPUS_NOTES["dec-fir"].
    """
    expected = {
        "fir": (1, 52, 51),
        "dec-fir": (1, 128, 127),
        "imi": (1, 48, 48),
        "mat": (1, 16, 256),
        "pat": (1, 80, 79),
        "bic": (1, 64, 512),
    }
    for name, required in expected.items():
        kernel, reuse = kernels[name], reuse_map[name]
        got = tuple(reuse[a].required_regs for a in kernel.arrays)
        assert got == required, (name, got, required)
        assert required == REFERENCE_REQUIRED[name]
    report("4 required-register column (fir 1/52/51 ... bic 1/64/512): PASS")


def _greedy_reference(reuse, budget, partial):
    """Independent reimplementation of the greedy allocators for cross-checking."""
    names = list(reuse)
    order = sorted(names, key=lambda a: (-reuse[a].bc, names.index(a)))
    beta = dict.fromkeys(names, 1)
    if sum(i.required_regs for i in reuse.values()) <= budget:
        return {a: reuse[a].required_regs for a in names}
    pool = budget - len(names)
    for a in order:
        cost = reuse[a].required_regs - 1
        if cost <= pool:
            beta[a] = reuse[a].required_regs
            pool -= cost
    if partial and pool > 0:
        for a in order:
            if beta[a] == 1 and reuse[a].save > 0 and reuse[a].required_regs > 1:
                beta[a] = min(1 + pool, reuse[a].required_regs)
                break
    return beta


def test_criterion_5_greedy_distributions(kernels, reuse_map):
    """Greedy distributions at 64 registers; fir rows exact per the classic
    table, the rest cross-checked and divergences reported."""
    fir = kernels["fir"]
    fr = sa.full_reuse(reuse_map["fir"], 64)
    pr = sa.partial_reuse(reuse_map["fir"], 64)
    assert beta_tuple(fir, fr) == (1, 52, 1) and fr.registers_used == 54
    assert beta_tuple(fir, pr) == (1, 52, 11) and pr.registers_used == 64

    divergences = []
    for name in ("fir", "dec-fir", "imi", "mat", "pat", "bic"):
        kernel, reuse = kernels[name], reuse_map[name]
        for alg, partial, version in (("fr", False, "v1"), ("pr", True, "v2")):
            alloc = sa.run_allocator(alg, kernel, reuse, 64)
            recomputed = _greedy_reference(reuse, 64, partial)
            assert alloc.beta == recomputed, (name, alg)
            classic, classic_total = REFERENCE_DISTRIBUTIONS[name][version]
            if beta_tuple(kernel, alloc) != classic:
                divergences.append(f"{name} {version}: ours "
                                   f"{beta_tuple(kernel, alloc)} vs classic {classic}")
    # the published bic rows cannot come out of the stated greedy rules
    assert all(d.startswith("bic") for d in divergences), divergences
    report(f"5 greedy distributions (fir exact; divergences: {'; '.join(divergences)}): PASS")


def test_criterion_6_cycle_ordering(kernels, reuse_map):
    """cycles(cpa) <= cycles(pr) <= cycles(fr) for every bundled kernel."""
    for name, kernel in kernels.items():
        reuse = reuse_map[name]
        for policy in (POLICY_ELEMENT, POLICY_STAGING):
            cycles = {}
            for alg in ("fr", "pr", "cpa"):
                alloc = sa.run_allocator(alg, kernel, reuse, 64)
                cycles[alg] = sa.steady_state_cycles(
                    kernel, reuse, alloc, policy).memory_cycles
            assert cycles["cpa"] <= cycles["pr"] <= cycles["fr"], (name, policy, cycles)
    report("6 cycle ordering cpa <= pr <= fr on all 7 kernels, both policies: PASS")


def test_criterion_7_oracle_equivalence(kernels, reuse_map, oracle_map):
    """Analytic quantities equal the brute-force oracle exactly: bundled
    corpus, three allocators, two policies, and 200 randomized kernels."""
    for name, kernel in kernels.items():
        reuse, expected = reuse_map[name], oracle_map[name]
        for array, info in reuse.items():
            got = expected[array]
            assert (got["carrier"], got["required_regs"]) == (info.carrier, info.required_regs)
            assert (got["total"], got["after"]) == (info.total_accesses, info.after_accesses)
        for alg in ("fr", "pr", "cpa"):
            alloc = sa.run_allocator(alg, kernel, reuse, 64)
            for policy in (POLICY_ELEMENT, POLICY_STAGING):
                mine = sa.steady_state_cycles(kernel, reuse, alloc, policy)
                cycles, hits = sa.oracle_replay(kernel, alloc, policy)
                assert mine.memory_cycles == cycles, (name, alg, policy)
        # residency predicate spot agreement on a sampled iteration grid
        alloc = sa.run_allocator("pr", kernel, reuse, 64)
        _, hits = sa.oracle_replay(kernel, alloc, POLICY_ELEMENT)
        outer = kernel.loops[0]
        mid = outer.lower + (outer.trip // 2) * outer.step
        points = list(itertools.product(*(lp.range for lp in kernel.loops[1:])))
        for rest in points[:: max(1, len(points) // 25)]:
            point = (mid,) + rest
            for array in reuse:
                assert hit(kernel, reuse, alloc, array, point) == \
                    hits[(array, point)], (name, array, point)

    rng = random.Random(20240817)
    for trial in range(200):
        k = sa.random_kernel(rng, max_points=600)
        reuse = sa.analyze_all(k)
        expected = sa.oracle_analysis(k)
        for array, info in reuse.items():
            got = expected[array]
            assert (got["carrier"], got["required_regs"]) == (info.carrier, info.required_regs)
            assert (got["total"], got["after"]) == (info.total_accesses, info.after_accesses)
        budget = len(reuse) + rng.randint(0, 20)
        for alg in ("fr", "pr", "cpa"):
            alloc = sa.run_allocator(alg, k, reuse, budget)
            for policy in (POLICY_ELEMENT, POLICY_STAGING):
                mine = sa.steady_state_cycles(k, reuse, alloc, policy).memory_cycles
                assert mine == sa.oracle_residency_cycles(k, alloc, policy), \
                    (trial, alg, policy)
    report("7 oracle equivalence (7 kernels x 3 algorithms x 2 policies"
           " + 200 random kernels): PASS")


def test_criterion_8_cut_machinery(example, example_reuse):
    """Exact cut set on the example's critical graph, of which find_cuts
    picks {d}; on random DAGs up to 12 reference nodes the enumeration
    matches exhaustive subset search and find_cuts returns its cheapest cut,
    a minimal disconnecting node set."""
    g = sa.build_dfg(example)
    cg = sa.critical_graph(g, sa.node_latencies(g, example_reuse))
    assert [c.arrays for c in reference_cuts(cg, example_reuse)] == [("d",), ("a", "b")]
    (cut,) = sa.find_cuts(cg, example_reuse)
    assert (cut.arrays, cut.omega) == (("d",), 30)

    rng = random.Random(11)
    cuts_checked = 0
    for _ in range(150):
        dag = random_dag(rng, max_mem=12)
        reuse = synthetic_reuse(dag, rng)
        cuts_checked += assert_matches_brute_force(dag, reuse)
    report(f"8 cut machinery (example cuts {{d}},{{a,b}}, cheapest {{d}}; {cuts_checked}"
           " random cheapest cuts match exhaustive search): PASS")
