"""Property tests over randomized kernels and graphs."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sralloc as sa
from sralloc import simulate
from sralloc.config import ACCOUNTING_MODES
from sralloc.dfg import (Cut, Dfg, DfgNode, critical_graph, critical_length,
                         cut_register_need, find_cuts, node_latencies)
from sralloc.reuse import ReuseInfo


def kernel_from_seed(seed: int) -> sa.Kernel:
    return sa.random_kernel(random.Random(seed), max_points=600)


def random_alloc(rng, reuse, budget):
    beta = {}
    for a, info in reuse.items():
        beta[a] = rng.randint(1, info.required_regs)
    # shrink uniformly until the budget fits
    names = sorted(beta)
    i = 0
    while sum(beta.values()) > budget:
        a = names[i % len(names)]
        if beta[a] > 1:
            beta[a] -= 1
        i += 1
    return sa.manual_allocation(reuse, beta, budget)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_budget_safety_and_caps(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    rng = random.Random(seed ^ 0xA5)
    for budget in (len(reuse), len(reuse) + rng.randint(0, 40)):
        for alg in ("fr", "pr", "cpa"):
            alloc = sa.run_allocator(alg, k, reuse, budget)
            assert alloc.registers_used <= budget
            assert all(1 <= alloc.beta[a] <= reuse[a].required_regs for a in reuse)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_allocators_deterministic(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    budget = len(reuse) + 11
    for alg in ("fr", "pr", "cpa"):
        assert sa.run_allocator(alg, k, reuse, budget).beta == \
            sa.run_allocator(alg, k, reuse, budget).beta


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_partial_dominates_full(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    budget = len(reuse) + 9
    fr = sa.full_reuse(reuse, budget)
    pr = sa.partial_reuse(reuse, budget)
    assert pr.registers_used >= fr.registers_used
    for policy in sa.POLICIES:
        c_fr = sa.steady_state_cycles(k, reuse, fr, policy).memory_cycles
        c_pr = sa.steady_state_cycles(k, reuse, pr, policy).memory_cycles
        assert c_pr <= c_fr


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_cycle_monotonicity_in_beta(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    rng = random.Random(seed ^ 0x5A)
    lo = random_alloc(rng, reuse, len(reuse) + rng.randint(0, 20))
    hi_beta = {a: rng.randint(lo.beta[a], reuse[a].required_regs) for a in reuse}
    hi = sa.manual_allocation(reuse, hi_beta, sum(hi_beta.values()))
    for policy in sa.POLICIES:
        c_lo = sa.steady_state_cycles(k, reuse, lo, policy).memory_cycles
        c_hi = sa.steady_state_cycles(k, reuse, hi, policy).memory_cycles
        assert c_hi <= c_lo


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_t_exec_monotone_and_full_beta_zeroes_latency(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    ones = sa.unit_allocation(reuse, len(reuse))
    full_beta = {a: i.required_regs for a, i in reuse.items()}
    full = sa.manual_allocation(reuse, full_beta, sum(full_beta.values()))
    g = sa.build_dfg(k)
    lat = node_latencies(g, reuse, full)
    assert critical_length(g, lat) <= critical_length(g, node_latencies(g, reuse, ones))
    for n in g.mem_nodes():
        if reuse[n.label].save > 0:
            assert lat[n.node_id] == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_parse_print_round_trip_random(seed):
    k = kernel_from_seed(seed)
    assert sa.parse_kernel(sa.kernel_to_source(k), name=k.name) == k


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_cycles_bounded(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    alloc = sa.run_allocator("cpa", k, reuse, len(reuse) + 13)
    r = sa.steady_state_cycles(k, reuse, alloc)
    assert 0 <= r.memory_cycles <= len(r.per_level) * max(1, r.inner_iterations)
    assert r.memory_cycles == sum(r.per_level)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_full_residency_floor_random(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    beta = {a: i.required_regs for a, i in reuse.items()}
    alloc = sa.manual_allocation(reuse, beta, sum(beta.values()))
    g = sa.build_dfg(k)
    by_id = {n.node_id: n for n in g.nodes}
    dead_levels = sum(
        1 for lev in sa.memory_levels(g)
        if any(reuse[by_id[nid].label].save == 0 for nid in lev))
    r = sa.steady_state_cycles(k, reuse, alloc)
    assert r.memory_cycles == dead_levels * r.inner_iterations


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_policy_gap_confined_to_single_register_arrays(seed):
    """The two policies may disagree only where a one-register array with
    real reuse touches its rank-zero element."""
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    rng = random.Random(seed ^ 0x3C)
    alloc = random_alloc(rng, reuse, len(reuse) + rng.randint(0, 12))
    gap_possible = any(
        alloc.beta[a] == 1 and i.save > 0 and i.required_regs > 1
        and not i.forwarded_store
        for a, i in reuse.items())
    el = sa.steady_state_cycles(k, reuse, alloc, sa.POLICY_ELEMENT).memory_cycles
    stg = sa.steady_state_cycles(k, reuse, alloc, sa.POLICY_STAGING).memory_cycles
    assert stg >= el
    if not gap_possible:
        assert stg == el


# ---------------------------------------------------------------------------
# the simulator against a per-element replay

class ReferenceResidency:
    """First-access ranks of one array's elements, replayed window by window."""

    def __init__(self, info: ReuseInfo, beta: int, policy: str):
        self.carrier = info.carrier
        self.beta = beta
        self.window_key = None
        self.ranks = {}
        always = info.save > 0 and beta == info.required_regs
        never = (info.save <= 0
                 or (beta < 2 and (policy == sa.POLICY_STAGING or info.forwarded_store)))
        self.fixed = True if always else (False if never else None)

    def touch(self, point, element) -> bool:
        if self.fixed is not None:
            return self.fixed
        key = point[: self.carrier + 1]
        if key != self.window_key:
            self.window_key = key
            self.ranks = {}
        rank = self.ranks.setdefault(element, len(self.ranks))
        return rank < self.beta


def reference_cycles(kernel, reuse, alloc, policy, ports):
    """(per_level, per_array) by replaying every access's subscript tuple.

    Accesses run in statement order, reads before the write and the implicit
    reduction read last; forwarded reads touch no memory.
    """
    g = sa.build_dfg(kernel)
    levels = sa.memory_levels(g, ports)
    forwarded = sa.forwarded_read_ids(kernel)
    node_of = {rid: n.node_id for n in g.mem_nodes() for rid in n.ref_ids}
    label = {n.node_id: n.label for n in g.nodes}
    accesses = [(r, node_of[r.ref_id]) for stmt in kernel.statements
                for r in (*stmt.reads, stmt.write) if r.ref_id not in forwarded]
    state = {a: ReferenceResidency(info, alloc.beta[a], policy) for a, info in reuse.items()}
    outer = kernel.loops[0]
    mid = outer.lower + (outer.trip // 2) * outer.step
    per_level = [0] * len(levels)
    per_array = {a: 0 for a in reuse}
    for inner in itertools.product(*(lp.range for lp in kernel.loops[1:])):
        point = (mid,) + inner
        env = dict(zip(kernel.index_names, point))
        node_hit = {}
        for r, nid in accesses:
            element = tuple(e.eval(env) for e in r.subscripts)
            node_hit[nid] = node_hit.get(nid, True) and state[r.array].touch(point, element)
        for li, level in enumerate(levels):
            missed = [nid for nid in level if not node_hit[nid]]
            per_level[li] += bool(missed)
            for nid in missed:
                per_array[label[nid]] += 1
    return tuple(per_level), tuple(sorted(per_array.items()))


def assert_matches_reference(k, reuse, allocs):
    for alloc in allocs:
        for policy in sa.POLICIES:
            for ports in (1, 2):
                r = sa.steady_state_cycles(k, reuse, alloc, policy, ports)
                assert (r.per_level, r.per_array) == \
                    reference_cycles(k, reuse, alloc, policy, ports), (alloc.beta, policy, ports)


def reference_allocs(seed, reuse):
    """A random, the all-ones and the one-short-of-full allocation."""
    rng = random.Random(seed ^ 0x7E)
    short = {a: max(1, i.required_regs - 1) for a, i in reuse.items()}
    return (random_alloc(rng, reuse, len(reuse) + rng.randint(0, 30)),
            sa.unit_allocation(reuse, len(reuse)),
            sa.manual_allocation(reuse, short, sum(short.values())))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_cycles_match_reference_replay(seed):
    """Random, all-ones and one-short-of-full allocations, both policies,
    one and two ports: the same per-level and per-array charges."""
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    assert_matches_reference(k, reuse, reference_allocs(seed, reuse))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_cycles_match_reference_replay_in_small_blocks(seed):
    """The same, priced 7 points to a block, so windows straddle block edges."""
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    with mock.patch.object(simulate, "BLOCK", 7):
        assert_matches_reference(k, reuse, reference_allocs(seed, reuse))


# 5 x 6 inner points: carrier windows of 1, 6 and 30 points, none a
# multiple of 7, so with BLOCK = 7 they straddle block edges
BLOCK_SHAPES = {
    # c's carrier is the innermost loop, as in mat; a's is the middle one,
    # and its window slides with j
    "carrier-below-outer":
        "S1: c[i][j] += a[i][j + k] * b[k][j];",
    "two-nodes-one-array":
        "S1: y[j][k] = a[j + k] + a[2*j + k + 1];",
    "forwarded-store":
        "S1: x[k] = a[j + k] + b[j]; S2: y[j][k] = x[k] * c[k];",
    # e has no carrier but saves: threshold infinite at one register, or 0
    # under staging-only; y has no carrier and saves nothing
    "no-carrier":
        "S1: y[i][j][k] = e[i][j][k] * e[i][j][k]; S2: z[k] = e[i][j][k] + a[k];",
}


def block_shape(name):
    return sa.parse_kernel("loop i = 0..4 { loop j = 0..5 { loop k = 0..6 { "
                           + BLOCK_SHAPES[name] + " } } }")


def test_block_shapes_cover_their_cases():
    shapes = {name: block_shape(name) for name in BLOCK_SHAPES}
    reuse = {name: sa.analyze_all(k) for name, k in shapes.items()}
    assert {a: i.carrier for a, i in reuse["carrier-below-outer"].items()} == \
        {"c": 2, "a": 1, "b": 0}
    mem = sa.build_dfg(shapes["two-nodes-one-array"]).mem_nodes()
    assert [n.label for n in mem].count("a") == 2
    assert reuse["forwarded-store"]["x"].forwarded_store
    no_carrier = reuse["no-carrier"]
    assert no_carrier["e"].carrier is None and no_carrier["e"].save > 0
    assert no_carrier["y"].carrier is None and no_carrier["y"].save == 0
    thresholds = {simulate._threshold(info, beta, policy)
                  for r in reuse.values() for info in r.values()
                  for beta in (1, max(1, info.required_regs - 1), info.required_regs)
                  for policy in sa.POLICIES}
    assert {0, math.inf} < thresholds


@pytest.mark.parametrize("block", [7, simulate.BLOCK])
@pytest.mark.parametrize("name", sorted(BLOCK_SHAPES))
def test_block_pricing_matches_reference_replay(name, block, monkeypatch):
    """All-ones, one-short-of-full and full allocations (thresholds 0, beta
    and infinity), both policies, one and two ports."""
    monkeypatch.setattr(simulate, "BLOCK", block)
    k = block_shape(name)
    reuse = sa.analyze_all(k)
    allocs = [sa.manual_allocation(reuse, {a: beta(i) for a, i in reuse.items()})
              for beta in (lambda i: 1, lambda i: max(1, i.required_regs - 1),
                           lambda i: i.required_regs)]
    assert_matches_reference(k, reuse, allocs)


# ---------------------------------------------------------------------------
# cut machinery against exhaustive search

def random_dag(rng: random.Random, max_mem: int = 12) -> Dfg:
    n_mem = rng.randint(1, max_mem)
    n_op = rng.randint(0, 6)
    kinds = ["mem"] * n_mem + ["op"] * n_op
    rng.shuffle(kinds)
    nodes, edges = [], []
    arrays = [f"m{i}" for i in range(rng.randint(1, n_mem))]
    for nid, kind in enumerate(kinds):
        label = rng.choice(arrays) if kind == "mem" else "op"
        nodes.append(DfgNode(nid, kind, label, 1, 0, ()))
        for prev in range(nid):
            if rng.random() < 0.25:
                edges.append((prev, nid))
    return Dfg(tuple(nodes), tuple(edges))


def synthetic_reuse(g: Dfg, rng: random.Random) -> dict[str, ReuseInfo]:
    out = {}
    for n in g.mem_nodes():
        if n.label in out:
            continue
        save = rng.choice([0, 5, 9])
        out[n.label] = ReuseInfo(n.label, (n.node_id,), 0 if save else None,
                                 rng.randint(1, 4), 10, 10 - save, save,
                                 Fraction(1), False)
    return out


def all_paths(g: Dfg) -> list[tuple[int, ...]]:
    """Every root-to-sink path, by a recursive walk."""
    succs = g.succs()
    sinks = set(g.sinks())
    out: list[tuple[int, ...]] = []

    def walk(nid, prefix):
        prefix = prefix + (nid,)
        if nid in sinks:
            out.append(prefix)
            return
        for s in sorted(succs[nid]):
            walk(s, prefix)

    for r in sorted(g.roots()):
        walk(r, ())
    return out


def minimal_hitting_sets(requirements: list[frozenset[int]]) -> list[frozenset[int]]:
    reqs = sorted(set(requirements), key=len)
    reqs = [r for i, r in enumerate(reqs) if not any(q < r for q in reqs[:i])]
    found: set[frozenset[int]] = set()

    def extend(chosen: frozenset[int]):
        for r in reqs:
            if not (r & chosen):
                for v in sorted(r):
                    extend(chosen | {v})
                return
        found.add(chosen)

    extend(frozenset())
    return sorted((s for s in found if not any(t < s for t in found)),
                  key=lambda s: (len(s), tuple(sorted(s))))


def reference_cuts(cg: Dfg, reuse: dict[str, ReuseInfo], alloc=None) -> tuple[Cut, ...]:
    """Every cut of the critical graph: the minimal hitting sets of its paths.

    Candidates are memory nodes whose array saves accesses and, when an
    allocation is given, is not already fully replaced.
    """
    beta = None if alloc is None else alloc.beta
    candidates = set()
    for n in cg.mem_nodes():
        info = reuse[n.label]
        if info.save <= 0:
            continue
        if beta is not None and beta[n.label] >= info.required_regs:
            continue
        candidates.add(n.node_id)
    if not candidates or not cg.nodes:
        return ()

    requirements = []
    for path in all_paths(cg):
        req = frozenset(nid for nid in path if nid in candidates)
        if not req:
            return ()
        requirements.append(req)

    label = {n.node_id: n.label for n in cg.nodes}
    cuts = []
    for s in minimal_hitting_sets(requirements):
        arrays = tuple(sorted({label[nid] for nid in s}))
        omega = sum(reuse[a].required_regs for a in arrays)
        cuts.append(Cut(tuple(sorted(s)), arrays, omega))
    return tuple(sorted(cuts, key=lambda c: (len(c.node_ids), c.arrays, c.node_ids)))


def brute_force_cuts(g: Dfg, candidates: set[int]) -> list[frozenset[int]]:
    reqs = [frozenset(n for n in p if n in candidates) for p in all_paths(g)]
    if not candidates or any(not r for r in reqs):
        return []
    cand = sorted(candidates)
    winners: list[frozenset[int]] = []
    for size in range(1, len(cand) + 1):
        for comb in itertools.combinations(cand, size):
            s = frozenset(comb)
            if all(s & q for q in reqs) and not any(w <= s for w in winners):
                winners.append(s)
    return sorted(winners, key=lambda s: (len(s), tuple(sorted(s))))


def cheapest(cuts, reuse, alloc, accounting: str):
    """The cut ``critical_path_aware`` picks: least (need, size, arrays)."""
    held = alloc or sa.unit_allocation(reuse)
    return min(cuts, default=None, key=lambda c: (
        cut_register_need(c, reuse, held, accounting), len(c.arrays), c.arrays))


def assert_minimal_disconnecting(g: Dfg, node_ids):
    paths = all_paths(g)
    members = set(node_ids)
    assert all(members & set(p) for p in paths)  # removal breaks every path
    for drop in members:
        assert not all((members - {drop}) & set(p) for p in paths)


def assert_cheapest_cut(cg: Dfg, reuse, alloc=None):
    """find_cuts returns the reference's cheapest cut, under both accountings."""
    cuts = reference_cuts(cg, reuse, alloc)
    for accounting in ACCOUNTING_MODES:
        want = cheapest(cuts, reuse, alloc, accounting)
        got = find_cuts(cg, reuse, alloc, accounting)
        assert len(got) == (want is not None)
        if got:
            assert (got[0].arrays, got[0].omega) == (want.arrays, want.omega)
            assert {n.label for n in cg.nodes if n.node_id in got[0].node_ids} == set(want.arrays)
            assert_minimal_disconnecting(cg, got[0].node_ids)


def assert_matches_brute_force(g: Dfg, reuse) -> int:
    """The enumeration equals exhaustive subset search, and find_cuts returns
    its cheapest cut, a minimal disconnecting node set, under both
    accountings.  Returns how many cuts find_cuts returned."""
    candidates = {n.node_id for n in g.mem_nodes() if reuse[n.label].save > 0}
    brute = brute_force_cuts(g, candidates)
    ref = sorted((frozenset(c.node_ids) for c in reference_cuts(g, reuse)),
                 key=lambda s: (len(s), tuple(sorted(s))))
    assert ref == brute
    # find_cuts prices by array; brute force only knows node sets
    label = {n.node_id: n.label for n in g.nodes}
    as_cuts = [Cut(tuple(sorted(s)), tuple(sorted({label[n] for n in s})), 0) for s in brute]
    found = 0
    for accounting in ACCOUNTING_MODES:
        want = cheapest(as_cuts, reuse, None, accounting)
        got = find_cuts(g, reuse, None, accounting)
        assert [c.arrays for c in got] == ([] if want is None else [want.arrays])
        for cut in got:
            assert_minimal_disconnecting(g, cut.node_ids)
        found += len(got)
    return found


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_cut_enumeration_matches_brute_force(seed):
    rng = random.Random(seed)
    g = random_dag(rng)
    assert_matches_brute_force(g, synthetic_reuse(g, rng))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_cut_disconnection_and_minimality(seed):
    rng = random.Random(seed)
    g = random_dag(rng)
    reuse = synthetic_reuse(g, rng)
    for accounting in ACCOUNTING_MODES:
        for cut in find_cuts(g, reuse, None, accounting):
            assert_minimal_disconnecting(g, cut.node_ids)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_find_cuts_is_cheapest_reference_cut_random_dag(seed):
    # one to three DAGs side by side, whose arrays may repeat across them
    rng = random.Random(seed)
    nodes, edges = [], []
    for _ in range(rng.randint(1, 3)):
        part = random_dag(rng, max_mem=6)
        base = len(nodes)
        nodes += [dataclasses.replace(n, node_id=n.node_id + base) for n in part.nodes]
        edges += [(a + base, b + base) for a, b in part.edges]
    g = Dfg(tuple(nodes), tuple(edges))
    reuse = synthetic_reuse(g, rng)
    assert_cheapest_cut(g, reuse)
    assert_cheapest_cut(g, reuse, random_alloc(rng, reuse, 10 * len(reuse)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_find_cuts_is_cheapest_reference_cut_random_kernel(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    rng = random.Random(seed ^ 0x5A)
    alloc = random_alloc(rng, reuse, len(reuse) + rng.randint(0, 24))
    g = sa.build_dfg(k)
    for held in (None, alloc):
        assert_cheapest_cut(critical_graph(g, node_latencies(g, reuse, held)), reuse, held)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_critical_graph_idempotent_random(seed):
    rng = random.Random(seed)
    g = random_dag(rng)
    lat = {n.node_id: n.latency for n in g.nodes}
    cg = critical_graph(g, lat)
    again = critical_graph(cg, lat)
    assert set(again.nodes) == set(cg.nodes)
    assert set(again.edges) == set(cg.edges)


# ---------------------------------------------------------------------------
# longest-path pass against the recursive walks it replaced

def reference_critical_paths(g: Dfg, lat) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(T_exec, every maximum-latency root-to-sink path), by recursive walks."""
    if not g.nodes:
        return 0, ()
    succs = g.succs()
    best_from: dict[int, int] = {}

    def longest_from(nid: int) -> int:
        if nid not in best_from:
            tail = max((longest_from(s) for s in succs[nid]), default=0)
            best_from[nid] = lat[nid] + tail
        return best_from[nid]

    t_exec = max(longest_from(r) for r in g.roots())
    paths: list[tuple[int, ...]] = []

    def walk(nid: int, prefix: tuple[int, ...]):
        prefix = prefix + (nid,)
        if not succs[nid]:
            paths.append(prefix)
            return
        # a path is critical iff it keeps following maximum continuations
        for s in sorted(succs[nid]):
            if best_from[s] == best_from[nid] - lat[nid]:
                walk(s, prefix)

    for r in sorted(g.roots()):
        if best_from[r] == t_exec:
            walk(r, ())
    return t_exec, tuple(paths)


def reference_memory_levels(g: Dfg, ports: int) -> tuple[tuple[int, ...], ...]:
    """Memory levels from a recursive memory-chain depth."""
    preds = g.preds()
    by_id = {n.node_id: n for n in g.nodes}
    depth: dict[int, int] = {}

    def mem_depth(nid: int) -> int:
        if nid in depth:
            return depth[nid]
        d = 0
        for p in preds[nid]:
            pd = mem_depth(p)
            if by_id[p].kind == "mem":
                pd += 1
            d = max(d, pd)
        depth[nid] = d
        return d

    by_depth: dict[int, list[int]] = {}
    for n in sorted(g.mem_nodes(), key=lambda n: n.node_id):
        by_depth.setdefault(mem_depth(n.node_id), []).append(n.node_id)
    levels: list[tuple[int, ...]] = []
    for d in sorted(by_depth):
        slots: dict[int, list[int]] = {}
        seen: dict[str, int] = {}
        for nid in by_depth[d]:
            label = by_id[nid].label
            slots.setdefault(seen.get(label, 0) // ports, []).append(nid)
            seen[label] = seen.get(label, 0) + 1
        levels.extend(tuple(slots[s]) for s in sorted(slots))
    return tuple(levels)


def assert_matches_path_walk(g: Dfg, lat):
    t_exec, paths = reference_critical_paths(g, lat)
    assert critical_length(g, lat) == t_exec
    keep = {nid for p in paths for nid in p}
    cg = critical_graph(g, lat)
    assert cg.nodes == tuple(n for n in g.nodes if n.node_id in keep)
    assert cg.edges == tuple(sorted({e for p in paths for e in zip(p, p[1:])}))
    for ports in (1, 2):
        assert sa.memory_levels(g, ports) == reference_memory_levels(g, ports)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_longest_path_pass_matches_path_walk_random_dag(seed):
    rng = random.Random(seed)
    g = random_dag(rng)
    # latencies 0..2 force ties between paths of different hop counts
    assert_matches_path_walk(g, {n.node_id: rng.choice((0, 1, 2)) for n in g.nodes})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_longest_path_pass_matches_path_walk_kernels(seed):
    k = kernel_from_seed(seed)
    reuse = sa.analyze_all(k)
    full_beta = {a: i.required_regs for a, i in reuse.items()}
    g = sa.build_dfg(k)
    for alloc in (None, sa.manual_allocation(reuse, full_beta, sum(full_beta.values()))):
        assert_matches_path_walk(g, node_latencies(g, reuse, alloc))
