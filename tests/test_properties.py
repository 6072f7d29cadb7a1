"""Property tests over randomized kernels and graphs."""

import dataclasses
import itertools
import math
import random
import weakref
from array import array
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sralloc as sa
from conftest import affine_value
from sralloc import allocate, simulate
from sralloc.allocate import _water_fill
from sralloc.config import ACCOUNTING_MODES
from sralloc.dfg import (Dfg, DfgNode, critical_graph, critical_length, find_cuts,
                         mem_latency, node_latencies)
from sralloc.reuse import ReuseInfo, _address_forms


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


def reference_water_fill(beta, members, reuse, budget):
    """The cut-split water fill before it was shortened, kept to pin its results."""
    spent = 0
    open_members = [a for a in members if beta[a] < reuse[a].required_regs]
    left = budget
    while left > 0 and open_members:
        share = left // len(open_members)
        if share == 0:
            for a in open_members:
                if left == 0:
                    break
                beta[a] += 1
                left -= 1
                spent += 1
            break
        for a in list(open_members):
            take = min(share, reuse[a].required_regs - beta[a])
            beta[a] += take
            left -= take
            spent += take
            if beta[a] == reuse[a].required_regs:
                open_members.remove(a)
    return spent


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 40)), min_size=1, max_size=8),
       st.integers(0, 400))
def test_water_fill_matches_reference(arrays, budget):
    # (cap, headroom) per array: beta starts at cap - headroom, floored at 1
    reuse = {f"a{n}": SimpleNamespace(required_regs=cap) for n, (cap, _) in enumerate(arrays)}
    beta = {f"a{n}": max(1, cap - room) for n, (cap, room) in enumerate(arrays)}
    members = list(reuse)
    expect = dict(beta)
    reference_water_fill(expect, members, reuse, budget)
    _water_fill(beta, members, reuse, budget)
    assert beta == expect


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
        env = dict(zip((lp.index for lp in kernel.loops), point))
        node_hit = {}
        for r, nid in accesses:
            element = tuple(affine_value(e, env) for e in r.subscripts)
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


def product_walk(model, kernel, a, carrier, clip):
    """The earlier ``_CostModel._walk``, kept as a reference: one ``sum`` over an
    ``itertools.product`` tuple per address."""
    loops = kernel.loops
    mid = loops[0].lower + (loops[0].trip // 2) * loops[0].step
    subs = model.index[a]
    pats = list(dict.fromkeys(subs))
    form = dict(zip(pats, _address_forms(kernel, a, pats)))
    streams = []
    for base, coeffs in map(form.__getitem__, subs):
        offsets = [(base + coeffs[0] * mid,)]
        offsets += [tuple(c * x for x in lp.range) for c, lp in zip(coeffs[1:], loops[1:])]
        streams.append(map(sum, itertools.product(*offsets)))
    stream = streams[0] if len(streams) == 1 else itertools.chain.from_iterable(zip(*streams))
    span = sa.iteration_space_size(kernel, carrier + 1)
    column = array("B" if clip < 1 << 8 else "H" if clip < 1 << 16 else "I")
    pack, append = (bytes, column.frombytes) if clip < 1 << 8 else (list, column.fromlist)
    for _ in range(model.points // span):
        first: dict[int, int] = {}
        for lo in range(0, span, simulate.BLOCK):
            seg = list(itertools.islice(stream, min(simulate.BLOCK, span - lo) * len(subs)))
            # the filter reads the dict as it grows: first accesses only
            fresh = itertools.filterfalse(first.__contains__, seg)
            first.update(zip(itertools.islice(fresh, clip - len(first)),
                             itertools.count(len(first))))
            append(pack(map(first.get, seg, itertools.repeat(clip))))
    return column


#: the walk's cases, each with a step and a negative coefficient
RULE_SHAPES = {
    # a's window j, h, k, and h, which a does not use, between loops that
    # move; a's 300 ranks take two bytes
    "still-between":
        "loop i = 0..3 { loop j = 0..20 { loop h = 1..10 step 4 { loop k = 0..15 {"
        " S1: y[h][k] += a[j][-k] * b[j - h]; } } } }",
    # y's carrier is k, and its window, the loop l, does not move it
    "window-still":
        "loop i = 0..4 { loop j = 0..3 { loop k = 0..5 { loop l = 2..14 step 3 {"
        " S1: y[i][j] += a[k][-l] * a[k][l - 2]; } } } }",
    # a's carrier is j, and its nodes move apart along g and j, so both are
    # walked; the window loop h moves none of them
    "nodes-apart":
        "loop i = 0..3 { loop g = 0..3 { loop j = 1..9 step 2 { loop h = 0..2 { loop k = 0..5 {"
        " S1: y[i][g][j][h][k] = a[i][g - j] + a[i][g - j - 2*k];"
        " S2: z[i][g][j][h][k] = a[i][3*g + j - 2*k]; } } } } }",
}
#: the rule shapes; more inner points than the default BLOCK (three nodes
#: of a); an innermost loop longer than a BLOCK of 7, under a unit-trip
#: middle loop; and a step, a lower bound and negative coefficients
WALK_SHAPES = [
    *RULE_SHAPES.values(),
    "loop i = 0..3 { loop j = 0..40 { loop k = 0..500 {"
    " S1: y[j] = a[j + k] + a[2*j + k + 1]; S2: z[k] = b[k] * a[j + k]; } } }",
    "loop i = 0..3 { loop h = 0..1 { loop j = 0..3 { loop k = 0..11 {"
    " S1: y[j][k] = a[j + k] * b[k]; } } } }",
    "loop i = 0..4 { loop j = 2..14 step 3 { loop k = 1..7 {"
    " S1: y[k] += a[9 - j][k - 2*i] * b[-k][j]; } } }",
]


def walk_cases(kernel) -> set[str]:
    """The rules a walk of ``kernel`` exercises, read from the subscripts of
    each array walked: a still window loop between two that move an access,
    a window in which no loop moves one, and an enclosing loop along which
    the accesses move apart."""
    found = set()
    model = simulate._CostModel(kernel, sa.build_dfg(kernel), 1)
    for a, info in sa.analyze_all(kernel).items():
        if info.carrier is None or a not in model.index:
            continue
        subs = model.index[a]
        moves = [any(e.coeff(lp.index) for p in subs for e in p)
                 for lp in kernel.loops[info.carrier + 1:]]
        if any(m and not s and t for m, s, t in itertools.combinations(moves, 3)):
            found.add("still-between")
        if moves and not any(moves):
            found.add("window-still")
        if any(len({tuple(e.coeff(lp.index) for e in p) for p in subs}) > 1
               for lp in kernel.loops[1:info.carrier + 1]):
            found.add("nodes-apart")
    return found


def test_rule_shapes_cover_their_cases():
    for name, src in RULE_SHAPES.items():
        k = sa.parse_kernel(src)
        assert name in walk_cases(k), name
        assert any(lp.step > 1 for lp in k.loops), name
        assert any(c < 0 for r in k.refs for e in r.subscripts for _, c in e.terms), name


@pytest.mark.parametrize("block", [7, simulate.BLOCK])
def test_walk_matches_the_product_walk(block, monkeypatch):
    """Equal rank columns for every walked array, at its required registers
    and clipped below them, in small blocks and at the default."""
    monkeypatch.setattr(simulate, "BLOCK", block)
    cases = [block_shape(name) for name in sorted(BLOCK_SHAPES)]
    cases += [sa.parse_kernel(src) for src in WALK_SHAPES]
    cases += [sa.parse_kernel(sa.kernel_source(name), name=name) for name in sa.KERNEL_NAMES]
    assert sa.iteration_space_size(cases[-len(sa.KERNEL_NAMES) - 3], 1) > simulate.BLOCK
    walked = 0
    for k in cases:
        reuse = sa.analyze_all(k)
        model = simulate._CostModel(k, sa.build_dfg(k), 1)
        for a, info in reuse.items():
            if info.carrier is None or a not in model.index:
                continue
            for clip in sorted({1, 2, info.required_regs}):
                want = product_walk(model, k, a, info.carrier, clip)
                assert model._walk(k, a, info.carrier, clip) == want, (k.name, a, clip)
                walked += 1
    assert walked > 30


def full_but(reuse, array, beta):
    """Every array at its required registers but ``array``, which holds ``beta``."""
    return sa.manual_allocation(reuse, {a: beta if a == array else i.required_regs
                                        for a, i in reuse.items()})


def test_two_byte_ranks_match_reference_replay():
    """Two nodes of one array interleaved in an ``H`` column, priced at
    thresholds around and across a byte boundary."""
    k = sa.parse_kernel("loop i = 0..3 { loop j = 0..24 { loop k = 0..24 { "
                        "S1: y[j][k] = a[j][k] + a[k][j]; } } }")
    reuse = sa.analyze_all(k)
    assert reuse["a"].required_regs == 576
    assert_matches_reference(k, reuse, [full_but(reuse, "a", beta)
                                        for beta in (255, 256, 257, 575)])
    [column] = [c for key, c in simulate._MODELS[k][1].ranks.items() if key[0] == "a"]
    assert column.typecode == "H"


def test_four_byte_ranks_match_reference_replay():
    """An ``I`` column priced at thresholds across the two-byte boundary."""
    k = sa.parse_kernel("loop i = 0..3 { loop j = 0..66000 { S1: y[i] += a[j]; } }")
    reuse = sa.analyze_all(k)
    for beta in (65535, 65536, 65537):
        alloc = full_but(reuse, "a", beta)
        r = sa.steady_state_cycles(k, reuse, alloc, sa.POLICY_ELEMENT)
        assert (r.per_level, r.per_array) == \
            reference_cycles(k, reuse, alloc, sa.POLICY_ELEMENT, 1), beta
    [column] = [c for key, c in simulate._MODELS[k][1].ranks.items() if key[0] == "a"]
    assert column.typecode == "I"


#: every op kind slower than the default table, so T_exec moves with it
SLOW_OPS = {**sa.DEFAULT_LATENCIES, "multiply": 3, "add": 2, "subtract": 2, "compare": 3,
            "accumulate": 2}


def carried_deeper(kernel, reuse):
    """A second reuse dict: each carried array's carrier one loop deeper where
    there is one, and three more registers, so its rank columns differ."""
    return {a: dataclasses.replace(i, carrier=min(i.carrier + 1, kernel.depth - 1),
                                   required_regs=i.required_regs + 3)
            if i.carrier is not None else i for a, i in reuse.items()}


def assert_cost_model_keys(make_kernel, seed: int, latencies_move_t_exec: bool):
    """Interleaved calls on one kernel object, varying reuse dict, allocation,
    policy, ports and latencies, equal the same calls each on a freshly parsed
    kernel with a model of its own, and the reference replay."""
    kernel = make_kernel()
    reuse = sa.analyze_all(kernel)
    calls = [(r, alloc, policy, ports, lat)
             for r in (reuse, carried_deeper(kernel, reuse))
             for alloc in reference_allocs(seed, r)
             for policy in sa.POLICIES for ports in (1, 2) for lat in (None, SLOW_OPS)]
    random.Random(seed).shuffle(calls)
    fresh = []
    for call in calls:
        with mock.patch.object(simulate, "_MODELS", weakref.WeakKeyDictionary()):
            fresh.append(sa.steady_state_cycles(make_kernel(), *call))
    with mock.patch.object(simulate, "_MODELS", weakref.WeakKeyDictionary()):
        got = [sa.steady_state_cycles(kernel, *call) for call in calls]
    assert got == fresh
    replays, t_exec = {}, {}
    for (r, alloc, policy, ports, lat), rep in zip(calls, got):
        key = (id(r), id(alloc), policy, ports)
        if key not in replays:
            replays[key] = reference_cycles(kernel, r, alloc, policy, ports)
        assert (rep.per_level, rep.per_array) == replays[key], (alloc.beta, policy, ports)
        t_exec.setdefault(key, {})[lat is None] = rep.t_exec_per_iter
    if latencies_move_t_exec:
        assert all(t[True] != t[False] for t in t_exec.values())


@pytest.mark.parametrize("name", sa.KERNEL_NAMES)
def test_cost_model_keys_bundled(name):
    assert_cost_model_keys(lambda: sa.parse_kernel(sa.kernel_source(name), name=name), 7,
                           latencies_move_t_exec=True)


def test_cost_model_keys_random():
    for seed in range(50):
        assert_cost_model_keys(lambda: kernel_from_seed(seed), seed,
                               latencies_move_t_exec=False)


# ---------------------------------------------------------------------------
# the pricing path against the path it replaced

def reference_latencies(g: Dfg, reuse, alloc=None, latencies=None) -> dict[int, int]:
    """The earlier ``node_latencies``, kept as a reference: read off each node."""
    ops = sa.DEFAULT_LATENCIES if latencies is None else latencies
    beta = {a: 1 for a in reuse} if alloc is None else alloc.beta
    return {n.node_id: mem_latency(reuse[n.label], beta[n.label]) if n.kind == "mem"
            else ops[n.label] for n in g.nodes}


def heaviest(g: Dfg, lat, backward: bool = False) -> dict[int, int]:
    """Heaviest path into (or out of) each node, from ``g.edges`` in id order."""
    before = {n.node_id: [] for n in g.nodes}
    for a, b in g.edges:
        before[a if backward else b].append(b if backward else a)
    best = {}
    for nid in sorted(before, reverse=backward):
        best[nid] = lat[nid] + max((best[p] for p in before[nid]), default=0)
    return best


def reference_critical_graph(g: Dfg, lat) -> Dfg:
    into, out = heaviest(g, lat), heaviest(g, lat, backward=True)
    t_exec = max(into.values(), default=0)
    return Dfg(tuple(n for n in g.nodes
                     if into[n.node_id] + out[n.node_id] - lat[n.node_id] == t_exec),
               tuple(sorted({(a, b) for a, b in g.edges if into[a] + out[b] == t_exec})))


def reference_report(kernel, reuse, alloc, policy, ports, latencies, columns):
    """The earlier pricing path: ``T_exec`` from the reference latencies and
    longest path, and each node's misses by a per-access ``rank >= t`` compare
    on the product walk's rank columns (``columns`` memoises them)."""
    g = sa.build_dfg(kernel)
    points = sa.iteration_space_size(kernel, 1)
    everywhere = int.from_bytes(b"\1" * points, "little")
    miss = {}
    for a, info in reuse.items():
        nodes = sorted(n.node_id for n in g.mem_nodes() if n.label == a)
        t = simulate._threshold(info, alloc.beta[a], policy)
        if t <= 0 or t == math.inf or info.carrier is None:
            bits = [everywhere if t <= 0 else 0] * len(nodes)
        else:
            key = (a, info.carrier, info.required_regs)
            if key not in columns:
                ref = {r.ref_id: r for r in kernel.refs}
                subs = [ref[g.nodes[nid].ref_ids[0]].subscripts for nid in nodes]
                model = SimpleNamespace(index={a: subs}, points=points)
                columns[key] = product_walk(model, kernel, *key)
            col = columns[key]
            bits = [int.from_bytes(bytes(map(t.__le__, col[q::len(nodes)])), "little")
                    for q in range(len(nodes))]
        miss.update(zip(nodes, bits))
    per_level = tuple(sum(any(miss[nid] >> 8 * p & 1 for nid in level) for p in range(points))
                      for level in sa.memory_levels(g, ports))
    per_array = tuple(sorted((a, sum(miss[n.node_id].bit_count() for n in g.mem_nodes()
                                     if n.label == a)) for a in reuse))
    t_exec = max(heaviest(g, reference_latencies(g, reuse, alloc, latencies)).values(), default=0)
    return simulate.CycleReport(kernel.name, alloc.algorithm, policy, alloc.register_budget,
                                alloc.registers_used, tuple(sorted(alloc.beta.items())),
                                sum(per_level), per_level, per_array, t_exec, points)


#: a non-default table: multiply, add and accumulate slower, every other kind at 1
SLOW_ARITH = {**{op: 1 for op in sa.DEFAULT_LATENCIES}, "multiply": 3, "add": 2, "accumulate": 2}


def assert_pricing_matches_reference(kernel):
    """Every report field and every cpa-ra allocation, at three budgets, under
    both tables, both policies and one and two ports."""
    reuse = sa.analyze_all(kernel)
    n, full = len(reuse), sum(i.required_regs for i in reuse.values())
    columns = {}
    for budget in sorted({n, (n + full) // 2, max(n, full - 1)}):
        for lat in (None, SLOW_ARITH):
            cpa = sa.critical_path_aware(kernel, reuse, budget, lat)
            with mock.patch.object(allocate, "node_latencies", reference_latencies), \
                    mock.patch.object(allocate, "critical_graph", reference_critical_graph):
                assert cpa == sa.critical_path_aware(kernel, reuse, budget, lat), (budget, lat)
            for alloc in (sa.full_reuse(reuse, budget), sa.partial_reuse(reuse, budget), cpa):
                for policy in sa.POLICIES:
                    for ports in (1, 2):
                        got = sa.steady_state_cycles(kernel, reuse, alloc, policy, ports, lat)
                        want = reference_report(kernel, reuse, alloc, policy, ports, lat, columns)
                        assert got == want, (alloc.beta, policy, ports, lat)


@pytest.mark.parametrize("name", sa.KERNEL_NAMES)
def test_pricing_matches_the_earlier_path_bundled(name):
    assert_pricing_matches_reference(sa.parse_kernel(sa.kernel_source(name), name=name))


def test_pricing_matches_the_earlier_path_random():
    for seed in range(200):
        assert_pricing_matches_reference(kernel_from_seed(seed))


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
        nodes.append(DfgNode(nid, kind, label))
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


def register_need(arrays, reuse: dict[str, ReuseInfo], alloc, accounting: str) -> int:
    """Registers the arrays still lack: each one's full requirement under
    "full-alpha", its increment over the registers held otherwise.
    ``alloc=None`` holds one register per array."""
    held = {a: 1 for a in reuse} if alloc is None else alloc.beta
    if accounting == "full-alpha":
        return sum(reuse[a].required_regs for a in arrays)
    return sum(max(0, reuse[a].required_regs - held[a]) for a in arrays)


def candidate_nodes(g: Dfg, reuse: dict[str, ReuseInfo], alloc=None) -> set[int]:
    """Memory nodes whose array saves accesses and holds fewer registers than
    its ``required_regs``; ``alloc=None`` holds one register per array."""
    held = {a: 1 for a in reuse} if alloc is None else alloc.beta
    return {n.node_id for n in g.mem_nodes()
            if reuse[n.label].save > 0 and held[n.label] < reuse[n.label].required_regs}


class RefCut(NamedTuple):
    """A minimal node cut of the reference, with its arrays and their need."""

    node_ids: tuple[int, ...]
    arrays: tuple[str, ...]
    need: int


def reference_cuts(cg: Dfg, reuse: dict[str, ReuseInfo], alloc=None,
                   accounting: str = "incremental") -> tuple[RefCut, ...]:
    """Every cut of the critical graph: the minimal hitting sets of its paths
    over ``candidate_nodes``, each with its ``register_need`` under
    ``accounting``."""
    candidates = candidate_nodes(cg, reuse, alloc)
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
        cuts.append(RefCut(tuple(sorted(s)), arrays,
                           register_need(arrays, reuse, alloc, accounting)))
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


def cheapest(cuts):
    """The cut ``critical_path_aware`` picks: least (need, size, arrays)."""
    return min(cuts, default=None, key=lambda c: (c.need, len(c.arrays), c.arrays))


def assert_minimal_array_cut(g: Dfg, arrays):
    """Removing the arrays' memory nodes leaves no root-to-sink path, and
    dropping any one of the arrays leaves one."""
    paths = all_paths(g)

    def breaks_every_path(chosen):
        removed = {n.node_id for n in g.mem_nodes() if n.label in chosen}
        return all(removed & set(p) for p in paths)

    assert breaks_every_path(set(arrays))
    for drop in arrays:
        assert not breaks_every_path(set(arrays) - {drop})


def assert_cheapest_cut(cg: Dfg, reuse, alloc=None):
    """find_cuts returns the reference's cheapest cut, under both accountings."""
    for accounting in ACCOUNTING_MODES:
        want = cheapest(reference_cuts(cg, reuse, alloc, accounting))
        got = find_cuts(cg, reuse, alloc, accounting)
        assert len(got) == (want is not None)
        if got:
            assert (got[0].arrays, got[0].need) == (want.arrays, want.need)
            assert_minimal_array_cut(cg, got[0].arrays)


def assert_matches_brute_force(g: Dfg, reuse) -> int:
    """The enumeration equals exhaustive subset search, and find_cuts returns
    its cheapest cut, a minimal array set breaking every path, under both
    accountings.  Returns how many cuts find_cuts returned."""
    brute = brute_force_cuts(g, candidate_nodes(g, reuse))
    ref = sorted((frozenset(c.node_ids) for c in reference_cuts(g, reuse)),
                 key=lambda s: (len(s), tuple(sorted(s))))
    assert ref == brute
    # find_cuts prices by array; brute force only knows node sets
    label = {n.node_id: n.label for n in g.nodes}
    found = 0
    for accounting in ACCOUNTING_MODES:
        as_cuts = []
        for s in brute:
            arrays = tuple(sorted({label[n] for n in s}))
            as_cuts.append(RefCut(tuple(sorted(s)), arrays,
                                  register_need(arrays, reuse, None, accounting)))
        want = cheapest(as_cuts)
        got = find_cuts(g, reuse, None, accounting)
        assert [(c.arrays, c.need) for c in got] == \
            ([] if want is None else [(want.arrays, want.need)])
        for cut in got:
            assert_minimal_array_cut(g, cut.arrays)
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
            assert_minimal_array_cut(g, cut.arrays)


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
    lat = {n.node_id: 1 for n in g.nodes}
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
