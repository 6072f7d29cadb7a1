import collections
import dataclasses
import gc
import hashlib
import itertools
import json
import random
import re
import tracemalloc
import weakref
from array import array
from itertools import product

import pytest
from conftest import hit_map
from test_reuse import SHAPES, reference_analysis

from sralloc import (
    ALG_MANUAL,
    Allocation,
    CapExceededError,
    DEFAULT_CAP,
    Loop,
    POLICIES,
    POLICY_ELEMENT,
    POLICY_STAGING,
    analyze_all,
    critical_path_aware,
    full_reuse,
    iteration_space_size,
    kernel_to_source,
    manual_allocation,
    oracle_alpha,
    oracle_analysis,
    oracle_carrier,
    oracle_replay,
    parse_kernel,
    random_kernel,
    run_allocator,
    steady_state_cycles,
    trace,
)
from sralloc import oracle


def ref_of(kernel, array, access="read"):
    return next(r for r in kernel.refs if r.array == array and r.access == access
                and not r.implicit)


def test_trace_example_a(example):
    t = trace(example, ref_of(example, "a"))
    assert len(t) == 60000
    assert len(set(t.addrs)) == 30


def test_trace_single_iteration():
    k = parse_kernel("loop i = 0..1 { S: y[i] = x[i]; }")
    t = trace(k, ref_of(k, "x"))
    assert len(t) == 1


def test_trace_mat_b(kernels):
    mat = kernels["mat"]
    t = trace(mat, ref_of(mat, "b"))
    assert len(t) == 4096
    assert len(set(t.addrs)) == 256


def test_trace_cap(example):
    with pytest.raises(CapExceededError):
        trace(example, ref_of(example, "a"), cap=100)


def test_oracle_alpha_examples(example, kernels):
    assert oracle_alpha(trace(example, ref_of(example, "b")), carrier=0) == 600
    fir = kernels["fir"]
    assert oracle_alpha(trace(fir, ref_of(fir, "in")), carrier=0) == 51
    # a full-rank reference never overlaps + the carrier scan floors at one
    e_trace = trace(example, ref_of(example, "e", "write"))
    assert oracle_alpha(e_trace, carrier=0) == 0
    assert oracle_carrier(example, [e_trace]) == (None, 1)


def test_oracle_residency_cycles_example(example, example_reuse):
    cpa = critical_path_aware(example, example_reuse, 64)
    assert oracle_replay(example, cpa)[0] == 1184
    beta = {a: i.required_regs for a, i in example_reuse.items()}
    assert oracle_replay(example, manual_allocation(example_reuse, beta, 681))[0] == 600
    ones = {a: 1 for a in example_reuse}
    alloc = manual_allocation(example_reuse, ones, 64)
    assert oracle_replay(example, alloc)[0] == \
        steady_state_cycles(example, example_reuse, alloc).memory_cycles


def test_oracle_agreement_bundled(kernels, reuse_map, oracle_map):
    for name, kernel in kernels.items():
        reuse, expected = reuse_map[name], oracle_map[name]
        for array, info in reuse.items():
            got = expected[array]
            assert got["carrier"] == info.carrier, (name, array)
            assert got["required_regs"] == info.required_regs, (name, array)
            assert got["total"] == info.total_accesses, (name, array)
            assert got["after"] == info.after_accesses, (name, array)


def assert_cycles_agree(kernels, reuse_map, ports):
    for name, kernel in kernels.items():
        reuse = reuse_map[name]
        for alg in ("fr", "pr", "cpa"):
            alloc = run_allocator(alg, kernel, reuse, 64)
            for policy in POLICIES:
                mine = steady_state_cycles(kernel, reuse, alloc, policy, ports).memory_cycles
                assert oracle_replay(kernel, alloc, policy, ports)[0] == mine, \
                    (name, alg, policy)


def test_oracle_cycles_agreement_bundled(kernels, reuse_map):
    assert_cycles_agree(kernels, reuse_map, ports=1)


def test_oracle_cycles_agreement_bundled_two_ports(kernels, reuse_map):
    assert_cycles_agree(kernels, reuse_map, ports=2)


def test_random_kernel_generator_bounds():
    rng = random.Random(5)
    for _ in range(50):
        k = random_kernel(rng)
        assert 1 <= k.depth <= 3
        assert all(lp.trip <= 16 for lp in k.loops)
        for r in k.refs:
            for expr in r.subscripts:
                assert all(-2 <= c <= 2 for _, c in expr.terms)


def test_oracle_replay_hit_map(example, example_reuse):
    fr = full_reuse(example_reuse, 64)
    cycles, columns = oracle_replay(example, fr)
    assert cycles == 1799
    hits = hit_map(example, columns)
    # b holds one register: only the first element of the window hits
    assert hits[("b", (50, 0, 0))] is True
    assert hits[("b", (50, 0, 1))] is False
    assert hits[("a", (50, 7, 21))] is True


# ---------------------------------------------------------------------------
# the trace and window arithmetic against a per-point reference

def reference_trace(kernel, ref):
    """(point, address) at every point, from a per-point closure over the oracle's layout."""
    layout = oracle._array_layouts(kernel)[ref.array]
    pos = {lp.index: i for i, lp in enumerate(kernel.loops)}
    dims = [(e.const, tuple((pos[n], c) for n, c in e.terms)) for e in ref.subscripts]
    strides = []
    stride = 1
    for lo, hi in reversed(layout):
        strides.append((stride, lo))
        stride *= hi - lo + 1
    strides.reverse()

    def addr(point):
        total = 0
        for (const, terms), (stride, lo) in zip(dims, strides):
            v = const
            for p, c in terms:
                v += c * point[p]
            total += (v - lo) * stride
        return total

    return [(point, addr(point))
            for point in itertools.product(*(lp.range for lp in kernel.loops))]


def reference_alpha(entries, carrier, step):
    """Max overlap of windows keyed by the point's prefix, paired by ``key[-1] + step``."""
    wins = collections.defaultdict(set)
    for trc in entries:
        for point, addr in trc:
            wins[point[: carrier + 1]].add(addr)
    best = 0
    for key, ws in wins.items():
        nxt = key[:-1] + (key[-1] + step,)
        if nxt in wins:
            best = max(best, len(ws & wins[nxt]))
    return best


def assert_matches_reference(kernel):
    traces = {r.ref_id: trace(kernel, r) for r in kernel.refs}
    entries = {r.ref_id: reference_trace(kernel, r) for r in kernel.refs}
    for rid, t in traces.items():
        assert t.shape == tuple(lp.trip for lp in kernel.loops)
        assert list(t.addrs) == [addr for _, addr in entries[rid]], (kernel.name, rid)
    for group in ([r.ref_id for r in kernel.refs if r.array == a] for a in kernel.arrays):
        for level, lp in enumerate(kernel.loops):
            want = reference_alpha([entries[rid] for rid in group], level, lp.step)
            got = oracle_alpha([traces[rid] for rid in group], level)
            assert got == want, (kernel.name, group, level)


#: one array read (or read and written) through several references, so
#: that a window is the union of several traces' shifted blocks
MULTI_REF = [
    "loop i = 0..8 { loop j = 0..6 { S: y[j] = a[i + j] + a[i + 2*j + 1]; } }",
    "loop i = 0..5 { loop j = 0..4 { loop k = 0..3 {"
    " S: a[i][k] += a[j][k] * a[2*j - k][i + 1]; } } }",
    "loop i = 0..7 { loop j = 0..5 { S0: x[i + j] = a[j] * a[i];"
    " S1: y[j] = x[i + j] + x[i - j + 4]; } }",
    # two distinct streams of one array in one-point windows
    "loop i = 0..10 { S: y[i] = a[i] * a[9 - i]; }",
]


#: unit-trip loops at the outer, middle and inner level (with and without a
#: coefficient), steps above one, non-zero lower bounds, negative
#: coefficients, and a zero coefficient at each level
STREAM_EDGES = [
    "loop h = 0..1 { loop i = 0..4 { loop j = 0..5 { S: y[i][j] = a[i + j] + b[h + j]; } } }",
    "loop i = 0..4 { loop h = 2..3 { loop j = 0..5 { S: y[i][j] = a[i - h + j] * b[3*h]; } } }",
    "loop i = 0..4 { loop j = 0..5 { loop h = 7..8 { S: y[i][j] = a[i + j - h] + b[j]; } } }",
    "loop h = 3..4 { loop i = 5..6 { S: y[h][i] = a[h + i] * b[2*i - h]; } }",
    "loop i = 3..17 step 4 { loop j = 1..12 step 5 { loop k = 2..9 step 3 {"
    " S: y[i][k] = a[2*i - j][k] + b[-i][j - 3*k]; } } }",
    "loop i = 0..6 { loop j = 0..5 { loop k = 0..4 {"
    " S0: x[j][k] = a[i][k] + b[i][j]; S1: z[-j][i - k] = x[j][k] * c[9 - 2*i]; } } }",
    "loop i = 0..3 { S: y[i] = a[5 - 2*i] + b[0]; }",
]


def test_trace_matches_reference_bundled(kernels):
    for name, kernel in kernels.items():
        if name != "bic":
            assert_matches_reference(kernel)


@pytest.mark.parametrize("source", SHAPES + MULTI_REF + STREAM_EDGES)
def test_trace_matches_reference_shapes(source):
    assert_matches_reference(parse_kernel(source))


def test_trace_matches_reference_random():
    for seed in range(100):
        assert_matches_reference(random_kernel(random.Random(seed)))
    for seed in range(60):
        assert_matches_reference(edge_kernel(random.Random(seed)))


def chunked_address_stream(ref, layout, loops):
    """The earlier builder, kept as a reference: each loop's column is added
    to every address so far, in chunks of about 2^12 addresses."""
    stride, base, coef = 1, 0, {}
    for expr, (lo, hi) in zip(reversed(ref.subscripts), reversed(layout)):
        base += (expr.const - lo) * stride
        for name, c in expr.terms:
            coef[name] = coef.get(name, 0) + c * stride
        stride *= hi - lo + 1
    cur = array("q", [base])
    for lp in loops:
        col = [coef.get(lp.index, 0) * v for v in lp.range]
        out, step = array("q"), max(1, 2**12 // len(col))
        for s in range(0, len(cur), step):
            out.fromlist([a + c for a in cur[s:s + step] for c in col])
        cur = out
    return cur


def edge_kernel(rng: random.Random):
    """A random kernel with the STREAM_EDGES features: lower bounds above
    zero, steps of 1 to 3, and a loop ``u`` that runs once at a random depth,
    which some subscripts use with a coefficient of 1 or -2."""
    k = random_kernel(rng)
    loops = []
    for lp in k.loops:
        lo, step = rng.randint(0, 6), rng.randint(1, 3)
        loops.append(Loop(lp.index, lo, lo + step * (lp.trip - 1) + rng.randint(1, step), step))
    lo = rng.randint(0, 5)
    loops.insert(rng.randint(0, len(loops)), Loop("u", lo, lo + 1))
    src = kernel_to_source(dataclasses.replace(k, loops=tuple(loops)))
    src = re.sub(r"\[", lambda _: "[" + rng.choice(["", "", "u + ", "-2*u + "]), src)
    return parse_kernel(src, name=f"edge{rng.randint(0, 10**9)}")


def test_analysis_matches_the_enumeration_on_edge_kernels():
    # carrier, registers and distinct accesses against the test-side
    # enumeration of the analyzer's definitions, which shares no oracle code
    cases = [parse_kernel(s) for s in STREAM_EDGES]
    cases += [edge_kernel(random.Random(seed)) for seed in range(300)]
    carried = 0
    for kernel in cases:
        got = {a: (v["carrier"], v["required_regs"], v["after"])
               for a, v in oracle_analysis(kernel).items()}
        assert got == reference_analysis(kernel), kernel_to_source(kernel)
        carried += sum(c is not None for c, _, _ in got.values())
    assert carried > 300


def test_address_stream_matches_the_chunked_builder(kernels):
    cases = list(kernels.values()) + [parse_kernel(s) for s in SHAPES + MULTI_REF + STREAM_EDGES]
    cases += [random_kernel(random.Random(seed)) for seed in range(200)]
    built = 0
    for kernel in cases:
        layouts = oracle._array_layouts(kernel)
        # the whole nest, and the replay's middle outer iteration
        for loops in (kernel.loops, oracle._analysis_cached(kernel, DEFAULT_CAP).loops):
            for r in kernel.refs:
                got = oracle._address_stream(r, layouts[r.array], loops)
                assert got.typecode == "q"
                assert got == chunked_address_stream(r, layouts[r.array], loops), \
                    (kernel.name, str(r), loops)
                built += 1
    assert built > 2000


def test_analysis_traces_each_distinct_stream_once(monkeypatch, kernels):
    real = oracle.trace
    built = collections.Counter()

    def spy(kernel, ref, cap=DEFAULT_CAP):
        built[ref.array, tuple(map(str, ref.subscripts))] += 1
        return real(kernel, ref, cap)

    monkeypatch.setattr(oracle, "trace", spy)
    oracle._analysis_cached.cache_clear()
    shared = 0
    for kernel in replay_cases(kernels):
        built.clear()
        oracle_analysis(kernel)
        keys = {(r.array, tuple(map(str, r.subscripts))) for r in kernel.refs}
        assert built == dict.fromkeys(keys, 1), kernel.name
        shared += len(kernel.refs) - len(keys)
    assert shared > 0


def test_layouts_are_computed_once_per_kernel_object():
    source = "loop i = 0..6 { loop j = 0..5 { S: y[i][j] = a[i + j] * b[2*j - i]; } }"
    k = parse_kernel(source)
    oracle._analysis_cached.cache_clear()
    layouts = oracle._array_layouts(k)
    assert oracle._array_layouts(k) is layouts
    assert oracle._analysis_cached(k, DEFAULT_CAP).layouts is layouts
    # the entry dies with its kernel, so a kernel parsed again computes its own
    alive = weakref.ref(k)
    oracle._analysis_cached.cache_clear()
    del k
    gc.collect()
    assert alive() is None
    again = oracle._array_layouts(parse_kernel(source))
    assert again == layouts and again is not layouts


def test_oracle_analysis_output_is_pinned(kernels):
    # recorded with a set per window and a trace per reference: sharing equal
    # streams and comparing one-point windows as addresses must change nothing
    cases = list(kernels.values()) + [random_kernel(random.Random(s)) for s in range(200)]
    blob = json.dumps([(k.name, oracle_analysis(k)) for k in cases], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "0daa2b878cdb14eca9b91e8a7032b8feebda8ab0111db6e0dc91191ed2b96514"


def reference_overlap(blocks):
    """The plain formula: every window of every enclosing iteration built as a
    set, and each compared with the next one in the same enclosing iteration."""
    inners, runs, offsets = zip(*blocks)
    pairs = []
    for outer in zip(*offsets):
        windows = [{a + o + r for inner, o, r in zip(inners, outer, row) for a in inner}
                   for row in zip(*runs)]
        pairs += itertools.pairwise(windows)
    return max((len(a & b) for a, b in pairs), default=0)


def random_blocks(rng: random.Random):
    """1-4 streams, each (block, run, enclosing offsets) over a run of 1-8
    values and 1-5 enclosing iterations.

    A block holds 1-12 addresses, every block one address in about a third
    of the cases.  Each run and each enclosing column is affine or drawn at
    random; both repeat and go negative, and streams that share their rates
    make translated windows."""
    trip, outer = rng.randint(1, 8), rng.randint(1, 5)
    one = rng.random() < 0.3
    rates = (rng.randint(-3, 3), rng.randint(-9, 9))

    def column(n: int, rate: int) -> array:
        if rng.random() < 0.2:
            return array("q", [rng.randint(-12, 12) for _ in range(n)])
        c = rate if rng.random() < 0.7 else rng.randint(-9, 9)
        base = rng.randint(-15, 15)
        return array("q", [base + c * v for v in range(n)])

    return [(set(rng.sample(range(-10, 30), 1 if one else rng.randint(1, 12))),
             column(trip, rates[0]), column(outer, rates[1]))
            for _ in range(rng.randint(1, 4))]


def overlap_path(blocks) -> str:
    """The path ``_overlap`` takes on ``blocks``, re-derived from its rule."""
    inners, runs, _ = zip(*blocks)
    if len(blocks) == 1:
        return "lone"
    if max(map(len, inners)) == 1:
        return "rows"
    first = runs[0]
    keys = {(first[t + 1] - first[t],) + tuple(x for run in runs[1:]
                                                for x in (run[t] - first[t], run[t + 1] - first[t]))
            for t in range(len(first) - 1)}
    return "few keys" if 2 * len(keys) <= len(first) else "many keys"


def test_overlap_matches_the_per_window_formula():
    rng = random.Random(2024)
    cases = [random_blocks(rng) for _ in range(4000)]
    for blocks in cases:
        assert oracle._overlap(blocks) == reference_overlap(blocks), blocks
    # every path is taken: a lone stream, rows of one-address blocks, larger
    # blocks with few and with many distinct keys, and each of the last three
    # with several placements of its enclosing iterations
    def placements(blocks) -> int:
        return len({tuple(o - offs[0] for o in offs)
                    for offs in zip(*(offsets for _, _, offsets in blocks))})

    paths = collections.Counter(map(overlap_path, cases))
    assert len(paths) == 4 and min(paths.values()) > 600, paths
    placed = collections.Counter(overlap_path(b) for b in cases if placements(b) > 1)
    assert len(placed) == 3 and min(placed.values()) > 400, placed


def test_alpha_skips_the_carrier_wrap():
    # the only shared address, a[i + 1], is across the j wrap
    k = parse_kernel("loop i = 0..3 { loop j = 0..2 { S: y[i][j] = a[i + j]; } }")
    assert oracle_alpha(trace(k, ref_of(k, "a")), carrier=1) == 0
    assert oracle_alpha(trace(k, ref_of(k, "a")), carrier=0) == 1
    # a unit-trip carrier has no consecutive pair at all
    k = parse_kernel("loop i = 0..3 { loop j = 0..1 { loop k = 0..4 { S: y[k] = a[k]; } } }")
    assert oracle_alpha(trace(k, ref_of(k, "a")), carrier=1) == 0
    assert oracle_alpha(trace(k, ref_of(k, "a")), carrier=0) == 4


def replay_cases(kernels):
    cases = [k for name, k in kernels.items() if name != "bic"]
    cases += [parse_kernel(src) for src in SHAPES + MULTI_REF]
    return cases + [random_kernel(random.Random(seed)) for seed in range(100)]


def test_replay_streams_are_the_middle_outer_iteration(monkeypatch, kernels):
    # the replay streams only the arrays it runs through a register file
    real = oracle._address_stream
    seen = []

    def spy(ref, layout, loops):
        stream = real(ref, layout, loops)
        seen.append((ref, stream))
        return stream

    cases = replay_cases(kernels)
    streamed = []
    for kernel in cases:
        full = {r.ref_id: trace(kernel, r).addrs for r in kernel.refs}
        outer = kernel.loops[0]
        width = iteration_space_size(kernel, 0) // outer.trip
        start = (outer.trip // 2) * width
        allocs = replay_allocations(kernel)
        oracle_analysis(kernel)  # cached, so the replay builds only its own streams
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(oracle, "_address_stream", spy)
            for alloc in allocs:
                oracle_replay(kernel, alloc)
        if seen:
            streamed.append(kernel.name)
        for ref, stream in seen:
            assert stream == full[ref.ref_id][start:start + width], (kernel.name, ref.ref_id)
    assert len(streamed) >= len(cases) // 2  # 75 of 119


# ---------------------------------------------------------------------------
# the column replay against a per-point reference

class RegisterFile:
    """Fill-once register file over one carrier window, one call per access:
    the first distinct elements admitted model the prologue-preloaded
    working set."""

    def __init__(self, size: int):
        self.size = size
        self.held: set[int] = set()
        self.window: object = None

    def access(self, window, addr: int) -> bool:
        if window != self.window:
            self.window = window
            self.held = set()
        if addr in self.held:
            return True
        if len(self.held) < self.size:
            self.held.add(addr)
            return True
        return False


def reference_replay(kernel, alloc, policy=POLICY_ELEMENT, ports=1, cap=DEFAULT_CAP):
    """The per-point replay: a dict per point and one register-file call per event."""
    analysis = oracle_analysis(kernel, cap)
    layouts = oracle._array_layouts(kernel)
    events, depth_groups = oracle._event_schedule(kernel)
    levels = [sub for grp in depth_groups for sub in oracle._split_ports(events, grp, ports)]

    files = {a: RegisterFile(alloc.beta[a]) for a in analysis}
    outer = kernel.loops[0]
    mid = outer.lower + (outer.trip // 2) * outer.step

    def hits(name: str, window: tuple, addr: int) -> bool:
        info = analysis[name]
        beta = alloc.beta[name]
        if info["save"] == 0:
            return False
        if beta == info["required_regs"]:
            return True
        if beta < 2 and (policy == POLICY_STAGING or info["forwarded_store"]):
            return False
        return files[name].access(window, addr)

    loops = (Loop(outer.index, mid, mid + 1),) + kernel.loops[1:]
    plans = []
    for _, ref in events:
        carrier = analysis[ref.array]["carrier"]
        window_len = (carrier if carrier is not None else 0) + 1
        plans.append((ref.array, window_len,
                      oracle._address_stream(ref, layouts[ref.array], loops)))

    cycles = 0
    hit_map: dict[tuple[str, tuple], bool] = {}
    inner_points = product(*(lp.range for lp in kernel.loops[1:]))
    for pos, inner in enumerate(inner_points):
        point = (mid,) + inner
        event_hit: dict[int, bool] = {}
        for idx, (name, window_len, addrs) in enumerate(plans):
            ok = hits(name, point[:window_len], addrs[pos])
            event_hit[idx] = ok
            key = (name, point)
            hit_map[key] = hit_map.get(key, True) and ok
        for level in levels:
            if any(not event_hit[idx] for idx in level):
                cycles += 1
    return cycles, hit_map


def replay_allocations(kernel):
    """fr, pr and cpa at 64, all ones, and each array one register short."""
    reuse = analyze_all(kernel)
    allocs = [run_allocator(alg, kernel, reuse, 64) for alg in ("fr", "pr", "cpa")]
    allocs.append(manual_allocation(reuse, {a: 1 for a in reuse}))
    full = {a: info.required_regs for a, info in reuse.items()}
    for a, regs in full.items():
        if regs > 1:
            allocs.append(manual_allocation(reuse, {**full, a: regs - 1}))
    return allocs


#: three events of one array per point whose carrier is the innermost loop,
#: so each carrier window is one point; a holds 2 registers, and the
#: one-short allocation gives it a partial beta of 1
ONE_POINT_WINDOWS = ("loop i = 0..6 { loop j = 0..40 {"
                     " S0: x[i][j] = a[i][j] + a[i][j + 1]; S1: y[i][j] = a[i][j + 2]; } }")


def bulk_replay_cases(kernels):
    """The replay cases, one-point windows and 60 edge kernels."""
    return replay_cases(kernels) + [parse_kernel(ONE_POINT_WINDOWS)] + \
        [edge_kernel(random.Random(seed)) for seed in range(60)]


def test_one_point_windows_replay_a_partial_beta():
    k = parse_kernel(ONE_POINT_WINDOWS)
    info = oracle_analysis(k)["a"]
    assert (info["carrier"], info["required_regs"]) == (1, 2)
    assert any(alloc.beta["a"] == 1 for alloc in replay_allocations(k))


def test_replay_matches_reference_replay(kernels):
    for kernel in bulk_replay_cases(kernels):
        for alloc in replay_allocations(kernel):
            for policy, ports in itertools.product(POLICIES, (1, 2, 3)):
                cycles, columns = oracle_replay(kernel, alloc, policy, ports)
                assert (cycles, hit_map(kernel, columns)) == \
                    reference_replay(kernel, alloc, policy, ports), \
                    (kernel.name, alloc.beta, policy, ports)


def test_oracle_analysis_memory_is_one_trace_per_reference():
    # a quarter of 8 bytes per point per reference; about 0.04x of that here:
    # y's scan reaches the innermost loop, where it builds the run of that
    # loop alone, no offset per point (an offset per point read about 0.40x)
    k = parse_kernel("loop i = 0..64 { loop j = 0..64 { loop k = 0..64 {"
                     " S: y[i][j] = a[j + k] + b[k]; } } }")
    oracle._analysis_cached.cache_clear()
    tracemalloc.start()
    try:
        oracle_analysis(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * iteration_space_size(k, 0) * len(k.refs)


def test_oracle_keeps_no_trace_when_the_outer_loop_runs_once():
    # the middle outer iteration is then the whole space; neither the
    # analysis cache nor the replay may keep a copy of a trace
    k = parse_kernel("loop h = 0..1 { loop i = 0..32 { loop j = 0..32 { loop k = 0..32 {"
                     " S: y[i][j] = a[j + k] + b[k]; } } } }")
    alloc = run_allocator("fr", k, analyze_all(k), 64)
    unit = 8 * iteration_space_size(k, 0) * len(k.refs)
    oracle._analysis_cached.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        oracle_analysis(k)
        after_analysis, peak = tracemalloc.get_traced_memory()
        oracle_replay(k, alloc)
        after_replay = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after_analysis - base <= 0.01 * unit
    # about 0.0x: the replay's streams are gone too
    assert after_replay - base <= 0.5 * unit
    # about 0.09x: no window is the whole trace held as Python ints, and y's
    # scan at the innermost loop builds no offset per point (about 0.44x)
    assert peak <= 0.25 * unit


def test_replay_checks_the_cap_before_beta():
    # the replay's required_regs come from traces, so a kernel over the cap
    # raises CapExceededError before beta is read and before any window is
    # built, where the simulator, whose registers come from the analyzer,
    # raises the beta error first
    k = parse_kernel("loop i = 0..4 { loop j = 0..6000 { loop k = 0..5000 {"
                     " S1: y[j] = a[j] + b[k]; } } }")
    alloc = Allocation(ALG_MANUAL, 10**6 + 2, {"y": 1, "a": 1, "b": 10**6})
    with pytest.raises(ValueError, match=r"beta\[b\] = 1000000 outside 1\.\.5000"):
        steady_state_cycles(k, analyze_all(k), alloc, cap=10)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="exceeds cap 10"):
            oracle_replay(k, alloc, cap=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_oracle_replay_output_is_pinned(kernels):
    # cycles and the sorted per-point hit map of every replay case
    digest = hashlib.sha256()
    for kernel in replay_cases(kernels):
        for alloc in replay_allocations(kernel):
            for policy, ports in itertools.product(POLICIES, (1, 2)):
                cycles, columns = oracle_replay(kernel, alloc, policy, ports)
                hits = hit_map(kernel, columns)
                digest.update(json.dumps([kernel.name, cycles, sorted(hits.items())]).encode())
    assert digest.hexdigest() == \
        "e18fef0ed5616402ff436916255636ec54b07e8134dcbb3a2a29d4ae7f1503d8"


def test_no_repeat_shortcut_agrees_with_the_carrier_scan(kernels):
    # an array none of whose addresses occurs twice skips the level scan, and
    # one with a repeat scans from its first loop that runs more than once;
    # either way the full scan over the same traces gives the same answer
    fired = []
    for kernel in list(kernels.values()) + [random_kernel(random.Random(s)) for s in range(300)]:
        got = oracle_analysis(kernel)
        for array in kernel.arrays:
            traces = [trace(kernel, r) for r in kernel.refs if r.array == array]
            assert oracle_carrier(kernel, traces) == \
                (got[array]["carrier"], got[array]["required_regs"]), (kernel.name, array)
            addrs = [t.addrs for t in {t.ref.subscripts: t for t in traces}.values()]
            if len(set().union(*addrs)) == sum(map(len, addrs)):
                fired.append((kernel.name, array))
    assert ("example", "e") in fired
    assert any(name.startswith("rand") for name, _ in fired)


MEMORY_KERNEL = ("loop i = 0..64 { loop j = 0..64 { loop k = 0..64 {"
                 " S: y[i][j] = a[j + k] + b[k]; } } }")


def test_oracle_analysis_memory_is_one_stream_at_a_time():
    # each array here has one stream, and an array's blocks are dropped before
    # the next array's are built: about 1.19x of one stream, y's offsets at the
    # innermost loop with their last loop's growth
    k = parse_kernel(MEMORY_KERNEL)
    oracle._analysis_cached.cache_clear()
    tracemalloc.start()
    try:
        oracle_analysis(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * iteration_space_size(k, 0)


def test_oracle_analysis_memory_under_a_short_outer_loop():
    # with an outer trip of 2 the first level's window is half the nest; a
    # window sliced from the trace and boxed into Python ints peaked at 5.9x
    # of one stream here, one built from its inner block's distinct
    # addresses (y: 1,024 of 32,768) peaks at about 0.6x
    k = parse_kernel("loop h = 0..2 { loop i = 0..32 { loop j = 0..32 { loop k = 0..32 {"
                     " S: y[i][j] = a[j + k] + b[k]; } } } }")
    oracle._analysis_cached.cache_clear()
    tracemalloc.start()
    try:
        oracle_analysis(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * iteration_space_size(k, 0)


def test_oracle_analysis_memory_is_one_stream_under_a_unit_trip_loop():
    # a loop that runs once moves the stream's base and copies nothing; a
    # builder that copied the stream there peaked at about 2.0x, this one at 1.19x
    k = parse_kernel("loop h = 0..1 { " + MEMORY_KERNEL + " }")
    oracle._analysis_cached.cache_clear()
    tracemalloc.start()
    try:
        oracle_analysis(k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * iteration_space_size(k, 0)


def test_replay_memory_is_its_event_columns():
    # the replay returns one bool column per event, 8 bytes a point: 3 events
    # x 4,096 points here, about 0.094 MiB.  It holds about 1.04x of that and
    # peaks at about 1.7x; a key per point and array cost about 1.8 MiB
    k = parse_kernel(MEMORY_KERNEL)
    alloc = run_allocator("fr", k, analyze_all(k), 64)
    oracle_analysis(k)  # the cached analysis is not the replay's cost
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, columns = oracle_replay(k, alloc)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sorted((a, len(c)) for a, cols in columns.items() for c in cols) == \
        [("a", 64 * 64), ("b", 64 * 64), ("y", 64 * 64)]
    unit = 8 * 3 * 64 * 64
    assert held <= 1.5 * unit
    assert peak <= 2.5 * unit
