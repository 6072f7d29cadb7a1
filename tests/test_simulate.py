import gc
import random
import tracemalloc
import weakref
from array import array
from unittest import mock

import pytest

from conftest import hit
from sralloc import (
    ALG_MANUAL,
    Allocation,
    CapExceededError,
    KernelError,
    KERNEL_NAMES,
    POLICIES,
    POLICY_ELEMENT,
    POLICY_STAGING,
    build_dfg,
    analyze_all,
    bundled_kernel,
    critical_length,
    full_reuse,
    kernel_source,
    manual_allocation,
    memory_levels,
    node_latencies,
    oracle_replay,
    parse_kernel,
    partial_reuse,
    critical_path_aware,
    run_allocator,
    steady_state_cycles,
    unit_allocation,
)
from sralloc import simulate


def t_exec(kernel, reuse, alloc):
    g = build_dfg(kernel)
    return critical_length(g, node_latencies(g, reuse, alloc))


def level_arrays(g, levels):
    by_id = {n.node_id: n for n in g.nodes}
    return [sorted(by_id[nid].label for nid in lev) for lev in levels]


def test_memory_levels_example(example, example_reuse):
    g = build_dfg(example)
    levels = memory_levels(g)
    assert level_arrays(g, levels) == [["a", "b", "c"], ["d"], ["e"]]


def test_memory_levels_chain():
    k = parse_kernel("loop i = 0..4 { S: y[i] = x[i]; }")
    g = build_dfg(k)
    assert level_arrays(g, memory_levels(g)) == [["x"], ["y"]]


def test_memory_levels_port_split():
    k = parse_kernel("loop i = 0..6 { S: y[i] = x[i] + x[i + 1]; }")
    g = build_dfg(k)
    single = level_arrays(g, memory_levels(g, ports=1))
    dual = level_arrays(g, memory_levels(g, ports=2))
    assert single == [["x"], ["x"], ["y"]]  # serialized on one port
    assert dual == [["x", "x"], ["y"]]


def fig1_allocs(example, example_reuse):
    return (full_reuse(example_reuse, 64),
            partial_reuse(example_reuse, 64),
            critical_path_aware(example, example_reuse, 64))


def test_steady_state_element_policy(example, example_reuse):
    fr, pr, cpa = fig1_allocs(example, example_reuse)
    r_fr = steady_state_cycles(example, example_reuse, fr)
    assert r_fr.memory_cycles == 1799
    assert r_fr.per_level == (599, 600, 600)
    r_pr = steady_state_cycles(example, example_reuse, pr)
    assert r_pr.memory_cycles == 1559
    assert r_pr.per_level == (599, 360, 600)
    r_cpa = steady_state_cycles(example, example_reuse, cpa)
    assert r_cpa.memory_cycles == 1184
    assert r_cpa.per_level == (584, 0, 600)
    assert r_cpa.inner_iterations == 600


def test_steady_state_staging_policy(example, example_reuse):
    fr, pr, cpa = fig1_allocs(example, example_reuse)
    assert steady_state_cycles(example, example_reuse, fr, POLICY_STAGING).memory_cycles == 1800
    assert steady_state_cycles(example, example_reuse, pr, POLICY_STAGING).memory_cycles == 1560
    assert steady_state_cycles(example, example_reuse, cpa, POLICY_STAGING).memory_cycles == 1200


def test_report_invariants(example, example_reuse):
    fr, _, _ = fig1_allocs(example, example_reuse)
    r = steady_state_cycles(example, example_reuse, fr)
    assert r.memory_cycles == sum(r.per_level)
    assert all(c <= r.inner_iterations for c in r.per_level)
    assert dict(r.per_array)["e"] == 600
    assert dict(r.per_array)["a"] == 0


def test_full_residency_floor(example, example_reuse):
    beta = {a: i.required_regs for a, i in example_reuse.items()}
    alloc = manual_allocation(example_reuse, beta, 681)
    r = steady_state_cycles(example, example_reuse, alloc)
    # only the no-reuse store remains: one cycle per inner iteration
    assert r.memory_cycles == 600
    assert r.per_level == (0, 0, 600)


def test_residency_examples(example, example_reuse):
    cpa = critical_path_aware(example, example_reuse, 64)
    assert hit(example, example_reuse, cpa, "a", (50, 3, 5)) is True
    beta = dict(cpa.beta)
    assert beta["b"] == 16
    assert hit(example, example_reuse, cpa, "b", (50, 0, 20)) is False
    assert hit(example, example_reuse, cpa, "b", (50, 0, 10)) is True
    # full replacement is resident everywhere
    assert hit(example, example_reuse, cpa, "d", (50, 19, 29)) is True
    # no savings, never resident
    assert hit(example, example_reuse, cpa, "e", (50, 0, 0)) is False


def test_residency_staging_single_register(example, example_reuse):
    fr = full_reuse(example_reuse, 64)  # b keeps one register
    assert hit(example, example_reuse, fr, "b", (50, 0, 0), POLICY_ELEMENT) is True
    assert hit(example, example_reuse, fr, "b", (50, 0, 0), POLICY_STAGING) is False


def test_t_exec_examples(example, example_reuse):
    ones = unit_allocation(example_reuse, 64)
    assert t_exec(example, example_reuse, ones) == 5
    beta = {a: 1 for a in example_reuse}
    beta["d"] = 30
    assert t_exec(example, example_reuse, manual_allocation(example_reuse, beta, 64)) == 4


def test_t_exec_empty_body(example):
    from sralloc import Kernel

    bare = Kernel("empty", (), example.loops, ())
    alloc = unit_allocation({}, 0)
    assert t_exec(bare, {}, alloc) == 0


def test_allocation_monotonicity_bundled(kernels, reuse_map):
    for name in ("example", "fir", "mat"):
        kernel, reuse = kernels[name], reuse_map[name]
        lo = unit_allocation(reuse, 64)
        hi_beta = {a: min(i.required_regs, 3) for a, i in reuse.items()}
        hi = manual_allocation(reuse, hi_beta, 64)
        for policy in (POLICY_ELEMENT, POLICY_STAGING):
            c_lo = steady_state_cycles(kernel, reuse, lo, policy).memory_cycles
            c_hi = steady_state_cycles(kernel, reuse, hi, policy).memory_cycles
            assert c_hi <= c_lo


def test_policy_gap_only_on_single_register_arrays(kernels, reuse_map):
    # dec-fir partial reuse: coeff holds 62 registers, in holds 1
    kernel, reuse = kernels["dec-fir"], reuse_map["dec-fir"]
    pr = partial_reuse(reuse, 64)
    el = steady_state_cycles(kernel, reuse, pr, POLICY_ELEMENT)
    st = steady_state_cycles(kernel, reuse, pr, POLICY_STAGING)
    # the single-register window reference is the only divergence source
    assert st.memory_cycles - el.memory_cycles == 1


def test_cycles_bounded_by_levels(kernels, reuse_map):
    for name, kernel in kernels.items():
        reuse = reuse_map[name]
        alloc = run_allocator("fr", kernel, reuse, 64)
        r = steady_state_cycles(kernel, reuse, alloc)
        assert 0 <= r.memory_cycles <= len(r.per_level) * r.inner_iterations


def test_iteration_cap(example, example_reuse):
    fr = full_reuse(example_reuse, 64)
    with pytest.raises(CapExceededError):
        steady_state_cycles(example, example_reuse, fr, cap=10)


#: 3 * 10^7 interior inner points, three times the default cap
OVER_CAP = "loop i = 0..4 { loop j = 0..6000 { loop k = 0..5000 { S1: y[j] = a[j] + b[k]; } } }"


def test_cap_is_checked_before_per_point_memory():
    kernel = parse_kernel(OVER_CAP)
    reuse = analyze_all(kernel)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="30000000 exceeds cap 10000000"):
            steady_state_cycles(kernel, reuse, unit_allocation(reuse), cap=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an all-miss bitset alone would take a byte per point (30 MB)
    assert peak < 1e6


def test_graph_and_port_errors_come_before_the_cap():
    kernel = parse_kernel(OVER_CAP)
    reuse = analyze_all(kernel)
    alloc = unit_allocation(reuse)
    with pytest.raises(KernelError, match="unknown op kind 'add'"):
        steady_state_cycles(kernel, reuse, alloc, latencies={"multiply": 1}, cap=10)
    with pytest.raises(ValueError, match="ports must be >= 1"):
        steady_state_cycles(kernel, reuse, alloc, ports=0, cap=10)


@pytest.mark.parametrize("arg, message", [({"policy": "bogus"}, "policy must be one of"),
                                          ({"ports": -1}, "ports must be >= 1"),
                                          ({"ports": 0}, "ports must be >= 1")],
                         ids=["bogus-policy", "ports-minus-1", "ports-0"])
def test_policy_and_port_errors_come_before_any_work(arg, message):
    # a cap of 10 points would fail any walk or trace of this kernel
    kernel = parse_kernel(OVER_CAP)
    reuse = analyze_all(kernel)
    alloc = unit_allocation(reuse)
    with pytest.raises(ValueError, match=message):
        steady_state_cycles(kernel, reuse, alloc, cap=10, **arg)
    with pytest.raises(ValueError, match=message):
        oracle_replay(kernel, alloc, cap=10, **arg)


@pytest.mark.parametrize("coeff, shown", [(10**6, 10**6), (0, 0), (None, 0)],
                         ids=["above-required", "zero", "missing"])
def test_an_allocation_out_of_range_is_refused_by_both(coeff, shown):
    # fir's coeff needs 52 registers; the replay checks β against its own
    # required_regs, as validate does against the analyzer's, and reads a
    # missing entry as 0
    kernel = bundled_kernel("fir")
    reuse = analyze_all(kernel)
    beta = {a: 1 for a in reuse if a != "coeff"}
    if coeff is not None:
        beta["coeff"] = coeff
    alloc = Allocation(ALG_MANUAL, 10**7, beta)
    message = rf"beta\[coeff\] = {shown} outside 1\.\.52"
    with pytest.raises(ValueError, match=message):
        steady_state_cycles(kernel, reuse, alloc)
    with pytest.raises(ValueError, match=message):
        oracle_replay(kernel, alloc)


# ---------------------------------------------------------------------------
# pricing a rank column

@pytest.mark.parametrize("typecode", ["B", "H", "I"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_byte_plane_compare_matches_per_access_compare(typecode, k):
    rng = random.Random(f"{typecode}{k}")
    top = 1 << 8 * array(typecode).itemsize
    edges = [t for t in (1, 2, 255, 256, 257, 511, 65535, 65536, 65537) if t < top]
    thresholds = edges + [rng.randrange(1, top) for _ in range(4)]
    # uniform ranks, and ranks next to each threshold, so equal high bytes occur
    near = [min(top - 1, max(0, t + e)) for t in thresholds for e in (-1, 0, 1)]
    col = array(typecode, [rng.choice(near) if rng.random() < 0.5 else rng.randrange(top)
                           for _ in range(3 * 97 + 1)])
    for t in thresholds:
        assert simulate._at_least(col, t, k) == \
            [int.from_bytes(bytes(map(t.__le__, col[q::k])), "little") for q in range(k)], t


# ---------------------------------------------------------------------------
# the per-kernel cost model

def test_compare_walks_each_array_once():
    walked = 0
    for name in KERNEL_NAMES:
        # a name of its own, so that no equal kernel elsewhere shares its model
        kernel = parse_kernel(kernel_source(name), name=f"walk-once-{name}")
        reuse = analyze_all(kernel)
        allocs = [run_allocator(a, kernel, reuse, 64) for a in ("fr", "pr", "cpa")]
        with mock.patch.object(simulate, "_address_forms",
                               wraps=simulate._address_forms) as spy:
            for policy in POLICIES:  # compare's six calls
                for alloc in allocs:
                    steady_state_cycles(kernel, reuse, alloc, policy)
        walks = [(c.args[1], reuse[c.args[1]].carrier) for c in spy.call_args_list]
        assert len(walks) == len(set(walks)), (name, walks)
        walked += len(walks)
    assert walked > 0


def test_long_innermost_runs_are_built_in_blocks(monkeypatch):
    # an innermost loop longer than BLOCK: each moving run is built as ranges
    # of at most BLOCK points, not as one block shifted once per address; b
    # does not move along j, so its one run of 40 is built once; z's row is
    # k's run, so j's move joins it into one run of 160 points
    monkeypatch.setattr(simulate, "BLOCK", 7)
    kernel = parse_kernel("loop i = 0..3 { loop j = 0..4 { loop k = 0..40 {"
                          " S1: y[j] = a[j + k] + b[k]; S2: z[j][k] = a[j + k]; } } }")
    model = simulate._CostModel(kernel, build_dfg(kernel), 1)
    runs, built = simulate._runs, []

    def counted(*args):
        blocks = list(runs(*args))
        built.append(blocks)
        return iter(blocks)

    monkeypatch.setattr(simulate, "_runs", counted)
    for a, sizes in (("b", [7] * 5 + [5]), ("z", [7] * 22 + [6])):
        built.clear()
        model._walk(kernel, a, 0, 160)
        [blocks] = built  # one node: one run of 40 addresses, or one of 160
        assert [len(b) for b in blocks] == sizes, a
        assert all(isinstance(b, range) for b in blocks)
    built.clear()
    model._walk(kernel, "a", 0, 160)
    assert [[len(b) for b in blocks] for blocks in built] == [([7] * 5 + [5]) * 4] * 2  # two nodes


def test_walks_stream_only_the_points_that_decide_a_rank(monkeypatch):
    # bic's tpl does not move along j, so 64 of its window's 3,648 points are
    # walked; example's d does not move along j, the loop that places its 20
    # windows of 30 points, so one window is walked
    runs, streamed = simulate._runs, []

    def counted(*args):
        blocks = list(runs(*args))
        streamed.append(sum(map(len, blocks)))
        return iter(blocks)

    monkeypatch.setattr(simulate, "_runs", counted)
    for name, a, points in (("bic", "tpl", 64), ("example", "d", 30)):
        kernel = parse_kernel(kernel_source(name), name=name)
        info = analyze_all(kernel)[a]
        model = simulate._CostModel(kernel, build_dfg(kernel), 1)
        streamed.clear()
        column = model._walk(kernel, a, info.carrier, info.required_regs)
        assert streamed == [points], name  # one node, one stream
        assert len(column) == model.points, name


def test_copied_chunks_need_no_memory_past_the_column():
    # b's carrier is i: j is walked and k is still, so each of b's 2^16 ranks
    # is one chunk, repeated twice; the copies into the column make no object
    # per chunk, so a trip of 2 peaks higher than a trip of 1 by about the
    # column that it builds
    peaks, columns = [], []
    for trip in (1, 2):
        kernel = parse_kernel(f"loop i = 0..4 {{ loop j = 0..65536 {{ loop k = 0..{trip} {{"
                              " S1: y[k] += b[j]; } } }")
        info = analyze_all(kernel)["b"]
        model = simulate._CostModel(kernel, build_dfg(kernel), 1)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            columns.append(model._walk(kernel, "b", info.carrier, info.required_regs))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    once, twice = columns
    assert info.carrier == 0 and twice == array(once.typecode, [r for r in once for _ in "ab"])
    # measured (Python 3.11): 0.65 MB more, for a column of 0.52 MB; 8.7 MB
    # more when each repeated chunk was a bytes object of its own
    assert peaks[1] - peaks[0] <= 2 * len(twice) * twice.itemsize


def test_cost_model_lives_as_long_as_its_kernel():
    kernel = parse_kernel("loop i = 0..6 { loop j = 0..9 { S1: y[j] = a[i + j] * b[j]; } }")
    reuse = analyze_all(kernel)
    with mock.patch.object(simulate, "_MODELS", weakref.WeakKeyDictionary()) as memo:
        steady_state_cycles(kernel, reuse, unit_allocation(reuse))
        [model] = memo[kernel].values()
        assert model.ranks  # a was walked
        alive = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert alive() is None
        assert len(memo) == 0


def test_compare_peak_memory_is_pinned():
    # 10^5 interior inner points; y's ranks fit one byte (at most 100) and
    # a's two (at most 1,099): 3 bytes per point of rank columns, plus the
    # all-miss bitset of 1 byte per point; no state per threshold priced
    kernel = parse_kernel("loop i = 0..4 { loop j = 0..100 { loop k = 0..1000 {"
                          " S1: y[j] = a[j + k]; } } }")
    reuse = analyze_all(kernel)
    allocs = [run_allocator(a, kernel, reuse, 64) for a in ("fr", "pr", "cpa")]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for policy in POLICIES:
            for alloc in allocs:
                steady_state_cycles(kernel, reuse, alloc, policy)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    [model] = simulate._MODELS[kernel].values()
    assert {k[0]: (c.itemsize, len(c)) for k, c in model.ranks.items()} == \
        {"y": (1, 10**5), "a": (2, 10**5)}
    assert set(vars(model)) == {"members", "points", "everywhere", "index", "ranks"}
    # measured (Python 3.11): 0.43 MB held, 1.41 MB peak; the peak adds one
    # BLOCK of addresses as Python ints to what the model holds, and its bound
    # keeps the 1.85 MB read when bytesets were memoised per threshold
    assert held <= 1.5 * 0.43e6
    assert peak <= 1.5 * 1.85e6
