import pytest

from conftest import hit
from sralloc import (
    POLICY_ELEMENT,
    POLICY_STAGING,
    build_dfg,
    critical_length,
    full_reuse,
    manual_allocation,
    memory_levels,
    node_latencies,
    parse_kernel,
    partial_reuse,
    critical_path_aware,
    run_allocator,
    steady_state_cycles,
    unit_allocation,
)


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
    from sralloc import CapExceededError

    fr = full_reuse(example_reuse, 64)
    with pytest.raises(CapExceededError):
        steady_state_cycles(example, example_reuse, fr, cap=10)
