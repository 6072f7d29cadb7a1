import pytest

from conftest import beta_tuple

from sralloc import (
    DEFAULT_LATENCIES,
    InfeasibleBudgetError,
    KernelError,
    analyze_all,
    critical_path_aware,
    full_reuse,
    manual_allocation,
    parse_kernel,
    partial_reuse,
    run_allocator,
    steady_state_cycles,
)


def test_full_reuse_example(example, example_reuse):
    alloc = full_reuse(example_reuse, 64)
    assert alloc.beta == {"a": 30, "b": 1, "c": 20, "d": 1, "e": 1}
    assert alloc.registers_used == 53  # 11 left unused
    assert alloc.algorithm == "fr-ra"


def test_full_reuse_unconstrained(example_reuse):
    alloc = full_reuse(example_reuse, 681)
    assert alloc.beta == {a: i.required_regs for a, i in example_reuse.items()}


def test_full_reuse_fir(kernels, reuse_map):
    alloc = full_reuse(reuse_map["fir"], 64)
    assert beta_tuple(kernels["fir"], alloc) == (1, 52, 1)
    assert alloc.registers_used == 54


def test_partial_reuse_example(example_reuse):
    alloc = partial_reuse(example_reuse, 64)
    assert alloc.beta == {"a": 30, "b": 1, "c": 20, "d": 12, "e": 1}
    assert alloc.registers_used == 64


def test_partial_reuse_fir(kernels, reuse_map):
    alloc = partial_reuse(reuse_map["fir"], 64)
    assert beta_tuple(kernels["fir"], alloc) == (1, 52, 11)
    assert alloc.registers_used == 64


def test_partial_reuse_no_leftover_matches_full():
    k = parse_kernel("loop i = 0..9 { loop j = 0..4 { S: y[i] += a[j] * b[i + j]; } }")
    reuse = analyze_all(k)
    budget = len(reuse) + 1
    assert partial_reuse(reuse, budget).beta != {}  # runs
    full_at = full_reuse(reuse, sum(i.required_regs for i in reuse.values()))
    part_at = partial_reuse(reuse, sum(i.required_regs for i in reuse.values()))
    assert part_at.beta == full_at.beta


def test_infeasible_budget():
    k = parse_kernel("loop i = 0..4 { S: y[i] = a[i] + b[i]; }")
    reuse = analyze_all(k)
    with pytest.raises(InfeasibleBudgetError):
        full_reuse(reuse, 2)
    with pytest.raises(InfeasibleBudgetError):
        critical_path_aware(k, reuse, 2)


def test_cpa_example(example, example_reuse):
    alloc = critical_path_aware(example, example_reuse, 64)
    assert alloc.beta == {"a": 16, "b": 16, "c": 1, "d": 30, "e": 1}
    assert alloc.registers_used == 64
    assert alloc.algorithm == "cpa-ra"


def test_cpa_unconstrained_fills_everything(example, example_reuse):
    alloc = critical_path_aware(example, example_reuse, 681)
    assert alloc.beta == {a: i.required_regs for a, i in example_reuse.items()}


def test_cpa_no_reusable_refs_keeps_ones():
    k = parse_kernel("loop i = 0..5 { loop j = 0..5 { S: y[i][j] = a[i][j] * b[j][i]; } }")
    reuse = analyze_all(k)
    alloc = critical_path_aware(k, reuse, 64)
    assert all(b == 1 for b in alloc.beta.values())


def test_cpa_water_fill_redistributes_cap_overflow(kernels, reuse_map):
    # mat: the equal split caps one member early and the surplus flows on
    alloc = critical_path_aware(kernels["mat"], reuse_map["mat"], 64)
    assert beta_tuple(kernels["mat"], alloc) == (1, 16, 47)
    assert alloc.registers_used == 64


def test_cpa_full_alpha_accounting(example, example_reuse):
    # coarser bookkeeping deducts the whole replacement cost of cut {d},
    # leaving 29 for the {a, b} split
    alloc = critical_path_aware(example, example_reuse, 64, accounting="full-alpha")
    assert alloc.beta == {"a": 16, "b": 15, "c": 1, "d": 30, "e": 1}


def test_cpa_ladder_of_shared_arrays():
    # S_k reads a_k and a_k+1, so every statement shares arrays with its
    # neighbours and the critical graph is one component of 81 arrays.
    # Each statement is cut by y_k (need 3) or by a_k and a_k+1 (need 2
    # each); all 41 a's (need 82) beat any mix.  Enumerating the cuts
    # took 87 s at 10 statements.
    n = 40
    body = "".join(f"S{k}: y{k}[i] = a{k}[i + j] + a{k + 1}[i + j]; " for k in range(n))
    k = parse_kernel("loop j = 0..4 { loop i = 0..4 { " + body + "} }")
    reuse = analyze_all(k)
    alloc = critical_path_aware(k, reuse, (2 * n + 1) + 2 * (n + 1))
    assert alloc.beta == {a: 3 if a.startswith("a") else 1 for a in reuse}


def test_cpa_many_rounds_on_one_graph():
    # S_k forwards x_k-1 and reads a: every x_k alone breaks the chain, so
    # each round fills one x_k (need 3), first by name.  29 rounds spend 87
    # of the 88 registers above the mandatory 62; the 30th gives x36 the last.
    n = 60
    body = "".join(f"S{k}: x{k}[i] = x{k - 1}[i] + a[i]; " for k in range(1, n + 1))
    k = parse_kernel("loop j = 0..3 { loop i = 0..4 { " + body + "} }")
    reuse = analyze_all(k)
    alloc = critical_path_aware(k, reuse, 150)
    filled = sorted(f"x{i}" for i in range(1, n + 1))[:29]
    assert filled[-1] == "x35"
    assert alloc.beta == {a: 4 if a in filled else 2 if a == "x36" else 1 for a in reuse}
    assert alloc.registers_used == 150


def test_cpa_latency_table_used_as_given(kernels, reuse_map):
    # one convention for the allocator and the simulator: a table replaces
    # the defaults, so fir's accumulate is missing from this one in both
    k, reuse = kernels["fir"], reuse_map["fir"]
    partial = {"multiply": 3}
    for budget in (3, 64):  # also where no cut is ever taken
        with pytest.raises(KernelError, match="unknown op kind 'accumulate'"):
            run_allocator("cpa", k, reuse, budget, partial)
    with pytest.raises(KernelError, match="unknown op kind 'accumulate'"):
        steady_state_cycles(k, reuse, full_reuse(reuse, 64), latencies=partial)
    alloc = run_allocator("cpa", k, reuse, 64, {**DEFAULT_LATENCIES, **partial})
    assert beta_tuple(k, alloc) == (1, 32, 31)


def test_manual_allocation_validates(example_reuse):
    with pytest.raises(ValueError):
        manual_allocation(example_reuse, {"a": 31, "b": 1, "c": 1, "d": 1, "e": 1}, 64)
    with pytest.raises(ValueError):
        manual_allocation(example_reuse, {"a": 30, "b": 30, "c": 1, "d": 1, "e": 10}, 64)
    ok = manual_allocation(example_reuse, {"a": 2, "b": 2, "c": 2, "d": 2, "e": 1}, 64)
    assert ok.registers_used == 9


def test_run_allocator_dispatch(example, example_reuse):
    assert run_allocator("fr", example, example_reuse, 64).algorithm == "fr-ra"
    assert run_allocator("pr-ra", example, example_reuse, 64).algorithm == "pr-ra"
    assert run_allocator("cpa", example, example_reuse, 64).algorithm == "cpa-ra"
    with pytest.raises(ValueError):
        run_allocator("best", example, example_reuse, 64)


def test_budget_safety_bundled(kernels, reuse_map):
    for name, kernel in kernels.items():
        reuse = reuse_map[name]
        for budget in (len(reuse), 16, 64, 200):
            if budget < len(reuse):
                continue
            for alg in ("fr", "pr", "cpa"):
                alloc = run_allocator(alg, kernel, reuse, budget)
                assert alloc.registers_used <= budget
                for a, b in alloc.beta.items():
                    assert 1 <= b <= reuse[a].required_regs


def test_determinism(example, example_reuse):
    for alg in ("fr", "pr", "cpa"):
        a1 = run_allocator(alg, example, example_reuse, 64)
        a2 = run_allocator(alg, example, example_reuse, 64)
        assert a1.beta == a2.beta


def test_partial_register_dominance_bundled(reuse_map):
    for reuse in reuse_map.values():
        fr = full_reuse(reuse, 64)
        pr = partial_reuse(reuse, 64)
        assert pr.registers_used >= fr.registers_used
        assert all(pr.beta[a] >= fr.beta[a] for a in reuse)
