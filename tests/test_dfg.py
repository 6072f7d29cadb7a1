import gc
import random
import weakref
from unittest import mock

import pytest

from sralloc import (
    DEFAULT_LATENCIES,
    KERNEL_NAMES,
    KernelError,
    KernelValidationError,
    analyze_all,
    bundled_kernels,
    Dfg,
    DfgNode,
    build_dfg,
    critical_graph,
    critical_length,
    find_cuts,
    manual_allocation,
    node_latencies,
    parse_kernel,
    random_kernel,
    run_allocator,
    to_dot,
    unit_allocation,
)
from sralloc import dfg

from test_properties import reference_cuts


def node_labels(g, kind=None):
    return sorted(n.label for n in g.nodes if kind is None or n.kind == kind)


def edge_labels(g):
    by_id = {n.node_id: n.label for n in g.nodes}
    return sorted((by_id[a], by_id[b]) for a, b in g.edges)


def test_build_dfg_example_all_ones(example, example_reuse):
    g = build_dfg(example)
    lat = node_latencies(g, example_reuse)
    mem = {n.label: n for n in g.mem_nodes()}
    assert set(mem) == {"a", "b", "c", "d", "e"}
    assert all(lat[n.node_id] == 1 for n in mem.values())
    ops = [n for n in g.nodes if n.kind == "op"]
    assert [n.label for n in ops] == ["multiply", "multiply"]
    # the d read is forwarded: the store's node serves it and holds only the write
    assert len(mem["d"].ref_ids) == 1
    assert len(g.nodes) == 7


@pytest.mark.parametrize("src,nodes,edges", [
    # S3's read of x[i] joins S2's store, the latest earlier store of x[i],
    # which holds its write and its implicit reduction read
    ("loop i = 0..4 { S1: x[i] = a[i]; S2: x[i] += b[i]; S3: y[i] = x[i]; }",
     [("mem", "a", (1,)), ("mem", "x", (0,)), ("mem", "b", (3,)), ("op", "accumulate", ()),
      ("mem", "x", (2, 4)), ("mem", "y", (5,))],
     ((0, 1), (2, 3), (3, 4), (4, 5))),
    # S1 reads x[i] before its first store, so that read loads; S3's read is forwarded
    ("loop i = 0..4 { S1: y[i] = x[i] * a[i]; S2: x[i] = b[i]; S3: z[i] = x[i]; }",
     [("mem", "x", (1,)), ("mem", "a", (2,)), ("op", "multiply", ()), ("mem", "y", (0,)),
      ("mem", "b", (4,)), ("mem", "x", (3,)), ("mem", "z", (5,))],
     ((0, 2), (1, 2), (2, 3), (4, 5), (5, 6))),
], ids=["latest-store", "read-before-store"])
def test_build_dfg_forwards_to_latest_earlier_store(src, nodes, edges):
    g = build_dfg(parse_kernel(src))
    assert [(n.kind, n.label, n.ref_ids) for n in g.nodes] == nodes
    assert [n.node_id for n in g.nodes] == list(range(len(nodes)))
    assert g.edges == edges


def test_build_dfg_residency_drops_latency(example, example_reuse):
    beta = {a: 1 for a in example_reuse}
    beta["d"] = 30
    alloc = manual_allocation(example_reuse, beta, 64)
    g = build_dfg(example)
    lat = node_latencies(g, example_reuse, alloc)
    d = next(n for n in g.mem_nodes() if n.label == "d")
    assert lat[d.node_id] == 0
    # e saves nothing, so one register (its full requirement) still misses
    e = next(n for n in g.mem_nodes() if n.label == "e")
    assert lat[e.node_id] == 1


def test_build_dfg_empty_body(example):
    from sralloc import Kernel

    bare = Kernel("empty", (), example.loops, ())
    g = build_dfg(bare)
    lat = node_latencies(g, {})
    assert g.nodes == () and g.edges == ()
    assert critical_length(g, lat) == 0
    assert critical_graph(g, lat) == Dfg((), ())


def test_build_dfg_unknown_op(example, example_reuse):
    g = build_dfg(example)
    with pytest.raises(KernelError, match="unknown op kind 'multiply'"):
        node_latencies(g, example_reuse, latencies={"add": 1})


def test_critical_paths_example(example, example_reuse):
    g = build_dfg(example)
    lat = node_latencies(g, example_reuse)
    assert critical_length(g, lat) == 5  # load, multiply, d store, multiply, e store
    cg = critical_graph(g, lat)
    # two critical paths, a -> d -> e and b -> d -> e, merging at the multiply
    assert node_labels(cg, "mem") == ["a", "b", "d", "e"]
    assert edge_labels(cg) == [("a", "multiply"), ("b", "multiply"), ("d", "multiply"),
                               ("multiply", "d"), ("multiply", "e")]


def test_critical_paths_longer_multiply(example, example_reuse):
    g = build_dfg(example)
    lat = node_latencies(g, example_reuse, latencies={"multiply": 3})
    assert critical_length(g, lat) == 3 + 2 * 3  # three memory hops plus two multiplies


def test_critical_path_single_node():
    k = parse_kernel("loop i = 0..2 { S: y[i] = x[i]; }")
    reuse = analyze_all(k)
    g = build_dfg(k)
    lat = node_latencies(g, reuse)
    assert critical_length(g, lat) == 2  # load then store
    cg = critical_graph(g, lat)  # the one path, x -> y
    assert node_labels(cg) == ["x", "y"]
    assert edge_labels(cg) == [("x", "y")]


def test_critical_paths_drop_with_full_replacement(example, example_reuse):
    beta = {a: 1 for a in example_reuse}
    beta["d"] = 30
    g = build_dfg(example)
    lat = node_latencies(g, example_reuse, manual_allocation(example_reuse, beta, 64))
    assert critical_length(g, lat) == 4


def test_critical_graph_example(example, example_reuse):
    g = build_dfg(example)
    cg = critical_graph(g, node_latencies(g, example_reuse))
    assert node_labels(cg, "mem") == ["a", "b", "d", "e"]  # c's path is shorter
    assert node_labels(cg, "op") == ["multiply", "multiply"]


def test_critical_graph_tied_paths_keep_everything(example, example_reuse):
    k = parse_kernel("loop i = 0..4 { S: y[i] = a[i] + b[i]; }")
    reuse = analyze_all(k)
    g = build_dfg(k)
    cg = critical_graph(g, node_latencies(g, reuse))
    assert len(cg.nodes) == len(g.nodes)


def test_critical_graph_chain():
    k = parse_kernel("loop i = 0..4 { S: y[i] = x[i]; }")
    reuse = analyze_all(k)
    g = build_dfg(k)
    cg = critical_graph(g, node_latencies(g, reuse))
    assert len(cg.nodes) == len(g.nodes) == 2


def test_critical_graph_idempotent(example, example_reuse):
    g = build_dfg(example)
    lat = node_latencies(g, example_reuse)
    cg = critical_graph(g, lat)
    again = critical_graph(cg, lat)
    assert set(again.nodes) == set(cg.nodes)
    assert set(again.edges) == set(cg.edges)


def test_find_cuts_example(example, example_reuse):
    g = build_dfg(example)
    cg = critical_graph(g, node_latencies(g, example_reuse))
    # {d} is the cheaper of the two under either accounting
    for accounting, needs in (("incremental", [29, 628]), ("full-alpha", [30, 630])):
        cuts = reference_cuts(cg, example_reuse, None, accounting)
        assert [(c.arrays, c.need) for c in cuts] == list(zip([("d",), ("a", "b")], needs))
        (cut,) = find_cuts(cg, example_reuse, None, accounting)
        assert (cut.arrays, cut.need) == (cuts[0].arrays, cuts[0].need)


def cheapest_cut(source: str) -> list[tuple[tuple[str, ...], int]]:
    """find_cuts' (arrays, need) on the kernel's critical graph at one register per array."""
    k = parse_kernel(source)
    reuse = analyze_all(k)
    g = build_dfg(k)
    return [(c.arrays, c.need) for c in find_cuts(critical_graph(g, node_latencies(g, reuse)), reuse)]


def test_find_cuts_chain_of_two_candidates():
    # x feeds t on the chain into z; the y branch reaches z only through t
    assert cheapest_cut("loop i = 0..6 { loop j = 0..4 { "
                        "S1: t[j] = x[j] * y[i][j]; S2: z[i][j] = w[j] * t[j]; } }") == [(("t",), 3)]
    # one register already replaces each invariant, so nothing is left to cut
    assert cheapest_cut("loop i = 0..6 { S1: t[0] = x[0] * y[i]; S2: z[i] = w[0] * t[0]; }") == []


def test_find_cuts_parallel_branches_need_the_pair():
    assert cheapest_cut("loop i = 0..6 { loop j = 0..4 { S: y[i][j] = a[j] + b[j]; } }") == \
        [(("a", "b"), 6)]
    assert cheapest_cut("loop i = 0..6 { S: y[i] = a[0] + b[0]; }") == []


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_find_cuts_holds_one_register_per_array_without_an_allocation(name, kernels, reuse_map):
    # one candidate rule: an array fully replaced at one register is no
    # candidate, so no incremental cut is free
    reuse = reuse_map[name]
    g = build_dfg(kernels[name])
    cg = critical_graph(g, node_latencies(g, reuse))
    ones = unit_allocation(reuse, 64)
    for accounting in ("incremental", "full-alpha"):
        assert find_cuts(cg, reuse, None, accounting) == find_cuts(cg, reuse, ones, accounting)
    assert all(c.need > 0 for c in find_cuts(cg, reuse))


def test_find_cuts_excludes_unimprovable(example, example_reuse):
    # once d is fully replaced it is no longer a candidate
    beta = {a: 1 for a in example_reuse}
    beta["d"] = 30
    alloc = manual_allocation(example_reuse, beta, 64)
    g = build_dfg(example)
    cuts = find_cuts(critical_graph(g, node_latencies(g, example_reuse, alloc)),
                     example_reuse, alloc)
    assert [c.arrays for c in cuts] == [("a", "b")]


def test_find_cuts_empty_when_uncoverable(example, example_reuse):
    # with a, b, d satisfied the critical paths tie and one of them has no
    # improvable reference left, so no cut can break every path
    beta = {"a": 30, "b": 600, "c": 1, "d": 30, "e": 1}
    alloc = manual_allocation(example_reuse, beta, 700)
    g = build_dfg(example)
    cuts = find_cuts(critical_graph(g, node_latencies(g, example_reuse, alloc)),
                     example_reuse, alloc)
    assert cuts == ()


def test_find_cuts_need_modes(example, example_reuse):
    g = build_dfg(example)
    cg = critical_graph(g, node_latencies(g, example_reuse))
    ones = unit_allocation(example_reuse, 64)
    assert find_cuts(cg, example_reuse, ones) == find_cuts(cg, example_reuse)
    (cut,) = find_cuts(cg, example_reuse, ones)
    assert (cut.arrays, cut.need) == (("d",), 29)
    assert find_cuts(cg, example_reuse, ones, "full-alpha")[0].need == 30
    # partly held: incremental charges what is still missing, full-alpha all of it
    some = manual_allocation(example_reuse, {**ones.beta, "a": 20, "b": 600, "d": 10}, 700)
    for accounting, need in (("incremental", 20), ("full-alpha", 30)):
        (cut,) = find_cuts(cg, example_reuse, some, accounting)
        assert (cut.arrays, cut.need) == (("d",), need)
    with pytest.raises(ValueError, match="unknown accounting mode 'per-node'"):
        find_cuts(cg, example_reuse, ones, "per-node")
    # cpa-ra rejects it too, also at a budget that replaces every array in full
    for budget in (len(example_reuse), 10**4):
        with pytest.raises(ValueError, match="unknown accounting mode 'per-node'"):
            run_allocator("cpa", example, example_reuse, budget, None, "per-node")


def test_to_dot_renders(example, example_reuse):
    g = build_dfg(example)
    dot = to_dot(g, node_latencies(g, example_reuse))
    assert dot.startswith("digraph")
    assert "->" in dot


def test_dfg_rejects_backward_edges_and_self_loops():
    # ascending node id is the topological order, so an edge must point up
    nodes = (DfgNode(0, "mem", "x"), DfgNode(1, "mem", "y"))
    assert Dfg(nodes, ((0, 1),)).succs() == {0: [1], 1: []}
    for edges in (((1, 0),), ((0, 1), (1, 0)), ((1, 1),)):
        with pytest.raises(KernelValidationError, match="cyclic dependence in data-flow graph"):
            Dfg(nodes, edges)


# ---------------------------------------------------------------------------
# one graph per kernel object, priced under any latency table

def test_build_dfg_shares_one_graph_across_latency_tables(example, example_reuse):
    g = build_dfg(example)
    slow = {**DEFAULT_LATENCIES, "multiply": 3}
    assert node_latencies(g, example_reuse, latencies=dict(DEFAULT_LATENCIES)) == \
        node_latencies(g, example_reuse)
    lat = node_latencies(g, example_reuse, latencies=slow)
    assert [lat[n.node_id] for n in g.nodes if n.label == "multiply"] == [3, 3]
    assert build_dfg(example) is g


def test_build_dfg_keeps_no_failed_build(example, example_reuse):
    # a bad table fails every pricing; the graph it prices is built once and kept
    with mock.patch.object(dfg, "_GRAPHS", weakref.WeakKeyDictionary()), \
            mock.patch.object(dfg, "_build", wraps=dfg._build) as spy:
        for _ in range(2):
            with pytest.raises(KernelError, match="unknown op kind 'multiply'"):
                node_latencies(build_dfg(example), example_reuse, latencies={"add": 1})
        assert node_latencies(build_dfg(example), example_reuse)
    assert spy.call_count == 1


def test_shared_graph_equals_uncached_build():
    rng = random.Random(16)
    kernels = list(bundled_kernels().values()) + [random_kernel(rng) for _ in range(100)]
    for k in kernels:
        assert build_dfg(k) == dfg._build(k), k.name
        assert build_dfg(k) is build_dfg(k)


def test_graph_lives_as_long_as_its_kernel():
    kernel = parse_kernel("loop i = 0..6 { loop j = 0..9 { S1: y[j] = a[i + j] * b[j]; } }")
    reuse = analyze_all(kernel)
    with mock.patch.object(dfg, "_GRAPHS", weakref.WeakKeyDictionary()) as memo:
        g = build_dfg(kernel)
        node_latencies(g, reuse, latencies={**DEFAULT_LATENCIES, "multiply": 5})
        with pytest.raises(KernelError):
            node_latencies(g, reuse, latencies={"add": 1})
        assert list(memo.items()) == [(kernel, g)]
        alive = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert alive() is None
        assert len(memo) == 0
