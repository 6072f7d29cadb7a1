import itertools

import pytest

import sralloc as sa
from sralloc.simulate import _rank_rows, _threshold


@pytest.fixture(scope="session")
def kernels():
    return sa.bundled_kernels()


@pytest.fixture(scope="session")
def reuse_map(kernels):
    return {name: sa.analyze_all(k) for name, k in kernels.items()}


@pytest.fixture(scope="session")
def oracle_map(kernels):
    return {name: sa.oracle_analysis(k) for name, k in kernels.items()}


@pytest.fixture(scope="session")
def example(kernels):
    return kernels["example"]


@pytest.fixture(scope="session")
def example_reuse(reuse_map):
    return reuse_map["example"]


def beta_tuple(kernel, alloc):
    """Allocation vector in source (first-appearance) order."""
    return tuple(alloc.beta[a] for a in kernel.arrays)


def hit(kernel, reuse, alloc, array, point, policy=sa.POLICY_ELEMENT):
    """Whether every access of ``array`` at ``point`` hits a register.

    Reads the simulator's rank row at the point, so the point must lie in
    the measured window: the outermost index at its middle value.
    """
    outer = kernel.loops[0]
    assert point[0] == outer.lower + (outer.trip // 2) * outer.step
    g = sa.build_dfg(kernel)
    inner = itertools.product(*(lp.range for lp in kernel.loops[1:]))
    row = next(row for p, row in zip(inner, _rank_rows(kernel, reuse, g)) if p == point[1:])
    limit = _threshold(reuse[array], alloc.beta[array], policy)
    return all(rank < limit for rank, n in zip(row, g.mem_nodes()) if n.label == array)
