import itertools

import pytest

import sralloc as sa
from sralloc import simulate
from sralloc.simulate import _block_misses, _threshold


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

    Reads the simulator's miss bytesets for the block that holds the point,
    so the point must lie in the measured window: the outermost index at
    its middle value.
    """
    outer = kernel.loops[0]
    assert point[0] == outer.lower + (outer.trip // 2) * outer.step
    inner = itertools.product(*(lp.range for lp in kernel.loops[1:]))
    i = next(i for i, p in enumerate(inner) if p == point[1:])
    mem = sa.build_dfg(kernel).mem_nodes()
    limit = {array: _threshold(reuse[array], alloc.beta[array], policy)}
    blocks = _block_misses(kernel, reuse, mem, limit)
    miss = next(itertools.islice(blocks, i // simulate.BLOCK, None))
    shift = 8 * (i % simulate.BLOCK)
    return not any(m >> shift & 1 for m, n in zip(miss, mem) if n.label == array)
