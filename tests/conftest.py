import itertools

import pytest

import sralloc as sa
from sralloc import simulate
from sralloc.simulate import _threshold


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


def affine_value(expr, env):
    """Value of an AffineExpr at the index values in ``env``."""
    return expr.const + sum(c * env[n] for n, c in expr.terms)


def beta_tuple(kernel, alloc):
    """Allocation vector in source (first-appearance) order."""
    return tuple(alloc.beta[a] for a in kernel.arrays)


def hit(kernel, reuse, alloc, array, point, policy=sa.POLICY_ELEMENT):
    """Whether every access of ``array`` at ``point`` hits a register.

    Reads the array's miss bitsets from a cost model of the kernel
    (``array_misses``), so the point must lie in the measured window: the
    outermost index at its middle value.
    """
    outer = kernel.loops[0]
    assert point[0] == outer.lower + (outer.trip // 2) * outer.step
    inner = itertools.product(*(lp.range for lp in kernel.loops[1:]))
    i = next(i for i, p in enumerate(inner) if p == point[1:])
    model = simulate._CostModel(kernel, sa.build_dfg(kernel), 1)
    miss = model.array_misses(kernel, reuse[array],
                              _threshold(reuse[array], alloc.beta[array], policy))
    return not any(m >> 8 * i & 1 for m in miss)


def hit_map(kernel, columns):
    """{(array, point): all its events hit} from ``oracle_replay``'s hit columns.

    The columns cover the middle outer iteration in loop order, so the
    points are the inner loops' product under the outermost index's middle value.
    """
    outer = kernel.loops[0]
    mid = outer.lower + (outer.trip // 2) * outer.step
    points = [(mid,) + p for p in itertools.product(*(lp.range for lp in kernel.loops[1:]))]
    return {(array, point): hit for array, cols in columns.items()
            for point, hit in zip(points, map(all, zip(*cols)))}
