"""Scalar-replacement register allocation toolkit for affine loop kernels.

Pipeline: parse a kernel (or pick a bundled one), analyze per-array data
reuse, run one of three register allocators, and evaluate the resulting
allocation with a steady-state memory-cycle simulator.  A brute-force
oracle revalidates every analytic quantity from exhaustive traces.
"""

from .allocate import (
    ALG_CRITICAL,
    ALG_FULL,
    ALG_MANUAL,
    ALG_PARTIAL,
    Allocation,
    InfeasibleBudgetError,
    critical_path_aware,
    full_reuse,
    manual_allocation,
    partial_reuse,
    run_allocator,
    unit_allocation,
)
from .config import (
    CapExceededError,
    DEFAULT_CAP,
    DEFAULT_LATENCIES,
    POLICIES,
    POLICY_ELEMENT,
    POLICY_STAGING,
    RunConfig,
)
from .corpus import (
    CORPUS_NOTES,
    KERNEL_NAMES,
    REFERENCE_DISTRIBUTIONS,
    REFERENCE_REQUIRED,
    bundled_kernel,
    bundled_kernels,
    kernel_source,
)
from .dfg import (
    Cut,
    Dfg,
    DfgNode,
    build_dfg,
    critical_graph,
    critical_length,
    cut_register_need,
    find_cuts,
    node_latencies,
    to_dot,
)
from .kernel import (
    AffineExpr,
    ArrayRef,
    Kernel,
    KernelError,
    KernelSyntaxError,
    KernelValidationError,
    Loop,
    Statement,
    iteration_space_size,
    kernel_to_source,
    parse_kernel,
    parse_kernel_file,
)
from .oracle import (
    AccessTrace,
    oracle_alpha,
    oracle_analysis,
    oracle_carrier,
    oracle_replay,
    oracle_residency_cycles,
    random_kernel,
    trace,
)
from .reuse import (
    ReuseInfo,
    analyze_all,
    bc_order,
    benefit_cost,
    carrier_loop,
    forwarded_read_ids,
    required_registers,
    saved_accesses,
)
from .simulate import (
    CycleReport,
    memory_levels,
    steady_state_cycles,
)

__version__ = "0.1.0"
