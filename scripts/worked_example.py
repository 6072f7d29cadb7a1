#!/usr/bin/env python3
"""Walk the worked example: its reuse metrics, the cut each cpa-ra round
takes, and the three allocations with their cycles under both residency
policies."""

import sralloc as sa
from sralloc import cli


def main() -> int:
    print(sa.kernel_source("example"))
    codes = [cli.main(["analyze", "example"])]
    print("\ncut taken by each cpa-ra round at NR=64")
    kernel = sa.bundled_kernel("example")
    reuse = sa.analyze_all(kernel)
    alloc = sa.unit_allocation(reuse, 64)
    left = alloc.register_budget - alloc.registers_used
    g = sa.build_dfg(kernel)  # one graph; each round only reprices it
    while left > 0:
        cg = sa.critical_graph(g, sa.node_latencies(g, reuse, alloc))
        cuts = sa.find_cuts(cg, reuse, alloc)
        if not cuts:
            break
        (cut,) = cuts
        full = sum(reuse[a].required_regs for a in cut.arrays)
        print(f"  {left} registers left, cut {cut}: full replacement {full}, "
              f"incremental {cut.need}")
        if cut.need > left:
            break  # cpa-ra splits what is left over this cut and stops
        for a in cut.arrays:
            alloc.beta[a] = reuse[a].required_regs
        left -= cut.need
    print()
    for policy in sa.POLICIES:
        codes.append(cli.main(["compare", "example", "--policy", policy]))
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
