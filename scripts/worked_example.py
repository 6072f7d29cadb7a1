#!/usr/bin/env python3
"""Walk the worked example: its reuse metrics, the cuts of its critical graph,
and the three allocations with their cycles under both residency policies."""

import sralloc as sa
from sralloc import cli


def main() -> int:
    print(sa.kernel_source("example"))
    codes = [cli.main(["analyze", "example"])]
    print("\ncuts of the critical graph (all arrays at one register)")
    kernel = sa.bundled_kernel("example")
    reuse = sa.analyze_all(kernel)
    ones = sa.unit_allocation(reuse, 64)
    for cut in sa.find_cuts(sa.critical_graph(sa.build_dfg(kernel, reuse)), reuse):
        need = sa.cut_register_need(cut, reuse, ones)
        print(f"  cut {cut}: full replacement {cut.omega}, incremental {need}")
    print()
    for policy in sa.POLICIES:
        codes.append(cli.main(["compare", "example", "--policy", policy]))
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
