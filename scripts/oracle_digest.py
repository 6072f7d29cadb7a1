#!/usr/bin/env python3
"""One SHA-256 over the oracle's outputs, to show a change to it changes none of them.

Usage: ``oracle_digest.py [N]`` (default 100).  The records cover the bundled
corpus plus, for each of N seeds, one ``random_kernel`` of depth at most 3
and at most 1,024 points and one of depth at most 4 and at most 4,000 points
(seeded ``10**6 + seed``): every ``oracle_analysis``
field; ``oracle_alpha(kernel, array, level)`` of each array at every loop
level, over all of the array's references; and, for each
allocator at three budgets, the cycles and hit columns of ``oracle_replay``
under both residency policies at 1 and 2 ports.  Prints the record count and
the digest; run it on two checkouts and compare the line.
"""

import hashlib
import json
import random
import sys

import sralloc as sa


def kernel_records(kernel: sa.Kernel):
    analysis = sa.oracle_analysis(kernel)
    yield analysis
    for array in kernel.arrays:
        yield {array: [sa.oracle_alpha(kernel, array, level) for level in range(kernel.depth)]}
    reuse = sa.analyze_all(kernel)
    n = len(reuse)
    for budget in (n, n + 10, n + 60):
        for alg in ("fr", "pr", "cpa"):
            try:
                alloc = sa.run_allocator(alg, kernel, reuse, budget)
            except sa.InfeasibleBudgetError as exc:
                yield {"infeasible": str(exc)}
                continue
            for policy in sa.POLICIES:
                for ports in (1, 2):
                    cycles, columns = sa.oracle_replay(kernel, alloc, policy, ports)
                    yield [alg, budget, policy, ports, cycles,
                           {a: [bytes(col).hex() for col in cols] for a, cols in columns.items()}]


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 100
    kernels = [sa.bundled_kernel(name) for name in sa.KERNEL_NAMES]
    for seed in range(count):
        kernels.append(sa.random_kernel(random.Random(seed)))
        kernels.append(sa.random_kernel(random.Random(10**6 + seed), max_depth=4, max_points=4000))
    digest = hashlib.sha256()
    records = 0
    for kernel in kernels:
        for record in kernel_records(kernel):
            line = json.dumps([kernel.name, record], sort_keys=True)
            digest.update(line.encode() + b"\n")
            records += 1
    print(f"{records} records {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
