#!/usr/bin/env python3
"""One SHA-256 over the analytic outputs, to show a refactor changes none of them.

Usage: ``output_digest.py [N]`` (default 100).  The records cover the bundled
corpus plus N seeded ``random_kernel(max_points=600)`` kernels: every
``analyze_all`` field; each allocator's ``as_dict()`` at three budgets under
both register accountings; and each allocation's ``CycleReport.as_dict()``
under both residency policies at 1 and 2 ports.  Prints the record count and
the digest; run it on two checkouts and compare the line.
"""

import dataclasses
import hashlib
import json
import random
import sys

import sralloc as sa
from sralloc.config import ACCOUNTING_MODES


def kernel_records(kernel: sa.Kernel):
    reuse = sa.analyze_all(kernel)
    yield {name: dataclasses.asdict(info) for name, info in reuse.items()}
    n = len(reuse)
    for budget in (n, n + 10, n + 60):
        for accounting in ACCOUNTING_MODES:
            for alg in ("fr", "pr", "cpa"):
                try:
                    alloc = sa.run_allocator(alg, kernel, reuse, budget, None, accounting)
                except sa.InfeasibleBudgetError as exc:
                    yield {"infeasible": str(exc)}
                    continue
                yield alloc.as_dict()
                for policy in sa.POLICIES:
                    for ports in (1, 2):
                        yield sa.steady_state_cycles(kernel, reuse, alloc, policy, ports).as_dict()


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 100
    kernels = [sa.bundled_kernel(name) for name in sa.KERNEL_NAMES]
    kernels += [sa.random_kernel(random.Random(seed), max_points=600) for seed in range(count)]
    digest = hashlib.sha256()
    records = 0
    for kernel in kernels:
        for record in kernel_records(kernel):
            line = json.dumps([kernel.name, record], sort_keys=True, default=str)
            digest.update(line.encode() + b"\n")
            records += 1
    print(f"{records} records {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
