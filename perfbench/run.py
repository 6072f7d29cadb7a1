"""Run one workload of the sralloc benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The full report, spans included, is written under
``.bench_out/``.  Exit code 0 means the run completed, whether or not its
outputs were correct (``correct`` says that); 2 means it could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sralloc" / "__init__.py").is_file():
        print(f"error: no sralloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[key]}

    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = bench.write_report(report)
    values = report["per_layer"] if args.trace else report["end_to_end"]

    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"kernels {report['kernels']}  passes {report['passes']}  "
          f"context {json.dumps(report['context'])}")
    for name, value in {**report["end_to_end"], **report["detail"]}.items():
        print(f"  {name:<20} {value}")
    if args.trace:
        for name, value in report["per_layer"].items():
            print(f"  {name:<20} {value}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"  report {path.relative_to(ROOT)}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
