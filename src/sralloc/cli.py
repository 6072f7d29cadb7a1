"""Command-line front end.

Subcommands: analyze, allocate, simulate, compare, verify.  Kernels are
referenced either by bundled name (example, fir, dec-fir, mat, imi, pat,
bic) or by path to a ``.knl`` file.  Exit codes: 0 success, 1 analysis
infeasibility or verification failure, 2 input error, 3 resource cap.

Each subcommand builds one ``Report``; ``_render`` alone knows the table,
JSON and CSV formats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from .allocate import Allocation, InfeasibleBudgetError, run_allocator
from .config import (
    ACCOUNTING_MODES,
    CapExceededError,
    OUTPUT_FORMATS,
    POLICIES,
    RunConfig,
)
from .corpus import KERNEL_NAMES, REFERENCE_DISTRIBUTIONS, bundled_kernels
from .dfg import build_dfg, critical_graph, node_latencies, to_dot
from .kernel import Kernel, KernelError, parse_kernel_file
from .oracle import oracle_analysis, oracle_replay
from .reuse import ReuseInfo, analyze_all
from .simulate import CycleReport, steady_state_cycles

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_ALG_ORDER = ("fr", "pr", "cpa")


@dataclass
class Report:
    """One command's result in every output format, and its exit code."""

    payload: dict
    csv_header: str
    csv_rows: list[list]
    table: list[str]
    code: int = EXIT_OK


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload, indent=2, sort_keys=True)
    if fmt == "csv":
        rows = [",".join("" if v is None else str(v) for v in row) for row in report.csv_rows]
        return "\n".join([report.csv_header] + rows)
    return "\n".join(report.table)


def _table(header: list[str], rows: list[list]) -> list[str]:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
    return [fmt(header), fmt(["-" * w for w in widths])] + [fmt(row) for row in rows]


def _join(values, sep: str = ", ") -> str:
    return sep.join(str(v) for v in values)


def _bc_json(value: Fraction):
    return int(value) if value.denominator == 1 else float(value)


def _load_kernel(name_or_path: str) -> Kernel:
    if name_or_path in KERNEL_NAMES:
        return bundled_kernels()[name_or_path]
    if not os.path.exists(name_or_path):
        raise FileNotFoundError(f"no bundled kernel or file named {name_or_path!r}")
    return parse_kernel_file(name_or_path)


def _dump_dot(prefix: str, kernel: Kernel, reuse: dict[str, ReuseInfo]):
    g = build_dfg(kernel)
    lat = node_latencies(g, reuse)  # one register per array
    for title, graph in (("dfg", g), ("cg", critical_graph(g, lat))):
        with open(f"{prefix}.{title}.dot", "w", encoding="utf-8") as fh:
            fh.write(to_dot(graph, lat, title))


def _analyzed(args, corpus: bool = False) -> list[tuple[Kernel, dict[str, ReuseInfo]]]:
    """The kernel named on the command line, each with its reuse analysis.

    With ``corpus``, ``all`` names every bundled kernel in name order.  With
    --dump-dot, each kernel's graphs are written in turn, so the last wins.
    """
    names = sorted(KERNEL_NAMES) if corpus and args.kernel == "all" else [args.kernel]
    out = []
    for name in names:
        kernel = _load_kernel(name)
        reuse = analyze_all(kernel)
        if args.dump_dot:
            _dump_dot(args.dump_dot, kernel, reuse)
        out.append((kernel, reuse))
    return out


def _allocate(alg: str, kernel: Kernel, reuse, cfg: RunConfig) -> Allocation:
    return run_allocator(alg, kernel, reuse, cfg.register_budget,
                         cfg.latencies, cfg.rr_accounting)


def _simulate(kernel: Kernel, reuse, alloc: Allocation, cfg: RunConfig) -> CycleReport:
    return steady_state_cycles(kernel, reuse, alloc, cfg.policy, cfg.ports,
                               cfg.latencies, cfg.iteration_cap)


def _algorithms(arg: str) -> list[str]:
    return list(_ALG_ORDER) if arg == "all" else [arg]


def _reuse_fields(info: ReuseInfo) -> dict:
    """The analytic reuse metrics, named as the oracle names them."""
    return {"carrier": info.carrier, "required_regs": info.required_regs,
            "total": info.total_accesses, "after": info.after_accesses, "save": info.save}


def _classic_rows(kernel: Kernel) -> dict:
    """Classic distributions of a bundled kernel; none for any other kernel,
    including a kernel file that merely shares a bundled kernel's name."""
    if bundled_kernels().get(kernel.name) != kernel:
        return {}
    return REFERENCE_DISTRIBUTIONS.get(kernel.name, {})


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args, cfg: RunConfig) -> Report:
    [(kernel, reuse)] = _analyzed(args)
    arrays = {a: {**_reuse_fields(i), "bc": _bc_json(i.bc)} for a, i in sorted(reuse.items())}
    rows = [[a, "-" if m["carrier"] is None else kernel.loops[m["carrier"]].index,
             *(m[f] for f in ("required_regs", "total", "after", "save", "bc"))]
            for a, m in arrays.items()]
    return Report(
        {"kernel": kernel.name, "arrays": arrays},
        "kernel,array,carrier,required_regs,total,after,save,bc",
        [[kernel.name, a, *m.values()] for a, m in arrays.items()],
        [f"kernel: {kernel.name}"]
        + _table(["array", "carrier", "regs", "total", "after", "save", "bc"], rows))


def cmd_allocate(args, cfg: RunConfig) -> Report:
    [(kernel, reuse)] = _analyzed(args)
    allocs = [_allocate(a, kernel, reuse, cfg) for a in _algorithms(args.alg)]
    betas = [[al.beta[a] for a in kernel.arrays] for al in allocs]
    return Report(
        {"kernel": kernel.name, "allocations": [al.as_dict() for al in allocs]},
        "kernel,algorithm,budget,used,beta",
        [[kernel.name, al.algorithm, al.register_budget, al.registers_used, _join(beta, ";")]
         for al, beta in zip(allocs, betas)],
        [f"kernel: {kernel.name}  budget: {cfg.register_budget}"
         f"  arrays: {', '.join(kernel.arrays)}"]
        + _table(["algorithm", "registers per array", "total"],
                 [[al.algorithm, _join(beta), al.registers_used]
                  for al, beta in zip(allocs, betas)]))


def cmd_simulate(args, cfg: RunConfig) -> Report:
    [(kernel, reuse)] = _analyzed(args)
    reports = [_simulate(kernel, reuse, _allocate(a, kernel, reuse, cfg), cfg)
               for a in _algorithms(args.alg)]
    table = []
    for r in reports:
        table += [f"kernel: {r.kernel}  algorithm: {r.algorithm}  policy: {r.policy}",
                  f"  registers used: {r.registers_used} / {r.register_budget}",
                  f"  memory cycles (one outer iteration): {r.memory_cycles}",
                  f"  per level: {list(r.per_level)}",
                  f"  per array: {dict(r.per_array)}",
                  f"  critical-path latency per body iteration: {r.t_exec_per_iter}"]
    return Report(
        {"kernel": kernel.name, "reports": [r.as_dict() for r in reports]},
        "kernel,algorithm,policy,used,memory_cycles,t_exec_per_iter",
        [[r.kernel, r.algorithm, r.policy, r.registers_used, r.memory_cycles,
          r.t_exec_per_iter] for r in reports],
        table)


def cmd_compare(args, cfg: RunConfig) -> Report:
    results, rows, table = [], [], []
    for kernel, reuse in _analyzed(args, corpus=True):
        reports = [_simulate(kernel, reuse, _allocate(a, kernel, reuse, cfg), cfg)
                   for a in _ALG_ORDER]
        base = reports[0].memory_cycles
        classic = _classic_rows(kernel)
        versions, table_rows = [], []
        for version, r in zip(("v1", "v2", "v3"), reports):
            beta = [dict(r.beta)[a] for a in kernel.arrays]
            v = {
                "version": version,
                "algorithm": r.algorithm,
                "beta": beta,
                "used": r.registers_used,
                "memory_cycles": r.memory_cycles,
                "reduction_vs_v1": round((base - r.memory_cycles) / base, 4) if base else 0.0,
            }
            mark = ""
            if version in classic:
                ref_beta, ref_used = classic[version]
                v["reference_beta"] = list(ref_beta)
                v["matches_reference"] = tuple(beta) == ref_beta and r.registers_used == ref_used
                mark = "yes" if v["matches_reference"] else "no, ref " + _join(ref_beta)
            versions.append(v)
            rows.append([kernel.name, version, r.algorithm, _join(beta, ";"),
                         r.registers_used, r.memory_cycles, v["reduction_vs_v1"]])
            table_rows.append([version, r.algorithm, _join(beta), r.registers_used,
                               r.memory_cycles, f"{100 * v['reduction_vs_v1']:.1f}%", mark])
        results.append({"kernel": kernel.name, "arrays": list(kernel.arrays),
                        "versions": versions})
        table.append(f"kernel: {kernel.name}  (arrays: {', '.join(kernel.arrays)};"
                     f" policy: {cfg.policy}; budget: {cfg.register_budget})")
        table += _table(["ver", "algorithm", "registers", "used", "cycles", "vs v1",
                         "matches classic"], table_rows) + [""]
    return Report(
        {"policy": cfg.policy, "budget": cfg.register_budget, "kernels": results},
        "kernel,version,algorithm,beta,used,memory_cycles,reduction_vs_v1",
        rows, table)


_CHECK_FIELDS = ("kernel", "subject", "field", "analytic", "oracle")


def cmd_verify(args, cfg: RunConfig) -> Report:
    analyzed = _analyzed(args, corpus=True)
    checks = []
    for kernel, reuse in analyzed:
        expected = oracle_analysis(kernel, cfg.iteration_cap)
        checks += [(kernel.name, array, field, mine, expected[array][field])
                   for array, info in reuse.items()
                   for field, mine in _reuse_fields(info).items()]
        for alg in _ALG_ORDER:
            alloc = _allocate(alg, kernel, reuse, cfg)
            checks.append((kernel.name, alloc.algorithm, "cycles",
                           _simulate(kernel, reuse, alloc, cfg).memory_cycles,
                           oracle_replay(kernel, alloc, cfg.policy, cfg.ports,
                                         cfg.iteration_cap)[0]))
    failed = [c for c in checks if c[3] != c[4]]  # analytic != oracle
    agreed, n = len(checks) - len(failed), len(analyzed)
    return Report(
        {"policy": cfg.policy, "checks": [dict(zip(_CHECK_FIELDS, c)) for c in checks],
         "agreed": agreed, "total": len(checks)},
        ",".join(_CHECK_FIELDS),
        checks,
        [f"verify: {agreed}/{len(checks)} checks agree"
         f" ({n} kernel{'s' if n != 1 else ''}, policy {cfg.policy})"]
        + [f"  DISAGREE {name}/{subject}/{field}: analytic {mine} != oracle {oracle}"
           for name, subject, field, mine, oracle in failed],
        EXIT_INFEASIBLE if failed else EXIT_OK)


# ---------------------------------------------------------------------------
# argument plumbing

def _add_common(p: argparse.ArgumentParser):
    """Flags shared by every subcommand; each ``dest`` is a RunConfig field
    or ``dump_dot``."""
    p.add_argument("--nr", type=int, dest="register_budget", metavar="NR",
                   help="register budget (default 64)")
    p.add_argument("--policy", choices=POLICIES, help="residency policy")
    p.add_argument("--rr-accounting", choices=ACCOUNTING_MODES, dest="rr_accounting",
                   help="cut cost accounting for the critical-path allocator")
    p.add_argument("--ports", type=int, help="RAM ports per array (default 1)")
    p.add_argument("--format", choices=OUTPUT_FORMATS, dest="output_format",
                   help="output format")
    p.add_argument("--cap", type=int, dest="iteration_cap", metavar="CAP",
                   help="iteration-space enumeration cap")
    p.add_argument("--dump-dot", metavar="PREFIX", dest="dump_dot",
                   help="write PREFIX.dfg.dot and PREFIX.cg.dot")


_SUBCOMMANDS = (  # name, handler, help, kernel help, --alg default
    ("analyze", cmd_analyze, "per-array reuse metrics", "bundled kernel name or .knl path", None),
    ("allocate", cmd_allocate, "run register allocators", None, "all"),
    ("simulate", cmd_simulate, "steady-state memory cycles for one allocator", None, "cpa"),
    ("compare", cmd_compare, "all three allocators side by side",
     "kernel name, .knl path, or 'all'", None),
    ("verify", cmd_verify, "analytic results against the brute-force oracle",
     "kernel name, .knl path, or 'all'", None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sralloc",
        description="reuse analysis, register allocation, and memory-cycle "
                    "simulation for perfectly nested affine loop kernels")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_, kernel_help, alg_default in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        p.add_argument("kernel", help=kernel_help)
        if alg_default:
            p.add_argument("--alg", choices=["fr", "pr", "cpa", "all"], default=alg_default)
        _add_common(p)
        p.set_defaults(func=func)
    return parser


def _config_from_args(args) -> RunConfig:
    """SRALLOC_CONFIG (or the defaults), overridden by each flag given."""
    cfg = RunConfig.from_env()
    for f in fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg.validate()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = args.func(args, cfg)
    except (OSError, KernelError, ValueError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_INFEASIBLE if isinstance(exc, InfeasibleBudgetError)
                else EXIT_CAP if isinstance(exc, CapExceededError) else EXIT_INPUT)
    print(_render(report, cfg.output_format))
    return report.code


if __name__ == "__main__":
    sys.exit(main())
