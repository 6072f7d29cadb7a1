"""The sralloc benchmark: workloads, timed passes and output checks.

A run is a closed loop from one client in one process and one thread: it
times passes over a workload's kernels until its time is up, checks every
output, then renders the golden CLI outputs once and checks their digest.
``run.py`` is the command-line entry; ``record.py`` re-records the digests.

The program is called through module attributes (``reuse.analyze_all``,
not a name bound at import), so ``tracer.Tracer`` can wrap the calls and a
test can substitute a broken oracle.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from sralloc import allocate, cli, config, corpus, kernel, oracle, reuse, simulate

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("corpus", "trip-scale", "stmt-scale", "verify")
BUDGET = 64
ALGORITHMS = ("fr", "pr", "cpa")
RANDOM_KERNELS = 300
SETUP_SAMPLES = 5
CORPUS = ("example", "fir", "dec-fir", "mat", "imi", "pat", "bic")

# ---------------------------------------------------------------------------
# hand-derived references, typed here so that they do not come from the
# program under test

#: classic required-register column, per array in first-appearance order
REQUIRED = {
    "example": (30, 30, 600, 1, 20),
    "fir": (1, 52, 51),
    "dec-fir": (1, 128, 127),
    "mat": (1, 16, 256),
    "imi": (1, 48, 48),
    "pat": (1, 80, 79),
    "bic": (1, 64, 512),
}

#: worked example at 64 registers: fr / pr / cpa memory cycles per policy
EXAMPLE_CYCLES = {
    "element-level": (1799, 1559, 1184),
    "staging-only": (1800, 1560, 1200),
}

FIR_TAPS = 52
TRIP_EXPONENTS = range(8, 15)
STMT_COUNTS = range(2, 9)
STMT_TRIP = 16


def fir_source(n_out: int) -> str:
    return (f"loop i = 0..{n_out} {{\n  loop j = 0..{FIR_TAPS} {{\n"
            f"    S1: out[i] += coeff[j] * in[i + j];\n  }}\n}}\n")


def stmt_source(n_stmts: int) -> str:
    body = "".join(f"    S{s}: o{s}[j] += a{s}[2*i + j] * w{s}[i + j];\n"
                   for s in range(n_stmts))
    return (f"loop i = 0..{STMT_TRIP} {{\n  loop j = 0..{STMT_TRIP} {{\n"
            f"{body}  }}\n}}\n")


def fir_reference(n: int) -> dict[str, tuple]:
    """(carrier, required_regs, total, after) of the fir shape with n outputs.

    ``out`` is read and written n*taps times and re-touched by the next tap;
    ``coeff`` and ``in`` are re-read by the next output, which shares all
    taps, or all but one input sample.
    """
    t = FIR_TAPS
    return {"out": (1, 1, 2 * n * t, 2 * n),
            "coeff": (0, t, n * t, t),
            "in": (0, t - 1, n * t, n + t - 1)}


def stmt_reference(n_stmts: int) -> dict[str, tuple]:
    """Same quantities for each statement of the statement family.

    The next ``i`` re-reads all of ``o[j]``, all but two of ``a[2i + j]``
    and all but one of ``w[i + j]``.
    """
    n = STMT_TRIP
    out = {}
    for s in range(n_stmts):
        out[f"o{s}"] = (0, n, 2 * n * n, 2 * n)
        out[f"a{s}"] = (0, n - 2, n * n, 3 * n - 2)
        out[f"w{s}"] = (0, n - 1, n * n, 2 * n - 1)
    return out


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Member:
    """One kernel of a workload, kept as source so every pass parses it."""

    name: str
    source: str
    size: int  # iteration points times static references

    def parse(self):
        return kernel.parse_kernel(self.source, name=self.name)


def _member(name: str, source: str) -> Member:
    k = kernel.parse_kernel(source, name=name)
    return Member(name, source, kernel.iteration_space_size(k, 0) * len(k.refs))


def members(workload: str, seed: int) -> list[Member]:
    """The kernels of a workload; the seed draws verify's random kernels."""
    if workload in ("corpus", "verify"):
        out = [_member(n, corpus.kernel_source(n)) for n in CORPUS]
        if workload == "verify":
            rng = random.Random(seed)
            for _ in range(RANDOM_KERNELS):
                k = oracle.random_kernel(rng)
                out.append(_member(k.name, kernel.kernel_to_source(k)))
        return out
    if workload == "trip-scale":
        return [_member(f"fir-{2 ** e}", fir_source(2 ** e)) for e in TRIP_EXPONENTS]
    if workload == "stmt-scale":
        return [_member(f"stmt-{s}", stmt_source(s)) for s in STMT_COUNTS]
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


def load_digests(path: Path = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one kernel through the pipeline, and its checks

def reuse_record(info: dict) -> dict:
    return {a: {"carrier": i.carrier, "required_regs": i.required_regs,
                "total": i.total_accesses, "after": i.after_accesses,
                "save": i.save, "bc": str(i.bc)}
            for a, i in info.items()}


def pipeline(k) -> dict:
    """Reuse fields, allocations and cycle reports as JSON-ready records.

    The calls are those of ``sralloc compare``: both residency policies for
    each of the three allocators.
    """
    info = reuse.analyze_all(k)
    allocs = [allocate.run_allocator(a, k, info, BUDGET) for a in ALGORITHMS]
    reports = {p: [simulate.steady_state_cycles(k, info, al, p).as_dict() for al in allocs]
               for p in config.POLICIES}
    return {
        "reuse": reuse_record(info),
        "arrays": list(k.arrays),
        "allocations": [al.as_dict() for al in allocs],
        "reports": reports,
    }


def reference_problems(name: str, rec: dict) -> list[str]:
    """Misses against the hand-derived references that apply to a kernel."""
    problems = []
    if name in REQUIRED:
        got = tuple(rec["reuse"][a]["required_regs"] for a in rec["arrays"])
        if got != REQUIRED[name]:
            problems.append(f"{name}: required registers {got} != {REQUIRED[name]}")
    if name == "example":
        for policy, want in EXAMPLE_CYCLES.items():
            got = tuple(r["memory_cycles"] for r in rec["reports"].get(policy, ()))
            if got and got != want:
                problems.append(f"example/{policy}: cycles {got} != {want}")
    expected = {}
    if name.startswith("fir-"):
        expected = fir_reference(int(name[4:]))
    elif name.startswith("stmt-"):
        expected = stmt_reference(int(name[5:]))
    for array, want in expected.items():
        r = rec["reuse"][array]
        got = (r["carrier"], r["required_regs"], r["total"], r["after"])
        if got != want:
            problems.append(f"{name}/{array}: (carrier, regs, total, after) {got} != {want}")
    return problems


def verify_kernel(k) -> tuple[dict, int, list[str]]:
    """``sralloc verify`` on one kernel: analytic results against the oracle.

    Returns a partial record (reuse fields and element-level cycles, for the
    reference checks), the number of checks made and the disagreements.
    """
    info = reuse.analyze_all(k)
    expected = oracle.oracle_analysis(k, config.DEFAULT_CAP)
    checks, problems = 0, []
    for array, i in info.items():
        got = expected[array]
        for fld, mine in (("carrier", i.carrier), ("required_regs", i.required_regs),
                          ("total", i.total_accesses), ("after", i.after_accesses),
                          ("save", i.save)):
            checks += 1
            if got[fld] != mine:
                problems.append(f"{k.name}/{array}/{fld}: analytic {mine} != oracle {got[fld]}")
    policy = config.POLICY_ELEMENT
    reports = []
    for alg in ALGORITHMS:
        alloc = allocate.run_allocator(alg, k, info, BUDGET)
        mine = simulate.steady_state_cycles(k, info, alloc, policy, 1, None,
                                            config.DEFAULT_CAP)
        theirs = oracle.oracle_replay(k, alloc, policy, 1, config.DEFAULT_CAP)[0]
        checks += 1
        if mine.memory_cycles != theirs:
            problems.append(f"{k.name}/{alloc.algorithm}/cycles: analytic "
                            f"{mine.memory_cycles} != oracle {theirs}")
        reports.append({"memory_cycles": mine.memory_cycles})
    rec = {"reuse": reuse_record(info), "arrays": list(k.arrays),
           "reports": {policy: reports}}
    return rec, checks, problems


# ---------------------------------------------------------------------------
# the golden CLI renders

def render_corpus() -> str:
    """``analyze`` and ``compare`` JSON for every bundled kernel, both policies."""
    buf = io.StringIO()
    for name in CORPUS:
        argvs = [["analyze", name, "--format", "json"]]
        argvs += [["compare", name, "--format", "json", "--policy", p]
                  for p in config.POLICIES]
        for argv in argvs:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"sralloc {' '.join(argv)} exited {code}")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark was defined on a 2-vCPU virtual machine whose CPU speed
# changes, in phases of 5 to 30 s, between states up to about 2x apart, in
# CPU time as much as in wall time (a fixed loop took 15 ms, then 23 ms).
# A 25 s run can land wholly in one state, so medians of raw wall seconds
# spread by 10-60% across runs.  Every timing is therefore scaled by the
# speed of a fixed reference loop measured just before and just after it:
# a result reads as seconds on a host where the loop takes REFERENCE_S.
# Raw wall seconds are reported beside them.

REFERENCE_S = 0.0012  # the loop below, median of three, in the fast state
CALIBRATE_EVERY_S = 0.2
_SUBSCRIPT = (("i", 2), ("j", 1))


def _affine(env: dict, const: int) -> int:
    value = const
    for name, coef in _SUBSCRIPT:
        value += coef * env[name]
    return value


def _reference_loop() -> int:
    """Four kinds of interpreter work in about equal parts.

    Each kind slows by a different factor when the host does, and so do
    the workloads (by 1.4x for trip-scale, 1.6x for this loop's first part),
    so a mix tracks them better than any one part does.
    """
    seen, index = set(), {}
    for i in range(2000):  # small tuples into a set and a dict
        t = (i, i * 3 % 17)
        seen.add(t)
        index[t] = i
    points = set()
    for i in range(15):  # environments and affine subscripts
        for j in range(30):
            env = dict(zip(("i", "j"), (i, j)))
            points.add((_affine(env, 0), _affine(env, 1)))
    big = set()
    for i in range(3500):  # a set larger than the first
        big.add((i, i % 7))
    x = 0
    for i in range(6000):  # integer arithmetic
        x = (x * 31 + i) % 1000003
    return len(seen) + len(points) + len(big) + x


def host_speed() -> float:
    """Seconds the reference loop takes now, median of three, collector off.

    The median, not the best, because the timed kernels run through the
    host's short stalls as well as its fast moments.
    """
    gc.disable()
    try:
        samples = []
        for _ in range(3):
            t = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - t)
        return statistics.median(samples)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# one run

@dataclass
class Outcome:
    """What a run measured and checked; times are speed-scaled seconds."""

    pass_s: list[float] = field(default_factory=list)
    pass_wall_s: list[float] = field(default_factory=list)
    traced_pass_s: list[float] = field(default_factory=list)
    kernel_s_max: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    oracle_checks: int = 0
    oracle_disagree: int = 0
    layer_passes: list[dict] = field(default_factory=list)
    render_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failures.append(message)


def clear_caches() -> None:
    # Equal Kernels hash equal, so a re-parsed kernel hits these lru_caches:
    # without clearing, every verify pass after the first would replay cached
    # oracle traces, and a CLI user pays for both caches in every process.
    oracle._analysis_cached.cache_clear()
    corpus.bundled_kernels.cache_clear()


def run_op(workload: str, m: Member, digests: dict, out: Outcome) -> float:
    """One kernel through the workload's calls, then its checks; returns wall seconds."""
    out.attempted += 1
    start = time.perf_counter()
    try:
        k = m.parse()
        if workload == "verify":
            rec, checks, problems = verify_kernel(k)
        else:
            rec, checks, problems = pipeline(k), 0, []
    except Exception:  # a failed operation is counted, the run goes on
        out.fail(f"{m.name}: {traceback.format_exc(limit=3)}")
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    out.oracle_checks += checks
    out.oracle_disagree += len(problems)
    problems = problems + reference_problems(m.name, rec)
    if workload != "verify":
        want = digests.get("workloads", {}).get(workload, {}).get(m.name)
        if digest(rec) != want:
            problems.append(f"{m.name}: output digest {digest(rec)[:12]} != recorded "
                            f"{str(want)[:12]}")
    if problems:
        out.fail("; ".join(problems))
    return elapsed


def run_pass(workload: str, kernels: list[Member], rng: random.Random,
             digests: dict, out: Outcome, tr: tracer.Tracer | None = None) -> None:
    """One pass over the kernels in a seeded order, with cold caches.

    Kernels run in groups of at least CALIBRATE_EVERY_S; each group's times
    are scaled by the mean host speed measured before and after it.  The
    cyclic garbage of a group is collected before the next one starts, as
    it would be at the end of a CLI process: otherwise the dead cut-search
    structures of several kernels coexist or not depending on when the
    collector runs, and the peak memory of a 20 s stmt-scale run varied
    from 53 to 58 MB.
    """
    clear_caches()
    order = list(kernels)
    rng.shuffle(order)
    first = len(tr.spans) if tr is not None else 0
    scaled, wall = [], 0.0
    group: list[float] = []
    gc.collect()
    before = host_speed()
    mark = time.perf_counter()
    if tr is not None:
        tr.install()
    try:
        for i, m in enumerate(order):
            group.append(run_op(workload, m, digests, out))
            if time.perf_counter() - mark >= CALIBRATE_EVERY_S or i == len(order) - 1:
                gc.collect()
                after = host_speed()
                scale = 2 * REFERENCE_S / (before + after)
                scaled += [t * scale for t in group]
                wall += sum(group)
                group, before, mark = [], after, time.perf_counter()
    finally:
        if tr is not None:
            tr.uninstall()
    total = sum(scaled)
    if tr is None:
        out.pass_s.append(total)
        out.pass_wall_s.append(wall)
        out.kernel_s_max.append(max(scaled))
    else:
        out.traced_pass_s.append(total)
        layers = tracer.layer_metrics(tr.spans[first:])
        scale = total / wall
        out.layer_passes.append({k: v * scale if k.endswith("_s") else v
                                 for k, v in layers.items()})


def check_render(digests: dict, out: Outcome, tr: tracer.Tracer | None = None) -> None:
    """Render the golden CLI outputs once and check their digest."""
    clear_caches()
    out.attempted += 1
    first = len(tr.spans) if tr is not None else 0
    before = host_speed()
    start = time.perf_counter()
    try:
        if tr is not None:
            with tr:
                text = render_corpus()
        else:
            text = render_corpus()
    except Exception:  # counted as a failed operation
        out.fail(f"cli render: {traceback.format_exc(limit=3)}")
        return
    elapsed = time.perf_counter() - start
    scale = 2 * REFERENCE_S / (before + host_speed())
    if tr is not None:
        elapsed = tracer.self_times(tr.spans[first:])["cli"]
    out.render_s = elapsed * scale
    got = hashlib.sha256(text.encode()).hexdigest()
    if got != digests.get("cli"):
        out.fail(f"cli render digest {got[:12]} != recorded {str(digests.get('cli'))[:12]}")


def measure_setup(samples: int = SETUP_SAMPLES) -> tuple[list[float], list[float]]:
    """(scaled, wall) seconds to import sralloc and load the bundled corpus.

    Each sample is a fresh interpreter; one unreported start first writes
    the bytecode caches.
    """
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "t = time.perf_counter()\n"
            "import sralloc\n"
            "sralloc.bundled_kernels()\n"
            "print(repr(time.perf_counter() - t))\n")
    scaled, wall = [], []
    for i in range(samples + 1):
        before = host_speed()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True, cwd=ROOT)
        if i:
            t = float(proc.stdout.strip())
            wall.append(t)
            scaled.append(t * 2 * REFERENCE_S / (before + host_speed()))
    return scaled, wall


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: bool,
        digests: dict | None = None, kernels: list[Member] | None = None,
        render: bool | None = None) -> dict:
    """Set up, time passes for ``seconds``, check outputs; return the report.

    With ``trace`` the run alternates untraced and traced passes, so that
    the tracing overhead is measured in the same run.  The golden CLI
    render is checked on corpus runs, whose output it is, and timed on
    traced runs; ``render`` overrides that.
    """
    if render is None:
        render = workload == "corpus" or trace
    digests = load_digests() if digests is None else digests
    setup, setup_wall = measure_setup()
    kernels = members(workload, seed) if kernels is None else kernels
    rng = random.Random(seed)
    out = Outcome()
    tr = tracer.Tracer() if trace else None
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds or (trace and not out.traced_pass_s):
        traced = trace and n % 2 == 1
        run_pass(workload, kernels, rng, digests, out, tr if traced else None)
        n += 1
    if render:
        check_render(digests, out, tr)

    q = quartiles(out.pass_s)
    wq = quartiles(out.pass_wall_s)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "kernels": len(kernels),
        "passes": len(out.pass_s) + len(out.traced_pass_s),
        "attempted": out.attempted,
        "failed": len(out.failures),
        "failures": out.failures[:20],
        "context": {"src.loc": src_lines(), "python": platform.python_version(),
                    "nproc": os.cpu_count(), "seed": seed},
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "pass_s": q[1],
            "kernel_s_max": statistics.median(out.kernel_s_max),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - len(out.failures) / out.attempted,
        },
        "detail": {
            "fail_frac": len(out.failures) / out.attempted,
            "pass_s.samples": len(out.pass_s),
            "pass_s.q1": q[0],
            "pass_s.q3": q[2],
            "pass_wall_s.q1": wq[0],
            "pass_wall_s.median": wq[1],
            "pass_wall_s.q3": wq[2],
            "setup_wall_s.median": statistics.median(setup_wall),
            "setup_s.samples": len(setup),
            "host_speed_s": host_speed(),
            "cli.render_s": out.render_s,
        },
    }
    if trace:
        layers = tracer.median_metrics(out.layer_passes)
        layers["oracle.checks"] = out.oracle_checks / len(out.pass_s + out.traced_pass_s)
        layers["oracle.agree_frac"] = (1 - out.oracle_disagree / out.oracle_checks
                                       if out.oracle_checks else 1.0)
        layers["cli.render_s"] = out.render_s
        layers["trace.overhead_s"] = (statistics.median(out.traced_pass_s)
                                      - statistics.median(out.pass_s))
        report["detail"]["layers_by_self_s"] = sorted(
            (layer for layer in tracer.LAYERS if layer != "cli"),
            key=lambda layer: -layers[f"{layer}.self_s"])
        report["per_layer"] = layers
        report["spans"] = tr.spans
    return report


def write_report(report: dict) -> Path:
    """Write the full report, spans included, under .bench_out/."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{report['workload']}-seed{report['seed']}"
                      f"-trace{int(report['trace'])}.json")
    data = dict(report)
    if "spans" in data:
        data["spans"] = [list(s[:5]) for s in data["spans"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path
