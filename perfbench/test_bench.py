"""The benchmark's own tests: python3 -m pytest perfbench -q

They smoke-run the smallest kernel of each workload and show that the
correctness gate can fail: a tampered digest, a forced oracle mismatch and
a tampered CLI render each count as failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smallest(workload: str) -> bench.Member:
    return min(bench.members(workload, seed=1), key=lambda m: m.size)


def run_smallest(workload: str, digests=None, trace=False, render=False) -> dict:
    return bench.run(workload, seed=1, seconds=0, trace=trace, digests=digests,
                     kernels=[smallest(workload)], render=render)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smallest_member_passes(workload):
    report = run_smallest(workload)
    assert report["failed"] == 0, report["failures"]
    assert report["end_to_end"]["ok_frac"] == 1.0
    assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_reports_every_layer_metric():
    report = run_smallest("stmt-scale", trace=True)
    assert report["failed"] == 0, report["failures"]
    assert set(report["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert report["per_layer"]["dfg.cuts"] > 0
    assert report["per_layer"]["allocate.cpa_rounds"] >= 1


def test_tracer_restores_the_program():
    from sralloc import allocate, dfg

    original = allocate.find_cuts
    with bench.tracer.Tracer() as tr:
        assert allocate.find_cuts is dfg.find_cuts is not original
        bench.pipeline(smallest("stmt-scale").parse())
    assert allocate.find_cuts is dfg.find_cuts is original
    names = {s.name for s in tr.spans}
    assert {"reuse.analyze_all", "allocate.cpa", "dfg.find_cuts",
            "simulate.steady_state_cycles"} <= names


def test_tampered_digest_fails():
    digests = bench.load_digests()
    name = smallest("corpus").name
    digests["workloads"]["corpus"][name] = "0" * 64
    report = run_smallest("corpus", digests=digests)
    assert report["failed"] == 1
    assert report["detail"]["fail_frac"] > 0
    assert "digest" in report["failures"][0]


def test_forced_oracle_mismatch_fails(monkeypatch):
    real = bench.oracle.oracle_replay

    def off_by_one(*args, **kwargs):
        cycles, hits = real(*args, **kwargs)
        return cycles + 1, hits

    monkeypatch.setattr(bench.oracle, "oracle_replay", off_by_one)
    report = run_smallest("verify")
    assert report["failed"] == 1
    assert report["detail"]["fail_frac"] > 0
    assert "!= oracle" in report["failures"][0]


def test_tampered_render_digest_fails():
    digests = bench.load_digests()
    digests["cli"] = "0" * 64
    report = run_smallest("corpus", digests=digests, render=True)
    assert report["failed"] == 1 and report["attempted"] == 2
    assert "cli render digest" in report["failures"][0]


def test_command_prints_result_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stmt-scale",
                           "--seed", "3", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    shutil.copy(bench.DIGESTS, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
