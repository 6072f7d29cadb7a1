import json

import pytest

import sralloc as sa
from sralloc import cli, dfg
from sralloc.cli import main
from sralloc.reuse import MAX_ADDRESS_BITS


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_example_table(capsys):
    code, out, _ = run(capsys, "analyze", "example")
    assert code == 0
    for token in ("1999", "2999", "1900", "600", "kernel: example"):
        assert token in out


def test_analyze_fir_json(capsys):
    code, out, _ = run(capsys, "analyze", "fir", "--format", "json")
    assert code == 0
    data = json.loads(out)
    arrays = data["arrays"]
    assert [arrays[a]["required_regs"] for a in ("out", "coeff", "in")] == [1, 52, 51]


def test_analyze_missing_file(tmp_path, capsys):
    for path in ("missing.knl", str(tmp_path)):  # absent, or a directory
        code, _, err = run(capsys, "analyze", path)
        assert code == 2
        assert err.startswith("error: ") and path in err


def test_analyze_kernel_file(tmp_path, capsys):
    path = tmp_path / "tiny.knl"
    path.write_text("loop i = 0..4 { S: y[i] = x[i]; }\n")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "tiny" in out


def test_analyze_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.knl"
    path.write_text("loop i = 0..4 { S: y[i] = x[i*i]; }\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "non-affine" in err


def test_allocate_all(capsys):
    code, out, _ = run(capsys, "allocate", "example", "--alg", "all", "--nr", "64")
    assert code == 0
    assert "1, 30, 1, 1, 20" in out      # fr-ra in source order d,a,b,e,c
    assert "12, 30, 1, 1, 20" in out     # pr-ra
    assert "30, 16, 16, 1, 1" in out     # cpa-ra


def test_allocate_fir_pr(capsys):
    code, out, _ = run(capsys, "allocate", "fir", "--alg", "pr")
    assert code == 0
    assert "1, 52, 11" in out


def test_allocate_infeasible_budget(capsys):
    code, _, err = run(capsys, "allocate", "example", "--nr", "3")
    assert code == 1
    assert "budget" in err


def test_compare_example_element(capsys):
    code, out, _ = run(capsys, "compare", "example")
    assert code == 0
    for cycles in ("1799", "1559", "1184"):
        assert cycles in out


def test_compare_example_staging(capsys):
    code, out, _ = run(capsys, "compare", "example", "--policy", "staging-only")
    assert code == 0
    for cycles in ("1800", "1560", "1200"):
        assert cycles in out


def test_compare_json_round_trip(capsys):
    code, out, _ = run(capsys, "compare", "example", "--format", "json")
    assert code == 0
    data = json.loads(out)
    again = json.dumps(data, indent=2, sort_keys=True)
    assert again == out.rstrip("\n")
    cycles = [v["memory_cycles"] for v in data["kernels"][0]["versions"]]
    assert cycles == [1799, 1559, 1184]
    reductions = [v["reduction_vs_v1"] for v in data["kernels"][0]["versions"]]
    assert reductions[0] == 0.0
    assert reductions[2] == round((1799 - 1184) / 1799, 4)


def test_simulate_json(capsys):
    code, out, _ = run(capsys, "simulate", "example", "--alg", "cpa", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["memory_cycles"] == 1184
    assert data["reports"][0]["beta"]["d"] == 30


def test_compare_csv_columns(capsys):
    code, out, _ = run(capsys, "compare", "fir", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kernel,version,algorithm,beta,used,memory_cycles,reduction_vs_v1"
    assert lines[1].startswith("fir,v1,fr-ra,1;52;1,54,")


def test_verify_example(capsys):
    code, out, _ = run(capsys, "verify", "example")
    assert code == 0
    assert "checks agree" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "example", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["agreed"] == data["total"] == len(data["checks"]) > 0
    assert data["policy"] == "element-level"
    carrier_e = [c for c in data["checks"] if c["subject"] == "e" and c["field"] == "carrier"]
    assert carrier_e == [{"kernel": "example", "subject": "e", "field": "carrier",
                          "analytic": None, "oracle": None}]


def test_verify_csv_and_dump_dot(tmp_path, capsys):
    prefix = str(tmp_path / "graphs")
    code, out, _ = run(capsys, "verify", "mat", "--format", "csv", "--dump-dot", prefix)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kernel,subject,field,analytic,oracle"
    assert "mat,c,carrier,2,2" in lines
    assert len(lines) == 1 + 3 * 5 + 3  # five fields per array, cycles per allocator
    assert (tmp_path / "graphs.dfg.dot").read_text().startswith("digraph")
    assert (tmp_path / "graphs.cg.dot").read_text().startswith("digraph")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_verify_disagreement_exit(fmt, capsys, monkeypatch):
    monkeypatch.setattr(cli, "oracle_replay", lambda *args: (-1,))
    code, out, _ = run(capsys, "verify", "mat", "--format", fmt)
    assert code == 1
    assert "-1" in out


def test_compare_classic_rows_need_the_bundled_kernel(tmp_path, capsys):
    other = tmp_path / "other" / "fir.knl"
    other.parent.mkdir()
    other.write_text("loop i = 0..8 { loop j = 0..4 { S1: out[i] += coeff[j] * in[i + j]; } }\n")
    code, out, _ = run(capsys, "compare", str(other))
    assert code == 0 and "kernel: fir" in out and "ref" not in out
    _, out, _ = run(capsys, "compare", str(other), "--format", "json")
    assert not any("reference_beta" in v for v in json.loads(out)["kernels"][0]["versions"])

    same = tmp_path / "fir.knl"
    same.write_text(sa.kernel_source("fir"))
    _, out, _ = run(capsys, "compare", str(same), "--format", "json")
    versions = json.loads(out)["kernels"][0]["versions"]
    assert [v["matches_reference"] for v in versions] == [True, True, False]


def test_verify_cap_exit(capsys):
    code, _, err = run(capsys, "verify", "example", "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_analyze_long_loop_counts_exactly(tmp_path, capsys):
    path = tmp_path / "long.knl"
    path.write_text("loop i = 0..100000000 { S1: x[i] = a[i]; }\n")
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    arrays = json.loads(out)["arrays"]
    assert arrays["a"]["after"] == arrays["x"]["after"] == 100000000


@pytest.mark.parametrize("trip", [MAX_ADDRESS_BITS + 1, 1000000000])
def test_analyze_address_range_ceiling_exit(trip, tmp_path, capsys):
    path = tmp_path / "huge.knl"
    path.write_text(f"loop i = 0..{trip} {{ S1: x[i] = a[i]; }}\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert f"address range of {trip} elements" in err
    assert f"bitset ceiling of {MAX_ADDRESS_BITS}" in err


def test_allocate_cut_search_ceiling_exit(tmp_path, capsys, monkeypatch):
    # the ladder S_k: y_k[i] = a_k[i + j] + a_k+1[i + j] is one critical-graph
    # component of 16 y's, 17 a's and 16 adds; its search pops 41 nodes
    body = "".join(f"S{k}: y{k}[i] = a{k}[i + j] + a{k + 1}[i + j]; " for k in range(16))
    path = tmp_path / "ladder.knl"
    path.write_text("loop j = 0..4 { loop i = 0..4 { " + body + "} }\n")
    assert run(capsys, "allocate", str(path), "--alg", "cpa")[0] == 0
    monkeypatch.setattr(dfg, "MAX_CUT_NODES", 5)
    code, out, err = run(capsys, "allocate", str(path), "--alg", "cpa")
    assert (code, out) == (3, "")
    assert err == ("error: cut search over a critical-graph component of 64 nodes and "
                   "33 candidate arrays passed 5 search nodes\n")


def _simulate_t_exec(tmp_path, capsys, body: list[str]) -> int:
    path = tmp_path / "long.knl"
    path.write_text("loop i = 0..8 {\n" + "\n".join(body) + "\n}\n")
    code, out, _ = run(capsys, "simulate", str(path), "--alg", "fr", "--nr", "100000",
                       "--format", "json")
    assert code == 0
    return json.loads(out)["reports"][0]["t_exec_per_iter"]


def test_simulate_many_tied_critical_paths(tmp_path, capsys):
    # 30 equal-length diamonds after a two-load head: 2^31 critical paths
    body = ["  S0: x0[i] = a[i] + b[i];"]
    for k in range(30):
        body += [f"  U{k}: u{k}[i] = x{k}[i] + c{k}[i];",
                 f"  V{k}: v{k}[i] = x{k}[i] + d{k}[i];",
                 f"  X{k}: x{k + 1}[i] = u{k}[i] * v{k}[i];"]
    assert _simulate_t_exec(tmp_path, capsys, body) == 3 + 4 * 30


def test_simulate_long_forwarding_chain(tmp_path, capsys):
    # every statement reads the store of the one before it
    body = [f"  S{k}: x{k}[i] = x{k - 1}[i] + a[i];" for k in range(1, 1501)]
    assert _simulate_t_exec(tmp_path, capsys, body) == 3 + 2 * 1499


def test_allocate_cpa_long_forwarding_chain(tmp_path, capsys):
    # one component holding every array: the cut search may not recurse per array
    body = [f"  S{k}: x{k}[i] = x{k - 1}[i] + a[i];" for k in range(1, 501)]
    path = tmp_path / "chain.knl"
    path.write_text("loop j = 0..3 {\n loop i = 0..4 {\n" + "\n".join(body) + "\n }\n}\n")
    code, out, _ = run(capsys, "allocate", str(path), "--alg", "cpa", "--nr", "700",
                       "--format", "json")
    assert code == 0
    alloc = json.loads(out)["allocations"][0]
    # every x_k alone breaks the chain, so the first round fills x1, first by name
    assert (alloc["used"], alloc["beta"]["x1"]) == (700, 4)


def test_dump_dot(tmp_path, capsys):
    prefix = str(tmp_path / "graphs")
    code, _, _ = run(capsys, "allocate", "example", "--alg", "cpa",
                     "--dump-dot", prefix)
    assert code == 0
    dfg = (tmp_path / "graphs.dfg.dot").read_text()
    cg = (tmp_path / "graphs.cg.dot").read_text()
    assert dfg.startswith("digraph")
    assert '"c' in dfg and '"c' not in cg  # c is off the critical graph


def test_config_env_var(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": "staging-only"}))
    monkeypatch.setenv("SRALLOC_CONFIG", str(cfg))
    code, out, _ = run(capsys, "compare", "example")
    assert code == 0
    assert "1800" in out


@pytest.mark.parametrize("settings", [
    {"register_budget": 64.5},
    {"ports": "2"},
    {"iteration_cap": True},
    {"latencies": {"multiply": "x"}},
    {"latencies": [1]},
    [64],
])
def test_config_rejects_malformed_values(tmp_path, capsys, monkeypatch, settings):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    monkeypatch.setenv("SRALLOC_CONFIG", str(cfg))
    code, out, err = run(capsys, "allocate", "example")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "must" in err


def test_bad_policy_flag(capsys):
    with pytest.raises(SystemExit):
        main(["compare", "example", "--policy", "nonsense"])
