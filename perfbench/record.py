"""Re-record ``digests.json`` after checking every output against the oracle.

    python3 perfbench/record.py

For each kernel of the corpus, trip-scale and stmt-scale workloads, the
pipeline records (reuse fields, ``Allocation.as_dict()``, both policies'
``CycleReport.as_dict()``) must agree with the brute-force oracle and with
the hand-derived references before their digest is written.  The two
largest trip-scale kernels would need about 0.5 and 1 GB of oracle traces;
they are checked against the closed-form ``fir_reference`` only.  The
golden CLI render (``analyze`` and ``compare --format json``, both
policies) must agree with the corpus records.  Run it only when a change
is meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: iteration points times references above which the oracle is not run
ORACLE_LIMIT = 1_000_000


def oracle_problems(k, rec: dict) -> list[str]:
    from sralloc import allocate, config, oracle

    problems = []
    expected = oracle.oracle_analysis(k, config.DEFAULT_CAP)
    for array, got in rec["reuse"].items():
        for fld in ("carrier", "required_regs", "total", "after", "save"):
            if expected[array][fld] != got[fld]:
                problems.append(f"{k.name}/{array}/{fld}: {got[fld]} != oracle "
                                f"{expected[array][fld]}")
    for policy, reports in rec["reports"].items():
        for alloc_rec, report in zip(rec["allocations"], reports):
            alloc = allocate.Allocation(alloc_rec["algorithm"], alloc_rec["budget"],
                                        dict(alloc_rec["beta"]))
            cycles = oracle.oracle_replay(k, alloc, policy, 1, config.DEFAULT_CAP)[0]
            if cycles != report["memory_cycles"]:
                problems.append(f"{k.name}/{alloc.algorithm}/{policy}: "
                                f"{report['memory_cycles']} != oracle {cycles}")
    return problems


def render_problems(text: str, records: dict) -> list[str]:
    """The CLI JSON must say what the corpus records say."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    problems = []
    for doc in docs:
        if "arrays" in doc and isinstance(doc["arrays"], dict):  # analyze
            rec = records[doc["kernel"]]
            for array, fields in doc["arrays"].items():
                mine = rec["reuse"][array]
                for fld in ("carrier", "required_regs", "total", "after", "save"):
                    if fields[fld] != mine[fld]:
                        problems.append(f"analyze {doc['kernel']}/{array}/{fld}")
            continue
        for entry in doc["kernels"]:  # compare
            rec = records[entry["kernel"]]
            for version, report in zip(entry["versions"], rec["reports"][doc["policy"]]):
                if version["memory_cycles"] != report["memory_cycles"]:
                    problems.append(f"compare {entry['kernel']}/{version['algorithm']}"
                                    f"/{doc['policy']}")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    digests = {"workloads": {}, "cli": None}
    problems: list[str] = []
    corpus_records = {}
    for workload in ("corpus", "trip-scale", "stmt-scale"):
        table = digests["workloads"][workload] = {}
        for m in bench.members(workload, seed=0):
            k = m.parse()
            rec = bench.pipeline(k)
            found = bench.reference_problems(m.name, rec)
            if m.size <= ORACLE_LIMIT:
                found += oracle_problems(k, rec)
                how = "oracle"
            else:
                how = "closed form only"
            bench.clear_caches()
            problems += found
            table[m.name] = bench.digest(rec)
            if workload == "corpus":
                corpus_records[m.name] = rec
            print(f"{workload:<11} {m.name:<10} {how:<17} "
                  f"{'ok' if not found else 'MISMATCH'}")
    text = bench.render_corpus()
    problems += render_problems(text, corpus_records)
    digests["cli"] = hashlib.sha256(text.encode()).hexdigest()
    if problems:
        for p in problems:
            print(f"MISMATCH {p}")
        print("digests not written")
        return 1
    with open(bench.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {bench.DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
