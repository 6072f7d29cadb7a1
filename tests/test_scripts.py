"""The scripts run to completion: the walkthroughs print the paper's numbers, the digests are stable."""

import re
import runpy
import sys
from pathlib import Path

import pytest

import sralloc as sa

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, capsys) -> str:
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert stop.value.code == 0
    return capsys.readouterr().out


def test_worked_example_script(capsys):
    out = run_script("worked_example.py", capsys)
    for cycles in ("1799", "1559", "1184", "1800", "1560", "1200"):
        assert re.search(rf"\b{cycles}\b", out)
    assert re.search(r"cut \{d\}: .*incremental 29\n", out)
    assert re.search(r"cut \{a, b\}: .*incremental 628\n", out)


def test_allocation_table_script(capsys):
    out = run_script("allocation_table.py", capsys)
    assert "  fir: 1, 52, 51\n" in out
    for name, note in sa.CORPUS_NOTES.items():
        assert f"{name}: {note}" in out


def test_output_digest_script(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "3"])
    first = run_script("output_digest.py", capsys)
    assert re.fullmatch(r"\d+ records [0-9a-f]{64}\n", first)
    assert run_script("output_digest.py", capsys) == first


def test_output_digest_pinned(capsys, monkeypatch):
    # every analytic output on the corpus plus 20 random kernels; a change to
    # any of them changes this line, so a refactor must leave it as it is
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "20"])
    assert run_script("output_digest.py", capsys) == \
        "2457 records 4a980f80791c321597c8096509bd0be505b0392692f0b0466bbd6831a1fd4323\n"


def test_oracle_digest_pinned(capsys, monkeypatch):
    # every oracle output on the corpus plus 20 shallow and 20 depth-4 random
    # kernels: analysis, alpha at every level and each replay's cycles and hit
    # columns
    monkeypatch.setattr(sys, "argv", ["oracle_digest.py", "20"])
    assert run_script("oracle_digest.py", capsys) == \
        "1858 records 45b31ebedc233c10632ba8e6653852c6368c88dc0c50e1d01ed1871f37af65e0\n"
