"""The sweep streamed in windows of frequencies: a run's memory does not
grow with the sweep length, windows change no output cell, and output
files appear whole or not at all."""

import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from qnoise import sweep
from qnoise.cli import main
from qnoise.netlist import parse_netlist

ROOT = Path(__file__).parents[1]
REJECTED = ROOT / "tests" / "data" / "rejected"
sys.path.insert(0, str(ROOT / "bench"))
# the bench workload recipes
from workloads import ladder_text, muscope_text, opamp_text  # noqa: E402

#: 3 spectra.csv columns, so 2,000 points make several pieces of text
LONG_LINE = """line r1 R=50 T=1
sweep 1 1M 2000 log
measure r1 as v signal=r1
"""


def peak_bytes(n_points, tmp_path):
    """tracemalloc peak of `sweep.run` on the 10-line bench ladder."""
    doc = parse_netlist(ladder_text(0, 10, n_points))
    tracemalloc.start()
    try:
        sweep.run(doc, str(tmp_path / f"out{n_points}"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_sweep(tmp_path):
    sweep.run(parse_netlist(ladder_text(0, 10, 20)), str(tmp_path / "warm"))
    short, long = peak_bytes(500, tmp_path), peak_bytes(20000, tmp_path)
    assert long - short < 1e6, (short, long)


@pytest.mark.parametrize("entries", [1, 600, 4096])
def test_windows_change_no_cell(entries, tmp_path, monkeypatch):
    # one window for the whole sweep, then smaller ones: on the ladder of 2
    # or 30 points (the last of 1) or of 200 and 101 points; on the op-amp
    # readout (6 columns) and the muscope (7) of 2 points, or of 100 and 85
    # points (4096 entries leave them one window)
    for name, text in (("ladder", ladder_text(1, 10, 301)),
                       ("opamp", opamp_text(1, 301)),
                       ("muscope", muscope_text(1, 301))):
        netlist = tmp_path / f"{name}.qn"
        netlist.write_text(text)
        one, many = tmp_path / f"{name}_one", tmp_path / f"{name}_many"
        with monkeypatch.context() as patch:
            assert main(["run", str(netlist), "--out", str(one),
                         "--json"]) == 0
            patch.setattr(sweep, "BLOCK_ENTRIES", entries)
            assert main(["run", str(netlist), "--out", str(many),
                         "--json"]) == 0
        assert (many / "spectra.csv").read_bytes() == \
            (one / "spectra.csv").read_bytes(), name
        want = json.loads((one / "budget.json").read_text())
        got = json.loads((many / "budget.json").read_text())
        assert [(r["estimator"], r["source"], r.get("dominant"))
                for r in got] == \
            [(r["estimator"], r["source"], r.get("dominant")) for r in want]
        for rec, ref in zip(got, want):
            for key in ("band_integrated", "fraction_of_total"):
                if key in ref:
                    assert math.isclose(rec[key], ref[key],
                                        rel_tol=1e-12), (name, ref)


def test_late_model_error_leaves_no_directory(tmp_path, monkeypatch, capsys):
    # the ladder overflows at 8.4e7 Hz, in its last window, after the
    # earlier windows' rows went to the temporary
    pieces = []
    rows = sweep._csv_rows
    monkeypatch.setattr(sweep, "_csv_rows",
                        lambda chunk: pieces.append(chunk) or rows(chunk))
    code = main(["run", str(REJECTED / "ladder_64_overflow.qn"),
                 "--out", str(tmp_path / "made" / "out")])
    assert code == 2
    assert "estimator m0: source l0" in capsys.readouterr().err
    assert pieces
    assert list(tmp_path.iterdir()) == []


def test_model_error_keeps_the_outputs_there(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "spectra.csv").write_bytes(b"earlier spectra\n")
    (out / "budget.csv").write_bytes(b"earlier budget\n")
    code = main(["run", str(REJECTED / "ladder_64_overflow.qn"),
                 "--out", str(out)])
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["budget.csv",
                                                      "spectra.csv"]
    assert (out / "spectra.csv").read_bytes() == b"earlier spectra\n"
    assert (out / "budget.csv").read_bytes() == b"earlier budget\n"


def test_error_while_writing_removes_the_temporaries(tmp_path, monkeypatch):
    netlist = tmp_path / "net.qn"
    netlist.write_text(LONG_LINE)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "spectra.csv").write_bytes(b"earlier spectra\n")
    rows = sweep._csv_rows
    for out in (tmp_path / "new", kept):
        calls = []

        def third_fails(chunk):
            calls.append(chunk)
            if len(calls) == 3:
                raise RuntimeError("third piece")
            return rows(chunk)
        monkeypatch.setattr(sweep, "_csv_rows", third_fails)
        with pytest.raises(RuntimeError, match="third piece"):
            main(["run", str(netlist), "--out", str(out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "net.qn"]
    assert [p.name for p in kept.iterdir()] == ["spectra.csv"]
    assert (kept / "spectra.csv").read_bytes() == b"earlier spectra\n"


def test_run_leaves_only_its_outputs(tmp_path):
    netlist = tmp_path / "net.qn"
    netlist.write_text(LONG_LINE)
    for flags in ([], ["--json"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["run", str(netlist), "--out", str(out), *flags]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["spectra.csv", "budget.csv"] + ["budget.json"] * len(flags))


def test_output_path_taken_by_a_directory(tmp_path, capsys):
    netlist = tmp_path / "net.qn"
    netlist.write_text(LONG_LINE)
    out = tmp_path / "out"
    (out / "spectra.csv").mkdir(parents=True)
    assert main(["run", str(netlist), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"qnoise: cannot write {out / 'spectra.csv'}: ")
    assert [p.name for p in out.iterdir()] == ["spectra.csv"]


def test_no_output_renamed_while_another_name_is_a_directory(tmp_path,
                                                             capsys):
    netlist = tmp_path / "net.qn"
    netlist.write_text(LONG_LINE)
    out = tmp_path / "out"
    (out / "budget.csv").mkdir(parents=True)
    (out / "spectra.csv").write_bytes(b"earlier spectra\n")
    assert main(["run", str(netlist), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"qnoise: cannot write {out / 'budget.csv'}: ")
    assert sorted(p.name for p in out.iterdir()) == ["budget.csv",
                                                      "spectra.csv"]
    assert (out / "spectra.csv").read_bytes() == b"earlier spectra\n"
