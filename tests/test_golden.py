"""Golden outputs: `qnoise run --json` on every example and every runnable
valid corpus netlist must reproduce the recorded files.

`spectra.csv` and `budget.csv` must match byte for byte.  `budget.json`
carries full-precision floats, so its values are compared at rtol 1e-12:
reordering a complex division may move the last ulp.
"""

import json
import math
from pathlib import Path

import pytest

from qnoise.cli import main

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(GOLDEN.glob("*/*"))
SOURCES = {"docs": ROOT / "docs", "valid": Path(__file__).parent / "data"
           / "valid"}


def test_golden_corpus_is_populated():
    assert len(CASES) == 23


def _close(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


@pytest.mark.parametrize("case", CASES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_outputs_match_golden(case, tmp_path):
    netlist = SOURCES[case.parent.name] / f"{case.name}.qn"
    code = main(["run", str(netlist), "--out", str(tmp_path), "--json"])
    assert code == 0
    for name in ("spectra.csv", "budget.csv"):
        assert (tmp_path / name).read_bytes() == (case / name).read_bytes(), \
            name
    got = json.loads((tmp_path / "budget.json").read_text())
    want = json.loads((case / "budget.json").read_text())
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        assert rec.keys() == ref.keys()
        for key in ref:
            assert _close(rec[key], ref[key]), (ref["estimator"],
                                                ref["source"], key)
