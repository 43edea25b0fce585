"""Inputs `qnoise run` must reject: one `qnoise:` line on stderr, the
documented exit code and no output files.

Each fixture in tests/data/rejected/ starts with its expectation:
`# expect line=N col=M` for a parse error (exit 1 at that position) or
`# expect exit=2 <message>` for a model error found while running.
"""

import re
from pathlib import Path

import pytest

from qnoise.cli import main
from qnoise.netlist import NetlistParseError, parse_netlist

DATA = Path(__file__).parent / "data"
REJECTED = sorted((DATA / "rejected").glob("*.qn"))


def run_cli(path, tmp_path, capsys, *extra):
    out = tmp_path / "out"
    code = main(["run", str(path), "--out", str(out), *extra])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qnoise: "), err
    assert not out.exists()
    return code, err[0]


@pytest.mark.parametrize("path", REJECTED, ids=lambda p: p.stem)
def test_rejected_with_one_line(path, tmp_path, capsys):
    text = path.read_text()
    match = re.match(r"# expect (?:line=(\d+) col=(\d+)|exit=2 (.+))\n", text)
    code, err = run_cli(path, tmp_path, capsys)
    if match.group(3):
        assert code == 2
        assert match.group(3) in err
        parse_netlist(text)  # a model error, not a parse error
    else:
        assert code == 1
        line, col = int(match.group(1)), int(match.group(2))
        assert f":{line}:{col}: number out of range" in err
        with pytest.raises(NetlistParseError) as info:
            parse_netlist(text)
        assert (info.value.line, info.value.column) == (line, col)


def test_opamp_signal_outside_subnetwork(tmp_path, capsys):
    # parses (criterion 10 needs it to) but its op-amp measure names a
    # signal line outside the op-amp
    code, err = run_cli(DATA / "valid" / "opamp_with_source_network.qn",
                        tmp_path, capsys)
    assert code == 2
    assert "signal line 'src' is outside the subnetwork of line 'det'" in err


def test_non_finite_set_value(tmp_path, capsys):
    netlist = tmp_path / "net.qn"
    netlist.write_text("preset muscope\n")
    code, err = run_cli(netlist, tmp_path, capsys, "--set", "mass=1e999")
    assert code == 2
    assert "number out of range" in err
