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


#: fixtures whose netlist breaks a structural rule of the run
STRUCTURAL = ["passive_element_between_opamp_lines",
              "passive_element_on_opamp_line", "passive_signal_on_opamp_line",
              "signal_in_other_component", "opamp_signal_blocked",
              "gain_on_unmeasured_line", "opamp_line_cap_with_opamp_measure",
              "opamp_signal_named_like_noise_line",
              "passive_element_after_opamp", "opamp_unread",
              "passive_lines_unread"]


@pytest.mark.parametrize("name", STRUCTURAL)
def test_structure_checked_before_numerics(name, tmp_path, capsys,
                                           monkeypatch):
    # the passive solve and the op-amp assembly must never be reached
    def numerics(*args, **kwargs):
        raise AssertionError("numerics reached before the structural check")
    monkeypatch.setattr("qnoise.sweep.stamp_solver", numerics)
    monkeypatch.setattr("qnoise.amplifier.opamp_scattering", numerics)
    path = DATA / "rejected" / f"{name}.qn"
    message = re.match(r"# expect exit=2 (.+)\n", path.read_text()).group(1)
    code, err = run_cli(path, tmp_path, capsys)
    assert code == 2
    assert message in err


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


def test_carrier_times_feedback_capacitance_underflow(tmp_path, capsys):
    # the feedback reactance 1 / (w_c C_f) divides by a product that
    # underflows to 0 although each factor is a positive double
    netlist = tmp_path / "net.qn"
    netlist.write_text("preset muscope carrier_freq_hz=1e-280 "
                       "measure_freq_hz=1e-290 feedback_capacitance=1e-300\n")
    code, err = run_cli(netlist, tmp_path, capsys)
    assert code == 2
    assert err == ("qnoise: feedback_capacitance: carrier_omega * "
                   "feedback_capacitance underflows to 0")


def test_overflow_names_frequency_and_cause(tmp_path, capsys):
    code, err = run_cli(DATA / "rejected" / "ladder_64_overflow.qn",
                        tmp_path, capsys)
    assert code == 2
    assert err.endswith("source l0 has a non-finite noise budget (numeric "
                        "overflow) at 8.40665e+07 Hz, where its "
                        "signal-normalised coefficient |c/s|^2 overflows")
