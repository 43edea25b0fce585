import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnoise.accelerometer import MUSCOPE, sensitivity_report
from qnoise.cli import main, run
from qnoise.constants import HBAR, K_B
from qnoise.errors import QNoiseError
from qnoise.netlist import LineDecl, NetlistDocument, PresetDecl, SweepDecl, \
    parse_netlist
from qnoise.sweep import preset_config, sweep_grid

ROOT = Path(__file__).parents[1]
DOCS = ROOT / "docs"
MALFORMED = ROOT / "tests" / "data" / "malformed"

VACUUM_NETLIST = """line r1 R=50 T=0
sweep 1k 1M 5 log
measure r1 as v signal=r1
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSweepGrid:
    def test_log_grid(self):
        grid = sweep_grid(SweepDecl(1.0, 100.0, 3, "log"))
        assert list(grid) == pytest.approx([1.0, 10.0, 100.0])

    def test_lin_grid(self):
        grid = sweep_grid(SweepDecl(1.0, 3.0, 3, "lin"))
        assert list(grid) == pytest.approx([1.0, 2.0, 3.0])

    def test_single_point(self):
        grid = sweep_grid(SweepDecl(5.0, 500.0, 1, "log"))
        assert list(grid) == [5.0]


class TestPresetConfig:
    def test_no_overrides_is_reference(self):
        assert preset_config(PresetDecl("muscope")) == MUSCOPE

    def test_frequency_keys_convert_to_angular(self):
        config = preset_config(
            PresetDecl("muscope", (("measure_freq_hz", 2e-3),
                                   ("carrier_freq_hz", 2e5))))
        assert config.measure_omega == pytest.approx(2 * math.pi * 2e-3)
        assert config.carrier_omega == pytest.approx(2 * math.pi * 2e5)

    def test_cli_overrides_win(self):
        config = preset_config(PresetDecl("muscope", (("mass", 0.5),)),
                               extra={"mass": 1.0})
        assert config.mass == 1.0


class TestRun:
    def test_vacuum_line_energy_psd(self, tmp_path):
        # a lone line at T=0 reads its own vacuum: hbar*omega*0.5 per row
        doc = parse_netlist(VACUUM_NETLIST)
        paths = run(doc, str(tmp_path))
        header, rows = read_csv(Path(paths["spectra"]))
        assert header == ["frequency_Hz", "v_total", "v_r1"]
        for cells in rows:
            f_hz = float(cells[0])
            expected = HBAR * 2 * math.pi * f_hz * 0.5
            assert float(cells[1]) == pytest.approx(expected, rel=1e-9)
            assert float(cells[2]) == pytest.approx(expected, rel=1e-9)

    def test_hot_line_at_low_frequency(self, tmp_path):
        # k_B T = 1.4e277 J is finite although sigma = k_B T / hbar|w|
        # overflows: the line's energy PSD is k_B T over the whole band
        doc = parse_netlist("line a R=50 T=1e300\nsweep 1e-10 1e-9 3 log\n"
                            "measure a as m signal=a\n")
        paths = run(doc, str(tmp_path), json_mirror=True)
        records = json.loads(Path(paths["json"]).read_text())
        band = {r["source"]: r["band_integrated"] for r in records}
        for source in ("a", "TOTAL"):
            assert band[source] == pytest.approx(
                K_B * 1e300 * (1e-9 - 1e-10), rel=1e-12)

    def test_output_is_byte_stable(self, tmp_path):
        doc = parse_netlist((DOCS / "thermal_leak.qn").read_text())
        first = run(doc, str(tmp_path / "a"))
        second = run(doc, str(tmp_path / "b"))
        for key in ("spectra", "budget"):
            assert Path(first[key]).read_bytes() == \
                Path(second[key]).read_bytes()

    def test_muscope_budget_matches_library_report(self, tmp_path):
        doc = parse_netlist((DOCS / "muscope.qn").read_text())
        paths = run(doc, str(tmp_path))
        rows = {tuple(line.split(",")[:2]): line.split(",")[2]
                for line in Path(paths["budget"]).read_text().splitlines()[1:]}
        report = sensitivity_report(MUSCOPE)
        asd = float(rows[("acc", "acceleration_asd")])
        sff = float(rows[("acc", "sigma_FF_at_measure_freq")])
        assert asd == pytest.approx(report.acceleration_asd, rel=1e-9)
        assert sff == pytest.approx(report.sigma_ff, rel=1e-9)
        assert asd == pytest.approx(1.2e-12, rel=0.05)

    @pytest.mark.parametrize("netlist", [
        (DOCS / "muscope.qn").read_text(),
        "preset muscope\nsweep 1e-4 1e-3 3 log\n"
        "measure muscope as f1 signal=force\n"
        "measure muscope as f2 signal=force\n",
    ], ids=["docs", "two_measures"])
    def test_muscope_builds_its_model_once(self, netlist, tmp_path,
                                           monkeypatch):
        # the report rows come from the model that was swept, not a rebuild,
        # and every muscope measure shares it; qnoise.sweep imports
        # build_accelerometer from its module per run
        import qnoise.accelerometer
        build = qnoise.accelerometer.build_accelerometer
        calls = []

        def counted(config):
            calls.append(config)
            return build(config)
        monkeypatch.setattr(qnoise.accelerometer, "build_accelerometer",
                            counted)
        run(parse_netlist(netlist), str(tmp_path))
        assert len(calls) == 1

    def test_opamp_read_on_both_lines_is_solved_once(self, tmp_path,
                                                     monkeypatch):
        # one window of 301 points: the op-amp's component solves it once
        # and gives the rows of both of its lines
        import qnoise.amplifier
        solve = qnoise.amplifier.opamp_scattering
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)
        monkeypatch.setattr("qnoise.amplifier.opamp_scattering", counted)
        paths = run(parse_netlist(
            "line sig R=50 T=1\nline det R=50 T=0\n"
            "opamp u1 left=sig right=det Zf=cap:1n R_a=50 Theta_a=2\n"
            "sweep 1k 1M 301 log\nmeasure det as od signal=sig\n"
            "measure sig as os signal=sig\n"), str(tmp_path))
        header, rows = read_csv(Path(paths["spectra"]))
        assert len(calls) == 1
        assert len(rows) == 301 and header[1::5] == ["od_total", "os_total"]

    def test_budget_fractions_sum_to_one(self, tmp_path):
        doc = parse_netlist((DOCS / "opamp_readout.qn").read_text())
        paths = run(doc, str(tmp_path))
        frac = 0.0
        for line in Path(paths["budget"]).read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] not in ("TOTAL",):
                frac += float(cells[3])
        assert frac == pytest.approx(1.0, rel=1e-6)

    def test_json_mirror_matches_csv(self, tmp_path):
        doc = parse_netlist((DOCS / "thermal_leak.qn").read_text())
        paths = run(doc, str(tmp_path), json_mirror=True)
        records = json.loads(Path(paths["json"]).read_text())
        csv_rows = Path(paths["budget"]).read_text().splitlines()[1:]
        assert len(records) == len(csv_rows)
        by_key = {(r["estimator"], r["source"]): r for r in records}
        for line in csv_rows:
            cells = line.split(",")
            rec = by_key[(cells[0], cells[1])]
            assert rec["band_integrated"] == \
                pytest.approx(float(cells[2]), rel=1e-8)

    def test_set_overrides_change_result(self, tmp_path):
        doc = parse_netlist("preset muscope\n")
        base = run(doc, str(tmp_path / "base"))
        heavy = run(doc, str(tmp_path / "heavy"), overrides={"mass": 0.54})
        def asd(paths):
            for line in Path(paths["budget"]).read_text().splitlines():
                cells = line.split(",")
                if cells[1] == "acceleration_asd":
                    return float(cells[2])
        assert asd(heavy) < 0.6 * asd(base)

    def test_gain_on_opamp_measure_line(self, tmp_path):
        # the gain stage adds its own noise column and leaves the
        # signal-normalized terms of the op-amp lines as they were
        text = (DOCS / "opamp_readout.qn").read_text()
        base = run(parse_netlist(text), str(tmp_path / "base"))
        gained = run(parse_netlist(text + "gain g1 in=det G=10 T_b=5\n"),
                     str(tmp_path / "gained"))
        base_header, base_rows = read_csv(Path(base["spectra"]))
        header, rows = read_csv(Path(gained["spectra"]))
        assert header == base_header + ["readout_g1_b"]
        assert all(float(r[-1]) > 0.0 for r in rows)
        for k, name in enumerate(base_header):
            if name != "readout_total":
                assert [float(r[k]) for r in rows] == pytest.approx(
                    [float(r[k]) for r in base_rows], rel=1e-8), name

    @pytest.mark.parametrize("decls", [
        (SweepDecl(1.0, 10.0, 3, "log"),),
        (LineDecl("a", 50.0, 1.0), SweepDecl(1.0, 10.0, 3, "log")),
    ], ids=["sweep_only", "line_and_sweep"])
    def test_library_document_without_a_measure(self, decls, tmp_path):
        # the parser never builds one; a library caller gets the parser's
        # message, before any directory is made
        out = tmp_path / "out" / "nested"
        with pytest.raises(QNoiseError) as info:
            run(NetlistDocument(decls), str(out))
        assert str(info.value) == "missing measure declaration"
        assert list(tmp_path.iterdir()) == []

    def test_preset_without_sweep_uses_default_band(self, tmp_path):
        doc = parse_netlist("preset muscope\n")
        paths = run(doc, str(tmp_path))
        header, rows = read_csv(Path(paths["spectra"]))
        assert len(rows) == 1000
        assert float(rows[0][0]) == pytest.approx(1e-4)
        assert float(rows[-1][0]) == pytest.approx(1e-3)


class TestMain:
    def test_success_exit_zero(self, tmp_path, capsys):
        netlist = tmp_path / "net.qn"
        netlist.write_text(VACUUM_NETLIST)
        code = main(["run", str(netlist), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "spectra.csv" in out and "budget.csv" in out

    def test_parse_error_exit_one(self, tmp_path, capsys):
        netlist = tmp_path / "bad.qn"
        netlist.write_text("line r1 R=-3 T=0\n")
        code = main(["run", str(netlist), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "1:9" in err

    def test_invalid_utf8_exit_one(self, tmp_path, capsys):
        netlist = tmp_path / "bad.qn"
        netlist.write_bytes(b"# \xc3\xa9\nline a R=50 T=1\xff\n")
        code = main(["run", str(netlist), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"qnoise: {netlist}: not UTF-8 at byte offset 20 "
                       "(invalid start byte)"]
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        netlist = tmp_path / "bom.qn"
        netlist.write_bytes(b"\xef\xbb\xbf" +
                            (DOCS / "thermal_leak.qn").read_bytes())
        for source, out in ((DOCS / "thermal_leak.qn", "plain"),
                            (netlist, "bom")):
            assert main(["run", str(source), "--out",
                         str(tmp_path / out)]) == 0
        for name in ("spectra.csv", "budget.csv"):
            assert (tmp_path / "bom" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()

    def test_bad_byte_after_a_byte_order_mark(self, tmp_path, capsys):
        # the offset counts the mark's three bytes, as a hex dump shows it
        netlist = tmp_path / "bad.qn"
        netlist.write_bytes(b"\xef\xbb\xbfline a R=50 T=1\xff\n")
        assert main(["run", str(netlist), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"qnoise: {netlist}: not UTF-8 at byte offset 18 "
            "(invalid start byte)\n")

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "absent.qn"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_bad_set_key_exit_two(self, tmp_path, capsys):
        netlist = tmp_path / "net.qn"
        netlist.write_text("preset muscope\n")
        code = main(["run", str(netlist), "--out", str(tmp_path),
                     "--set", "bogus=1"])
        assert code == 2

    def test_duplicate_set_key_exit_two(self, tmp_path, capsys):
        netlist = tmp_path / "net.qn"
        netlist.write_text("preset muscope\n")
        code = main(["run", str(netlist), "--out", str(tmp_path / "out"),
                     "--set", "mass=1", "--set", "loop_gain=10",
                     "--set", "mass=2"])
        assert code == 2
        assert capsys.readouterr().err == \
            "qnoise: duplicate --set key 'mass'\n"
        assert not (tmp_path / "out").exists()

    def test_set_without_preset_exit_two(self, tmp_path, capsys):
        netlist = tmp_path / "net.qn"
        netlist.write_text(VACUUM_NETLIST)
        code = main(["run", str(netlist), "--out", str(tmp_path),
                     "--set", "mass=1"])
        assert code == 2

    def test_set_accepts_si_suffix(self, tmp_path):
        netlist = tmp_path / "net.qn"
        netlist.write_text("preset muscope\n")
        code = main(["run", str(netlist), "--out", str(tmp_path),
                     "--set", "amp_impedance=150k"])
        assert code == 0

    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file",
                                      "spectra_csv_is_dir"])
    def test_unwritable_output_exit_two(self, case, tmp_path, capsys):
        netlist = tmp_path / "net.qn"
        netlist.write_text(VACUUM_NETLIST)
        (tmp_path / "out" / "spectra.csv").mkdir(parents=True)
        out = {"out_is_file": netlist, "out_under_file": netlist / "out",
               "spectra_csv_is_dir": tmp_path / "out"}[case]
        code = main(["run", str(netlist), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("qnoise: cannot write ")

    def test_carrier_below_vacuum_floor_exit_two(self, tmp_path, capsys):
        code = main(["run", str(DOCS / "muscope.qn"), "--out", str(tmp_path),
                     "--set", "carrier_freq_hz=100e9"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["qnoise: amplifier noise occupation 0.313 is below "
                       "the 1/2 vacuum floor at the carrier 1e+11 Hz"]
        assert not (tmp_path / "spectra.csv").exists()

    # sizes numpy refuses before touching memory: never one a machine
    # could really try to allocate
    @pytest.mark.parametrize("n_points", ["1000000000000000000",
                                          "100000000000000000000"])
    def test_unallocatable_sweep_exit_two(self, n_points, tmp_path, capsys):
        netlist = tmp_path / "net.qn"
        netlist.write_text(f"line r1 R=50 T=1\nsweep 1 1k {n_points} log\n"
                           "measure r1 as v signal=r1\n")
        code = main(["run", str(netlist), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith(f"qnoise: sweep of {n_points} points "
                                 "cannot be allocated: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("example", sorted(DOCS.glob("*.qn")),
                             ids=lambda p: p.stem)
    def test_documentation_examples_run(self, example, tmp_path):
        code = main(["run", str(example), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "spectra.csv").exists()
        assert (tmp_path / "budget.csv").exists()


def fresh_python(code):
    """Run `code` in a new interpreter with the package on PYTHONPATH;
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after_run(args, modules):
    """Which of `modules` a fresh interpreter holds after `main(args)`."""
    return fresh_python(
        "import sys\n"
        "from qnoise.cli import main\n"
        f"code = main({args!r})\n"
        f"print(code, [m for m in {modules!r} if m in sys.modules])\n"
        ).splitlines()[-1]


class TestFrontLoadsNoNumpy:
    def test_import_and_parse(self):
        examples = [str(p) for p in sorted(DOCS.glob("*.qn"))]
        out = fresh_python(
            "import sys\n"
            "from qnoise.cli import parse_netlist\n"
            f"for path in {examples!r}:\n"
            "    parse_netlist(open(path).read())\n"
            "print('numpy' in sys.modules, 'dataclasses' in sys.modules)\n")
        assert out == "False False\n"

    def test_malformed_run_exits_one(self, tmp_path):
        malformed = sorted(MALFORMED.glob("*.qn"))[0]
        out = loaded_after_run(
            ["run", str(malformed), "--out", str(tmp_path / "out")],
            ["numpy", "dataclasses"])
        assert out == "1 []"
        assert not (tmp_path / "out").exists()

    def test_passive_run_loads_no_preset_opamp_or_json(self, tmp_path):
        out = loaded_after_run(
            ["run", str(DOCS / "thermal_leak.qn"), "--out", str(tmp_path)],
            ["numpy", "qnoise.accelerometer", "qnoise.amplifier", "json"])
        assert out == "0 ['numpy']"

    @pytest.mark.parametrize("netlist, flags, module", [
        ("opamp_readout.qn", [], "qnoise.amplifier"),
        ("muscope.qn", [], "qnoise.accelerometer"),
        ("thermal_leak.qn", ["--json"], "json"),
    ])
    def test_run_loads_what_its_netlist_uses(self, netlist, flags, module,
                                             tmp_path):
        out = loaded_after_run(
            ["run", str(DOCS / netlist), "--out", str(tmp_path)] + flags,
            [module])
        assert out == f"0 [{module!r}]"

    def test_driver_names_come_from_sweep(self):
        out = fresh_python(
            "import qnoise.sweep as sweep\n"
            "from qnoise.cli import main, run\n"
            "print(run is sweep.run, main.__module__)\n")
        assert out == "True qnoise.cli\n"
