"""CLI fuzz gate: every generated netlist ends in exit 0 with finite
outputs, or in one `qnoise:` line on stderr.

A seeded `random.Random` writes grammar-valid netlist text: 1-5 lines with
caps and inds between them or to `gnd`, an optional op-amp, real and
complex gains and lin or log sweeps; or the `muscope` preset with 0-4
distinct overrides, each one in the netlist or, for one in three, passed
as `--set key=value`.  Now and then a cap or ind reaches an op-amp line
(declared before the op-amp), and a line takes the name of a noise line
that the run adds (`u0_a`, `u0_a_conj`, `g0_b`, `g1_b`).  Values come
from the usual decades of each quantity or, for one value in eight, from
anywhere in 1e-300..1e300.  Each netlist goes through `qnoise.cli.main`
with RuntimeWarnings as errors (pyproject.toml), and the test asserts:
- no exception escapes;
- a non-zero exit prints exactly one `qnoise: ` line on stderr;
- exit 0 writes no `nan` or `inf` cell;
- exit 1 or 2 leaves no output directory.
tests/data/run_outcomes.txt holds each case's exit code and, for a
non-zero exit, its stderr line, one case a line, and the gate compares its
outcomes with it in the same pass, so every message is pinned.
`python tests/test_fuzz.py` rewrites the record.

A second stream, with its own seed, mixes measure kinds: it prepends
`preset muscope` to field netlists where the netlist and the preset on the
same sweep each run alone with exit 0, and the mixed run must write each
part's spectra.csv columns and budget.csv rows byte for byte, as a
hand-written passive, op-amp and muscope netlist must too.
"""

import io
import math
import random
import shutil
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qnoise.cli import main
from qnoise.netlist import PRESET_KEYS, parse_netlist

SEED = 20261
CASES = 1000
RECORD = Path(__file__).parent / "data" / "run_outcomes.txt"
#: seed and draws of the stream of mixed netlists
MIXED_SEED = 20262
MIXED_CASES = 120

#: usual decades (exponents of ten) of each kind of value
DECADES = {"R": (0, 7), "T": (-3, 3), "C": (-15, -6), "L": (-9, -1),
           "f": (-1, 7), "G": (0, 3)}
#: usual values of the preset parameters, around the reference instrument
PRESET_DECADES = {"mass": (-2, 1), "mech_damping": (-7, -3),
                  "measure_freq_hz": (-4, -3), "carrier_freq_hz": (4, 6),
                  "amp_impedance": (4, 7), "amp_temperature": (-1, 2),
                  "bath_temperature": (0, 3), "readout_impedance": (4, 7),
                  "loop_gain": (0, 6), "transducer_coupling": (11, 15),
                  "feedback_capacitance": (-14, -10)}
#: names of the noise lines that the run adds for op-amp u0 and gains g0, g1
NOISE_LINE_NAMES = ["u0_a", "u0_a_conj", "g0_b", "g1_b"]


def number(rng, decades):
    """A positive value from `decades`, or one in 1e-300..1e300."""
    lo, hi = (-300, 300) if rng.random() < 0.125 else decades
    return f"{10.0 ** rng.uniform(lo, hi):.4g}"


def passive_netlist(rng):
    n = rng.randint(1, 5)
    lines = [f"l{i}" for i in range(n)]
    if rng.random() < 0.2:  # a line named like a noise source of the run
        lines[rng.randrange(n)] = rng.choice(NOISE_LINE_NAMES)
    text = [f"line {name} R={number(rng, DECADES['R'])} "
            f"T={rng.choice(['0', number(rng, DECADES['T'])])}"
            for name in lines]
    opamp = None
    if n >= 2 and rng.random() < 0.3:
        opamp = rng.sample(lines, 2)
    free = [name for name in lines if not opamp or name not in opamp]
    for k in range(rng.randint(0, 4) if free else 0):
        kind, key, unit = rng.choice([("cap", "C", "C"), ("ind", "L", "L")])
        # now and then on an op-amp line, declared before the op-amp
        a = rng.choice(opamp if opamp and rng.random() < 0.25 else free)
        b = rng.choice([name for name in free if name != a] + ["gnd"])
        ports = (a, b) if rng.random() < 0.5 else (b, a)
        text.append(f"{kind} {kind[0]}{k} {key}={number(rng, DECADES[unit])} "
                    f"ports=({ports[0]},{ports[1]})")
    if opamp:
        text.append(f"opamp u0 left={opamp[0]} right={opamp[1]} "
                    f"Zf=cap:{number(rng, DECADES['C'])} "
                    f"R_a={number(rng, DECADES['R'])} "
                    f"Theta_a={number(rng, DECADES['T'])}")
    measured = rng.sample(lines, rng.randint(1, min(n, 3)))
    for k in range(rng.randint(0, 2)):
        gain = 1.001 + float(number(rng, DECADES["G"]))
        if rng.random() < 0.5:
            gain = f"{gain:.4g}"
        else:
            phase = rng.uniform(-math.pi, math.pi)
            gain = (f"{gain * math.cos(phase):.4g}"
                    f"{gain * math.sin(phase):+.4g}i")
        line = rng.choice(measured if rng.random() < 0.9 else lines)
        text.append(f"gain g{k} in={line} G={gain} "
                    f"T_b={number(rng, DECADES['T'])}")
    text.append(sweep(rng, DECADES["f"]))
    for k, line in enumerate(measured):
        text.append(f"measure {line} as m{k} signal={rng.choice(lines)}")
    return text


def sweep(rng, decades):
    f_min = float(number(rng, decades))
    f_max = f_min * 10.0 ** rng.uniform(0.0, 3.0)
    if not math.isfinite(f_max) or rng.random() < 0.1:
        f_max = f_min
    return (f"sweep {f_min:.4g} {f_max:.4g} "
            f"{rng.randint(1, 8)} {rng.choice(['lin', 'log'])}")


def preset_netlist(rng):
    """The netlist lines and the `--set` overrides of a muscope case."""
    text, sets = ["preset muscope"], []
    for key in rng.sample(PRESET_KEYS, rng.randint(0, 4)):
        value = f"{key}={number(rng, PRESET_DECADES[key])}"
        if rng.random() < 1.0 / 3.0:
            sets.append(value)
        else:
            text[0] += f" {value}"
    if rng.random() < 0.7:
        text.append(rng.choice(["sweep 1e-4 1e-3 3 log",
                                sweep(rng, (-5, -2))]))
    if rng.random() < 0.5:
        text.append("measure muscope as acc signal=force")
    return text, sets


def netlists():
    """The text and the `--set` overrides of every case."""
    rng = random.Random(SEED)
    for _ in range(CASES):
        text, sets = preset_netlist(rng) if rng.random() < 0.25 else (
            passive_netlist(rng), [])
        yield "\n".join(text) + "\n", sets


def finite_cells(path):
    """Whether every number cell of a written CSV is finite."""
    for row in path.read_text().splitlines()[1:]:
        for cell in row.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a label, or an empty cell
            if not math.isfinite(value):
                return False
    return True


def check(text, tmp_path, n, sets=()):
    """The outcome of the run of `text` with the overrides `sets` (its
    exit code and, for a non-zero exit, its stderr line) and what is wrong
    with it, or None (the outcome is None when an exception escaped)."""
    netlist = tmp_path / "net.qn"
    netlist.write_text(text)
    parse_netlist(text)  # the generator writes only valid netlists
    out = tmp_path / f"out{n}"
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", str(netlist), "--out", str(out), "--json",
                         *(arg for value in sets for arg in ("--set", value))])
    except Exception:  # an exception that escapes main is a failure
        return None, traceback.format_exc(limit=-1).strip().splitlines()[-1]
    lines = err.getvalue().splitlines()
    if code == 0:
        outputs = [out / name for name in ("spectra.csv", "budget.csv")]
        bad = [p.name for p in outputs if not finite_cells(p)]
        mirror = (out / "budget.json").read_text()
        if "NaN" in mirror or "Infinity" in mirror:
            bad.append("budget.json")
        shutil.rmtree(out)
        return "0", f"non-finite cells in {bad}" if bad else None
    outcome = " ".join([str(code)] + lines[:1])
    if len(lines) != 1 or not lines[0].startswith("qnoise: "):
        return outcome, f"stderr {lines}"
    if out.exists():
        return outcome, f"left {out.name}"
    return outcome, None


def outcomes(tmp_path):
    """The outcome of every case and its problems (case, text, overrides,
    outcome, problem)."""
    got, failures = [], []
    for n, (text, sets) in enumerate(netlists()):
        outcome, problem = check(text, tmp_path, n, sets)
        got.append(outcome)
        if problem:
            failures.append((n, text, sets, outcome, problem))
    return got, failures


def test_generated_netlists_exit_cleanly(tmp_path):
    start = time.monotonic()
    got, failures = outcomes(tmp_path)
    elapsed = time.monotonic() - start
    assert not failures, f"{len(failures)} of {CASES} failed, first: " \
        f"{failures[:3]}"
    assert elapsed < 10.0, f"{CASES} netlists took {elapsed:.1f} s"
    # the generator reaches both the outputs and the model errors
    codes = [outcome.split(" ", 1)[0] for outcome in got]
    assert codes.count("0") >= CASES // 4 and codes.count("2") >= CASES // 10
    recorded = RECORD.read_text().split("\n")[:-1]
    assert len(recorded) == CASES
    diff = [(n, r, g) for n, (r, g) in enumerate(zip(recorded, got))
            if r != g]
    assert not diff, f"{len(diff)} outcomes differ, first: {diff[:3]}"


def outputs(text, tmp_path, name):
    """The exit code of the run of `text` and, on exit 0, the lines of its
    spectra.csv and budget.csv."""
    netlist = tmp_path / f"{name}.qn"
    netlist.write_text(text)
    out = tmp_path / name
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["run", str(netlist), "--out", str(out)])
    if code:
        return code, None
    lines = [(out / csv).read_text().splitlines()
             for csv in ("spectra.csv", "budget.csv")]
    shutil.rmtree(out)
    return code, lines


def side_by_side(parts):
    """The spectra.csv and budget.csv lines of one run of the parts whose
    outputs `parts` lists, on one sweep: the frequency, then each part's
    columns, and each part's budget rows, in part order."""
    tables = [[row.split(",") for row in spectra] for spectra, _ in parts]
    assert all(
        [row[0] for row in table] == [row[0] for row in tables[0]]
        for table in tables)
    spectra = [",".join(rows[0][:1] + [cell for row in rows
                                        for cell in row[1:]])
               for rows in zip(*tables)]
    return [spectra, parts[0][1][:1] + [
        row for _, budget in parts for row in budget[1:]]]


#: a passive network with a gain, an op-amp with a gain on its right line
#: and the muscope preset, each a netlist of its own with a sweep
MIXED_PARTS = [
    "line a R=50 T=300\nline b R=75 T=4\ncap c1 C=1n ports=(a,b)\n"
    "ind l1 L=1u ports=(b,gnd)\ngain g1 in=a G=10 T_b=5\n"
    "measure a as pa signal=b\n",
    "line sig R=150k T=1\nline det R=150k T=0\n"
    "opamp u1 left=sig right=det Zf=cap:10.6f R_a=150k Theta_a=1.5\n"
    "gain g2 in=det G=20 T_b=3\nmeasure det as od signal=sig\n",
    "preset muscope\n",
]


def test_mixed_netlist_writes_its_parts(tmp_path):
    sweep = "sweep 1e-4 1e3 301 log\n"
    parts = [outputs(part + sweep, tmp_path, f"part{k}")
             for k, part in enumerate(MIXED_PARTS)]
    assert [code for code, _ in parts] == [0, 0, 0]
    code, mixed = outputs("".join(MIXED_PARTS) + sweep, tmp_path, "mixed")
    assert code == 0
    assert mixed == side_by_side([lines for _, lines in parts])
    assert len(mixed[0]) == 302 and len(mixed[0][0].split(",")) == 17


def test_generated_mixed_netlists_write_their_parts(tmp_path):
    start = time.monotonic()
    rng = random.Random(MIXED_SEED)
    mixed = 0
    for _ in range(MIXED_CASES):
        text = passive_netlist(rng)
        sweep_line = next(line for line in text if line.startswith("sweep"))
        parts = [outputs("\n".join(text) + "\n", tmp_path, "field"),
                 outputs(f"preset muscope\n{sweep_line}\n", tmp_path,
                         "muscope")]
        if any(code for code, _ in parts):
            continue
        code, got = outputs("\n".join(["preset muscope", *text]) + "\n",
                            tmp_path, "mixed")
        assert code == 0, text
        assert got == side_by_side([lines for _, lines in parts]), text
        mixed += 1
    elapsed = time.monotonic() - start
    assert elapsed < 2.0, f"{MIXED_CASES} draws took {elapsed:.1f} s"
    assert mixed >= MIXED_CASES // 4


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        RECORD.write_text("\n".join(outcomes(Path(scratch))[0]) + "\n")
