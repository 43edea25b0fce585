"""Physics invariants on the files that `qnoise run` writes.

The reactive netlists come from the fuzz generator (tests/test_fuzz.py):
1-5 lines with caps and inds, an optional op-amp and gains.  Each one that
has a cap or ind and exits 0 is run again, through `qnoise.cli.main`, in
four variants, and the test asserts on spectra.csv:
- the signal column of each measure is k_B Theta(T_signal) of its line;
- with every line and gain at T = 0, every total is at least hbar|w|/2;
- raising one line's T changes none of the other sources' columns;
- moving every line from T = 0 to T2 scales each line's column by
  Theta(T2) / Theta(0);
- permuting the declarations leaves every column (by name) equal.
On the muscope preset, `--set loop_gain=` leaves the force columns
unchanged.  "Equal" is within the CSV rounding: `%.9g` moves a cell by at
most 5e-9 of its value.  A permutation also re-orders the pivots of the
passive solve, whose normwise error is about cond(z + 1) eps, so that much
is allowed besides; one generated network at the seed, of condition
3.7e11, moves by 4e-8 there.  Cells below 1e-290 are not compared: there
a subnormal product has lost its relative precision.
"""

import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from qnoise.cli import main
from qnoise.constants import HBAR, K_B
from qnoise.netlist import parse_netlist
from qnoise.network import capacitor_impedance, impedance_matrix, \
    inductor_impedance
from qnoise.sweep import sweep_grid
from test_fuzz import DECADES, passive_netlist, preset_netlist

SEED = 20262
#: generated netlists to try; at least REACTIVE of them must pass the gate
TRIES = 820
REACTIVE = 200
#: largest relative move of a `%.9g` cell, with room for a few ulps
CSV = 5e-9 * (1.0 + 1e-6)
#: smallest magnitude compared
NORMAL = 1e-290


def energy(omega, temperature):
    """k_B Theta = (hbar|w|/2) coth(hbar|w| / 2 k_B T), k_B T where the
    argument underflows."""
    half = HBAR * abs(omega) / 2.0
    if temperature == 0.0:
        return half
    x = half / (K_B * temperature)
    return K_B * temperature if x < 1e-8 else half / math.tanh(x)


def close(a, b, rel):
    """Whether two CSV cells agree to `rel`, or are both below NORMAL."""
    if max(abs(a), abs(b)) < NORMAL:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def condition(doc, omegas):
    """The largest condition number of the passive solve's z + 1, with
    z = R^-1/2 Z R^-1/2, over `omegas`."""
    opamp = {line for d in doc.opamps for line in (d.left, d.right)}
    lines = [d for d in doc.lines if d.name not in opamp]
    index = {d.name: i for i, d in enumerate(lines)}
    index["gnd"] = -1
    scale = np.array([d.resistance for d in lines]) ** -0.5
    elements = [(capacitor_impedance, e.capacitance, e.ports)
                for e in doc.caps] + [(inductor_impedance, e.inductance,
                                       e.ports) for e in doc.inds]
    worst = 1.0
    for w in omegas:  # a grounded element has its line first, then gnd
        z = impedance_matrix(len(lines), [
            (impedance(value, w), *sorted((index[a], index[b]), reverse=True))
            for impedance, value, (a, b) in elements])
        z = scale[:, None] * z * scale + np.eye(len(lines))
        worst = max(worst, np.linalg.cond(z))
    return worst


def run(text, tmp_path, *args):
    """The exit code and the spectra.csv columns by name of a run."""
    path = tmp_path / "net.qn"
    path.write_text(text)
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["run", str(path), "--out", str(out), *args])
    if code:
        return code, None
    lines = (out / "spectra.csv").read_text().splitlines()
    header = lines[0].split(",")
    cells = zip(*(row.split(",") for row in lines[1:]))
    columns = {name: [float(c) for c in column]
               for name, column in zip(header, cells)}
    assert len(columns) == len(header)
    for path in out.iterdir():
        path.unlink()
    out.rmdir()
    return code, columns


def with_temperatures(text, lines, gains=None):
    """`text` with each line of `lines` (name -> T) at its temperature and,
    if `gains` is given, every gain's noise line at it."""
    out = []
    for decl in text:
        words = decl.split()
        if words[0] == "line" and words[1] in lines:
            decl = re.sub(r"T=\S+", f"T={lines[words[1]]!r}", decl)
        elif words[0] == "gain" and gains is not None:
            decl = re.sub(r"T_b=\S+", f"T_b={gains!r}", decl)
        out.append(decl)
    return out


def permuted(rng, text):
    """`text` with its lines, then its other declarations, shuffled; gains
    keep their order, which is the order they act in."""
    lines = [d for d in text if d.startswith("line ")]
    rest = [d for d in text if not d.startswith("line ")]
    rng.shuffle(lines)
    gains = iter([d for d in rest if d.startswith("gain ")])
    rng.shuffle(rest)
    return lines + [next(gains) if d.startswith("gain ") else d for d in rest]


def check_netlist(rng, text, tmp_path):
    """Assert the invariants on `text` and return whether raising one
    line's T moved its column; None if it is not a reactive netlist that
    runs."""
    if not any(d.startswith(("cap ", "ind ")) for d in text):
        return None
    code, base = run("\n".join(text), tmp_path)
    if code:
        return None
    doc = parse_netlist("\n".join(text))
    omegas = [2.0 * math.pi * f for f in sweep_grid(doc.sweep)]
    assert all(close(f, g, CSV) for f, g in
               zip(base["frequency_Hz"], sweep_grid(doc.sweep)))
    temps = {d.name: d.temperature for d in doc.lines}
    for m in doc.measures:
        signal = base[f"{m.label}_{m.signal}"]
        assert all(close(cell, energy(w, temps[m.signal]), CSV)
                   for cell, w in zip(signal, omegas)), (text, m.label)

    cold_text = with_temperatures(text, dict.fromkeys(temps, 0.0), 0.0)
    code, cold = run("\n".join(cold_text), tmp_path)
    assert code == 0, cold_text
    for m in doc.measures:
        assert all(cell >= HBAR * w / 2.0 * (1.0 - CSV) for cell, w in
                   zip(cold[f"{m.label}_total"], omegas)), (text, m.label)

    hot = rng.choice(sorted(temps))
    code, raised = run("\n".join(with_temperatures(
        text, {hot: 2.0 * temps[hot] + 1.0})), tmp_path)
    assert code == 0, (text, hot)
    moved = {f"{m.label}_{src}" for m in doc.measures
             for src in ("total", hot)}
    for name, column in base.items():
        if name not in moved:
            assert raised[name] == column, (text, hot, name)
    changed = any(raised[name] != base[name] for name in moved
                  if name in base and not name.endswith("_total"))

    t2 = 10.0 ** rng.uniform(*DECADES["T"])
    code, warm = run("\n".join(with_temperatures(
        cold_text, dict.fromkeys(temps, t2))), tmp_path)
    assert code == 0, (text, t2)
    for m in doc.measures:
        for line in temps:
            name = f"{m.label}_{line}"
            if name not in cold:
                continue
            for a, b, w in zip(cold[name], warm[name], omegas):
                ratio = energy(w, t2) / energy(w, 0.0)
                assert close(a * ratio, b, 2.0 * CSV), (text, name, t2)

    code, shuffled = run("\n".join(permuted(rng, text)), tmp_path)
    assert code == 0, text
    assert sorted(shuffled) == sorted(base)
    rel = 2.0 * CSV + condition(doc, omegas) * np.finfo(float).eps
    for name, column in base.items():
        assert all(close(a, b, rel)
                   for a, b in zip(column, shuffled[name])), (text, name)
    return changed


def test_invariants_on_generated_reactive_netlists(tmp_path):
    rng = random.Random(SEED)
    outcomes = [check_netlist(rng, passive_netlist(rng), tmp_path)
                for _ in range(TRIES)]
    reactive = sum(outcome is not None for outcome in outcomes)
    assert reactive >= REACTIVE, reactive
    assert sum(outcome is True for outcome in outcomes) >= REACTIVE // 2


@pytest.mark.parametrize("loop_gain", ["0", "1", "1e6"])
def test_force_columns_independent_of_loop_gain(tmp_path, loop_gain):
    rng = random.Random(SEED)
    compared = 0
    for _ in range(25):
        text, sets = preset_netlist(rng)
        text = "\n".join(text)
        sets = [value for value in sets if not value.startswith("loop_gain=")]
        args = [arg for value in sets for arg in ("--set", value)]
        code, base = run(text, tmp_path, *args)
        if code:
            continue
        code, looped = run(text, tmp_path, *args, "--set",
                           f"loop_gain={loop_gain}")
        assert code == 0, text
        label = next((m.label for m in parse_netlist(text).measures
                      if m.line == "muscope"), "force")
        force = [name for name in base if name.startswith(f"{label}_")]
        assert force and sorted(looped) == sorted(base)
        for name in force:
            assert all(close(a, b, 2.0 * CSV)
                       for a, b in zip(base[name], looped[name])), (text, name)
        compared += 1
    assert compared >= 15, compared
