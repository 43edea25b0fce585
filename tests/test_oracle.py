"""Exact oracle for the passive solve, on the files that `qnoise run` writes.

The reactive netlists come from the fuzz generator (tests/test_fuzz.py).
Each one that exits 0, reads a line of its passive network (the lines
outside every op-amp) and has at most 4 passive lines and a cap or ind
is checked here.  The test rebuilds the float x = (Im A / w + w Im B) dd,
dd_ij = d_i d_j with d = R^-1/2, that the run solves, with the same numpy
operations, and solves (1 + i x^T) S^T = (i x - 1)^T for the measured rows
of S exactly, by Gauss-Jordan elimination over complex pairs of
`fractions.Fraction`.  Every
passive source column, gain source column and total of spectra.csv must
then equal the exact |c/s|^2 k_B Theta, on the run's own float energies,
within:
- the CSV rounding: `%.9g` moves a cell by at most 5e-9 of its value;
- the normwise error of the float solve, cond(z + 1) n eps times the
  norm of the exact row, on each of c and s, carried through |c/s|^2;
- a few subnormal ulps, where a product underflows.
"""

import math
import random
from fractions import Fraction

import numpy as np

from qnoise.netlist import parse_netlist
from qnoise.network import capacitor_impedance, impedance_matrix, \
    inductor_impedance
from qnoise.spectra import thermal_energy
from qnoise.sweep import sweep_grid
from test_fuzz import passive_netlist
from test_invariants import CSV, run

SEED = 20263
TRIES = 300
#: networks that must reach the oracle
CHECKED = 50
#: absolute room for products that underflow into the subnormals
TINY = 2.0 ** -1060
EPS = np.finfo(float).eps


def solve_exact(matrix, rhs):
    """The exact solution of matrix y = rhs, both lists of rows of complex
    pairs (re, im) of Fractions, by Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(m) + list(r) for m, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != (0, 0))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pr, pi = rows[col][col]
        norm = pr * pr + pi * pi
        inv_r, inv_i = pr / norm, -pi / norm
        rows[col] = [(inv_r * a - inv_i * b, inv_r * b + inv_i * a)
                     for a, b in rows[col]]
        for r in range(n):
            fr, fi = rows[r][col]
            if r != col and (fr or fi):
                rows[r] = [(a - fr * c + fi * d, b - fr * d - fi * c)
                           for (a, b), (c, d) in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def passive_x(doc, lines, omegas):
    """The run's float x (F, n, n) of the passive `lines` over `omegas`."""
    index = {d.name: k for k, d in enumerate(lines)}
    index["gnd"] = -1
    x_a, x_b = (impedance_matrix(len(lines), [
        (impedance(value, 1.0), *sorted((index[p] for p in e.ports),
                                        reverse=True))
        for e, value in elements]).imag
        for impedance, elements in (
            (capacitor_impedance, [(e, e.capacitance) for e in doc.caps]),
            (inductor_impedance, [(e, e.inductance) for e in doc.inds])))
    d = np.array([1.0 / np.sqrt(line.resistance) for line in lines])
    w = omegas[:, None, None]
    x = x_a * (1.0 / w)
    x += w * x_b
    x *= d[:, None] * d
    return x


def exact_rows(x, rows):
    """The exact rows `rows` of S, solved as the run solves them from
    (1 + i x^T) S^T = (i x - 1)^T: per row its entries as complex pairs of
    Fractions."""
    n = len(x)
    xt = [[Fraction(float(x[j][i])) for j in range(n)] for i in range(n)]
    one = Fraction(1)
    system = [[(one if i == j else Fraction(0), xt[i][j]) for j in range(n)]
              for i in range(n)]
    rhs = [[(-one if i == r else Fraction(0), xt[i][r]) for r in rows]
           for i in range(n)]
    solved = solve_exact(system, rhs)
    return [[solved[i][k] for i in range(n)] for k in range(len(rows))]


def magnitude2(pair):
    return pair[0] * pair[0] + pair[1] * pair[1]


def bounds(numerator, s2, delta_c, delta_s):
    """The exact |c/s|^2 = numerator / s2 and how far a float solve may
    move it, when |c| and |s| are each off by at most delta_c and
    delta_s."""
    exact = numerator / s2
    c, s = math.sqrt(numerator), math.sqrt(s2)
    low = max(c - delta_c, 0.0) ** 2 / (s + delta_s) ** 2
    high = (c + delta_c) ** 2 / (s - delta_s) ** 2 if s > delta_s \
        else math.inf
    value = float(exact)
    return exact, max(high - value, value - low)


def check_netlist(text, tmp_path):
    """Compare the run of `text` with the oracle; None if it is not a
    reactive netlist of at most 4 passive lines that runs, else the list
    of cells (column, frequency index) outside the allowance."""
    doc = parse_netlist(text)
    opamp = {line for d in doc.opamps for line in (d.left, d.right)}
    lines = [d for d in doc.lines if d.name not in opamp]
    measures = [m for m in doc.measures if m.line not in opamp]
    if not (measures and len(lines) <= 4 and (doc.caps or doc.inds)):
        return None
    code, columns = run(text, tmp_path)
    if code:
        return None
    labels = [d.name for d in lines]
    omegas = 2.0 * math.pi * sweep_grid(doc.sweep)
    energies = thermal_energy(omegas, np.array([[d.temperature]
                                                for d in lines]))
    x = passive_x(doc, lines, omegas)
    measured = sorted({m.line for m in measures})
    n = len(lines)
    outside = []
    for f, omega in enumerate(omegas):
        cond = np.linalg.cond(np.eye(n) + 1j * x[f])
        solved = dict(zip(measured, exact_rows(
            x[f], [labels.index(line) for line in measured])))
        for m in measures:
            row = solved[m.line]
            norm = math.sqrt(sum(float(magnitude2(c)) for c in row))
            delta = cond * n * EPS * norm
            s2 = magnitude2(row[labels.index(m.signal)])
            cells = []  # (source, exact |c/s|^2 k_B Theta, allowance)
            for k, line in enumerate(labels):
                exact, room = bounds(magnitude2(row[k]), s2, delta, delta)
                energy = energies[k, f]
                cells.append((line, exact * Fraction(energy), room * energy))
            gain2 = Fraction(1)  # |G|^2 of the gains before
            for g in (g for g in doc.gains if g.input_line == m.line):
                modulus2 = magnitude2((Fraction(complex(g.gain).real),
                                       Fraction(complex(g.gain).imag)))
                gain2 *= modulus2
                exact, room = bounds((modulus2 - 1) / gain2, s2, 0.0, delta)
                energy = thermal_energy(omega, g.noise_temperature)
                cells.append((f"{g.name}_b", exact * Fraction(energy),
                              room * energy))
            cells.append(("total", sum(c[1] for c in cells),
                          sum(c[2] for c in cells)))
            for src, exact, room in cells:
                name = f"{m.label}_{src}"
                got, want = columns[name][f], float(exact)
                if abs(Fraction(got) - exact) > \
                        CSV * max(abs(got), want) + room + TINY:
                    outside.append((name, f))
    return outside


def test_passive_cells_match_the_exact_solve(tmp_path):
    rng = random.Random(SEED)
    checked, outside = 0, []
    for _ in range(TRIES):
        text = "\n".join(passive_netlist(rng)) + "\n"
        cells = check_netlist(text, tmp_path)
        if cells is not None:
            checked += 1
            outside += [(text, cells)] if cells else []
    assert checked >= CHECKED, checked
    assert not outside, outside[:3]
