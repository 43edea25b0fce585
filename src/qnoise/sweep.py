"""Sweep driver: evaluate a parsed netlist and write its CSV noise budgets.

Frequencies are Hz at every user boundary and angular internally (factor of
exactly 2 pi).  Estimator PSDs of field readouts are reported as energy
spectral densities hbar|omega| * Sigma (the k_B Theta equivalent of the
occupation budget); the muscope force estimator is reported in
(kg m s^-2)^2/Hz and its acceleration ASD in m s^-2/sqrt(Hz).

The library functions take omega as a number or as an array over the whole
sweep; with an array, scattering amplitudes, estimator coefficients and
budget terms carry a leading frequency axis.  `run` calls each layer once
per sweep and solves the passive network once for all its measures.
A budget that would contain a non-finite cell raises QNoiseError and
nothing is written.
"""

import dataclasses
import json
import math
import os
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .accelerometer import MUSCOPE, AccelerometerConfig, build_accelerometer
from .amplifier import IdealOpAmp, opamp_scattering
from .constants import HBAR, K_B
from .errors import QNoiseError
from .estimator import NoiseBudget, added_noise_spectrum, integrate_budget, \
    normalize_estimator
from .netlist import MeasureDecl, NetlistDocument, OpAmpDecl, PresetDecl, \
    SweepDecl
from .network import (ModeCoefficient, NoiseLine, ScatteringMap,
                      SpectrumTable, capacitor_impedance, impedance_matrix,
                      inductor_impedance, stamp_solver)
from .spectra import symmetrized_occupation

__all__ = ["run", "sweep_grid", "preset_config"]

DEFAULT_PRESET_SWEEP = SweepDecl(1e-4, 1e-3, 1000, "log")

#: bound on temporaries: matrix entries per impedance stack in the passive
#: solve (BLOCK_ENTRIES // n^2 frequencies; a whole 500-point sweep of 40
#: lines is 12.8 MB per stack), and 8 x cells per piece of spectra.csv text
BLOCK_ENTRIES = 2 ** 14


def sweep_grid(sweep: SweepDecl) -> np.ndarray:
    """Frequency grid in Hz, ascending."""
    if sweep.n_points == 1:
        return np.array([sweep.f_min_hz])
    grid, lo, hi = np.linspace, sweep.f_min_hz, sweep.f_max_hz
    if sweep.scale == "log":
        grid, lo, hi = np.logspace, math.log10(lo), math.log10(hi)
    try:
        return grid(lo, hi, sweep.n_points)
    except (MemoryError, ValueError) as exc:  # numpy refuses the size
        raise QNoiseError(f"sweep of {sweep.n_points} points cannot be "
                          f"allocated: {exc}") from None


def preset_config(preset: PresetDecl,
                  extra: Optional[Dict[str, float]] = None,
                  ) -> AccelerometerConfig:
    """Muscope reference parameters with declaration and CLI overrides."""
    params = dict(preset.overrides)
    if extra:
        params.update(extra)
    kwargs = {}
    for key, value in params.items():
        if key == "measure_freq_hz":
            kwargs["measure_omega"] = 2.0 * math.pi * value
        elif key == "carrier_freq_hz":
            kwargs["carrier_omega"] = 2.0 * math.pi * value
        else:
            kwargs[key] = value
    return dataclasses.replace(MUSCOPE, **kwargs)


def _passive_map(doc: NetlistDocument, measures: List[MeasureDecl],
                 omegas: np.ndarray) -> Tuple[ScatteringMap, Dict]:
    """Rows of the passive network (every line outside an op-amp) for the
    lines of `measures` over the sweep, and the occupations of its lines.

    The network is solved once for all passive measures, in frequency
    blocks of BLOCK_ENTRIES impedance-matrix entries each.  A measure whose
    signal line no cap or ind path joins to its line is rejected before the
    solve; one whose signal coefficient underflows to 0 is rejected after.
    """
    opamp_of = {line: d.name for d in doc.opamps for line in (d.left, d.right)}
    lines = [NoiseLine(d.resistance, d.temperature, d.name)
             for d in doc.lines if d.name not in opamp_of]
    index = {line.label: i for i, line in enumerate(lines)}
    ports = {}  # element name -> matrix indices of its ports, gnd is -1
    component = list(range(len(lines)))  # of each line, joined by caps/inds
    for elem in doc.caps + doc.inds:
        # the parser lets a cap or ind reach a line a later op-amp terminates
        outside = [port for port in elem.ports if port in opamp_of]
        if outside:
            raise QNoiseError(f"{elem.name}: port line {outside[0]!r} "
                              f"terminates op-amp {opamp_of[outside[0]]!r} and "
                              "is outside the passive network")
        i, j = (-1 if port == "gnd" else index[port] for port in elem.ports)
        ports[elem.name] = (j, -1) if i < 0 else (i, j)
        if i >= 0 and j >= 0:
            old = component[i]
            component = [component[j] if c == old else c for c in component]
    for m in measures:
        if m.signal in index and \
                component[index[m.signal]] != component[index[m.line]]:
            raise QNoiseError(f"measure {m.label}: signal line {m.signal!r} "
                              f"shares no cap or ind path with line "
                              f"{m.line!r}")
    measured = sorted({m.line for m in measures})
    # Z(w) = A / w + w B, stamped and checked once for the whole sweep
    a = impedance_matrix(len(lines), [
        (capacitor_impedance(cap.capacitance, 1.0), *ports[cap.name])
        for cap in doc.caps])
    b = impedance_matrix(len(lines), [
        (inductor_impedance(ind.inductance, 1.0), *ports[ind.name])
        for ind in doc.inds])
    solve = stamp_solver(a, b, lines, measured)
    block = max(1, BLOCK_ENTRIES // len(lines) ** 2)
    amplitude = np.concatenate([
        solve(omegas[start:start + block, None, None])
        for start in range(0, len(omegas), block)])
    for m in measures:
        if m.signal in index:
            zero = amplitude[:, measured.index(m.line), index[m.signal]] == 0.0
            if zero.any():
                raise QNoiseError(
                    f"measure {m.label}: signal coefficient of line "
                    f"{m.signal!r} underflows to 0 at "
                    f"{omegas[np.argmax(zero)] / (2.0 * math.pi):.6g} Hz "
                    "(below the smallest double)")
    occupations = {line.label: symmetrized_occupation(omegas, line.temperature)
                   for line in lines}
    return ScatteringMap(amplitude,
                         np.zeros((len(measured), len(lines)), dtype=bool),
                         measured, list(index)), occupations


def _opamp_budget(doc: NetlistDocument, decl: OpAmpDecl,
                  measure: MeasureDecl, omegas: np.ndarray) -> NoiseBudget:
    if (measure.line, measure.signal) == (decl.left, decl.right):
        raise QNoiseError(f"measure {measure.label}: signal line "
                          f"{measure.signal!r} is the right line of op-amp "
                          f"{decl.name!r}, which passes nothing to its left "
                          f"line {measure.line!r}")
    line_decls = {d.name: d for d in doc.lines}
    left = line_decls[decl.left]
    right = line_decls[decl.right]
    sigma_amp = K_B * decl.amp_temperature / (HBAR * omegas)
    k = np.argmax(sigma_amp < 0.5)  # the first point below the floor, if any
    if sigma_amp[k] < 0.5:
        raise QNoiseError(f"op-amp {decl.name}: noise occupation "
                          f"{sigma_amp[k]:.3g} is below the 1/2 vacuum floor "
                          f"at {omegas[k] / (2.0 * math.pi):.6g} Hz")
    amp = IdealOpAmp(left.resistance, right.resistance,
                     lambda w: capacitor_impedance(
                         decl.feedback_capacitance, w))
    labels = (decl.left, decl.right, f"{decl.name}_a",
              f"{decl.name}_a_conj")
    smap = opamp_scattering(amp, decl.amp_impedance, omegas, labels=labels)
    occupations = dict(zip(labels, (
        symmetrized_occupation(omegas, left.temperature),
        symmetrized_occupation(omegas, right.temperature),
        sigma_amp, sigma_amp)))
    return _energy_budget(doc, measure, smap.row(measure.line), occupations,
                          omegas)


def _energy_budget(doc: NetlistDocument, measure: MeasureDecl,
                   row: Dict[str, ModeCoefficient], occupations: Dict,
                   omegas: np.ndarray) -> NoiseBudget:
    """Budget of a field readout through the gains on its line, normalized
    to its signal line, as energy PSDs hbar|w| Sigma (k_B Theta)."""
    occupations = dict(occupations)
    for g in doc.gains:
        if g.input_line != measure.line:
            continue
        gain = complex(g.gain)
        row = {lab: ModeCoefficient(gain * c.amplitude, c.conjugated)
               for lab, c in row.items()}
        b_label = f"{g.name}_b"
        row[b_label] = ModeCoefficient(math.sqrt(abs(gain) ** 2 - 1.0), True)
        occupations[b_label] = symmetrized_occupation(omegas,
                                                      g.noise_temperature)
    if measure.signal not in row:
        raise QNoiseError(f"measure {measure.label}: signal line "
                          f"{measure.signal!r} is outside the subnetwork of "
                          f"line {measure.line!r}")
    est = normalize_estimator(row, row[measure.signal].amplitude)
    for lab, c in est.coefficients.items():
        big = ~np.isfinite(np.abs(c.amplitude) ** 2)
        if big.any():
            raise QNoiseError(
                f"estimator {measure.label}: source {lab} has a non-finite "
                "noise budget (numeric overflow) at "
                f"{omegas[np.argmax(big)] / (2.0 * math.pi):.6g} Hz, where "
                "its signal-normalised coefficient |c/s|^2 overflows")
    budget = added_noise_spectrum(est, SpectrumTable(occupations))
    scale = HBAR * np.abs(omegas)
    return NoiseBudget({lab: scale * v for lab, v in budget.terms.items()})


#: number format of every CSV cell; the golden outputs are byte-exact
_FMT = "%.9g"


def run(doc: NetlistDocument, out_dir: str, json_mirror: bool = False,
        overrides: Optional[Dict[str, float]] = None) -> Dict[str, str]:
    """Execute a parsed netlist: sweep, write spectra.csv and budget.csv
    (plus budget.json with --json).  Returns the written paths."""
    sweep = doc.sweep
    if sweep is None:
        if doc.preset is None:
            raise QNoiseError("document has no sweep")
        sweep = DEFAULT_PRESET_SWEEP
    freqs_hz = sweep_grid(sweep)

    if overrides and doc.preset is None:
        raise QNoiseError("--set overrides require a preset in the netlist")

    measures = list(doc.measures)
    config = None
    if doc.preset is not None:
        config = preset_config(doc.preset, overrides)
        if not any(m.line == "muscope" for m in measures):
            if any(m.label == "force" for m in measures):
                raise QNoiseError("measure label 'force' is taken by the "
                                  "estimator the muscope preset adds")
            measures.append(MeasureDecl("muscope", "force", "force"))
    measured = {m.line for m in measures}
    for g in doc.gains:
        if g.input_line not in measured:
            raise QNoiseError(f"gain {g.name}: no measure reads its line "
                              f"{g.input_line!r}, so it has no effect")

    opamp_by_line = {line: d for d in doc.opamps for line in (d.left, d.right)}
    passive = [m for m in measures
               if m.line != "muscope" and m.line not in opamp_by_line]

    omegas = 2.0 * math.pi * freqs_hz
    spectra = []  # (estimator, column, values over the sweep)
    records = []  # budget.csv rows, also written as budget.json
    # overflow turns into inf/nan here, which is rejected below by name
    with np.errstate(all="ignore"):
        if passive:
            smap, occupations = _passive_map(doc, passive, omegas)
        for measure in measures:
            if measure.line == "muscope":
                model = build_accelerometer(config)
                budget = model.budget(omegas)
            elif measure.line in opamp_by_line:
                budget = _opamp_budget(doc, opamp_by_line[measure.line],
                                       measure, omegas)
            else:
                budget = _energy_budget(doc, measure, smap.row(measure.line),
                                        occupations, omegas)
            spectra.append((measure.label, "total", budget.total))
            spectra.extend((measure.label, src, values)
                           for src, values in budget.terms.items())
            records.extend(_budget_records(
                measure.label, integrate_budget(budget, freqs_hz)))
            if measure.line == "muscope":
                report = model.report()
                records += [{"estimator": measure.label, "source": src,
                             "band_integrated": value} for src, value in (
                    ("sigma_FF_at_measure_freq", report.sigma_ff),
                    ("acceleration_asd", report.acceleration_asd))]
    cells = spectra + [(r["estimator"], r["source"], r["band_integrated"])
                       for r in records]
    # name a source before the totals it feeds
    for label, src, values in sorted(cells, key=lambda c: c[1] in
                                     ("total", "TOTAL")):
        if not np.isfinite(values).all():
            raise QNoiseError(f"estimator {label}: source {src} has a "
                              "non-finite noise budget (numeric overflow)")

    paths = {"spectra": os.path.join(out_dir, "spectra.csv"),
             "budget": os.path.join(out_dir, "budget.csv")}
    header = ["frequency_Hz"] + [f"{label}_{src}" for label, src, _ in spectra]
    _write_text(paths["spectra"], _csv_pieces(
        header, [freqs_hz] + [v for _, _, v in spectra]))
    lines = ["estimator,source,band_integrated,fraction_of_total,dominant"]
    for r in records:
        tail = (f"{_FMT % r['fraction_of_total']},{int(r['dominant'])}"
                if "dominant" in r else ",")
        lines.append(f"{r['estimator']},{r['source']},"
                     f"{_FMT % r['band_integrated']},{tail}")
    _write_text(paths["budget"], ["\n".join(lines) + "\n"])
    if json_mirror:
        paths["json"] = os.path.join(out_dir, "budget.json")
        _write_text(paths["json"],
                    [json.dumps(records, indent=2, sort_keys=True) + "\n"])
    return paths


def _budget_records(label: str, integrated: NoiseBudget) -> List[dict]:
    """Per-source band-integrated rows of one estimator, then its TOTAL."""
    total = integrated.total
    dominant = integrated.dominant
    records = [{"estimator": label, "source": src, "band_integrated": value,
                "fraction_of_total": value / total if total > 0.0 else 0.0,
                "dominant": src in dominant}
               for src, value in integrated.terms.items()]
    return records + [{"estimator": label, "source": "TOTAL",
                       "band_integrated": total, "fraction_of_total": 1.0,
                       "dominant": False}]


def _csv_pieces(header: List[str], columns: List[np.ndarray]):
    """CSV text of a header and columns, in pieces of BLOCK_ENTRIES // 8
    cells written by `_csv_rows`."""
    table = np.column_stack(columns)
    step = max(1, BLOCK_ENTRIES // 8 // table.shape[1])
    yield ",".join(header) + "\n"
    for chunk in np.split(table, range(step, len(table), step)):
        yield _csv_rows(chunk)


def _csv_tables():
    """Tables of `_csv_rows` by 100 + exponent, by 4-digit group and by
    key = 9 * form + trailing zeros, where form is 4 + exponent in fixed
    notation (0..12) and 13 in e-notation.  Plain Python and array copies
    build them: numpy arithmetic here would raise every run's peak memory."""
    forms = [e + 4 if -4 <= e <= 8 else 13 for e in range(-100, 100)]
    pairs = np.frombuffer(b"".join(b"%c\0%c\0" % (48 + n // 10, 48 + n % 10)
                                   for n in range(100)), np.uint8)
    digits = np.empty((100, 100, 8), np.uint8)  # "d\0d\0d\0d\0" of 0000..9999
    digits[..., :4] = pairs.reshape(100, 1, 4)
    digits[..., 4:] = pairs.reshape(1, 100, 4)
    zeros = [(n % 10 == 0) + (n == 0) for n in range(100)]  # trailing
    trailing = np.empty((100, 100), np.intp)
    trailing[:] = zeros  # of 0000..9999: those of the last pair, or 2 more
    trailing[:, 0] = [2 + z for z in zeros]
    # by key: 0xff at each kept digit; the "0.000" lead and the point
    kept, text = bytearray(126 * 24), bytearray(126 * 24)
    for key in range(126):
        form, z = divmod(key, 9)
        e, row = form - 4, 24 * key
        p = e + 1 if 0 <= e <= 8 else int(form == 13)  # digits before "."
        keep = 9 - min(z, 9 - p)
        kept[row + 6:row + 6 + 2 * keep:2] = b"\xff" * keep
        if 0 < p and z < 9 - p:
            text[row + 2 * p + 5] = ord(".")
        if e < 0:
            text[row + 1:row + 2 - e] = b"0.000"[:1 - e]
    exponent = b"".join((b"" if f < 13 else b"e%+03d" % e).ljust(7, b"\0")
                        + b"," for e, f in zip(range(-100, 100), forms))
    return (np.array([float(f"1e{8 - e}") for e in range(-100, 100)]),
            9 * np.array(forms), np.frombuffer(exponent, "<u8"),
            digits.view("<u8").ravel(), trailing.ravel(),
            np.frombuffer(kept + text, "<u8").reshape(2, 126, 3)
            .transpose(0, 2, 1).copy())


_SCALE, _FORM9, _EXPONENT, _DIGITS, _TRAILING, (_KEPT, _TEXT) = _csv_tables()
#: a cell left to `_FMT`: the format itself, which `%` fills in at the end
#: (no other cell text holds a "%")
_LEFT_TO_FMT = np.frombuffer(_FMT.encode().ljust(31, b"\0") + b",", "<u8")


def _csv_rows(chunk: np.ndarray) -> str:
    """CSV rows of a 2-D float chunk, byte-identical to `_FMT % cell`.

    A cell is four 8-byte words, [sign "0.000" d1 .] [d2 . d3 . d4 . d5 .]
    [d6 . d7 . d8 . d9 -] [e+NN - - - ,], whose zero bytes are dropped.
    s = |x| 10^(8-e) has two roundings, so it is within 3e-7 of the exact
    value: rint(s) are the nine digits of dtoa unless s is within 1e-5 of
    a tie.  (e = floor(log10|x|) may be one off next to a power of ten;
    s then rounds to 1e8, or to 1e9, which the carry mends.)  A cell near
    a tie, outside 1e-99 < |x| < 1e99 or not finite is written by
    `_FMT % cell`.  Each ufunc call keeps to one dtype: mixing bool and
    integer arrays raised the peak memory of a run."""
    x = chunk.ravel()
    a = np.abs(x)
    ok = (a > 1e-99) & (a < 1e99)
    a[~ok] = 1.0
    e = (np.log10(a) + 100).astype(np.intp)  # 100 + exponent
    s = a * _SCALE[e]
    r = np.rint(s)
    ok &= np.abs(s - r) < 0.49999
    carry = r >= 1e9
    e[carry] += 1
    r[carry] = 1e8
    nine = r.astype(np.intp)
    q = nine // 10000
    lo, hi = nine - q * 10000, q // 10000
    mid = q - hi * 10000
    key = _FORM9[e] + np.where(lo, _TRAILING[lo], _TRAILING[mid] + 4)
    cells = np.empty((len(x), 4), "<u8")
    for word, group in enumerate((hi, mid, lo)):
        cells[:, word] = _DIGITS[group] & _KEPT[word][key] | _TEXT[word][key]
    np.bitwise_or(cells[:, 0], ord("-"), out=cells[:, 0], where=x < 0)
    cells[:, 3] = _EXPONENT[e]
    cells[~ok] = _LEFT_TO_FMT
    cells.reshape(len(chunk), -1, 4)[:, -1, 3] ^= 0x26 << 56  # "," to "\n"
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    return text % tuple(x[~ok].tolist()) if not ok.all() else text


def _write_text(path: str, pieces: Iterable[str]):
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise QNoiseError(f"cannot write {path}: {exc}") from exc
