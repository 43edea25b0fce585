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

from .accelerometer import (MUSCOPE, AccelerometerConfig,
                            build_accelerometer, sensitivity_report)
from .amplifier import IdealOpAmp, opamp_scattering
from .constants import HBAR, K_B
from .errors import QNoiseError
from .estimator import NoiseBudget, added_noise_spectrum, integrate_budget, \
    normalize_estimator
from .netlist import MeasureDecl, NetlistDocument, OpAmpDecl, PresetDecl, \
    SweepDecl
from .network import (ModeCoefficient, NoiseLine, ScatteringMap,
                      SpectrumTable, capacitor_impedance, impedance_matrix,
                      inductor_impedance, scattering_from_impedance)
from .spectra import symmetrized_occupation

__all__ = ["run", "sweep_grid", "preset_config"]

DEFAULT_PRESET_SWEEP = SweepDecl(1e-4, 1e-3, 1000, "log")

#: bound on temporaries: matrix entries per impedance stack in the passive
#: solve (BLOCK_ENTRIES // n^2 frequencies; a whole 500-point sweep of 40
#: lines is 12.8 MB per stack) and cells per piece of spectra.csv text
BLOCK_ENTRIES = 2 ** 14


def sweep_grid(sweep: SweepDecl) -> np.ndarray:
    """Frequency grid in Hz, ascending."""
    if sweep.n_points == 1:
        return np.array([sweep.f_min_hz])
    if sweep.scale == "log":
        return np.logspace(math.log10(sweep.f_min_hz),
                           math.log10(sweep.f_max_hz), sweep.n_points)
    return np.linspace(sweep.f_min_hz, sweep.f_max_hz, sweep.n_points)


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


def _passive_map(doc: NetlistDocument, measured: List[str],
                 omegas: np.ndarray) -> Tuple[ScatteringMap, Dict]:
    """Rows of the passive network (every line outside an op-amp) for the
    measured lines over the sweep, and the occupations of its lines.

    The network is solved once for all passive measures, in frequency
    blocks of BLOCK_ENTRIES impedance-matrix entries each.
    """
    opamp_of = {line: d.name for d in doc.opamps for line in (d.left, d.right)}
    lines = [NoiseLine(d.resistance, d.temperature, d.name)
             for d in doc.lines if d.name not in opamp_of]
    index = {line.label: i for i, line in enumerate(lines)}
    ports = {}  # element name -> matrix indices of its ports, gnd is -1
    for elem in doc.caps + doc.inds:
        # the parser lets a cap or ind reach a line a later op-amp terminates
        outside = [port for port in elem.ports if port in opamp_of]
        if outside:
            raise QNoiseError(f"{elem.name}: port line {outside[0]!r} "
                              f"terminates op-amp {opamp_of[outside[0]]!r} and "
                              "is outside the passive network")
        i, j = (-1 if port == "gnd" else index[port] for port in elem.ports)
        ports[elem.name] = (j, -1) if i < 0 else (i, j)
    # Z(w) = A / w + w B, stamped once for the whole sweep
    a = impedance_matrix(len(lines), [
        (capacitor_impedance(cap.capacitance, 1.0), *ports[cap.name])
        for cap in doc.caps])
    b = impedance_matrix(len(lines), [
        (inductor_impedance(ind.inductance, 1.0), *ports[ind.name])
        for ind in doc.inds])
    block = max(1, BLOCK_ENTRIES // len(lines) ** 2)
    pieces = []
    for start in range(0, len(omegas), block):
        w = omegas[start:start + block, None, None]
        pieces.append(scattering_from_impedance(
            a / w + w * b, lines, outputs=measured).amplitude)
    occupations = {line.label: symmetrized_occupation(omegas, line.temperature)
                   for line in lines}
    return ScatteringMap(np.concatenate(pieces),
                         np.zeros((len(measured), len(lines)), dtype=bool),
                         measured, list(index)), occupations


def _opamp_budget(doc: NetlistDocument, decl: OpAmpDecl,
                  measure: MeasureDecl, omegas: np.ndarray) -> NoiseBudget:
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
    budget = added_noise_spectrum(est, SpectrumTable(occupations))
    scale = HBAR * np.abs(omegas)
    return NoiseBudget({lab: scale * v for lab, v in budget.terms.items()},
                       units="J")


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
            measures.append(MeasureDecl("muscope", "force", "force"))
    measured = {m.line for m in measures}
    for g in doc.gains:
        if g.input_line not in measured:
            raise QNoiseError(f"gain {g.name}: no measure reads its line "
                              f"{g.input_line!r}, so it has no effect")

    opamp_by_line = {line: d for d in doc.opamps for line in (d.left, d.right)}
    passive = [m.line for m in measures
               if m.line != "muscope" and m.line not in opamp_by_line]

    omegas = 2.0 * math.pi * freqs_hz
    spectra = []  # (estimator, column, values over the sweep)
    records = []  # budget.csv rows, also written as budget.json
    # overflow turns into inf/nan here, which is rejected below by name
    with np.errstate(all="ignore"):
        if passive:
            smap, occupations = _passive_map(doc, sorted(set(passive)),
                                             omegas)
        for measure in measures:
            if measure.line == "muscope":
                budget = build_accelerometer(config).budget(omegas)
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
                report = sensitivity_report(config)
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
    """CSV text of a header and columns, in pieces of BLOCK_ENTRIES cells."""
    table = np.column_stack(columns)
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    step = max(1, BLOCK_ENTRIES // table.shape[1])
    yield ",".join(header) + "\n"
    for chunk in np.split(table, range(step, len(table), step)):
        yield row * len(chunk) % tuple(chunk.ravel().tolist())


def _write_text(path: str, pieces: Iterable[str]):
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise QNoiseError(f"cannot write {path}: {exc}") from exc
