"""Sweep driver: evaluate a parsed netlist and write its CSV noise budgets.

Frequencies are Hz at every user boundary and angular internally (factor of
exactly 2 pi).  Every field source carries its energy k_B Theta (J), so
estimator PSDs of field readouts are energy spectral densities
sum |c/s|^2 k_B Theta; the muscope force estimator is reported in
(kg m s^-2)^2/Hz and its acceleration ASD in m s^-2/sqrt(Hz).

`run` does the work that no frequency needs once: it hands the passive lines
and elements to `qnoise.network.stamp_solver`, builds each op-amp's
`IdealOpAmp`, names each measure's sources and checks the spectra.csv header.
Per window of frequencies it then solves the rows (an op-amp's by
`opamp_scattering`), builds each measure's `CompiledEstimator` from them,
evaluates it with `evaluate` and writes the spectra.csv rows.  Overflow is
named by `evaluate` and the muscope report, and nothing is written then.  The
preset and op-amp models and json load only where a run uses them.
"""

import contextlib
import dataclasses
import math
import os
import re
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import QNoiseError
from .estimator import CompiledEstimator, evaluate
from .netlist import GainDecl, MeasureDecl, NetlistDocument, OpAmpDecl, \
    PresetDecl, SweepDecl
from .network import BLOCK_ENTRIES, NoiseLine, capacitor_impedance, \
    stamp_solver
from .spectra import thermal_energy

if TYPE_CHECKING:
    from .accelerometer import AccelerometerConfig

__all__ = ["run"]

DEFAULT_PRESET_SWEEP = SweepDecl(1e-4, 1e-3, 1000, "log")


def sweep_grid(sweep: SweepDecl) -> np.ndarray:
    """Frequency grid in Hz, ascending, whose angular 2 pi f are finite."""
    if 2.0 * math.pi * sweep.f_max_hz == math.inf:
        raise QNoiseError(f"sweep: the angular frequency 2 pi f overflows at "
                          f"{sweep.f_max_hz:.6g} Hz (above about 2.86e307 Hz)")
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
                  ) -> "AccelerometerConfig":
    """Muscope reference parameters with declaration and CLI overrides."""
    from .accelerometer import MUSCOPE
    params = dict(preset.overrides)
    if extra:
        params.update(extra)
    angular = {"measure_freq_hz": "measure_omega",
               "carrier_freq_hz": "carrier_omega"}  # from Hz
    return dataclasses.replace(MUSCOPE, **{
        angular.get(key, key): 2.0 * math.pi * value if key in angular
        else value for key, value in params.items()})


def _check_structure(doc: NetlistDocument, measures: List[MeasureDecl],
                     opamp_by_line: Dict[str, OpAmpDecl]):
    """Reject, on declared line names, before any numerics: a gain on a
    line that none of the field `measures` reads; a measure whose signal
    line is outside its line's subnetwork (its op-amp's two lines, or the
    lines outside every op-amp), is the right line of the op-amp read on
    its left, or shares no cap or ind path with its line; a cap or ind on
    an op-amp's line; an op-amp that no measure reads; and lines outside
    every op-amp when no measure reads one."""
    measured = {m.line for m in measures}
    for g in doc.gains:
        if g.input_line not in measured:
            raise QNoiseError(f"gain {g.name}: no measure reads its line "
                              f"{g.input_line!r}, so it has no effect")
    joined = {d.name: {d.name} for d in doc.lines}  # by cap and ind paths
    for elem in doc.caps + doc.inds:
        if "gnd" not in elem.ports:
            both = joined[elem.ports[0]] | joined[elem.ports[1]]
            joined.update(dict.fromkeys(both, both))
    for m in measures:
        opamp = opamp_by_line.get(m.line)
        if opamp_by_line.get(m.signal) is not opamp:
            raise QNoiseError(f"measure {m.label}: signal line {m.signal!r} "
                              f"is outside the subnetwork of line {m.line!r}")
        if opamp and (m.line, m.signal) == (opamp.left, opamp.right):
            raise QNoiseError(f"measure {m.label}: signal line {m.signal!r} "
                              f"is the right line of op-amp {opamp.name!r}, "
                              "which passes nothing to its left line "
                              f"{m.line!r}")
        if opamp is None and m.signal not in joined[m.line]:
            raise QNoiseError(f"measure {m.label}: signal line {m.signal!r} "
                              f"shares no cap or ind path with line "
                              f"{m.line!r}")
    for elem in doc.caps + doc.inds:
        for port in elem.ports:
            if port in opamp_by_line:
                raise QNoiseError(f"{elem.name}: port line {port!r} terminates "
                                  f"op-amp {opamp_by_line[port].name!r} and is "
                                  "outside the passive network")
    read = {opamp_by_line.get(m.line) for m in measures}  # None: passive
    for opamp in doc.opamps:
        if opamp not in read:
            raise QNoiseError(f"op-amp {opamp.name}: no measure reads its "
                              f"lines {opamp.left!r} and {opamp.right!r}, so "
                              "it has no effect")
    passive = [d.name for d in doc.lines if d.name not in opamp_by_line]
    if passive and None not in read:
        raise QNoiseError(f"line {passive[0]}: no measure reads it or "
                          "another line outside the op-amps, so it has no "
                          "effect")


def _passive_rows(doc: NetlistDocument, measures: List[MeasureDecl],
                  opamp_by_line: Dict[str, OpAmpDecl]):
    """The line labels of the passive network (every line outside an
    op-amp) and `rows(omegas)`, which gives per line of `measures` its row
    (n, F) over them and their energies (n, F), from `stamp_solver`."""
    lines = [NoiseLine(d.resistance, d.temperature, d.name)
             for d in doc.lines if d.name not in opamp_by_line]
    index = {line.label: k for k, line in enumerate(lines)}
    index["gnd"] = -1  # sorted after every line: a grounded element's j

    def ports(elem) -> List[int]:
        return sorted((index[port] for port in elem.ports), reverse=True)
    elements = [("cap", e.name, e.capacitance, *ports(e)) for e in doc.caps] \
        + [("ind", e.name, e.inductance, *ports(e)) for e in doc.inds]
    measured = sorted({m.line for m in measures})
    solve = stamp_solver(lines, elements, measured)
    temperatures = np.array([[line.temperature] for line in lines])

    def rows(omegas: np.ndarray) -> Dict[str, Tuple]:
        amplitude = solve(omegas)
        energies = thermal_energy(omegas, temperatures)
        return {line: (amplitude[:, k, :].T, energies)
                for k, line in enumerate(measured)}
    return [line.label for line in lines], rows


def _opamp_rows(doc: NetlistDocument, decl: OpAmpDecl, line: str):
    """The labels of an op-amp's lines and noise pair (l, r, a, a') and
    `rows(omegas)`, which gives the row (4, F) of its `line` over them and
    their energies (4, F), the noise pair's flat k_B Theta_a."""
    from .amplifier import IdealOpAmp, opamp_noise_energy, opamp_scattering
    line_decls = {d.name: d for d in doc.lines}
    left, right = line_decls[decl.left], line_decls[decl.right]
    side = (decl.left, decl.right).index(line)
    temperatures = np.array([[left.temperature], [right.temperature]])
    amp = IdealOpAmp(left.resistance, right.resistance, lambda w: (
        capacitor_impedance(decl.feedback_capacitance, w)))

    def rows(omegas: np.ndarray) -> Tuple:
        energy = opamp_noise_energy(decl.amp_temperature, omegas,
                                    f"op-amp {decl.name}:")
        try:
            smap = opamp_scattering(amp, decl.amp_impedance, omegas)
        except QNoiseError as exc:  # a feedback not finite: name its op-amp
            raise QNoiseError(f"op-amp {decl.name}: {exc}") from None
        return smap.amplitude[:, side, :].T, np.vstack([thermal_energy(
            omegas, temperatures), np.full((2, len(omegas)), energy)])
    return [decl.left, decl.right, f"{decl.name}_a",
            f"{decl.name}_a_conj"], rows


def _field_estimator(measure: MeasureDecl, sources: List[str],
                     gains: List[GainDecl], row: np.ndarray,
                     energies: np.ndarray,
                     omegas: np.ndarray) -> CompiledEstimator:
    """The estimator of `measure` on its `sources` from its line's readout
    `row` (K, F) on sources of `energies` k_B Theta (K, F), through the
    `gains` on its line.  Each gain multiplies the row, the signal with it,
    and adds its conjugated noise line."""
    for g in gains:
        gain = complex(g.gain)
        row = np.vstack([gain * row, np.full(
            len(omegas), np.sqrt(np.square(abs(gain)) - 1.0))])
        energies = np.vstack([energies, thermal_energy(
            omegas, g.noise_temperature)])
    return CompiledEstimator(measure.label, sources, row,
                             sources.index(measure.signal), energies)


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
    config = model = None
    if doc.preset is not None:
        config = preset_config(doc.preset, overrides)
        if not any(m.line == "muscope" for m in measures):
            if any(m.label == "force" for m in measures):
                raise QNoiseError("measure label 'force' is taken by the "
                                  "estimator the muscope preset adds")
            measures.append(MeasureDecl("muscope", "force", "force"))
    fields = [m for m in measures if m.line != "muscope"]
    opamp_by_line = {line: d for d in doc.opamps for line in (d.left, d.right)}
    _check_structure(doc, fields, opamp_by_line)
    passive = [m for m in fields if m.line not in opamp_by_line]

    paths = [os.path.join(out_dir, name) for name in (
        "spectra.csv", "budget.csv", "budget.json")[:3 if json_mirror else 2]]
    with np.errstate(all="ignore"), _staged(paths) as write:
        labels = []  # the passive lines
        if passive:
            labels, rows = _passive_rows(doc, passive, opamp_by_line)
        opamps = {m.line: _opamp_rows(doc, opamp_by_line[m.line], m.line)
                  for m in fields if m.line in opamp_by_line}
        gains = {m.line: [] for m in fields}  # per measured line
        for g in doc.gains:
            gains[g.input_line].append(g)
        if config is not None:
            from .accelerometer import build_accelerometer
            model = build_accelerometer(config)
        sources = [model.sources if m.line == "muscope" else
                   (opamps[m.line][0] if m.line in opamps else labels)
                   + [f"{g.name}_b" for g in gains[m.line]] for m in measures]
        header = ["frequency_Hz"] + [f"{m.label}_{src}" for m, srcs in zip(
            measures, sources) for src in ["total", *srcs]]
        owners = {}  # by column; one source named twice is left to evaluate
        for column, owner in zip(header, ["the frequency"] + [
                f"{f'source {src}' if k else 'the total'} of estimator "
                f"{m.label}" for m, srcs in zip(measures, sources)
                for k, src in enumerate(["total", *srcs])]):
            if owners.setdefault(column, owner) != owner:
                raise QNoiseError(f"spectra.csv column {column!r} would hold "
                                  f"both {owners[column]} and {owner}; rename "
                                  "a line or a measure")
        # windows of about BLOCK_ENTRIES spectra.csv cells (more than the
        # passive row entries), of 2 points at least (a band is the value
        # itself only on a one-point sweep)
        window = max(2, BLOCK_ENTRIES // len(header))
        budgets = [None] * len(measures)  # over the windows so far
        for start in range(0, len(freqs_hz), window):
            freqs = freqs_hz[start:start + window]
            omegas = 2.0 * math.pi * freqs
            solved = rows(omegas) if passive else {}
            solved.update((line, opamp(omegas))
                          for line, (_, opamp) in opamps.items())
            columns = [freqs]
            for k, measure in enumerate(measures):
                est = model.estimator(omegas, measure.label) \
                    if measure.line == "muscope" else _field_estimator(
                        measure, sources[k], gains[measure.line],
                        *solved[measure.line], omegas)
                # with the budget of the window that ends before start
                budget = budgets[k] = evaluate(est, freqs, budgets[k],
                                               freqs_hz[start - 1])
                columns += [budget.total, *budget.terms.values()]
            pieces = _csv_pieces(header, columns)
            if start:  # the header goes once, before the first window
                next(pieces)
            write(paths[0], pieces)
            del columns, pieces, est, budget, solved  # before solving

        records = []  # budget.csv rows, also written as budget.json
        for measure, budget in zip(measures, budgets):
            records += budget.records(measure.label)
            if measure.line == "muscope":
                report = model.report(measure.label)
                records += [{"estimator": measure.label, "source": src,
                             "band_integrated": value} for src, value in (
                    ("sigma_FF_at_measure_freq", report.sigma_ff),
                    ("acceleration_asd", report.acceleration_asd))]
        lines = ["estimator,source,band_integrated,fraction_of_total,"
                 "dominant"]
        for r in records:
            tail = (f"{_FMT % r['fraction_of_total']},{int(r['dominant'])}"
                    if "dominant" in r else ",")
            lines.append(f"{r['estimator']},{r['source']},"
                         f"{_FMT % r['band_integrated']},{tail}")
        write(paths[1], [("\n".join(lines) + "\n").encode()])
        if json_mirror:
            import json
            write(paths[2], [(json.dumps(
                records, indent=2, sort_keys=True) + "\n").encode()])
    return dict(zip(("spectra", "budget", "json"), paths))


def _csv_pieces(header: List[str], columns: List[np.ndarray]):
    """spectra.csv as bytes: the header, then the rows in as few even
    pieces of about BLOCK_ENTRIES // 4 cells as hold them, each written by
    `_csv_rows`."""
    table = np.asarray(columns).T
    pieces = max(1, min(len(table), -(-table.size * 4 // BLOCK_ENTRIES)))
    yield (",".join(header) + "\n").encode()
    for piece in np.array_split(table, pieces):
        yield _csv_rows(piece)


def _csv_tables():
    """Tables of `_csv_rows`, made in place from plain Python and copies
    (numpy arithmetic or temporaries here raise a run's peak memory).  A
    block lays out 000..999 from a first byte by a pattern: d a digit, s a
    digit dropped with the trailing zeros, p a point kept with the next s.
    The nine digits split as p?[ds] three times into A from byte 1, B ending
    at byte 7 and C from byte 8, or at bytes 6, 9 and 12 after a lead; A and
    B have a whole block (s as d, p as "."), then a cut one."""
    whole = b"%03d" * 1000 % tuple(range(1000))
    cut = bytearray(whole)
    cut[2::30], cut[1::300], cut[0] = bytes(100), bytes(10), 0  # trailing 0s
    dots = cut.translate(bytes.maketrans(b"0123456789", b"." * 10))
    source = dict(zip("dsp.", np.frombuffer(whole + cut + dots + b"." * 3000,
                                            np.uint8).reshape(4, 1000, 3)))
    blocks, starts = [], {}  # (first byte, pattern) of each 1000 rows

    def start(first, pattern, cut_only=False):
        if (first, pattern) not in starts:
            starts[first, pattern] = 1000 * len(blocks)
            full = pattern.replace("s", "d").replace("p", ".")
            blocks.extend([(first, pattern)] if cut_only else
                          [(first, full), (first, pattern)])
        return starts[first, pattern]

    layouts = {0: [start(6, "sss"), start(9, "sss"), start(12, "sss", True)]}
    for p in range(1, 10):  # digits before the point; 0 for a lead
        a, b, c = re.findall("p?[ds]" * 3, "d" * p + "p" + "s" * (9 - p))
        layouts[p] = [start(1, a), start(8 - len(b), b), start(8, c, True)]
    groups = np.zeros((len(blocks), 1000, 16), np.uint8)
    for group, (first, text) in zip(groups, blocks):
        k = 0  # digit of the group; a point goes with the next one
        for byte, c in enumerate(text, first):
            group[:, byte] = source[c][:, k]
            k += c in "ds"
    scale, rows, text = [], [], b""
    for i in list(range(200)) + list(range(-200, 0)):  # signed 100 + e
        e = abs(i) - 100
        lead = -4 <= e < 0
        rows.append(layouts[0 if lead else e + 1 if 0 <= e <= 8 else 1])
        scale.append(float(f"1e{8 - e}"))
        tail = b"e%+03d" % e if not -4 <= e <= 8 and abs(e) < 100 else b""
        text += (b"-" if i < 0 else b"\0") + b"0.000"[:(1 - e) * lead] \
            .ljust(10, b"\0") + tail.rjust(4, b"\0") + b","
    return (np.array(scale), np.array(rows).T.copy(),
            groups.reshape(-1, 16).view("<u8"),
            np.frombuffer(text, "<u8").reshape(-1, 2),
            np.array([1000] + [0] * 1998))  # + 1000: every later digit is 0


_SCALE, _ROWS, _GROUPS, _TEXT, _CUT = _csv_tables()
#: a cell left to `_FMT`, which `%` fills in (no other cell holds a "%")
_LEFT_TO_FMT = np.frombuffer(_FMT.encode().ljust(15, b"\0") + b",", "<u8")


def _csv_rows(chunk: np.ndarray) -> bytes:
    """CSV rows of a 2-D float chunk, byte-identical to `_FMT % cell`.

    A cell is a 16-byte record, two <u8 words whose zero bytes are dropped:
    [sign] ["0.000" lead] nine digits with the point [e+NN] and, at byte 15,
    the separator; e = 100 + floor(log10|x|), signed as x, takes them all.
    s = |x| 10^(8-e) has two roundings, so it is within 3e-7 of the exact
    value: rint(s) are the nine digits of dtoa unless s is within 1e-5 of a
    tie.  (e may be one off next to a power of ten; s then rounds to 1e8, or
    to 1e9, which is capped to count as a tie.)  Cells near a tie, outside
    1e-99 <= |x| <= 1e99 or not finite go to `_FMT % cell`.  Each ufunc call
    keeps to one dtype: mixing bool and integer arrays raised peak memory."""
    x = chunk.ravel()
    a = np.abs(x)
    b = np.fmin(np.fmax(a, 1e-99), 1e99)
    ok = b == a
    e = np.copysign(np.log10(b) + 100.0, x).astype(np.intp)
    s = b * _SCALE.take(e)
    r = np.minimum(np.rint(s), 999999999.0)
    ok &= np.abs(s - r) < 0.49999
    nine = r.astype(np.intp)
    a, q = nine // 1000000, nine // 1000
    b, c = q - a * 1000, nine - q * 1000
    cells = _TEXT.take(e, axis=0)
    for rows, group in zip(_ROWS, (a + _CUT.take(b + c), b + _CUT.take(c), c)):
        cells |= _GROUPS.take(rows.take(e) + group, axis=0)
    if not (every := ok.all()):
        cells[~ok] = _LEFT_TO_FMT
    cells.reshape(len(chunk), -1, 2)[:, -1, 1] ^= 0x26 << 56  # "," to "\n"
    data = cells.tobytes().translate(None, b"\0")
    return data if every else data % tuple(x[~ok].tolist())


@contextlib.contextmanager
def _staged(paths: List[str]):
    """Yield `write(path, pieces)`, which appends `pieces` to a temporary
    `<path>.<pid>.tmp`; rename the temporaries over their `paths` at the
    end, or on any error remove them and the directories made for them."""
    made, parent = [], os.path.dirname(paths[0])  # deepest first
    while parent and not os.path.lexists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    handles = {}  # path -> its open temporary

    def write(path: str, pieces: Iterable[bytes]):
        try:
            if path not in handles:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                handles[path] = open(f"{path}.{os.getpid()}.tmp", "wb")
            handles[path].writelines(pieces)
        except OSError as exc:
            raise QNoiseError(f"cannot write {path}: {exc}") from exc
    try:
        yield write
        try:  # every file complete and free to rename before the first
            for path, handle in handles.items():
                handle.close()
                if os.path.isdir(path):
                    raise QNoiseError(f"cannot write {path}: a directory "
                                      "has its name")
            for path, handle in handles.items():
                os.replace(handle.name, path)
        except OSError as exc:
            raise QNoiseError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        for handle in handles.values():
            with contextlib.suppress(OSError):
                handle.close()
            with contextlib.suppress(OSError):
                os.remove(handle.name)
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
