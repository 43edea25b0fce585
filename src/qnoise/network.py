"""Passive quantum networks.

A network is a set of semi-infinite noise lines (one per dissipative
element) coupled by a reactive multipole with anti-Hermitian impedance
matrix Z(omega).  The scattering (repartition) matrix

    S = (z - 1)(z + 1)^-1,    z = R^{-1/2} Z R^{-1/2}

maps input line fields to output line fields and is unitary whenever Z is
reactive.  Spectra are symmetrized occupations per line; propagation is
incoherent per line (inputs are mutually uncorrelated) except for optional
anomalous pair correlations used by the active-element decompositions.
Rows of S come from one elimination of (z + 1)^T over frequency, the last
axis of its arrays, so that each gather copies whole rows, in rounds planned
from the pattern of z, then LAPACK on the dense tail, into the caller's rows.
`stamp_solver`, the sweep's passive path, stamps caps and inds at w = 1,
keeps buffers per run, fills rows in one block loop and names an overflow.
"""

import functools
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ModelError

__all__ = [
    "NoiseLine", "ScatteringMap", "SpectrumTable",
    "capacitor_impedance", "impedance_matrix",
    "scattering_from_impedance", "stamp_solver",
    "propagate_spectra", "row_occupation",
]

#: relative anti-Hermiticity tolerance separating modeling errors from float noise
TOL_REACTIVE = 1e-9

#: condition-number guard for the (z + 1) solve
COND_LIMIT = 1e12

#: bound on temporaries: 4 x pattern entries per frequency block of the
#: passive solve; the sweep's spectra.csv cells per window; 4 x cells per
#: piece of CSV text
BLOCK_ENTRIES = 2 ** 14


@dataclass(frozen=True)
class NoiseLine:
    """Semi-infinite line of characteristic impedance `resistance` (ohm)
    at temperature `temperature` (K), terminating one network port; 1/R is
    finite too, as the solve scales by 1/sqrt(R_i R_j) in one product."""

    resistance: float
    temperature: float
    label: str

    def __post_init__(self):
        if not (self.resistance > 0.0 and 0 < 1 / self.resistance < np.inf):
            raise DomainError(f"line {self.label!r}: R and 1/R must be "
                              f"positive and finite, got {self.resistance}")
        if self.temperature < 0.0:
            raise DomainError(f"line {self.label!r}: temperature must be >= 0")


class ScatteringMap:
    """Scattering coefficients from input lines to output lines.

    `amplitude[..., i, j]` multiplies input j in output i, with an optional
    leading frequency axis; `conjugated[i, j]` flags entries acting on the
    conjugate field at every frequency.  Passive maps are square,
    all-normal and unitary; active maps satisfy the Bogoliubov row condition

        sum_normal |S_ij|^2 - sum_conj |S_ij|^2 = 1.
    """

    def __init__(self, amplitude: np.ndarray, conjugated: np.ndarray,
                 out_labels: Sequence[str], in_labels: Sequence[str]):
        self.amplitude = np.asarray(amplitude, dtype=complex)
        self.conjugated = np.asarray(conjugated, dtype=bool)
        self.out_labels = list(out_labels)
        self.in_labels = list(in_labels)
        shape = (len(self.out_labels), len(self.in_labels))
        if self.amplitude.shape[-2:] != shape:
            raise ModelError("scattering amplitude shape does not match labels")
        if self.conjugated.shape != shape:
            raise ModelError("conjugation flags shape does not match amplitudes")

    def row(self, out_label: str) -> "ScatteringMap":
        """The one-row map of output `out_label`: amplitude (..., 1, n_in),
        flags (1, n_in)."""
        i = self.out_labels.index(out_label)
        return ScatteringMap(self.amplitude[..., i:i + 1, :],
                             self.conjugated[i:i + 1], [out_label],
                             self.in_labels)

    def row_residuals(self) -> np.ndarray:
        """Bogoliubov residual per row: |sum_n |c|^2 - sum_c |c|^2 - 1|,
        shaped (..., n_out)."""
        mag2 = np.abs(self.amplitude) ** 2
        signed = np.where(self.conjugated, -mag2, mag2)
        return np.abs(signed.sum(axis=-1) - 1.0)

    def unitarity_defect(self) -> float:
        """max |S S^H - 1| over all frequencies for an all-normal square map."""
        n_out, n_in = self.conjugated.shape
        if self.conjugated.any() or n_out != n_in:
            raise ModelError("unitarity defect needs a square all-normal "
                             "map; use row_residuals for active maps")
        s = self.amplitude
        return float(np.max(np.abs(s @ np.swapaxes(s.conj(), -1, -2)
                                   - np.eye(n_out))))


@dataclass
class SpectrumTable:
    """Symmetrized occupations per line (numbers, or arrays over a sweep),
    plus optional anomalous pair correlations m[(j, k)] between
    same-frequency fields of lines j and k (nonzero only for
    active-element decompositions away from the matched impedance)."""

    occupations: Dict[str, float]
    anomalous: Dict[Tuple[str, str], complex] = field(default_factory=dict)


def capacitor_impedance(value: float, omega: float) -> complex:
    """Capacitor reactance 1/(-i omega C) = i/(omega C) (quantum -i convention)."""
    if value <= 0.0:
        raise DomainError("capacitance must be positive")
    return np.divide(1j, np.multiply(omega, value))


def inductor_impedance(value: float, omega: float) -> complex:
    """Inductor reactance -i omega L."""
    if value <= 0.0:
        raise DomainError("inductance must be positive")
    return -1j * omega * value


def impedance_matrix(n_ports: int,
                     elements: Sequence[Tuple[complex, int, int]]) -> np.ndarray:
    """Assemble a reactive impedance matrix from two-port element stamps.

    Each element is (reactance z, port i, port j) with 0-based ports; j = -1
    grounds the element (diagonal stamp only).  Bridging elements use the
    Laplacian stamp z on the diagonal, -z off-diagonal, which preserves
    anti-Hermiticity for purely reactive z.  Reactances given as arrays over
    frequency give a (..., n_ports, n_ports) stack.
    """
    zs = [np.asarray(z) for z, _, _ in elements]
    shape = np.broadcast_shapes(*{z.shape for z in zs})  # each shape once
    n = n_ports
    z_mat = np.zeros(shape + (n, n), dtype=complex)
    at, values = [], []  # each stamp's flat (i, j) and reactance, in order
    for z, (_, i, j) in zip(zs, elements):
        bridged = j >= 0 and j != i  # else z at (i, i) alone
        at += [i * n + i, j * n + j, i * n + j, j * n + i][:1 + 3 * bridged]
        values += [z, z, -z, -z] if bridged else [z]
    if values:  # one add.at, by stack entry and then by stamp
        values = np.array([v if v.shape == shape else np.broadcast_to(v, shape)
                           for v in values], dtype=complex)
        at = np.arange(0, z_mat.size, n * n)[:, None] + at
        np.add.at(z_mat.reshape(-1), at.ravel(),
                  values.reshape(len(values), -1).T.ravel())
    return z_mat


def scattering_from_impedance(z_matrix: np.ndarray, lines: Sequence[NoiseLine],
                              outputs: Optional[Sequence[str]] = None,
                              ) -> ScatteringMap:
    """Scattering map S = (z - 1)(z + 1)^-1 of a reactive multipole
    terminated by noise lines, with z = R^{-1/2} Z R^{-1/2}.

    `z_matrix` is one (n, n) matrix or a (..., n, n) stack over frequency;
    `outputs` names the rows of S to solve for (line labels, default all).
    Every z must be anti-Hermitian to ||z + z^H|| <= TOL_REACTIVE ||z|| (S
    is unitary exactly then) and cond(z + 1) at most COND_LIMIT.
    """
    z_matrix = np.asarray(z_matrix, dtype=complex)
    n = len(lines)
    if z_matrix.shape[-2:] != (n, n):
        raise ModelError(f"impedance matrix is {z_matrix.shape}, "
                         f"but {n} lines were given")
    labels = [line.label for line in lines]
    outputs = labels if outputs is None else list(outputs)
    if not set(outputs) <= set(labels):
        raise ModelError(f"unknown output lines {set(outputs) - set(labels)}")
    r_sqrt_inv = np.array([1.0 / np.sqrt(line.resistance) for line in lines])
    with np.errstate(invalid="ignore", over="ignore"):  # named just below
        z = z_matrix * (r_sqrt_inv[:, None] * r_sqrt_inv)  # dd is symmetric
    if not np.isfinite(z).all():  # the norms below would not name it
        raise ModelError("scaled impedance R^-1/2 Z R^-1/2 is not finite")
    shape, z = z.shape[:-2], z.reshape(-1, n, n)
    norm = np.linalg.norm(z, axis=(-2, -1))
    skew = np.linalg.norm(z + np.swapaxes(z, -1, -2).conj(), axis=(-2, -1))
    residual = np.max(np.divide(skew, norm, out=np.zeros_like(norm),
                                where=norm > 0.0), initial=0.0)
    if residual > TOL_REACTIVE:
        raise ModelError(f"impedance matrix is not reactive: "
                         f"anti-Hermiticity residual {residual:.3e} "
                         f"exceeds {TOL_REACTIVE:.0e}")
    plan = _plan(n, (z != 0.0).any(axis=0).tobytes())
    a = np.vstack((z.T[plan[0], plan[1]], np.zeros(len(z))))  # z^T, then 0
    b = np.empty((len(outputs), n + 1, len(z)), dtype=complex)
    _eliminate(plan, a, list(map(labels.index, outputs)), norm, skew, b)
    s = b[:, :n].transpose(2, 0, 1).reshape(shape + (len(outputs), n))
    return ScatteringMap(s, np.zeros(s.shape[-2:], bool), outputs, labels)


def stamp_solver(lines: Sequence[NoiseLine],
                 elements: Sequence[Tuple[str, str, float, int, int]],
                 outputs: Sequence[str]):
    """`solve(omegas)`: rows `outputs` of S over omegas (F,), shaped
    (F, k, n) as a view of (k, n, F), so that each row is contiguous over
    frequency, for the caps and inds `elements` (kind "cap" or "ind", name,
    value, port i, port j; j = -1 grounds it).  Their stamps A and B at
    w = 1 are exactly imaginary and symmetric, so every Z(w) = A/w + wB is
    exactly anti-Hermitian, and the rows are bit for bit those of
    `scattering_from_impedance(i (Im A / w) + w B, ...)`.  It solves from
    the slots of x = (Im A / w + w Im B) dd, dd_ij = d_i d_j, d = R^-1/2;
    an x that overflows is rejected by the first element whose own reactance
    overflows there, else by the line or pair of lines.  It forms x, its
    squares and a in one buffer (slots + 1, F) kept for the run, as wide as
    its widest block; one block loop fills the rows, which the caller owns."""
    labels = [line.label for line in lines]
    if not set(outputs) <= set(labels):
        raise ModelError(f"unknown output lines {set(outputs) - set(labels)}")
    rows = list(map(labels.index, outputs))
    d = np.array([1.0 / np.sqrt(line.resistance) for line in lines])
    x_a, x_b = (impedance_matrix(len(lines), [
        (impedance(value, 1.0), i, j)
        for kind, _, value, i, j in elements if kind == name]).imag.copy()
        for name, impedance in (("cap", capacitor_impedance),
                                ("ind", inductor_impedance)))
    plan = _plan(len(lines), ((x_a != 0.0) | (x_b != 0.0)).tobytes())
    slot_a, slot_b = (m[plan[0], plan[1], None] for m in (x_a, x_b))
    slot_dd = d[plan[0], None] * d[plan[1], None]
    work = [np.empty((len(slot_a) + 1, 0), dtype=complex)]  # a, kept per run

    def solve_block(w: np.ndarray, s: np.ndarray):
        if work[0].shape[1] < len(w):  # as wide as the widest block yet
            work[0] = np.empty((len(slot_a) + 1, len(w)), dtype=complex)
        a = work[0][:, :len(w)]  # z^T = i x^T = i x at the slots, then 0
        x, scratch = a.imag[:-1], a.real[:-1]  # its real part 0 after them
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            np.divide(slot_a, w, out=x)  # finite where the reactance is, and
            x += np.multiply(slot_b, w, out=scratch)  # 0 / w is 0
            x *= slot_dd  # x has both triangles: its norm is |z|_F
            norm = np.sqrt(np.add.reduce(np.square(x, out=scratch), axis=0))
            if not np.isfinite(norm).all() and not np.isfinite(x).all():
                f = np.flatnonzero(~np.isfinite(x).all(axis=0))[0]
                w, bad = w[f], ~np.isfinite(x[:, f])  # the first such w
                i, j = min(zip(plan[0][bad], plan[1][bad]))  # row-major
                named = [f"{kind} {name}: its reactance"
                         for kind, name, value, _, _ in elements
                         if not np.isfinite(1.0 / (w * value) if kind == "cap"
                                            else w * value)]
                where = f"line {labels[i]!r}" if i == j else \
                    f"lines {labels[i]!r} and {labels[j]!r}"
                named += [f"{where}: the summed cap and ind reactance over R"]
                raise ModelError(f"{named[0]} overflows at "
                                 f"{w / (2 * np.pi):.6g} Hz")
        a.real[:], a.imag[-1] = 0.0, 0.0
        _eliminate(plan, a, rows, norm, 0.0, s)

    def solve(omegas: np.ndarray) -> np.ndarray:
        block = max(1, 4 * BLOCK_ENTRIES // len(slot_a))  # held in cache
        s = np.empty((len(rows), len(lines) + 1, len(omegas)), dtype=complex)
        for f in range(0, len(omegas), block):  # each row contiguous in F
            solve_block(omegas[f:f + block], s[..., f:f + block])
        return s[:, :-1].transpose(2, 0, 1)  # (F, k, n)
    return solve


@functools.lru_cache(maxsize=64)
def _plan(n: int, pattern: bytes):
    """Elimination of (z + 1)^T fixed by the (n, n) bool `pattern` of z:
    rounds of pivots (k (P,), their neighbours (W, P) padded with line n)
    by ascending degree, pairwise >= 3 apart in the graph of the lines
    left, so that their Schur updates are distinct, while over 4 lines
    are left and under half their pairs are joined, and then on to the
    last line; the lines left are the dense tail.  The slots hold the
    entries of the pivots' rows and columns, then the tail's square, row
    by row; `slot` (n + 1, n + 1) indexes them, its last for 0."""
    graph, held = [set() for _ in range(n)], set()
    full = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(full | full.T))):
        graph[i] |= {j} - {i}
    left, rounds = set(range(n)), []
    while (m := len(left)) > 4 and 2 * sum(map(len, graph)) < m * (m - 1) \
            or rounds and 0 < m <= 4:  # where LAPACK would cost more
        near, pivots = set(), []
        for k in sorted(left, key=lambda k: (len(graph[k]), k)):
            if k not in near:
                pivots.append(k)
                near |= {k}.union(graph[k], *(graph[i] for i in graph[k]))
        nbs = [sorted(graph[k]) for k in pivots]
        width = max(map(len, nbs))
        rounds.append((np.array(pivots), np.array(
            [v + [n] * (width - len(v)) for v in nbs], int).reshape(
                len(pivots), width).T.copy()))
        for k, v in zip(pivots, nbs):
            held.update([(k, k)] + [(k, i) for i in v] + [(i, k) for i in v])
            for i in v:
                graph[i] = (graph[i] | set(v)) - {i, k}
            graph[k] = set()
            left.discard(k)
    tail = np.array(sorted(left), int)
    at_row, at_col = np.array(sorted(held) + [(i, j) for i in tail.tolist()
                                              for j in tail.tolist()],
                              int).reshape(-1, 2).T
    slot = np.full((n + 1, n + 1), len(at_row))
    slot[at_row, at_col] = np.arange(len(at_row))
    return at_row, at_col, slot, [  # and each round's slots: its pivots,
        (k, nb, np.vstack([slot[k, k], slot[nb, k], slot[k, nb]]),  # cols,
         slot[nb[:, None], nb]) for k, nb in rounds], tail  # rows; updates


def _eliminate(plan, a: np.ndarray, rows: Sequence[int], norm, skew, b):
    """Rows `rows` of S into b[:, :n] of the caller's b (k, n + 1, F) from
    (z + 1)^T S^T = (z - 1)^T, given z^T at the slots of `plan`, then 0, in
    `a` (slots + 1, F; overwritten) and the Frobenius norms (F,) of z and
    z + z^H.  The Hermitian part of z + 1 is at least 1 - |(z + z^H) / 2|,
    which bounds its pivots from below and cond(z + 1) by
    (1 + |z|) / (1 - |(z + z^H) / 2|); where that bound exceeds COND_LIMIT,
    an SVD checks z + 1 and LAPACK solves it."""
    at_row, at_col, slot, rounds, tail = plan
    n = len(slot) - 1
    a.real[slot.diagonal()[:n]] += 1.0  # (z + 1)^T
    a.take(slot[:, rows].T, axis=0, out=b, mode="clip")  # "raise" copies b
    b[range(len(rows)), rows] -= 2.0  # (z - 1)^T[:, rows], row n 0
    unclear = ~(1.0 + norm <= COND_LIMIT * (1.0 - skew / 2.0))
    if unclear.any():
        system = a[:, unclear][slot[:n, :n]].transpose(2, 0, 1)
        cond = np.max(np.linalg.cond(system))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise ModelError(f"(z + 1) is near-singular (condition "
                             f"{cond:.3e}); input impedance matrix is not "
                             "consistently reactive")
        b[:, :n, unclear] = np.linalg.solve(system, b[:, :n, unclear].T).T
        a[:, unclear] = np.isin(range(len(a)), slot.diagonal()[:n])[:, None]
    for k, nb, reads, update in rounds:  # nb (W, P), reads (1 + 2W, P)
        g = a[reads]  # one gather of the pivots, their columns and rows
        mult = g[1:1 + len(nb)] / g[0]  # by division, as LAPACK does
        a[update] -= mult[:, None] * g[None, 1 + len(nb):]
        bk = b.take(k, 1)  # no neighbour is a pivot of the round: read once
        for j in range(len(nb)):  # by neighbour: temporaries of b's rows
            b[:, nb[j]] = b.take(nb[j], 1) - mult[j] * bk
    if m := len(tail):  # its square is in the last slots, row by row
        b[:, tail] = np.linalg.solve(a[-1 - m * m:-1].reshape(
            m, m, -1).transpose(2, 0, 1), b[:, tail].T).T
    for k, nb, reads, update in reversed(rounds):
        g = a[reads]  # no later round changed its pivots' rows
        bk = b.take(k, 1)  # on axis 1, take gathers faster than an index
        for j in range(len(nb)):
            bk -= g[1 + len(nb) + j] * b.take(nb[j], 1)
        bk /= g[0]
        b[:, k] = bk


def propagate_spectra(smap: ScatteringMap, table: SpectrumTable) -> SpectrumTable:
    """Occupations of every output of `smap` over any leading frequency axis:
    sum_j |S_ij|^2 sigma_j in `in_labels` order, then 2 Re(c_j conj(c_k)) m_jk
    per anomalous pair in table order where row i is normal on one of j, k,
    conjugated on the other.  Inputs and outputs are numbers or (F,) arrays."""
    try:
        sigma = np.stack(np.broadcast_arrays(
            *(table.occupations[label] for label in smap.in_labels)), axis=-1)
    except KeyError as exc:
        raise ModelError(f"no spectrum for line {exc.args[0]!r}") from None
    index = {label: n for n, label in enumerate(smap.in_labels)}
    terms = np.abs(smap.amplitude) ** 2 * sigma[..., None, :]
    # accumulate adds along the row in order, where sum() would pair terms
    total = np.add.accumulate(terms, axis=-1)[..., -1]
    for (j, k), m in table.anomalous.items():
        if j in index and k in index:
            cj, ck = (smap.amplitude[..., index[x]] for x in (j, k))
            fj, fk = (smap.conjugated[:, index[x]] for x in (j, k))
            pair = 2.0 * (np.where(fj, ck, cj) * np.conj(np.where(fj, cj, ck))
                          * np.asarray(m)[..., None]).real
            total = total + np.where(fj != fk, pair, 0.0)
    return SpectrumTable(dict(zip(smap.out_labels, np.moveaxis(total, -1, 0))))


def row_occupation(row: ScatteringMap, table: SpectrumTable) -> float:
    """Occupation of the output of the one-row map `row`, a float at one
    frequency and an (F,) array over a sweep: `propagate_spectra`'s row."""
    (occupation,) = propagate_spectra(row, table).occupations.values()
    return occupation
