"""Passive quantum networks.

A network is a set of semi-infinite noise lines (one per dissipative
element) coupled by a reactive multipole with anti-Hermitian impedance
matrix Z(omega).  The scattering (repartition) matrix

    S = (z - 1)(z + 1)^-1,    z = R^{-1/2} Z R^{-1/2}

maps input line fields to output line fields and is unitary whenever Z is
reactive.  Spectra are symmetrized occupations per line; propagation is
incoherent per line (inputs are mutually uncorrelated) except for optional
anomalous pair correlations used by the active-element decompositions.
"""

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .constants import HBAR
from .errors import DomainError, ModelError

__all__ = [
    "NoiseLine",
    "reactivity_residual",
    "ModeCoefficient",
    "ScatteringMap",
    "SpectrumTable",
    "capacitor_impedance",
    "inductor_impedance",
    "impedance_matrix",
    "scattering_from_impedance",
    "propagate_spectra",
    "row_occupation",
    "port_observables",
]

#: relative anti-Hermiticity tolerance separating modeling errors from float noise
TOL_REACTIVE = 1e-9

#: condition-number guard for the (z + 1) solve
COND_LIMIT = 1e12


@dataclass(frozen=True)
class NoiseLine:
    """Semi-infinite line of characteristic impedance `resistance` (ohm)
    at temperature `temperature` (K), terminating one network port."""

    resistance: float
    temperature: float
    label: str

    def __post_init__(self):
        if not (self.resistance > 0.0 and np.isfinite(self.resistance)):
            raise DomainError(f"line {self.label!r}: impedance must be positive "
                              f"and finite, got {self.resistance}")
        if self.temperature < 0.0:
            raise DomainError(f"line {self.label!r}: temperature must be >= 0")


def reactivity_residual(z: np.ndarray) -> np.ndarray:
    """Relative anti-Hermiticity residual ||Z + Z^H|| / ||Z|| (0 for Z = 0)
    of an impedance matrix, or of each matrix in a (..., n, n) stack."""
    z = np.asarray(z, dtype=complex)
    norm = np.linalg.norm(z, axis=(-2, -1))
    defect = np.linalg.norm(z + np.swapaxes(z.conj(), -1, -2), axis=(-2, -1))
    return np.divide(defect, norm, out=np.zeros_like(norm),
                     where=norm > 0.0)[()]


@dataclass(frozen=True)
class ModeCoefficient:
    """One scattering entry: amplitude on the input field (conjugated=False)
    or on its frequency-reversed conjugate (conjugated=True).  Over a sweep
    the amplitude is an array with one value per frequency."""

    amplitude: complex
    conjugated: bool = False


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

    def row(self, out_label: str) -> Dict[str, ModeCoefficient]:
        """Coefficients of one output; amplitudes are complex numbers for a
        single-frequency map and arrays over the sweep otherwise."""
        i = self.out_labels.index(out_label)
        amps = np.moveaxis(self.amplitude[..., i, :], -1, 0)
        return {lab: ModeCoefficient(a if a.ndim else complex(a), bool(flag))
                for lab, a, flag in zip(self.in_labels, amps,
                                        self.conjugated[i])}

    def row_residuals(self) -> np.ndarray:
        """Bogoliubov residual per row: |sum_n |c|^2 - sum_c |c|^2 - 1|,
        shaped (..., n_out)."""
        mag2 = np.abs(self.amplitude) ** 2
        signed = np.where(self.conjugated, -mag2, mag2)
        return np.abs(signed.sum(axis=-1) - 1.0)

    def unitarity_defect(self) -> float:
        """max |S S^H - 1| over all frequencies for an all-normal square map."""
        if self.conjugated.any():
            raise ModelError("unitarity defect is defined for all-normal maps; "
                             "use row_residuals for active maps")
        n_out, n_in = self.conjugated.shape
        if n_out != n_in:
            raise ModelError("unitarity defect requires a square map")
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

    def sigma(self, label: str) -> float:
        try:
            return self.occupations[label]
        except KeyError:
            raise ModelError(f"no spectrum for line {label!r}") from None


def capacitor_impedance(value: float, omega: float) -> complex:
    """Capacitor reactance 1/(-i omega C) = i/(omega C) (quantum -i convention)."""
    if value <= 0.0:
        raise DomainError("capacitance must be positive")
    return 1j / (omega * value)


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
    shape = np.broadcast_shapes(*(np.shape(z) for z, _, _ in elements))
    z_mat = np.zeros(shape + (n_ports, n_ports), dtype=complex)
    for z, i, j in elements:
        z_mat[..., i, i] += z
        if j >= 0 and j != i:
            z_mat[..., j, j] += z
            z_mat[..., i, j] -= z
            z_mat[..., j, i] -= z
    return z_mat


def scattering_from_impedance(z_matrix: np.ndarray, lines: Sequence[NoiseLine],
                              ) -> ScatteringMap:
    """Scattering map S = (z - 1)(z + 1)^-1 of a reactive multipole
    terminated by noise lines, with z = R^{-1/2} Z R^{-1/2}.

    `z_matrix` is one (n, n) matrix or a (..., n, n) stack over frequency.
    Every Z must be anti-Hermitian within TOL_REACTIVE; the solve is
    guarded by a condition estimate (an ill-conditioned z + 1 signals
    corrupted input, since strictly anti-Hermitian z keeps its eigenvalues
    at unit real part).
    """
    z_matrix = np.asarray(z_matrix, dtype=complex)
    n = len(lines)
    if z_matrix.shape[-2:] != (n, n):
        raise ModelError(f"impedance matrix is {z_matrix.shape}, "
                         f"but {n} lines were given")
    residual = np.max(reactivity_residual(z_matrix), initial=0.0)
    if residual > TOL_REACTIVE:
        raise ModelError(f"impedance matrix is not reactive: "
                         f"anti-Hermiticity residual {residual:.3e} "
                         f"exceeds {TOL_REACTIVE:.0e}")
    r_sqrt_inv = np.array([1.0 / np.sqrt(line.resistance) for line in lines])
    z = r_sqrt_inv[:, None] * z_matrix * r_sqrt_inv
    eye = np.eye(n)
    cond = np.max(np.linalg.cond(z + eye), initial=0.0)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ModelError(f"(z + 1) is near-singular (condition {cond:.3e}); "
                         "input impedance matrix is not consistently reactive")
    # (z+1)^-1 and (z-1) commute, so the left solve equals (z-1)(z+1)^-1
    s = np.linalg.solve(z + eye, z - eye)
    labels = [line.label for line in lines]
    return ScatteringMap(s, np.zeros((n, n), dtype=bool), labels, labels)


def row_occupation(coeffs: Dict[str, ModeCoefficient],
                   table: SpectrumTable) -> float:
    """Occupation of one output field: sum |c|^2 sigma over referenced lines,
    plus 2 Re(c_j conj(c_k)) m_jk for anomalously correlated (normal j,
    conjugated k) pairs.  Conjugation does not alter the |c|^2 terms because
    all spectra are symmetrized."""
    total = 0.0
    for label, coef in coeffs.items():
        total += abs(coef.amplitude) ** 2 * table.sigma(label)
    for (j, k), m in table.anomalous.items():
        cj = coeffs.get(j)
        ck = coeffs.get(k)
        if cj is None or ck is None:
            continue
        if cj.conjugated == ck.conjugated:
            continue
        normal, conj = (cj, ck) if not cj.conjugated else (ck, cj)
        total += 2.0 * (normal.amplitude * np.conj(conj.amplitude) * m).real
    return float(total)


def propagate_spectra(smap: ScatteringMap, table: SpectrumTable) -> SpectrumTable:
    """Propagate input occupations through a scattering map.

    Output occupation i is sum_j |S_ij|^2 sigma_j (uncorrelated inputs).
    """
    return SpectrumTable({lab: row_occupation(smap.row(lab), table)
                          for lab in smap.out_labels})


def port_observables(smap: ScatteringMap, table: SpectrumTable, port: str,
                     omega: float, resistance: float) -> Tuple[float, float]:
    """Voltage and current PSD at `port` (impedance `resistance`) of a
    passive map.

    U = sqrt(hbar|w| R / 2)(a_out + a_in) and
    I = sqrt(hbar|w| / 2R)(a_out - a_in), so the PSDs pick up the in/out
    cross terms induced by S.
    """
    if port not in smap.out_labels:
        raise ModelError(f"unknown port {port!r}")
    if smap.conjugated.any():
        raise ModelError("port observables are defined for passive maps")
    i = smap.out_labels.index(port)
    e_i = np.zeros(len(smap.in_labels))
    e_i[smap.in_labels.index(port)] = 1.0
    v_coeffs = smap.amplitude[i, :] + e_i
    i_coeffs = smap.amplitude[i, :] - e_i
    sigmas = np.array([table.sigma(lab) for lab in smap.in_labels])
    scale = HBAR * abs(omega) / 2.0
    sigma_uu = scale * resistance * float(np.sum(np.abs(v_coeffs) ** 2 * sigmas))
    sigma_ii = scale / resistance * float(np.sum(np.abs(i_coeffs) ** 2 * sigmas))
    return sigma_uu, sigma_ii
