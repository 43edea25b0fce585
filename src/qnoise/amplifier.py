"""Active elements: phase-insensitive gain stages and the ideal op-amp.

A gain stage a_out = G a_in + sqrt(|G|^2 - 1) b_in^dagger adds a conjugated
noise line b; the conjugation is what balances the commutator when |G| > 1.

The ideal operational amplifier (infinite gain, infinite input impedance,
null output impedance, reactive feedback Z_f) is a four-line scattering
object over its left line l, right line r and two equivalent noise lines
a, a' standing in for its voltage/current generators U, I:

    U = sqrt(hbar|w| R / 2) (a_in - a'_in[-w])
    I = sqrt(hbar|w| / 2R)  (a_in + a'_in[-w])

for an arbitrary decomposition impedance R.  This normalization keeps
[U, I] = 2 pi hbar w delta(w + w') and makes every row of the map satisfy
the Bogoliubov condition exactly.  At R = R_a = sqrt(sigma_UU / sigma_II)
the two lines are uncorrelated; away from it the anomalous a-a' correlation
carries the difference, leaving all physical port spectra R-independent.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .constants import HBAR
from .errors import DomainError, ModelError
from .network import ScatteringMap, TOL_REACTIVE
from .spectra import effective_temperature

__all__ = [
    "GainStage",
    "OpAmpNoisePair",
    "IdealOpAmp",
    "amplify_mode",
    "opamp_scattering",
    "decompose_noise_sources",
    "noise_line_occupations",
    "recombine_noise_sources",
    "commutator_audit",
    "CommutatorReport",
]


@dataclass(frozen=True)
class GainStage:
    """Phase-insensitive amplifier with |G| >= 1 and added-noise line
    temperature `noise_temperature` (K).  `gain` may be a complex constant
    or a function of omega."""

    gain: Union[complex, Callable[[float], complex]]
    noise_temperature: float = 0.0

    def gain_at(self, omega: float) -> complex:
        g = self.gain(omega) if callable(self.gain) else self.gain
        if abs(g) < 1.0:
            raise DomainError(f"|G| = {abs(g):.6g} < 1: attenuation must be "
                              "modeled as a passive network, not a gain stage")
        return complex(g)


@dataclass(frozen=True)
class OpAmpNoisePair:
    """Symmetrized voltage/current noise spectra of an op-amp at one
    frequency: sigma_uu (V^2 s), sigma_ii (A^2 s), cross sigma_ui
    (default 0, the paper's uncorrelated working point)."""

    sigma_uu: float
    sigma_ii: float
    sigma_ui: float = 0.0

    def __post_init__(self):
        if self.sigma_uu <= 0.0 or self.sigma_ii <= 0.0:
            raise DomainError("voltage and current noise spectra must be positive")

    def heisenberg_margin(self, omega: float) -> float:
        """sigma_uu sigma_ii - (hbar w / 2)^2 - sigma_ui^2; >= 0 for any
        physical amplifier."""
        return (self.sigma_uu * self.sigma_ii
                - (HBAR * omega / 2.0) ** 2 - self.sigma_ui ** 2)


@dataclass(frozen=True)
class IdealOpAmp:
    """Ideal op-amp: left line r_left, right line r_right (ohm), reactive
    feedback impedance z_feedback(omega), and optionally its noise pair."""

    r_left: float
    r_right: float
    z_feedback: Callable[[float], complex]
    noise: Optional[OpAmpNoisePair] = None

    def __post_init__(self):
        if self.r_left <= 0.0 or self.r_right <= 0.0:
            raise DomainError("line impedances must be positive")

    def feedback_at(self, omega: float) -> complex:
        """Feedback impedance at omega (a number, or an array over a sweep)."""
        zf = np.asarray(self.z_feedback(omega), dtype=complex)
        bad = np.abs(zf.real) > TOL_REACTIVE * np.abs(zf)
        if np.any(bad):
            raise ModelError(f"feedback impedance {zf[bad][0]} is not "
                             "reactive")
        return complex(zf) if zf.ndim == 0 else zf


def amplify_mode(stage: GainStage, omega: float,
                 labels: Tuple[str, str] = ("a", "b")) -> ScatteringMap:
    """Two-line scattering map of a gain stage.

    Row for the amplified output: G (normal on a), sqrt(|G|^2 - 1)
    (conjugated on b); the idler row mirrors it.  Row residual
    |G|^2 - (|G|^2 - 1) - 1 vanishes identically.
    """
    g = stage.gain_at(omega)
    c = np.sqrt(abs(g) ** 2 - 1.0)
    amp = np.array([[g, c], [c, g]], dtype=complex)
    conj = np.array([[False, True], [True, False]])
    return ScatteringMap(amp, conj, list(labels), list(labels))


def opamp_scattering(amp: IdealOpAmp, decomposition_impedance: float,
                     omega: float,
                     labels: Tuple[str, str, str, str] = ("l", "r", "a", "a_conj"),
                     ) -> ScatteringMap:
    """Scattering rows of the ideal op-amp over lines (l, r, a, a'); an
    array of omega gives amplitudes with a leading frequency axis.

    l_out = -l_in + sqrt(R/R_l) (a - a'^dagger); r_out carries the signal
    gain -2 Z_f / sqrt(R_r R_l) on l_in, -1 on r_in, and the
    ((R_l + Z_f)/R_l) U - Z_f I combination mapped onto a, a'.
    """
    r = decomposition_impedance
    if r <= 0.0:
        raise DomainError("decomposition impedance must be positive")
    zf = amp.feedback_at(omega)
    rl, rr = amp.r_left, amp.r_right

    c_l_a = np.sqrt(r / rl)
    # U coefficient sqrt(R/R_r)(R_l+Z_f)/R_l and I coefficient -Z_f/sqrt(R R_r)
    p = np.sqrt(r / rr) * (rl + zf) / rl
    q = zf / np.sqrt(r * rr)
    lab_l, lab_r, lab_a, lab_ac = labels
    entries = np.broadcast_arrays(
        -1.0, 0.0, c_l_a, -c_l_a,
        -2.0 * zf / np.sqrt(rr * rl), -1.0, p - q, -(p + q))
    amp_mat = np.stack(entries, axis=-1).reshape(np.shape(zf) + (2, 4))
    conj = np.array([
        [False, False, False, True],
        [False, False, False, True],
    ])
    return ScatteringMap(amp_mat, conj, [lab_l, lab_r],
                         [lab_l, lab_r, lab_a, lab_ac])


def noise_line_occupations(pair: OpAmpNoisePair, decomposition_impedance: float,
                           omega: float) -> Tuple[float, float, complex]:
    """Occupations (sigma_aa, sigma_a'a') and anomalous correlation m of the
    two equivalent noise lines for an arbitrary decomposition impedance R.

    m vanishes exactly at R = R_a; physical port spectra are independent of
    R because m compensates the rotated occupations.
    """
    r = decomposition_impedance
    if r <= 0.0:
        raise DomainError("decomposition impedance must be positive")
    hw = HBAR * abs(omega)
    s_uu = pair.sigma_uu / r
    s_ii = pair.sigma_ii * r
    sigma_aa = (s_uu + s_ii + 2.0 * pair.sigma_ui) / (2.0 * hw)
    sigma_acac = (s_uu + s_ii - 2.0 * pair.sigma_ui) / (2.0 * hw)
    m = (s_ii - s_uu) / (2.0 * hw)
    return sigma_aa, sigma_acac, m


def decompose_noise_sources(pair: OpAmpNoisePair, omega: float,
                            ) -> Tuple[float, float, float]:
    """Matched decomposition of an op-amp noise pair with sigma_ui = 0:
    returns (R_a, Theta_a, Theta_a') with R_a = sqrt(sigma_uu / sigma_ii)
    and equal occupations sigma_aa = sigma_a'a' = sqrt(sigma_uu sigma_ii) /
    (hbar |omega|)."""
    if pair.sigma_ui != 0.0:
        raise ModelError("matched decomposition assumes sigma_ui = 0; "
                         "use noise_line_occupations for the general case")
    r_a = np.sqrt(pair.sigma_uu / pair.sigma_ii)
    sigma_aa, sigma_acac, _ = noise_line_occupations(pair, r_a, omega)
    theta_a = effective_temperature(omega, sigma_aa)
    theta_ac = effective_temperature(omega, sigma_acac)
    return float(r_a), theta_a, theta_ac


def recombine_noise_sources(r_a: float, sigma_aa: float, sigma_acac: float,
                            omega: float) -> OpAmpNoisePair:
    """Inverse of the matched decomposition: rebuild (sigma_uu, sigma_ii,
    sigma_ui) from the line occupations at impedance R_a."""
    hw = HBAR * abs(omega)
    total = sigma_aa + sigma_acac
    return OpAmpNoisePair(
        sigma_uu=hw * r_a * total / 2.0,
        sigma_ii=hw * total / (2.0 * r_a),
        sigma_ui=hw * (sigma_aa - sigma_acac) / 2.0,
    )


@dataclass(frozen=True)
class CommutatorReport:
    """Result of a commutator audit: Bogoliubov residual per output row and,
    when the map exposes the op-amp noise lines, the reconstructed
    [U, I] / (2 pi delta) value relative to hbar omega."""

    row_residuals: Dict[str, float]
    ui_commutator_residual: Optional[float] = None

    @property
    def max_row_residual(self) -> float:
        return max(self.row_residuals.values())


def commutator_audit(smap: ScatteringMap, omega: Optional[float] = None,
                     decomposition_impedance: Optional[float] = None,
                     noise_labels: Tuple[str, str] = ("a", "a_conj"),
                     ) -> CommutatorReport:
    """Audit a scattering map against the field commutation relations.

    Always reports per-row Bogoliubov residuals.  Given omega and the
    decomposition impedance of an op-amp map, additionally reconstructs the
    U and I rows from the a, a' lines and checks that their
    normal-minus-conjugated cross-coefficient equals hbar omega.
    """
    residuals = dict(zip(smap.out_labels, smap.row_residuals()))
    ui_residual = None
    if omega is not None and decomposition_impedance is not None:
        r = decomposition_impedance
        hw = HBAR * abs(omega)
        # U row: sqrt(hw R/2) on a (normal), -sqrt(hw R/2) on a' (conj);
        # I row: sqrt(hw/2R) on both.
        u_coeffs = {noise_labels[0]: (np.sqrt(hw * r / 2.0), False),
                    noise_labels[1]: (-np.sqrt(hw * r / 2.0), True)}
        i_coeffs = {noise_labels[0]: (np.sqrt(hw / (2.0 * r)), False),
                    noise_labels[1]: (np.sqrt(hw / (2.0 * r)), True)}
        bilinear = 0.0
        for lab in noise_labels:
            cu, flag_u = u_coeffs[lab]
            ci, flag_i = i_coeffs[lab]
            if flag_u != flag_i:
                raise ModelError("inconsistent conjugation flags in audit rows")
            term = cu * np.conj(ci)
            bilinear += -term if flag_u else term
        ui_residual = abs(bilinear - hw) / hw
    return CommutatorReport(residuals, ui_residual)
