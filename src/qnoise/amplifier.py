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
`opamp_scattering` builds this map for any feedback, and the sweep and the
accelerometer take their rows from it; `opamp_noise_energy` gives the flat
energy k_B Theta_a of the lines a, a', checked against the vacuum floor.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .constants import HBAR, K_B
from .errors import DomainError, ModelError
from .network import ScatteringMap, TOL_REACTIVE

__all__ = [
    "GainStage", "OpAmpNoisePair", "IdealOpAmp",
    "amplify_mode", "opamp_scattering", "opamp_noise_energy",
    "noise_line_occupations", "recombine_noise_sources",
]


@dataclass(frozen=True)
class GainStage:
    """Phase-insensitive amplifier with complex gain |G| >= 1."""

    gain: complex


@dataclass(frozen=True)
class OpAmpNoisePair:
    """Symmetrized voltage/current noise spectra of an op-amp (numbers, or
    arrays over a sweep): sigma_uu (V^2 s), sigma_ii (A^2 s), cross
    sigma_ui (default 0, the paper's uncorrelated working point)."""

    sigma_uu: float
    sigma_ii: float
    sigma_ui: float = 0.0

    def __post_init__(self):
        if np.min(self.sigma_uu) <= 0.0 or np.min(self.sigma_ii) <= 0.0:
            raise DomainError("voltage and current noise spectra must be positive")


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
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            zf = np.asarray(self.z_feedback(omega), dtype=complex)
        bad = ~(np.abs(zf.real) <= TOL_REACTIVE * np.abs(zf))  # or not finite
        if np.any(bad):
            hz = np.broadcast_to(omega, zf.shape)[bad][0] / (2.0 * math.pi)
            raise ModelError(f"feedback impedance {zf[bad][0]} is not "
                             f"reactive at {hz:.6g} Hz")
        return complex(zf) if zf.ndim == 0 else zf


def amplify_mode(stage: GainStage, omega: float) -> ScatteringMap:
    """Two-line scattering map of a gain stage at omega, which a constant
    gain does not depend on.

    Row for the amplified output: G (normal on a), sqrt(|G|^2 - 1)
    (conjugated on b); the idler row mirrors it.  Row residual
    |G|^2 - (|G|^2 - 1) - 1 vanishes identically.
    """
    g = complex(stage.gain)
    modulus = math.hypot(g.real, g.imag)
    if modulus < 1.0:
        raise DomainError(f"|G| = {modulus:.6g} < 1: attenuation must be "
                          "modeled as a passive network, not a gain stage")
    c = np.sqrt(modulus * modulus - 1.0)
    if not np.isfinite(c):
        raise DomainError(f"|G|^2 overflows for G = {g}")
    amp = np.array([[g, c], [c, g]], dtype=complex)
    conj = np.array([[False, True], [True, False]])
    return ScatteringMap(amp, conj, ["a", "b"], ["a", "b"])


def opamp_scattering(amp: IdealOpAmp, decomposition_impedance: float,
                     omega: float) -> ScatteringMap:
    """Scattering rows of the ideal op-amp over lines (l, r, a, a'); an
    array of omega gives amplitudes with a leading frequency axis, laid out
    so that each row's (4, F) transpose is contiguous.

    l_out = -l_in + sqrt(R/R_l) (a - a'^dagger); r_out carries the signal
    gain -2 Z_f / sqrt(R_r R_l) on l_in, -1 on r_in, and the
    ((R_l + Z_f)/R_l) U - Z_f I combination mapped onto a, a'.
    """
    r = decomposition_impedance
    if r <= 0.0:
        raise DomainError("decomposition impedance must be positive")
    rl, rr, zf = amp.r_left, amp.r_right, amp.feedback_at(omega)
    c, q = np.sqrt(r / rl), zf / np.sqrt(r * rr)  # q: I coefficient
    p = np.sqrt(r / rr) * (rl + zf) / rl  # U coefficient on a, a'
    rows = np.empty((2, 4) + np.shape(zf), complex)
    for i, row in enumerate(((-1.0, 0.0, c, -c), (
            -2.0 * zf / np.sqrt(rr * rl), -1.0, p - q, -(p + q)))):
        for j, entry in enumerate(row):
            rows[i, j] = entry
    conj = np.array([[False, False, False, True]] * 2)  # a' conjugated
    return ScatteringMap(np.moveaxis(rows, (0, 1), (-2, -1)), conj,
                         ["l", "r"], ["l", "r", "a", "a_conj"])


def opamp_noise_energy(theta_a: float, omega, name: str, at: str = "",
                       ) -> float:
    """The flat energy k_B Theta_a of an op-amp's noise lines a, a' at
    omega (a number, or an array over a sweep), rejected where its
    occupation is below the hbar|omega|/2 vacuum floor; `name` and `at`
    word the message."""
    energy = K_B * theta_a
    sigma = energy / (HBAR * omega)
    low = np.flatnonzero(np.ravel(sigma) < 0.5)
    if low.size:
        raise DomainError(f"{name} noise occupation "
                          f"{np.ravel(sigma)[low[0]]:.3g} is below the 1/2 "
                          f"vacuum floor at {at}"
                          f"{np.ravel(omega)[low[0]] / (2.0 * math.pi):.6g} Hz")
    return energy


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


def recombine_noise_sources(r_a: float, sigma_aa: float, sigma_acac: float,
                            omega: float) -> OpAmpNoisePair:
    """Inverse of `noise_line_occupations` at the matched impedance R_a:
    rebuild (sigma_uu, sigma_ii, sigma_ui) from the line occupations."""
    hw = HBAR * abs(omega)
    total = sigma_aa + sigma_acac
    return OpAmpNoisePair(
        sigma_uu=hw * r_a * total / 2.0,
        sigma_ii=hw * total / (2.0 * r_a),
        sigma_ui=hw * (sigma_aa - sigma_acac) / 2.0,
    )
