"""Thermal and quantum fluctuation spectra.

Every dissipative element is seeded by the energy per mode of its noise
line, an effective temperature Theta with

    k_B Theta(omega, T) = k_B T x / tanh(x),    x = hbar |omega| / (2 k_B T)

from the vacuum floor hbar|omega|/2 at T = 0 to the classical k_B T, which
stays finite at high T and low omega.  Its dimensionless view is the
symmetrized occupation sigma = k_B Theta / hbar|omega| = 1/2 coth(x), which
diverges at DC; omega = 0 is excluded.
"""

import numpy as np

from .constants import HBAR, K_B
from .errors import DomainError

__all__ = ["symmetrized_occupation", "thermal_energy"]


def thermal_energy(omega, temperature):
    """Energy per mode k_B T x / tanh(x), x = hbar|omega| / 2 k_B T (J): even
    in omega, exactly hbar|omega|/2 at T = 0, k_B T where x underflows."""
    if np.any(np.asarray(omega) == 0.0):
        raise DomainError("omega = 0 is outside the spectral domain")
    if np.any(np.asarray(temperature) < 0.0):
        raise DomainError("temperature must be >= 0")
    half = HBAR * np.abs(np.asarray(omega, dtype=float)) / 2.0
    kt = K_B * np.asarray(temperature, dtype=float)
    with np.errstate(all="ignore"):
        x = np.fmax(half / kt, 1e-300)  # inf at T = 0; below, x/tanh(x) = 1
        tanh = np.tanh(x)  # each form below is exact at its limit
        energy = np.where(x < 1.0, kt * (x / tanh), half / tanh)
    return float(energy) if energy.ndim == 0 else energy


def symmetrized_occupation(omega, temperature):
    """Symmetrized noise occupation 1/2 coth(hbar|omega| / 2 k_B T), the
    `thermal_energy` over hbar|omega|: exactly 0.5 at T = 0."""
    return thermal_energy(omega, temperature) / (HBAR * np.abs(omega))
