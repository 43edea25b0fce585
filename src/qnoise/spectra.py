"""Thermal and quantum fluctuation spectra.

Every dissipative element is seeded by the symmetrized occupation of its
noise line,

    sigma(omega, T) = 1/2 coth(hbar |omega| / (2 k_B T))

which interpolates between the vacuum floor 1/2 at T = 0 and the classical
k_B T / (hbar |omega|) at high temperature.  The equivalent energy per mode
is carried as an effective temperature Theta with k_B Theta = hbar|omega| sigma.

omega = 0 is excluded: sigma diverges like 1/|omega| at DC while the
energy-valued quantities stay finite.
"""

import numpy as np

from .constants import HBAR, K_B
from .errors import DomainError

__all__ = ["symmetrized_occupation"]


def symmetrized_occupation(omega, temperature):
    """Symmetrized noise occupation 1/2 coth(hbar|omega| / 2 k_B T).

    Depends only on |omega|; returns exactly 0.5 at T = 0.  Dimensionless.
    """
    if np.any(np.asarray(omega) == 0.0):
        raise DomainError("omega = 0 is outside the spectral domain")
    if np.any(np.asarray(temperature) < 0.0):
        raise DomainError("temperature must be >= 0")
    omega = np.abs(np.asarray(omega, dtype=float))
    t = np.asarray(temperature, dtype=float)
    x = np.where(t > 0.0, HBAR * omega / (2.0 * K_B * np.where(t > 0.0, t, 1.0)),
                 np.inf)
    sigma = 0.5 / np.tanh(x)
    return float(sigma) if sigma.ndim == 0 else sigma
