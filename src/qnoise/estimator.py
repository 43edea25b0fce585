"""Calibrated estimators and per-source noise budgets.

A readout row (one output field as a linear combination of input fields) is
normalized by its signal coefficient, so the estimator reads as the signal
plus an equivalent input noise sum_alpha mu_alpha alpha_in.  The budget is
the per-source decomposition |mu_alpha|^2 sigma_alpha of the added-noise
spectrum.  Coefficients, occupations and budget terms are numbers at one
frequency or arrays over a sweep (one value per frequency).
"""

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from .errors import DomainError, ModelError
from .network import ModeCoefficient, SpectrumTable

__all__ = [
    "EstimatorRow",
    "NoiseBudget",
    "normalize_estimator",
    "added_noise_spectrum",
    "snr_degradation",
    "integrate_budget",
]


@dataclass(frozen=True)
class EstimatorRow:
    """Normalized readout: unit signal gain plus per-line noise coefficients."""

    coefficients: Dict[str, ModeCoefficient]
    units: str = ""

    def coefficient(self, label: str) -> ModeCoefficient:
        return self.coefficients[label]


@dataclass
class NoiseBudget:
    """Per-source noise terms |mu|^2 sigma and their total, in units^2/Hz of
    the estimated quantity; over a sweep each term and the total are arrays.
    Dominant sources (of a single-frequency or band-integrated budget) are
    the strict maxima; ties report every maximizer."""

    terms: Dict[str, float]
    units: str = ""

    @property
    def total(self) -> float:
        return _number(sum(self.terms.values()))

    @property
    def dominant(self) -> List[str]:
        if not self.terms:
            return []
        top = max(self.terms.values())
        return sorted(lab for lab, v in self.terms.items() if v == top)


def normalize_estimator(coefficients: Mapping[str, ModeCoefficient],
                        signal_coefficient: complex,
                        units: str = "") -> EstimatorRow:
    """Divide a readout row by its signal coefficient.

    A vanishing signal coefficient means the signal path is blocked and the
    estimator is undefined.
    """
    s = np.asarray(signal_coefficient, dtype=complex)
    if np.any(s == 0.0):
        raise DomainError("zero signal coefficient: estimator undefined "
                          "(signal blocked)")
    if s.ndim == 0:
        s = complex(s)
    return EstimatorRow(
        {lab: ModeCoefficient(c.amplitude / s, c.conjugated)
         for lab, c in coefficients.items()},
        units=units,
    )


def added_noise_spectrum(row: EstimatorRow, table: SpectrumTable,
                         ) -> NoiseBudget:
    """Per-source budget term_alpha = |mu_alpha|^2 sigma_alpha.

    Conjugation flags do not alter magnitudes (spectra are symmetrized).
    Anomalous input correlations are rejected here: a budget must stay a sum
    of nonnegative per-source terms, so correlated decompositions should be
    evaluated at their matched impedance first.
    """
    for (j, k), m in table.anomalous.items():
        if m != 0.0 and j in row.coefficients and k in row.coefficients:
            raise ModelError(
                f"anomalous correlation between {j!r} and {k!r}: re-decompose "
                "at the matched impedance before building a budget")
    terms = {}
    for label, coef in row.coefficients.items():
        terms[label] = _number(abs(coef.amplitude) ** 2 * table.sigma(label))
    return NoiseBudget(terms, units=row.units)


def _number(value):
    """A 0-d value as a Python float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def snr_degradation(theta_a: float, theta_b: float, gain: complex) -> float:
    """Output/input SNR ratio of an amplifier stage:
    Theta_a / (Theta_a + (1 - 1/|G|^2) Theta_b).

    Equals 1/2 (the 3 dB repeater loss) for equal temperatures at large gain
    and 1 for a noiseless (Theta_b = 0) amplifier.
    """
    if theta_a <= 0.0:
        raise DomainError("input effective temperature must be positive")
    if theta_b < 0.0:
        raise DomainError("added-noise temperature must be >= 0")
    g2 = abs(gain) ** 2
    if g2 < 1.0:
        raise DomainError("|G| >= 1 required")
    return theta_a / (theta_a + (1.0 - 1.0 / g2) * theta_b)


def integrate_budget(budget: NoiseBudget,
                     frequencies_hz: Sequence[float]) -> NoiseBudget:
    """Band-integrated budget (trapezoidal in Hz) of a budget whose terms
    are arrays with one value per sweep frequency."""
    freqs = np.asarray(frequencies_hz, dtype=float)
    if freqs.size == 0:
        raise ModelError("empty sweep")
    integrated = {}
    for lab, values in budget.terms.items():
        if np.shape(values) != freqs.shape:
            raise ModelError("one budget value per frequency point required")
        if len(freqs) == 1:
            integrated[lab] = float(values[0])
        else:
            integrated[lab] = float(np.trapezoid(values, freqs))
    return NoiseBudget(integrated, units=budget.units)
