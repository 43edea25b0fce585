"""Calibrated estimators and per-source noise budgets.

Passive, gain, op-amp and muscope estimators are each compiled once into
a `CompiledEstimator` and evaluated by the one kernel `evaluate`.  Divided
by its signal coefficient, a readout row reads as the signal plus an
equivalent input noise sum_alpha mu_alpha alpha_in; the budget is the
per-source decomposition |mu_alpha|^2 k_B Theta_alpha of the added-noise
spectrum (for the muscope force estimator, |mu_alpha|^2 times force PSDs).
"""

import math
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from .errors import DomainError, QNoiseError

__all__ = [
    "CompiledEstimator",
    "NoiseBudget",
    "evaluate",
    "snr_degradation",
]


class CompiledEstimator(NamedTuple):
    """Estimator `label` over F frequencies: its raw readout row
    `coefficients` (K, F) on the K `sources`, the index `signal` of the
    source whose row is the signal coefficient and the `occupations` (K, F),
    or (K, 1) when flat in frequency, in the units of the PSD per |c/s|^2:
    energies k_B Theta for a field readout, force PSDs for the muscope."""

    label: str
    sources: List[str]
    coefficients: np.ndarray
    signal: int
    occupations: np.ndarray


class NoiseBudget(NamedTuple):
    """Per-source noise spectra `terms` (F,) and their `total` (F,), in
    units^2/Hz of the estimated quantity, with the band integral of each
    source (trapezoidal in Hz; the value itself on a 1-point grid) in
    `band` and their sum in `band_total`, both Python floats."""

    terms: Dict[str, np.ndarray]
    total: np.ndarray
    band: Dict[str, float]
    band_total: float

    @property
    def dominant(self) -> List[str]:
        """The sources with the largest band integral; ties report every
        maximizer."""
        top = max(self.band.values())
        return sorted(src for src, v in self.band.items() if v == top)

    def records(self, label: str) -> List[dict]:
        """budget.csv rows of the estimator `label`: per source its band
        integral, share of the total and dominance, then its TOTAL."""
        total, dominant = self.band_total, self.dominant
        return [{"estimator": label, "source": src, "band_integrated": value,
                 "fraction_of_total": value / total if total > 0.0 else 0.0,
                 "dominant": src in dominant}
                for src, value in self.band.items()] + [
            {"estimator": label, "source": "TOTAL", "band_integrated": total,
             "fraction_of_total": 1.0, "dominant": False}]


def evaluate(est: CompiledEstimator, freqs_hz: np.ndarray,
             before: Optional[NoiseBudget] = None,
             before_hz: float = 0.0) -> NoiseBudget:
    """Budget of `est` over its grid `freqs_hz`: divides the row by the
    signal coefficient, naming a source name taken twice and the first
    frequency where the signal is 0; forms |c/s|^2 times the occupations,
    sums the sources in order and band-integrates them in one trapezoid.
    A sweep walked in windows passes `before`, the budget of the window
    that ends at `before_hz`, and its band and the trapezoid from there are
    added.  It returns only finite budgets, and names the first cell that
    is not."""
    if len(set(est.sources)) < len(est.sources):  # O(K)
        twice = [src for src in est.sources if est.sources.count(src) > 1]
        raise QNoiseError(f"estimator {est.label}: two sources are named "
                          f"{twice[0]!r}; rename the line that takes it")
    signal = est.coefficients[est.signal]
    zero = signal == 0.0
    if zero.any():
        raise QNoiseError(
            f"measure {est.label}: signal coefficient of line "
            f"{est.sources[est.signal]!r} underflows to 0 at "
            f"{freqs_hz[np.argmax(zero)]:.6g} Hz (below the smallest double)")
    # in C order, so that the trapezoid sums each source as a 1-D call does
    terms = np.abs(np.divide(est.coefficients, signal, order="C"))
    terms **= 2
    terms *= est.occupations
    # np.trapezoid(terms, freqs_hz, axis=-1), without its per-call set-up;
    # each term is halved before the sum, which could overflow where the
    # band does not
    band = (terms[:, 0] if len(freqs_hz) == 1 and before is None else
            np.add.reduce(np.diff(freqs_hz) * (
                terms[:, 1:] * 0.5 + terms[:, :-1] * 0.5), axis=-1))
    if before is not None:  # in grid order: its band, the step, this band
        last = np.array([t[-1] for t in before.terms.values()])
        band = np.fromiter(before.band.values(), float, len(last)) + (
            freqs_hz[0] - before_hz) * (last * 0.5 + terms[:, 0] * 0.5) + band
    band = band.tolist()
    # the sources in order at every F; terms.sum(0) pairs them at F = 1
    total = np.add.accumulate(terms, axis=0)[-1].copy()  # frees the rest
    band_total = sum(band)
    if not (np.isfinite(total).all() and math.isfinite(band_total)):
        # terms are >= 0; name a source or total row, else a band or TOTAL
        finite = np.isfinite(np.vstack([terms, total]))
        src, at = next((src for src, v in zip(est.sources, band)
                        if not math.isfinite(v)), "TOTAL"), ""
        if not finite.all():
            k, f = np.unravel_index(np.argmin(finite), finite.shape)
            src, at = [*est.sources, "total"][k], f" at {freqs_hz[f]:.6g} Hz"
            if k < len(terms) and not np.isfinite(
                    np.abs(est.coefficients[k, f] / signal[f]) ** 2):
                at += (", where its signal-normalised coefficient |c/s|^2 "
                       "overflows")
        raise QNoiseError(f"estimator {est.label}: source {src} has a "
                          f"non-finite noise budget (numeric overflow){at}")
    return NoiseBudget(dict(zip(est.sources, terms)), total,
                       dict(zip(est.sources, band)), band_total)


def snr_degradation(theta_a: float, theta_b: float, gain: complex) -> float:
    """Output/input SNR ratio of an amplifier stage:
    Theta_a / (Theta_a + (1 - 1/|G|^2) Theta_b).

    Equals 1/2 (the 3 dB repeater loss) for equal temperatures at large gain,
    also where |G|^2 overflows, and 1 for a noiseless (Theta_b = 0) amplifier.
    """
    if theta_a <= 0.0:
        raise DomainError("input effective temperature must be positive")
    if theta_b < 0.0:
        raise DomainError("added-noise temperature must be >= 0")
    modulus = math.hypot(gain.real, gain.imag)
    g2 = modulus * modulus
    if g2 < 1.0:
        raise DomainError("|G| >= 1 required")
    return theta_a / (theta_a + (1.0 - 1.0 / g2) * theta_b)
