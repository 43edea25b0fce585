"""Calibrated estimators and per-source noise budgets.

Passive, gain, op-amp and muscope estimators are each compiled once into
a `CompiledEstimator` and evaluated by the one kernel `_window`, which
writes the budgets of a sweep's window in place into its spectra.csv
table; `evaluate` is its form for one estimator.  Divided
by its signal coefficient, a readout row reads as the signal plus an
equivalent input noise sum_alpha mu_alpha alpha_in; the budget is the
per-source decomposition |mu_alpha|^2 k_B Theta_alpha of the added-noise
spectrum (for the muscope force estimator, |mu_alpha|^2 times force PSDs).
"""

import math
from typing import Dict, Iterable, List, NamedTuple, Optional

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
    """Budget of `est` over its grid `freqs_hz`: the kernel `_window` on
    `est` alone.  A sweep walked in windows passes `before`, the budget of
    the window that ends at `before_hz`, and its band and the trapezoid
    from there are added."""
    table = np.empty((1 + len(est.sources), len(freqs_hz)))
    carry = before and [np.array([0.0, *values]) for values in (
        before.band.values(), [t[-1] for t in before.terms.values()])]
    return next(_budgets([est.sources], table, _window(
        [est], freqs_hz, table, carry, before_hz)[0]))


def _budgets(sources: List[List[str]], table: np.ndarray, band: np.ndarray):
    """The `NoiseBudget` of each list of `sources` from its rows of `table`,
    its total and then a row per source, and their `band`, as `_window`
    wrote them."""
    band, end = band.tolist(), 0
    for srcs in sources:
        bands = dict(zip(srcs, band[end + 1:]))
        yield NoiseBudget(dict(zip(srcs, table[end + 1:])), table[end],
                          bands, sum(bands.values()))
        end += 1 + len(srcs)


def _window(ests: Iterable[CompiledEstimator], freqs_hz: np.ndarray,
            table: np.ndarray, before, before_hz: float):
    """The budget kernel: writes each of `ests` over the grid `freqs_hz`
    into its rows of `table` (C, F), its total then a row per source, and
    checks it before the next is made.  It divides the row by the signal
    coefficient, naming a source name taken twice and the first frequency
    where the signal is 0; forms |c/s|^2 times the occupations, sums the
    sources in order and band-integrates each in one trapezoid in Hz (the
    value itself on a 1-point grid), from `before`, the band and last value
    of each row over the windows that end at `before_hz`.  It returns these
    for the window (band 0 at the totals) and names a budget that is not
    finite by its first cell."""
    band, end = np.zeros(len(table)), 0  # by row
    step = freqs_hz[1:] - freqs_hz[:-1]  # np.diff, without its set-up
    for est in ests:
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
                f"{freqs_hz[np.argmax(zero)]:.6g} Hz (below the smallest "
                "double)")
        own = slice(end + 1, end + 1 + len(est.sources))  # its source rows
        total, terms, end = table[end], table[own], own.stop
        # C-ordered table rows: the trapezoid sums each as a 1-D call does
        np.abs(np.divide(est.coefficients, signal, order="C"), out=terms)
        terms **= 2
        terms *= est.occupations
        # the sources in order: reduce adds row after row, but pairs the
        # sources of a 1-point window, one contiguous run
        total[:] = np.add.reduce(terms, axis=0) if len(freqs_hz) > 1 else \
            np.add.accumulate(terms, axis=0)[-1]
        # np.trapezoid(terms, freqs_hz, axis=-1), without its per-call
        # set-up; each term is halved before the sum, which could overflow
        # where the band does not
        half = terms * 0.5
        band[own] = (terms[:, 0] if len(freqs_hz) == 1 and before is None
                     else (step * (half[:, 1:] + half[:, :-1])).sum(-1))
        if before is not None:  # in grid order: its band, the step, this band
            band[own] += before[0][own] + (freqs_hz[0] - before_hz) * (
                before[1][own] * 0.5 + half[:, 0])
        values = band[own].tolist()
        if not (np.isfinite(total).all() and math.isfinite(sum(values))):
            # terms are >= 0; name a source or total row, else a band or TOTAL
            finite = np.isfinite(np.vstack([terms, total]))
            src, at = next((src for src, v in zip(est.sources, values)
                            if not math.isfinite(v)), "TOTAL"), ""
            if not finite.all():
                k, f = np.unravel_index(np.argmin(finite), finite.shape)
                src, at = [*est.sources, "total"][k], \
                    f" at {freqs_hz[f]:.6g} Hz"
                if k < len(terms) and not np.isfinite(
                        np.abs(est.coefficients[k, f] / signal[f]) ** 2):
                    at += (", where its signal-normalised coefficient "
                           "|c/s|^2 overflows")
            raise QNoiseError(f"estimator {est.label}: source {src} has a non-"
                              f"finite noise budget (numeric overflow){at}")
    return band, table[:, -1].copy()


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
