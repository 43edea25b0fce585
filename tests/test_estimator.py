import math

import numpy as np
import pytest

from qnoise.errors import DomainError, ModelError
from qnoise.estimator import (EstimatorRow, NoiseBudget, added_noise_spectrum,
                              integrate_budget, normalize_estimator,
                              snr_degradation)
from qnoise.network import ModeCoefficient, SpectrumTable


def amplifier_readout(gain):
    """Readout row of a bare gain stage: G on the signal line, the
    conjugated sqrt(|G|^2 - 1) on the added-noise line."""
    c = math.sqrt(abs(gain) ** 2 - 1.0)
    return {"sig": ModeCoefficient(gain, False),
            "add": ModeCoefficient(c, True)}


class TestNormalizeEstimator:
    def test_divides_by_signal_coefficient(self):
        row = normalize_estimator(amplifier_readout(2.0), 2.0)
        assert row.coefficients["sig"].amplitude == pytest.approx(1.0)
        assert row.coefficients["add"].amplitude == \
            pytest.approx(math.sqrt(3.0) / 2.0)
        assert row.coefficients["add"].conjugated

    def test_amplifier_noise_weight(self):
        # |mu_add|^2 = 1 - 1/|G|^2 after normalization
        for g in (1.5, 2.0, 10.0, 1e4):
            row = normalize_estimator(amplifier_readout(g), g)
            assert abs(row.coefficients["add"].amplitude) ** 2 == \
                pytest.approx(1.0 - 1.0 / g ** 2, rel=1e-12)

    def test_large_gain_limit(self):
        row = normalize_estimator(amplifier_readout(1e8), 1e8)
        assert abs(row.coefficients["add"].amplitude) == \
            pytest.approx(1.0, rel=1e-12)

    def test_idempotent_once_normalized(self):
        row = normalize_estimator(amplifier_readout(3.0), 3.0)
        again = normalize_estimator(row.coefficients,
                                    row.coefficients["sig"].amplitude)
        for lab in ("sig", "add"):
            assert again.coefficients[lab].amplitude == \
                pytest.approx(row.coefficients[lab].amplitude)

    def test_complex_phase_removed_from_signal(self):
        s = 2.0 * np.exp(1j * 0.7)
        row = normalize_estimator({"sig": ModeCoefficient(s, False)}, s)
        assert row.coefficients["sig"].amplitude == pytest.approx(1.0)

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            normalize_estimator(amplifier_readout(2.0), 0.0)


class TestSweepArrays:
    """Rows, occupations and budgets carry one value per frequency."""

    GAINS = np.array([1.5, 2.0, 10.0])

    def budget(self):
        readout = {"sig": ModeCoefficient(self.GAINS, False),
                   "add": ModeCoefficient(np.sqrt(self.GAINS ** 2 - 1.0),
                                          True)}
        row = normalize_estimator(readout, self.GAINS)
        return added_noise_spectrum(
            row, SpectrumTable({"sig": 0.5, "add": np.array([0.5, 1.0, 2.0])}))

    def test_terms_match_single_frequency(self):
        budget = self.budget()
        for k, g in enumerate(self.GAINS):
            row = normalize_estimator(amplifier_readout(g), g)
            single = added_noise_spectrum(
                row, SpectrumTable({"sig": 0.5, "add": [0.5, 1.0, 2.0][k]}))
            for lab in ("sig", "add"):
                assert budget.terms[lab][k] == \
                    pytest.approx(single.terms[lab], rel=1e-14)

    def test_total_is_an_array(self):
        budget = self.budget()
        np.testing.assert_allclose(budget.total,
                                   budget.terms["sig"] + budget.terms["add"])

    def test_single_frequency_stays_float(self):
        row = normalize_estimator(amplifier_readout(2.0), 2.0)
        budget = added_noise_spectrum(row, SpectrumTable({"sig": 0.5,
                                                          "add": 0.5}))
        assert type(budget.terms["add"]) is float
        assert type(budget.total) is float
        assert type(row.coefficients["sig"].amplitude) is complex

    def test_zero_signal_at_one_frequency_rejected(self):
        with pytest.raises(DomainError):
            normalize_estimator({"sig": ModeCoefficient(np.ones(3))},
                                np.array([1.0, 0.0, 2.0]))


class TestAddedNoiseSpectrum:
    def test_vacuum_inputs_g_sqrt2(self):
        # |G| = sqrt(2) on vacuum: 0.5 + (1 - 1/2) 0.5 = 0.75
        g = math.sqrt(2.0)
        row = normalize_estimator(amplifier_readout(g), g)
        budget = added_noise_spectrum(
            row, SpectrumTable({"sig": 0.5, "add": 0.5}))
        assert budget.total == pytest.approx(0.75, rel=1e-12)
        assert budget.terms["sig"] == pytest.approx(0.5, rel=1e-12)
        assert budget.terms["add"] == pytest.approx(0.25, rel=1e-12)

    def test_budget_additivity(self):
        rng = np.random.default_rng(19)
        coeffs = {f"s{i}": ModeCoefficient(rng.standard_normal()
                                           + 1j * rng.standard_normal(),
                                           bool(rng.integers(2)))
                  for i in range(6)}
        sigmas = {f"s{i}": rng.uniform(0.5, 10.0) for i in range(6)}
        row = EstimatorRow(coeffs)
        budget = added_noise_spectrum(row, SpectrumTable(sigmas))
        direct = sum(abs(coeffs[lab].amplitude) ** 2 * sigmas[lab]
                     for lab in coeffs)
        assert budget.total == pytest.approx(direct, rel=1e-14)
        assert all(v >= 0.0 for v in budget.terms.values())

    def test_dominant_source(self):
        budget = NoiseBudget({"a": 1.0, "b": 3.0, "c": 2.0})
        assert budget.dominant == ["b"]

    def test_dominant_reports_ties(self):
        budget = NoiseBudget({"a": 3.0, "b": 3.0, "c": 2.0})
        assert budget.dominant == ["a", "b"]

    def test_rejects_anomalous_correlations(self):
        row = EstimatorRow({"a": ModeCoefficient(1.0, False),
                            "b": ModeCoefficient(1.0, True)})
        table = SpectrumTable({"a": 1.0, "b": 1.0},
                              anomalous={("a", "b"): 0.3})
        with pytest.raises(ModelError):
            added_noise_spectrum(row, table)

    def test_ignores_anomalous_outside_row(self):
        row = EstimatorRow({"a": ModeCoefficient(1.0, False)})
        table = SpectrumTable({"a": 2.0, "b": 1.0, "c": 1.0},
                              anomalous={("b", "c"): 0.3})
        budget = added_noise_spectrum(row, table)
        assert budget.total == pytest.approx(2.0)


class TestSnrDegradation:
    def test_equal_temperatures_large_gain(self):
        assert snr_degradation(1.5, 1.5, 1e9) == pytest.approx(0.5, rel=1e-12)

    def test_noiseless_amplifier(self):
        assert snr_degradation(1.5, 0.0, 100.0) == 1.0

    def test_unit_gain_passthrough(self):
        assert snr_degradation(1.5, 300.0, 1.0) == 1.0

    def test_cold_amplifier_example(self):
        # Theta_b = Theta_a / 100 at large gain: 1 / (1 + 0.01)
        value = snr_degradation(1.5, 0.015, 1e6)
        assert value == pytest.approx(1.0 / 1.01, rel=1e-9)
        assert value == pytest.approx(0.9900990099, rel=1e-9)

    def test_monotone_in_added_temperature(self):
        values = [snr_degradation(1.0, tb, 10.0) for tb in (0.0, 0.5, 1.0, 5.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_monotone_in_gain(self):
        values = [snr_degradation(1.0, 1.0, g) for g in (1.0, 1.5, 2.0, 1e3)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            snr_degradation(0.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            snr_degradation(1.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            snr_degradation(1.0, 1.0, 0.5)


class TestIntegrateBudget:
    def test_constant_budget(self):
        freqs = np.linspace(10.0, 20.0, 5)
        budget = NoiseBudget({"a": np.full(5, 2.0), "b": np.ones(5)})
        out = integrate_budget(budget, freqs)
        assert out.terms["a"] == pytest.approx(20.0, rel=1e-12)
        assert out.terms["b"] == pytest.approx(10.0, rel=1e-12)

    def test_linear_budget_exact_under_trapezoid(self):
        freqs = np.linspace(0.0, 1.0, 11)
        out = integrate_budget(NoiseBudget({"a": 3.0 * freqs}), freqs)
        assert out.terms["a"] == pytest.approx(1.5, rel=1e-12)

    def test_total_matches_sum_of_terms(self):
        rng = np.random.default_rng(29)
        freqs = np.linspace(1.0, 2.0, 7)
        budget = NoiseBudget({"a": rng.uniform(0, 1, 7),
                              "b": rng.uniform(0, 1, 7)})
        out = integrate_budget(budget, freqs)
        assert out.total == pytest.approx(np.trapezoid(budget.total, freqs),
                                          rel=1e-12)

    def test_single_point_passthrough(self):
        out = integrate_budget(NoiseBudget({"a": np.array([4.0])}), [100.0])
        assert out.terms["a"] == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            integrate_budget(NoiseBudget({"a": np.array([1.0])}), [1.0, 2.0])

    def test_empty_sweep(self):
        with pytest.raises(ModelError):
            integrate_budget(NoiseBudget({"a": np.array([])}), [])
