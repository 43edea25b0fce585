import math

import numpy as np
import pytest

from qnoise.errors import DomainError, QNoiseError
from qnoise.estimator import (CompiledEstimator, NoiseBudget, evaluate,
                              snr_degradation)

ONE_POINT = np.array([1e3])


def amplifier_readout(gain, occupations=(1.0, 1.0), freqs=ONE_POINT):
    """Estimator of a bare gain stage over `freqs`: G on the signal line,
    sqrt(|G|^2 - 1) on the added-noise line (conjugated, which the budget
    does not see), read in occupation units."""
    g = np.broadcast_to(np.asarray(gain, dtype=complex), np.shape(freqs))
    rows = np.array([g, np.sqrt(np.abs(g) ** 2 - 1.0) + 0j])
    sigma = np.array([np.broadcast_to(o, np.shape(freqs))
                      for o in occupations], dtype=float)
    return CompiledEstimator("q", ["sig", "add"], rows, 0, sigma)


def random_estimator(rng, k, freqs):
    """K sources with random complex coefficients over `freqs` and random
    occupations, read on a unit signal (source s0)."""
    rows = rng.standard_normal((k, len(freqs))) \
        + 1j * rng.standard_normal((k, len(freqs)))
    rows[0] = 1.0
    sigma = rng.uniform(0.5, 10.0, (k, len(freqs)))
    return CompiledEstimator("r", [f"s{i}" for i in range(k)], rows, 0,
                             sigma)


class TestNormalizeEstimator:
    """The kernel divides the row by the signal coefficient."""

    def test_divides_by_signal_coefficient(self):
        budget = evaluate(amplifier_readout(2.0), ONE_POINT)
        assert budget.terms["sig"][0] == pytest.approx(1.0)
        assert budget.terms["add"][0] == pytest.approx(3.0 / 4.0)

    def test_amplifier_noise_weight(self):
        # |mu_add|^2 = 1 - 1/|G|^2 after normalization
        for g in (1.5, 2.0, 10.0, 1e4):
            budget = evaluate(amplifier_readout(g), ONE_POINT)
            assert budget.terms["add"][0] == \
                pytest.approx(1.0 - 1.0 / g ** 2, rel=1e-12)

    def test_large_gain_limit(self):
        budget = evaluate(amplifier_readout(1e8), ONE_POINT)
        assert budget.terms["add"][0] == pytest.approx(1.0, rel=1e-12)

    def test_idempotent_once_normalized(self):
        est = amplifier_readout(3.0, (0.5, 2.0))
        normalized = est._replace(coefficients=est.coefficients
                                  / est.coefficients[0])
        first = evaluate(est, ONE_POINT)
        again = evaluate(normalized, ONE_POINT)
        for lab in ("sig", "add"):
            assert again.terms[lab] == pytest.approx(first.terms[lab])

    def test_complex_phase_removed_from_signal(self):
        budget = evaluate(amplifier_readout(2.0 * np.exp(1j * 0.7)),
                          ONE_POINT)
        assert budget.terms["sig"][0] == pytest.approx(1.0)

    def test_zero_signal_rejected(self):
        est = amplifier_readout(2.0)
        est.coefficients[0] = 0.0
        with pytest.raises(QNoiseError) as info:
            evaluate(est, ONE_POINT)
        assert str(info.value) == (
            "measure q: signal coefficient of line 'sig' underflows to 0 at "
            "1000 Hz (below the smallest double)")

    def test_source_named_twice_rejected(self):
        est = amplifier_readout(2.0)._replace(sources=["sig", "sig"])
        with pytest.raises(QNoiseError, match="two sources are named 'sig'"):
            evaluate(est, ONE_POINT)

    def test_source_named_twice_rejected_after_a_window(self):
        # a later window of a sweep is checked as the first one is
        est = amplifier_readout(2.0)._replace(sources=["sig", "sig"])
        before = evaluate(amplifier_readout(2.0), np.array([500.0]))
        with pytest.raises(QNoiseError, match="two sources are named 'sig'"):
            evaluate(est, ONE_POINT, before, 500.0)

    def test_non_finite_coefficient_named(self):
        # the first source, then its first frequency, where |c/s|^2 is not
        # finite
        freqs = np.array([1.0, 2.0, 3.0])
        est = amplifier_readout([2.0, 2.0, 2.0], freqs=freqs)
        rows = est.coefficients.copy()
        rows[1, 1:] = 1e200
        with pytest.raises(QNoiseError) as info, np.errstate(over="ignore"):
            evaluate(est._replace(coefficients=rows), freqs)
        assert str(info.value) == (
            "estimator q: source add has a non-finite noise budget (numeric "
            "overflow) at 2 Hz, where its signal-normalised coefficient "
            "|c/s|^2 overflows")

    @pytest.mark.parametrize("occupations, freqs, named", [
        # the product with its occupation overflows, not |c/s|^2
        ([[1.0] * 3, [1.0, math.inf, 1.0]], [1.0, 2.0, 3.0], "add has a "
         "non-finite noise budget (numeric overflow) at 2 Hz"),
        ([[1e308] * 3, [1e308, 1.0, 1.0]], [1.0, 2.0, 3.0], "total has a "
         "non-finite noise budget (numeric overflow) at 1 Hz"),
        ([[1.0] * 2, [1e308] * 2], [0.0, 10.0], "add has a non-finite noise "
         "budget (numeric overflow)"),
        ([[4e307] * 2] * 3, [0.0, 1.6], "TOTAL has a non-finite noise "
         "budget (numeric overflow)"),
    ], ids=["source", "total", "band", "band_total"])
    def test_first_non_finite_cell_named(self, occupations, freqs, named):
        # source rows, then the total, each with its first frequency, then
        # the band of each source and the band total; no budget is returned
        # with inf or nan in it
        occupations = np.array(occupations)
        est = CompiledEstimator("q", ["sig", "add", "more"][:len(occupations)],
                                np.ones(occupations.shape, complex), 0,
                                occupations)
        with pytest.raises(QNoiseError) as info, np.errstate(over="ignore"):
            evaluate(est, np.array(freqs))
        assert str(info.value) == f"estimator q: source {named}"


class TestSweepArrays:
    """Rows, occupations and budgets carry one value per frequency."""

    GAINS = np.array([1.5, 2.0, 10.0])
    FREQS = np.array([1.0, 2.0, 3.0])
    ADD = np.array([0.5, 1.0, 2.0])

    def budget(self):
        return evaluate(amplifier_readout(self.GAINS, (0.5, self.ADD),
                                          self.FREQS), self.FREQS)

    def test_terms_match_single_frequency(self):
        budget = self.budget()
        for k, g in enumerate(self.GAINS):
            single = evaluate(amplifier_readout(g, (0.5, self.ADD[k])),
                              ONE_POINT)
            for lab in ("sig", "add"):
                assert budget.terms[lab][k] == single.terms[lab][0]
            assert budget.total[k] == single.total[0]

    def test_total_is_an_array(self):
        budget = self.budget()
        assert budget.total.shape == (3,)
        assert (budget.total
                == budget.terms["sig"] + budget.terms["add"]).all()

    def test_single_frequency_stays_float(self):
        # the band values feed budget.csv and budget.json as Python floats
        budget = evaluate(amplifier_readout(2.0), ONE_POINT)
        assert all(type(v) is float for v in budget.band.values())
        assert type(budget.band_total) is float

    def test_zero_signal_at_one_frequency_rejected(self):
        est = amplifier_readout(self.GAINS, freqs=self.FREQS)
        est.coefficients[0, 1] = 0.0
        with pytest.raises(QNoiseError, match="underflows to 0 at 2 Hz"):
            evaluate(est, self.FREQS)


class TestAddedNoiseSpectrum:
    def test_vacuum_inputs_g_sqrt2(self):
        # |G| = sqrt(2) on vacuum: 0.5 + (1 - 1/2) 0.5 = 0.75
        budget = evaluate(amplifier_readout(math.sqrt(2.0), (0.5, 0.5)),
                          ONE_POINT)
        assert budget.total[0] == pytest.approx(0.75, rel=1e-12)
        assert budget.terms["sig"][0] == pytest.approx(0.5, rel=1e-12)
        assert budget.terms["add"][0] == pytest.approx(0.25, rel=1e-12)

    def test_budget_additivity(self):
        rng = np.random.default_rng(19)
        est = random_estimator(rng, 6, ONE_POINT)
        budget = evaluate(est, ONE_POINT)
        direct = sum(abs(c[0]) ** 2 * s[0]
                     for c, s in zip(est.coefficients, est.occupations))
        assert budget.terms["s0"][0] == est.occupations[0, 0]
        assert budget.total[0] == pytest.approx(direct, rel=1e-14)
        assert all(v[0] >= 0.0 for v in budget.terms.values())

    def test_energy_scale(self):
        # an energy PSD: sources carry energies, scaled per frequency
        freqs = np.array([1.0, 2.0])
        est = amplifier_readout([2.0, 2.0], freqs=freqs)
        plain = evaluate(est, freqs)
        scaled = evaluate(est._replace(occupations=est.occupations
                                       * [3.0, 5.0]), freqs)
        for lab in ("sig", "add"):
            assert (scaled.terms[lab] == [3.0, 5.0] * plain.terms[lab]).all()

    def test_dominant_source(self):
        budget = NoiseBudget({}, np.zeros(1), {"a": 1.0, "b": 3.0, "c": 2.0},
                             6.0)
        assert budget.dominant == ["b"]

    def test_dominant_reports_ties(self):
        budget = NoiseBudget({}, np.zeros(1), {"a": 3.0, "b": 3.0, "c": 2.0},
                             8.0)
        assert budget.dominant == ["a", "b"]


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

    @pytest.mark.parametrize("gain", [1e200, 1.7e308 + 1.7e308j])
    def test_gain_whose_square_overflows_is_the_limit(self, gain):
        # |G|^2 = inf: Theta_a / (Theta_a + Theta_b)
        assert snr_degradation(1.0, 1.0, gain) == 0.5
        assert snr_degradation(1.0, 3.0, gain) == 0.25

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
    """The kernel band-integrates every source in one trapezoid."""

    @staticmethod
    def flat(values, freqs):
        """Unit coefficients on sources whose occupations are `values`."""
        rows = np.ones((len(values), len(freqs)), dtype=complex)
        return CompiledEstimator("i", [f"s{k}" for k in range(len(values))],
                                 rows, 0, np.array(values, float))

    def test_constant_budget(self):
        freqs = np.linspace(10.0, 20.0, 5)
        budget = evaluate(self.flat([np.full(5, 2.0), np.ones(5)], freqs),
                          freqs)
        assert budget.band["s0"] == pytest.approx(20.0, rel=1e-12)
        assert budget.band["s1"] == pytest.approx(10.0, rel=1e-12)

    def test_linear_budget_exact_under_trapezoid(self):
        freqs = np.linspace(0.0, 1.0, 11)
        budget = evaluate(self.flat([3.0 * freqs], freqs), freqs)
        assert budget.band["s0"] == pytest.approx(1.5, rel=1e-12)

    def test_total_matches_sum_of_terms(self):
        rng = np.random.default_rng(29)
        freqs = np.linspace(1.0, 2.0, 7)
        budget = evaluate(self.flat(rng.uniform(0, 1, (2, 7)), freqs), freqs)
        assert budget.band_total == pytest.approx(
            np.trapezoid(budget.total, freqs), rel=1e-12)

    def test_single_point_passthrough(self):
        budget = evaluate(self.flat([[4.0]], [100.0]), np.array([100.0]))
        assert budget.band["s0"] == 4.0

    def test_terms_near_overflow_are_halved_before_they_add(self):
        # 1e308 + 1e308 overflows, the band 0.5 Hz * 1e308 does not
        freqs = np.array([0.0, 0.5])
        budget = evaluate(self.flat([[1e308, 1e308]], freqs), freqs)
        assert budget.band["s0"] == 5e307

    def test_seam_to_before_is_halved_before_it_adds(self):
        # the step from the window before, which ended at 0 Hz on 1e308
        before = NoiseBudget({"s0": np.array([1e308])}, np.array([1e308]),
                             {"s0": 0.0}, 0.0)
        freqs = np.array([0.5])
        budget = evaluate(self.flat([[1e308]], freqs), freqs, before, 0.0)
        assert budget.band["s0"] == 5e307

    def test_one_trapezoid_equals_per_source_calls(self):
        # one 2-D trapezoid over (K, F) rounds as K 1-D calls do
        rng = np.random.default_rng(31)
        freqs = np.logspace(3.0, 6.0, 201)
        budget = evaluate(random_estimator(rng, 41, freqs), freqs)
        for src, values in budget.terms.items():
            assert budget.band[src] == float(np.trapezoid(values, freqs))
        assert budget.band_total == sum(float(np.trapezoid(v, freqs))
                                        for v in budget.terms.values())

    def test_one_point_totals_are_sequential_sums(self):
        # at F = 1 the total adds the sources in order, as the records do
        rng = np.random.default_rng(37)
        for _ in range(50):
            budget = evaluate(random_estimator(rng, 41, ONE_POINT),
                              ONE_POINT)
            total = 0.0
            for values in budget.terms.values():
                total += float(values[0])
            assert budget.total[0] == total == budget.band_total
