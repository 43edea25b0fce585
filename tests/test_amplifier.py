import math

import numpy as np
import pytest

from qnoise.amplifier import (GainStage, IdealOpAmp, OpAmpNoisePair,
                              amplify_mode, noise_line_occupations,
                              opamp_noise_energy, opamp_scattering,
                              recombine_noise_sources)
from qnoise.constants import HBAR, K_B
from qnoise.errors import DomainError, ModelError
from qnoise.network import SpectrumTable, capacitor_impedance, row_occupation

OMEGA_T = 2 * math.pi * 1e5


def make_opamp(r_left=0.15e6, r_right=0.15e6, r_a=0.15e6, theta_a=1.5,
               zf_scale=1.0, omega=OMEGA_T):
    sigma = K_B * theta_a / (HBAR * omega)
    pair = recombine_noise_sources(r_a, sigma, sigma, omega)
    c_f = 1.0 / (omega * zf_scale * math.sqrt(r_left * r_right))
    return IdealOpAmp(r_left, r_right,
                      lambda w: capacitor_impedance(c_f, w), pair)


class TestAmplifyMode:
    def test_unit_gain_is_identity(self):
        smap = amplify_mode(GainStage(1.0), 1.0)
        assert smap.amplitude[0, 0] == 1.0
        assert smap.amplitude[0, 1] == 0.0

    def test_gain_two_vacuum_output(self):
        smap = amplify_mode(GainStage(2.0), 1.0)
        table = SpectrumTable({"a": 0.5, "b": 0.5})
        out = row_occupation(smap.row("a"), table)
        # direct substitution: |G|^2 sigma_a + (|G|^2 - 1) sigma_b
        assert out == pytest.approx(4 * 0.5 + 3 * 0.5, rel=1e-14)

    def test_added_noise_is_conjugated(self):
        smap = amplify_mode(GainStage(3.0), 1.0)
        assert smap.row("a").conjugated.tolist() == [[False, True]]

    def test_large_gain_thermal_sum(self):
        # hbar|w| Sigma_out -> k_B (Theta_a + Theta_b) at large gain
        omega = OMEGA_T
        theta_a, theta_b = 2.0, 3.0
        sigma_a = K_B * theta_a / (HBAR * omega)
        sigma_b = K_B * theta_b / (HBAR * omega)
        g = 1e6
        smap = amplify_mode(GainStage(g), omega)
        out = row_occupation(smap.row("a"),
                             SpectrumTable({"a": sigma_a, "b": sigma_b}))
        normalized = out / abs(g) ** 2
        assert HBAR * omega * normalized == \
            pytest.approx(K_B * (theta_a + theta_b), rel=1e-9)

    def test_bogoliubov_residual(self):
        smap = amplify_mode(GainStage(3.0), 1.0)
        assert smap.row_residuals().max() < 1e-12

    def test_rejects_attenuation(self):
        with pytest.raises(DomainError):
            amplify_mode(GainStage(0.5), 1.0)

    @pytest.mark.parametrize("g", [1e200, 1.7e308 + 1.7e308j])
    def test_rejects_gain_whose_square_overflows(self, g):
        with pytest.raises(DomainError, match=r"\|G\|\^2 overflows"):
            amplify_mode(GainStage(g), 1.0)

    def test_random_gains_bogoliubov(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = rng.uniform(1.0, 1e3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            smap = amplify_mode(GainStage(g), 1.0)
            # residual is absolute, so allow for cancellation at |G|^2 scale
            assert smap.row_residuals().max() < 1e-13 * abs(g) ** 2 + 1e-13


class TestOpAmpScattering:
    def test_left_reflection_is_minus_one(self):
        for zf_scale in (0.1, 1.0, 10.0):
            amp = make_opamp(zf_scale=zf_scale)
            smap = opamp_scattering(amp, 0.15e6, OMEGA_T)
            row = smap.row("l")
            assert row.amplitude[0, 0] == pytest.approx(-1.0)
            assert row.amplitude[0, 1] == 0.0

    def test_signal_gain(self):
        amp = make_opamp(r_left=1e5, r_right=4e5, zf_scale=2.0)
        smap = opamp_scattering(amp, 0.15e6, OMEGA_T)
        zf = amp.feedback_at(OMEGA_T)
        expected = 2 * abs(zf) / math.sqrt(1e5 * 4e5)
        assert abs(smap.row("r").amplitude[0, 0]) == \
            pytest.approx(expected, rel=1e-12)

    def test_rows_bogoliubov_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            amp = make_opamp(r_left=rng.uniform(1e3, 1e7),
                             r_right=rng.uniform(1e3, 1e7),
                             zf_scale=rng.uniform(0.01, 100.0))
            smap = opamp_scattering(amp, rng.uniform(1e3, 1e7), OMEGA_T)
            scale = (np.abs(smap.amplitude) ** 2).sum(axis=1).max()
            assert smap.row_residuals().max() < 1e-13 * scale + 1e-13

    def test_uncorrelated_at_matched_impedance(self):
        amp = make_opamp()
        saa, _, m = noise_line_occupations(amp.noise, 0.15e6, OMEGA_T)
        assert abs(m) < 1e-12 * saa

    def test_readout_independent_of_decomposition(self):
        # physical r_out spectrum fixed by (sigma_UU, sigma_II); the
        # decomposition impedance only rotates the a/a' basis
        amp = make_opamp(r_right=3e5, zf_scale=0.7)
        occupations = []
        r_a = 0.15e6
        for r in np.logspace(math.log10(r_a / 30), math.log10(r_a * 30), 13):
            smap = opamp_scattering(amp, r, OMEGA_T)
            saa, sac, m = noise_line_occupations(amp.noise, r, OMEGA_T)
            table = SpectrumTable({"l": 0.5, "r": 0.5, "a": saa,
                                   "a_conj": sac},
                                  anomalous={("a", "a_conj"): m})
            occupations.append(row_occupation(smap.row("r"), table))
        ref = occupations[len(occupations) // 2]
        for value in occupations:
            assert abs(value - ref) / ref < 1e-10

    def test_readout_matches_direct_voltage_current_oracle(self):
        # oracle: expand r_out noise directly in U, I without the a/a' lines
        amp = make_opamp(r_left=2e5, r_right=5e4, zf_scale=1.3)
        omega = OMEGA_T
        zf = amp.feedback_at(omega)
        rl, rr = amp.r_left, amp.r_right
        pref = 2.0 / (HBAR * omega * rr)
        direct = (0.5  # r_in
                  + 4 * abs(zf) ** 2 / (rr * rl) * 0.5  # l_in
                  + pref * (abs((rl + zf) / rl) ** 2 * amp.noise.sigma_uu
                            + abs(zf) ** 2 * amp.noise.sigma_ii))
        for r in (1e4, 1.5e5, 3e6):
            smap = opamp_scattering(amp, r, omega)
            saa, sac, m = noise_line_occupations(amp.noise, r, omega)
            table = SpectrumTable({"l": 0.5, "r": 0.5, "a": saa,
                                   "a_conj": sac},
                                  anomalous={("a", "a_conj"): m})
            assert row_occupation(smap.row("r"), table) == \
                pytest.approx(direct, rel=1e-12)

    def test_readout_basis_invariance_over_a_sweep(self):
        # criterion 9's chain over a 50-point sweep in one call, against
        # the per-frequency calls and across three decades of R
        r_a = 0.15e6
        omegas = OMEGA_T * np.logspace(-1, 1, 50)
        sigma = K_B * 1.5 / (HBAR * omegas)
        pair = recombine_noise_sources(r_a, sigma, sigma, omegas)
        c_f = 1.0 / (OMEGA_T * r_a)
        amp = IdealOpAmp(r_a, r_a, lambda w: capacitor_impedance(c_f, w),
                         pair)

        def readout(amp, pair, r, omega):
            saa, sac, m = noise_line_occupations(pair, r, omega)
            table = SpectrumTable({"l": 0.5, "r": 0.5, "a": saa,
                                   "a_conj": sac},
                                  anomalous={("a", "a_conj"): m})
            return row_occupation(opamp_scattering(amp, r, omega).row("r"),
                                  table)

        sweeps = []
        for r in np.logspace(math.log10(r_a) - 1.5, math.log10(r_a) + 1.5, 7):
            values = readout(amp, pair, r, omegas)
            assert values.shape == (50,)
            for k, omega in enumerate(omegas):
                one = recombine_noise_sources(r_a, sigma[k], sigma[k], omega)
                single = readout(IdealOpAmp(r_a, r_a, amp.z_feedback, one),
                                 one, r, omega)
                assert abs(single - values[k]) < 1e-13 * single
            sweeps.append(values)
        ref = sweeps[len(sweeps) // 2]
        assert np.max(np.abs(np.array(sweeps) - ref) / ref) < 1e-10

    def test_array_omega_matches_scalar(self):
        amp = make_opamp(r_left=2e5, r_right=5e4, zf_scale=1.3)
        omegas = OMEGA_T * np.logspace(-1, 1, 5)
        smap = opamp_scattering(amp, 1e5, omegas)
        assert smap.amplitude.shape == (5, 2, 4)
        for k, omega in enumerate(omegas):
            single = opamp_scattering(amp, 1e5, omega)
            np.testing.assert_allclose(smap.amplitude[k], single.amplitude,
                                       rtol=1e-15)
            assert (smap.conjugated == single.conjugated).all()
        assert smap.row_residuals().max() < 1e-12

    def test_noise_pair_is_optional(self):
        c_f = 1.0 / (OMEGA_T * 1e5)
        amp = IdealOpAmp(1e5, 1e5, lambda w: capacitor_impedance(c_f, w))
        assert amp.noise is None
        assert opamp_scattering(amp, 1e5, OMEGA_T).row_residuals().max() \
            < 1e-12

    def test_rejects_non_reactive_feedback_at_one_frequency(self):
        amp = IdealOpAmp(1e5, 1e5,
                         lambda w: np.where(w > 2.0, 50.0 + 0j, -1j * w))
        assert amp.feedback_at(1.0) == -1j
        with pytest.raises(ModelError):
            opamp_scattering(amp, 1e5, np.array([1.0, 2.0, 3.0]))

    def test_rejects_non_reactive_feedback(self):
        pair = OpAmpNoisePair(1e-18, 1e-28)
        amp = IdealOpAmp(1e5, 1e5, lambda w: 50.0 + 0j, pair)
        with pytest.raises(ModelError):
            opamp_scattering(amp, 1e5, OMEGA_T)


class TestCapacitiveOpAmp:
    """The op-amp with a feedback capacitor, as the sweep and the
    accelerometer build it: `opamp_scattering`'s rows and
    `opamp_noise_energy`."""

    def test_rows_at_the_reference_point(self):
        # R_l = R_r = R_a = 1/(w C): c = 1, q = i, p = 1 + i at the carrier
        c_f = 1.0 / (OMEGA_T * 1.5e5)
        amp = IdealOpAmp(1.5e5, 1.5e5, lambda w: capacitor_impedance(c_f, w))
        rows = opamp_scattering(amp, 1.5e5, OMEGA_T).amplitude
        assert rows == pytest.approx(np.array(
            [[-1.0, 0.0, 1.0, -1.0], [-2j, -1.0, 1.0, -1.0 - 2j]]),
            rel=1e-15, abs=1e-15)
        assert opamp_noise_energy(1.5, OMEGA_T, "op-amp u1:") == K_B * 1.5
        # a sweep's rows are the rows at each of its frequencies, bit for
        # bit, and each row is contiguous over (lines, frequencies)
        omegas = OMEGA_T * np.logspace(-1, 1, 7)
        sweep = opamp_scattering(amp, 1.5e5, omegas).amplitude
        assert sweep.shape == (7, 2, 4)
        for omega, want in zip(omegas, sweep):
            got = opamp_scattering(amp, 1.5e5, float(omega)).amplitude
            assert got.tobytes() == want.tobytes()
        assert sweep[:, 1, :].T.flags.c_contiguous
        assert opamp_noise_energy(1.5, omegas, "op-amp u1:") == K_B * 1.5

    @pytest.mark.parametrize("values, message", [
        ((0.0, 1e5, 1e-12, 1e5), "line impedances must be positive"),
        ((1e5, -1.0, 1e-12, 1e5), "line impedances must be positive"),
        ((1e5, 1e5, 1e-12, 0.0), "decomposition impedance must be positive"),
        ((1e5, 1e5, -1e-12, 1e5), "capacitance must be positive"),
    ])
    def test_messages_unchanged(self, values, message):
        r_l, r_r, c_f, r_a = values
        for omega in (OMEGA_T, np.array([OMEGA_T, 2.0 * OMEGA_T])):
            with pytest.raises(DomainError) as got:
                opamp_scattering(IdealOpAmp(r_l, r_r, lambda w: (
                    capacitor_impedance(c_f, w))), r_a, omega)
            assert str(got.value) == message

    @pytest.mark.parametrize("omega", [1e-30, np.array([1e-30])],
                             ids=["scalar", "array"])
    def test_rejects_feedback_reactance_that_is_not_finite(self, omega):
        # w C_f underflows to 0, so 1/(w C_f) is nan + inf i; named without
        # a numpy warning first, under the default error state
        amp = IdealOpAmp(50.0, 50.0, lambda w: capacitor_impedance(1e-300, w))
        with pytest.raises(ModelError) as info:
            opamp_scattering(amp, 50.0, omega)
        assert str(info.value) == ("feedback impedance (nan+infj) is not "
                                   "reactive at 1.59155e-31 Hz")

    def test_vacuum_floor_named_with_its_frequency(self):
        omegas = 2.0 * math.pi * np.array([1e9, 1e11, 1e12])
        with pytest.raises(DomainError) as info:
            opamp_noise_energy(1.5, omegas, "op-amp u1:", "the sweep's ")
        assert str(info.value) == ("op-amp u1: noise occupation 0.313 is "
                                   "below the 1/2 vacuum floor at the "
                                   "sweep's 1e+11 Hz")


class TestNoiseDecomposition:
    def test_heisenberg_floor_gives_vacuum_lines(self):
        # sigma_uu sigma_ii = (hbar w / 2)^2 <=> both lines at vacuum
        omega = 2 * math.pi * 1e6
        r_a = 777.0
        pair = recombine_noise_sources(r_a, 0.5, 0.5, omega)
        saa, sac, _ = noise_line_occupations(pair, r_a, omega)
        assert saa == pytest.approx(0.5, rel=1e-12)
        assert sac == pytest.approx(0.5, rel=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(31)
        omega = OMEGA_T
        for _ in range(100):
            r_a = rng.uniform(1.0, 1e7)
            saa = rng.uniform(0.5, 1e6)
            sac = rng.uniform(0.5, 1e6)
            pair = recombine_noise_sources(r_a, saa, sac, omega)
            saa2, sac2, m = noise_line_occupations(pair, r_a, omega)
            assert saa2 == pytest.approx(saa, rel=1e-12)
            assert sac2 == pytest.approx(sac, rel=1e-12)

    def test_rejects_nonpositive_spectra(self):
        with pytest.raises(DomainError):
            OpAmpNoisePair(0.0, 1e-28)
        with pytest.raises(DomainError):
            OpAmpNoisePair(1e-18, -1e-28)
