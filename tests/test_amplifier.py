import math

import numpy as np
import pytest

from qnoise.amplifier import (GainStage, IdealOpAmp, OpAmpNoisePair,
                              amplify_mode, commutator_audit,
                              decompose_noise_sources,
                              noise_line_occupations, opamp_scattering,
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
        row = smap.row("a")
        assert not row["a"].conjugated
        assert row["b"].conjugated

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
            assert row["l"].amplitude == pytest.approx(-1.0)
            assert row["r"].amplitude == 0.0

    def test_signal_gain(self):
        amp = make_opamp(r_left=1e5, r_right=4e5, zf_scale=2.0)
        smap = opamp_scattering(amp, 0.15e6, OMEGA_T)
        zf = amp.feedback_at(OMEGA_T)
        expected = 2 * abs(zf) / math.sqrt(1e5 * 4e5)
        assert abs(smap.row("r")["l"].amplitude) == \
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


class TestNoiseDecomposition:
    def test_impedance_ratio(self):
        pair = OpAmpNoisePair(sigma_uu=4.0e-18, sigma_ii=1.0e-18)
        r_a, _, _ = decompose_noise_sources(pair, OMEGA_T)
        assert r_a == pytest.approx(2.0)

    def test_paper_instrument_values_round_trip(self):
        omega = OMEGA_T
        sigma = K_B * 1.5 / (HBAR * omega)
        pair = recombine_noise_sources(0.15e6, sigma, sigma, omega)
        r_a, theta_a, theta_ac = decompose_noise_sources(pair, omega)
        assert r_a == pytest.approx(0.15e6, rel=1e-12)
        assert theta_a == pytest.approx(1.5, rel=1e-12)
        assert theta_ac == pytest.approx(1.5, rel=1e-12)

    def test_heisenberg_floor_gives_vacuum_lines(self):
        # sigma_uu sigma_ii = (hbar w / 2)^2 <=> both lines at vacuum
        omega = 2 * math.pi * 1e6
        r_a = 777.0
        pair = recombine_noise_sources(r_a, 0.5, 0.5, omega)
        assert pair.heisenberg_margin(omega) == pytest.approx(0.0, abs=1e-80)
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

    def test_correlated_pair_needs_general_route(self):
        pair = OpAmpNoisePair(1e-18, 1e-28, sigma_ui=1e-24)
        with pytest.raises(ModelError):
            decompose_noise_sources(pair, OMEGA_T)


class TestCommutatorAudit:
    def test_passive_map_clean(self):
        from qnoise.network import NoiseLine, scattering_from_impedance
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        z = 1j * (a + a.conj().T) / 2
        lines = [NoiseLine(50.0, 0.0, f"p{i}") for i in range(3)]
        report = commutator_audit(scattering_from_impedance(z, lines))
        assert report.max_row_residual < 1e-10
        assert report.ui_commutator_residual is None

    def test_gain_stage_identity(self):
        report = commutator_audit(amplify_mode(GainStage(3.0), 1.0))
        assert report.max_row_residual < 1e-12

    def test_opamp_sweep(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            omega = 2 * math.pi * rng.uniform(1e3, 1e7)
            amp = make_opamp(omega=omega, zf_scale=rng.uniform(0.1, 10.0))
            r = rng.uniform(1e4, 1e6)
            smap = opamp_scattering(amp, r, omega)
            report = commutator_audit(smap, omega=omega,
                                      decomposition_impedance=r)
            assert report.max_row_residual < 1e-10
            assert report.ui_commutator_residual < 1e-12
