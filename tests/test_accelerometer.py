import math
from dataclasses import replace

import numpy as np
import pytest

from qnoise.accelerometer import (AMP_A, AMP_AC, LINE_IN, LINE_OUT, MECH,
                                  MUSCOPE, build_accelerometer,
                                  mechanical_langevin_psd, sensitivity_report)
from qnoise.constants import K_B
from qnoise.errors import DomainError, QNoiseError

# independently evaluated: 2 * 1.3e-5 * k_B * 306
MECH_PSD_REFERENCE = 1.0984443444e-25


class TestLangevinPsd:
    def test_reference_instrument_value(self):
        psd = mechanical_langevin_psd(1.3e-5, 306.0)
        assert psd == pytest.approx(MECH_PSD_REFERENCE, rel=1e-9)
        # the round design number quoted for this damping and temperature
        assert psd == pytest.approx(1.1e-25, rel=0.002)

    def test_zero_temperature_bath(self):
        assert mechanical_langevin_psd(1.3e-5, 0.0) == 0.0

    def test_linearity(self):
        base = mechanical_langevin_psd(1e-5, 100.0)
        assert mechanical_langevin_psd(3e-5, 100.0) == pytest.approx(3 * base)
        assert mechanical_langevin_psd(1e-5, 200.0) == pytest.approx(2 * base)

    def test_rejects_bad_damping(self):
        with pytest.raises(DomainError):
            mechanical_langevin_psd(0.0, 300.0)
        with pytest.raises(DomainError):
            mechanical_langevin_psd(1e-5, -1.0)


class TestConfig:
    def test_default_readout_matches_amp_impedance(self):
        assert MUSCOPE.r_readout == MUSCOPE.amp_impedance

    def test_default_feedback_capacitance_geometric_mean(self):
        c_f = MUSCOPE.c_feedback
        zf = 1.0 / (MUSCOPE.carrier_omega * c_f)
        assert zf == pytest.approx(
            math.sqrt(MUSCOPE.amp_impedance * MUSCOPE.r_readout), rel=1e-12)

    def test_rejects_carrier_below_measurement_band(self):
        with pytest.raises(DomainError):
            replace(MUSCOPE, measure_omega=1e6, carrier_omega=1e5)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(DomainError):
            replace(MUSCOPE, mass=0.0)

    def test_rejects_negative_loop_gain(self):
        with pytest.raises(DomainError):
            replace(MUSCOPE, loop_gain=-1.0)

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_impedance_or_capacitance(self, value):
        for name in ("readout_impedance", "feedback_capacitance"):
            with pytest.raises(DomainError, match=name):
                replace(MUSCOPE, **{name: value})

    @pytest.mark.parametrize("changes", [{"amp_impedance": 1e-320},
                                         {"readout_impedance": 1e308}])
    def test_rejects_default_feedback_capacitance_out_of_range(self,
                                                              changes):
        with pytest.raises(DomainError, match="feedback_capacitance"):
            replace(MUSCOPE, **changes)


class TestBuildAccelerometer:
    def test_source_labels(self):
        model = build_accelerometer(MUSCOPE)
        assert set(model.occupations) == \
            {MECH, LINE_IN, LINE_OUT, AMP_A, AMP_AC}
        assert set(model.detection_coefficients) == \
            {LINE_IN, LINE_OUT, AMP_A, AMP_AC}

    def test_detection_lines_at_amplifier_temperature(self):
        from qnoise.constants import HBAR
        model = build_accelerometer(MUSCOPE)
        sigma = K_B * 1.5 / (HBAR * MUSCOPE.carrier_omega)
        assert model.occupations[AMP_A] == pytest.approx(sigma, rel=1e-12)
        assert model.occupations[LINE_IN] == 0.5

    def test_estimator_unit_force_gain(self):
        model = build_accelerometer(MUSCOPE)
        est = model.estimator(np.array([MUSCOPE.measure_omega]))
        assert est.sources[est.signal] == MECH
        assert est.coefficients[est.signal] == \
            pytest.approx(1.0 / (MUSCOPE.mech_damping * (1 + MUSCOPE.loop_gain)
                                 - 1j * MUSCOPE.measure_omega * MUSCOPE.mass))

    def test_estimator_independent_of_loop_gain(self):
        # cold damping: the normalized force estimator does not change when
        # the servo gain changes, so feedback adds no bias and no noise
        rows = []
        for g in (0.0, 1e3, 1e6, 1e9):
            model = build_accelerometer(replace(MUSCOPE, loop_gain=g))
            est = model.estimator(np.array([MUSCOPE.measure_omega]))
            rows.append(est.coefficients / est.coefficients[est.signal])
        for row in rows[1:]:
            np.testing.assert_allclose(row, rows[0], rtol=1e-12)

    def test_detection_noise_shrinks_with_coupling(self):
        strong = build_accelerometer(
            replace(MUSCOPE, transducer_coupling=1e15))
        weak = build_accelerometer(replace(MUSCOPE, transducer_coupling=1e11))
        assert weak.detection_velocity_psd() > \
            1e6 * strong.detection_velocity_psd()
        # the mechanical term is untouched by the transducer
        assert weak.budget().terms[MECH] == \
            pytest.approx(strong.budget().terms[MECH], rel=1e-12)

    def test_budget_mechanical_dominates_at_reference(self):
        budget = build_accelerometer(MUSCOPE).budget()
        assert budget.dominant == [MECH]
        assert budget.terms[MECH] / budget.total > 0.9


class TestColdDamping:
    def test_loop_noise_far_below_langevin_at_same_damping(self):
        # the servo damps with H_loop but injects only detection noise:
        # its force PSD is < 1% of 2 H_loop k_B Theta_m
        model = build_accelerometer(MUSCOPE)
        langevin_at_loop = mechanical_langevin_psd(
            model.loop_damping, MUSCOPE.bath_temperature)
        ratio = model.loop_force_noise_psd() / langevin_at_loop
        assert ratio < 0.01

    def test_loop_effective_temperature_near_amplifier(self):
        model = build_accelerometer(MUSCOPE)
        theta_loop = model.loop_effective_temperature()
        assert theta_loop < 2.0
        assert theta_loop == pytest.approx(MUSCOPE.amp_temperature, rel=0.1)

    def test_zero_loop_gain(self):
        model = build_accelerometer(replace(MUSCOPE, loop_gain=0.0))
        assert model.loop_damping == 0.0
        assert model.loop_force_noise_psd() == 0.0
        assert model.loop_effective_temperature() == 0.0

    def test_effective_temperature_is_loop_noise_over_langevin(self):
        model = build_accelerometer(MUSCOPE)
        assert model.loop_effective_temperature() == pytest.approx(
            model.loop_force_noise_psd() / (2.0 * model.loop_damping * K_B),
            rel=1e-14)

    @pytest.mark.parametrize("coupling", [1e-300, 6e-309])
    def test_weak_coupling_loop_noise_is_inf(self, coupling):
        # |c|^2 of the detection coefficients is past the double range
        model = build_accelerometer(
            replace(MUSCOPE, transducer_coupling=coupling))
        assert model.detection_velocity_psd() == math.inf
        assert model.loop_force_noise_psd() == math.inf
        assert model.loop_effective_temperature() == math.inf

    def test_strong_loop_noise_is_inf(self):
        # H_loop^2 is past the double range; the temperature never forms it
        model = build_accelerometer(
            replace(MUSCOPE, loop_gain=1e190, mech_damping=1e10))
        assert model.loop_force_noise_psd() == math.inf
        theta = model.loop_effective_temperature()
        assert theta == pytest.approx(
            1e200 * model.detection_velocity_psd() / (2.0 * K_B), rel=1e-14)

    def test_loop_noise_scales_with_gain_squared(self):
        low = build_accelerometer(replace(MUSCOPE, loop_gain=1e3))
        high = build_accelerometer(replace(MUSCOPE, loop_gain=1e4))
        assert high.loop_force_noise_psd() == \
            pytest.approx(100.0 * low.loop_force_noise_psd(), rel=1e-12)


class TestSensitivityReport:
    def test_reference_acceleration_asd(self):
        report = sensitivity_report(MUSCOPE)
        # design target 1.2e-12 m s^-2 / sqrt(Hz); model sits within 5%
        assert report.acceleration_asd == pytest.approx(1.2e-12, rel=0.05)

    def test_asd_consistent_with_sigma_ff(self):
        report = sensitivity_report(MUSCOPE)
        assert report.acceleration_asd ** 2 * MUSCOPE.mass ** 2 == \
            pytest.approx(report.sigma_ff, rel=1e-12)

    def test_budget_total_matches_sigma_ff(self):
        report = sensitivity_report(MUSCOPE)
        assert report.sigma_ff == pytest.approx(report.budget.total,
                                                rel=1e-14)
        assert report.dominant == MECH
        assert report.mechanical_fraction > 0.9

    def test_doubling_mass_halves_asd(self):
        # at fixed noise the acceleration sensitivity scales as 1/M
        base = sensitivity_report(MUSCOPE)
        heavy = sensitivity_report(replace(MUSCOPE, mass=2 * MUSCOPE.mass))
        ratio = heavy.acceleration_asd / base.acceleration_asd
        # Z_m is mass dependent, so the scaling is 1/2 only to budget-mix
        # accuracy; the mechanical term itself scales exactly
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_report_invariant_under_loop_gain(self):
        values = []
        for g in (1e3, 1e4, 1e5):
            report = sensitivity_report(replace(MUSCOPE, loop_gain=g))
            values.append(report.sigma_ff)
        for v in values[1:]:
            assert abs(v - values[0]) / values[0] < 1e-3

    def test_cold_bath_leaves_detection_floor(self):
        # freezing the mechanical bath exposes the detection terms
        cold = sensitivity_report(replace(MUSCOPE, bath_temperature=1e-6))
        assert cold.mechanical_fraction < 1e-3
        assert cold.sigma_ff > 0.0
        assert cold.acceleration_asd < sensitivity_report(
            MUSCOPE).acceleration_asd

    def test_overflowing_langevin_force_is_named(self):
        # 2 H_m k_B Theta_m overflows although each factor is finite: the
        # library raises as `qnoise run` does, never returning inf or nan
        cfg = replace(MUSCOPE, mech_damping=1e31, bath_temperature=1e300)
        omegas = 2 * math.pi * np.logspace(-4, -3, 5)
        with np.errstate(all="ignore"):
            with pytest.raises(QNoiseError, match="source mechanical has a "
                               r"non-finite noise budget \(numeric overflow\) "
                               "at 0.0005 Hz$"):
                sensitivity_report(cfg)
            with pytest.raises(QNoiseError, match="source mechanical .* at "
                               "0.0001 Hz$"):
                build_accelerometer(cfg).budget(omegas)


class TestFrequencyDependence:
    def test_detection_terms_grow_with_frequency(self):
        # velocity-referred noise enters through Z_m ~ -i w M, so detection
        # terms rise as w^2 across the measurement band
        model = build_accelerometer(MUSCOPE)
        w1 = MUSCOPE.measure_omega
        w2 = 10.0 * w1
        b1, b2 = model.budget(w1), model.budget(w2)
        assert b2.terms[AMP_AC] == pytest.approx(100.0 * b1.terms[AMP_AC],
                                                 rel=0.01)
        assert b2.terms[MECH] == pytest.approx(b1.terms[MECH], rel=1e-12)

    def test_sweep_budget_matches_single_frequency(self):
        model = build_accelerometer(MUSCOPE)
        omegas = MUSCOPE.measure_omega * np.logspace(-0.5, 0.5, 9)
        sweep = model.budget(omegas)
        for k, omega in enumerate(omegas):
            single = model.budget(omega)
            for lab, value in single.terms.items():
                assert sweep.terms[lab][k] == pytest.approx(value, rel=1e-13)
            assert sweep.total[k] == pytest.approx(single.total, rel=1e-13)
