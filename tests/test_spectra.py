import math

import numpy as np
import pytest

from qnoise.constants import HBAR, K_B
from qnoise.errors import DomainError
from qnoise.spectra import symmetrized_occupation, thermal_energy

# independently evaluated: coth(1) = (e^2+1)/(e^2-1)
COTH_1 = (math.e ** 2 + 1.0) / (math.e ** 2 - 1.0)


def omega_for_ratio(ratio, temperature):
    """omega such that hbar|omega| / (k_B T) = ratio."""
    return ratio * K_B * temperature / HBAR


class TestSymmetrizedOccupation:
    def test_vacuum_floor_is_exactly_half(self):
        for omega in (1.0, -1.0, 2 * math.pi * 1e5, 1e-3):
            assert symmetrized_occupation(omega, 0.0) == 0.5

    def test_coth_one_point(self):
        omega = omega_for_ratio(2.0, 300.0)
        assert symmetrized_occupation(omega, 300.0) == \
            pytest.approx(0.5 * COTH_1, rel=1e-12)

    def test_classical_asymptote(self):
        temperature = 4.2
        omega = omega_for_ratio(1e-3, temperature)
        sigma = symmetrized_occupation(omega, temperature)
        classical = K_B * temperature / (HBAR * omega)
        assert sigma == pytest.approx(1000.0, rel=1e-6)
        assert abs(sigma - classical) / sigma < 1e-7

    def test_even_in_frequency(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega = rng.uniform(1e-6, 1e12)
            temperature = rng.uniform(0.0, 1e4)
            assert symmetrized_occupation(omega, temperature) == \
                symmetrized_occupation(-omega, temperature)

    def test_above_vacuum_floor(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            omega = rng.uniform(1e-3, 1e12)
            temperature = rng.uniform(1e-6, 1e4)
            assert symmetrized_occupation(omega, temperature) > 0.5

    def test_classical_expansion_bound(self):
        # coth(x) = 1/x + x/3 + O(x^3), so the relative defect is <= x^2/3
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.uniform(1e-6, 1e-2)
            temperature = 77.0
            omega = 2.0 * x * K_B * temperature / HBAR
            sigma = symmetrized_occupation(omega, temperature)
            classical = K_B * temperature / (HBAR * omega)
            assert abs(sigma - classical) / sigma <= x ** 2 / 3.0 + 1e-12

    def test_monotone_in_temperature(self):
        omega = 2 * math.pi * 1e6
        temps = np.linspace(0.0, 400.0, 100)
        sigmas = [symmetrized_occupation(omega, t) for t in temps]
        assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            symmetrized_occupation(0.0, 300.0)
        with pytest.raises(DomainError):
            symmetrized_occupation(1.0, -1.0)

    def test_vectorized(self):
        omegas = np.array([1.0, 10.0, 100.0])
        sigmas = symmetrized_occupation(omegas, 0.0)
        np.testing.assert_array_equal(sigmas, 0.5)


class TestThermalEnergy:
    def test_vacuum_is_exactly_half_a_quantum(self):
        for omega in (1.0, -1.0, 2 * math.pi * 1e5, 1e-3, 1e300):
            assert thermal_energy(omega, 0.0) == HBAR * abs(omega) / 2

    def test_coth_points_on_both_sides_of_x_one(self):
        # x = 1/2 and x = 2, on either side of the switch of forms at x = 1
        for x in (0.5, 2.0):
            omega = omega_for_ratio(2.0 * x, 300.0)
            coth = (math.exp(2 * x) + 1.0) / (math.exp(2 * x) - 1.0)
            assert thermal_energy(omega, 300.0) == \
                pytest.approx(HBAR * omega / 2 * coth, rel=1e-14)

    def test_classical_limit_where_x_underflows(self):
        # hbar|w| / 2 k_B T is about 2e-321 (subnormal), or 0
        for omega in (2 * math.pi * 1e-10, 1e-300):
            assert thermal_energy(omega, 1e300) == K_B * 1e300

    def test_occupation_is_the_energy_over_a_quantum(self):
        omegas = np.logspace(-3, 15, 40)
        for temperature in (0.0, 1e-3, 4.2, 300.0, 1e6):
            np.testing.assert_allclose(
                symmetrized_occupation(omegas, temperature),
                thermal_energy(omegas, temperature) / (HBAR * omegas),
                rtol=1e-15)

    def test_never_below_the_vacuum_floor(self):
        # also at temperatures whose k_B T is subnormal or 0, and huge
        rng = np.random.default_rng(17)
        omegas = 10.0 ** rng.uniform(-300, 300, 2000)
        temps = 10.0 ** rng.uniform(-330, 300, 2000)
        energy = thermal_energy(omegas, temps)
        assert np.isfinite(energy).all()
        assert (energy >= HBAR * omegas / 2).all()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            thermal_energy(0.0, 300.0)
        with pytest.raises(DomainError):
            thermal_energy(1.0, -1.0)
