import math

import numpy as np
import pytest

from qnoise.constants import HBAR
from qnoise.errors import DomainError, ModelError
from qnoise.network import (NoiseLine, ScatteringMap, SpectrumTable,
                            capacitor_impedance, impedance_matrix,
                            inductor_impedance, port_observables,
                            propagate_spectra, reactivity_residual,
                            scattering_from_impedance)


def random_reactive(rng, dim):
    """Random anti-Hermitian matrix: i times a Hermitian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    return 1j * h


def random_lines(rng, dim):
    return [NoiseLine(rng.uniform(1.0, 1e6), rng.uniform(0.0, 300.0), f"p{i}")
            for i in range(dim)]


class TestNoiseLine:
    def test_rejects_bad_impedance(self):
        with pytest.raises(DomainError):
            NoiseLine(0.0, 1.0, "x")
        with pytest.raises(DomainError):
            NoiseLine(math.inf, 1.0, "x")
        with pytest.raises(DomainError):
            NoiseLine(50.0, -1.0, "x")


class TestReactiveElements:
    def test_inductor_convention(self):
        assert inductor_impedance(2e-3, 1e4) == -1j * 1e4 * 2e-3

    def test_capacitor_convention(self):
        assert capacitor_impedance(1e-9, 1e6) == pytest.approx(1j / (1e6 * 1e-9))

    def test_series_lc_resonance(self):
        ll, c = 1e-3, 1e-9
        omega = 1.0 / math.sqrt(ll * c)
        total = inductor_impedance(ll, omega) + capacitor_impedance(c, omega)
        assert abs(total) < 1e-12 * abs(inductor_impedance(ll, omega))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            inductor_impedance(0.0, 1.0)
        with pytest.raises(DomainError):
            capacitor_impedance(-1e-9, 1.0)

    def test_laplacian_stamp_is_reactive(self):
        z = impedance_matrix(3, [(1j * 5.0, 0, 1), (-1j * 2.0, 2, -1),
                                 (1j * 7.0, 1, 2)])
        assert reactivity_residual(z) < 1e-15


class TestScatteringFromImpedance:
    def test_short_reflects_with_sign_flip(self):
        smap = scattering_from_impedance(
            np.zeros((1, 1)), [NoiseLine(50.0, 0.0, "p0")])
        assert smap.amplitude[0, 0] == pytest.approx(-1.0)

    def test_open_limit(self):
        r = 50.0
        z = np.array([[-1j * 1e12 * r]])
        smap = scattering_from_impedance(z, [NoiseLine(r, 0.0, "p0")])
        assert abs(smap.amplitude[0, 0] - 1.0) < 1e-6

    def test_unitarity_random_networks(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            smap = scattering_from_impedance(random_reactive(rng, dim),
                                             random_lines(rng, dim))
            assert smap.unitarity_defect() < 1e-10
            assert smap.row_residuals().max() < 1e-10

    def test_rejects_non_reactive(self):
        z = np.array([[1.0 + 1j]])
        with pytest.raises(ModelError, match="not reactive"):
            scattering_from_impedance(z, [NoiseLine(50.0, 0.0, "p0")])

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            scattering_from_impedance(np.zeros((2, 2)),
                                      [NoiseLine(50.0, 0.0, "p0")])

    def test_all_coefficients_normal(self):
        rng = np.random.default_rng(5)
        smap = scattering_from_impedance(random_reactive(rng, 4),
                                         random_lines(rng, 4))
        assert not smap.conjugated.any()


class TestFrequencyStack:
    """A (F, n, n) impedance stack solves like F separate matrices."""

    LINES = [NoiseLine(50.0, 77.0, "p0"), NoiseLine(200.0, 4.2, "p1")]
    OMEGAS = np.logspace(4, 8, 7)

    def stack(self, omegas):
        return impedance_matrix(2, [
            (capacitor_impedance(1e-9, omegas), 0, 1),
            (inductor_impedance(1e-6, omegas), 1, -1),
        ])

    def test_impedance_stack_shape(self):
        assert self.stack(self.OMEGAS).shape == (7, 2, 2)
        assert self.stack(1e5).shape == (2, 2)

    def test_stack_matches_single_frequency_solves(self):
        smap = scattering_from_impedance(self.stack(self.OMEGAS), self.LINES)
        assert smap.amplitude.shape == (7, 2, 2)
        for k, omega in enumerate(self.OMEGAS):
            single = scattering_from_impedance(self.stack(omega), self.LINES)
            np.testing.assert_allclose(smap.amplitude[k], single.amplitude,
                                       rtol=1e-14, atol=1e-15)

    def test_methods_keep_the_frequency_axis(self):
        smap = scattering_from_impedance(self.stack(self.OMEGAS), self.LINES)
        row = smap.row("p1")
        assert row["p0"].amplitude.shape == (7,)
        assert not row["p0"].conjugated
        assert smap.row_residuals().shape == (7, 2)
        assert smap.row_residuals().max() < 1e-12
        assert smap.unitarity_defect() < 1e-12

    def test_single_frequency_row_is_complex(self):
        smap = scattering_from_impedance(self.stack(1e5), self.LINES)
        assert type(smap.row("p0")["p1"].amplitude) is complex

    def test_reactivity_checked_at_every_frequency(self):
        z = self.stack(self.OMEGAS)
        z[3, 0, 0] += 1.0
        with pytest.raises(ModelError, match="not reactive"):
            scattering_from_impedance(z, self.LINES)


class TestPropagation:
    def test_identity_map(self):
        labels = ["a", "b"]
        smap = ScatteringMap(np.eye(2), np.zeros((2, 2), bool), labels, labels)
        table = SpectrumTable({"a": 1.5, "b": 0.5})
        out = propagate_spectra(smap, table)
        assert out.occupations == {"a": 1.5, "b": 0.5}

    def test_short_preserves_occupation(self):
        smap = ScatteringMap(np.array([[-1.0]]), np.array([[False]]),
                             ["p"], ["p"])
        out = propagate_spectra(smap, SpectrumTable({"p": 2.25}))
        assert out.occupations["p"] == pytest.approx(2.25)

    def test_thermal_equilibrium_fixed_point(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            smap = scattering_from_impedance(random_reactive(rng, dim),
                                             random_lines(rng, dim))
            s = rng.uniform(0.5, 1e4)
            table = SpectrumTable({f"p{i}": s for i in range(dim)})
            out = propagate_spectra(smap, table)
            for value in out.occupations.values():
                assert abs(value - s) < 1e-10 * s

    def test_occupations_are_cross_correlation_diagonal(self):
        rng = np.random.default_rng(8)
        smap = scattering_from_impedance(random_reactive(rng, 3),
                                         random_lines(rng, 3))
        sigmas = {"p0": 0.5, "p1": 2.0, "p2": 7.0}
        out = propagate_spectra(smap, SpectrumTable(sigmas))
        cross = smap.amplitude @ np.diag([0.5, 2.0, 7.0]) \
            @ smap.amplitude.conj().T
        for i, lab in enumerate(smap.out_labels):
            assert out.occupations[lab] == pytest.approx(cross[i, i].real)

    def test_frequency_symmetry(self):
        # propagated spectra even in omega for an LC-coupled pair
        lines = [NoiseLine(50.0, 77.0, "p0"), NoiseLine(200.0, 4.2, "p1")]
        from qnoise.spectra import symmetrized_occupation
        results = []
        for omega in (1e5, -1e5):
            z = impedance_matrix(2, [(capacitor_impedance(1e-8, omega), 0, 1)])
            smap = scattering_from_impedance(z, lines)
            table = SpectrumTable(
                {l.label: symmetrized_occupation(omega, l.temperature)
                 for l in lines})
            results.append(propagate_spectra(smap, table).occupations)
        assert results[0] == pytest.approx(results[1])

    def test_missing_line_rejected(self):
        smap = ScatteringMap(np.eye(1), np.zeros((1, 1), bool), ["a"], ["a"])
        with pytest.raises(ModelError):
            propagate_spectra(smap, SpectrumTable({"b": 0.5}))


class TestPortObservables:
    def test_short_is_voltage_node(self):
        r, omega, sigma = 50.0, 1e6, 3.0
        smap = ScatteringMap(np.array([[-1.0]]), np.array([[False]]),
                             ["p"], ["p"])
        suu, sii = port_observables(smap, SpectrumTable({"p": sigma}),
                                    "p", omega, r)
        assert suu == pytest.approx(0.0, abs=1e-30)
        assert sii == pytest.approx(4 * (HBAR * omega / (2 * r)) * sigma)

    def test_open_is_current_node(self):
        r, omega, sigma = 50.0, 1e6, 3.0
        smap = ScatteringMap(np.array([[1.0]]), np.array([[False]]),
                             ["p"], ["p"])
        suu, sii = port_observables(smap, SpectrumTable({"p": sigma}),
                                    "p", omega, r)
        assert sii == pytest.approx(0.0, abs=1e-30)
        assert suu == pytest.approx(4 * (HBAR * omega * r / 2) * sigma)

    def test_matched_two_port_johnson_partition(self):
        # two equal resistances coupled reactively: each port voltage PSD
        # stays consistent with the equilibrium Johnson value
        from qnoise.spectra import johnson_nyquist_voltage_psd, \
            symmetrized_occupation
        r, temperature, omega = 1e3, 300.0, 1e7
        lines = [NoiseLine(r, temperature, "p0"), NoiseLine(r, temperature,
                                                            "p1")]
        z = impedance_matrix(2, [(capacitor_impedance(1e-10, omega), 0, 1)])
        smap = scattering_from_impedance(z, lines)
        sigma = symmetrized_occupation(omega, temperature)
        table = SpectrumTable({"p0": sigma, "p1": sigma})
        suu, sii = port_observables(smap, table, "p0", omega, r)
        # at equilibrium, sigma_UU + R^2 sigma_II equals twice the Johnson PSD
        # (the U and I quadratures share the total line noise power)
        johnson = johnson_nyquist_voltage_psd(r, omega, temperature)
        assert suu + r ** 2 * sii == pytest.approx(2 * johnson, rel=1e-10)

    def test_unknown_port(self):
        smap = ScatteringMap(np.eye(1), np.zeros((1, 1), bool), ["a"], ["a"])
        with pytest.raises(ModelError):
            port_observables(smap, SpectrumTable({"a": 0.5}), "zz", 1.0, 50.0)
