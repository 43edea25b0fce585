import math

import numpy as np
import pytest

from qnoise import network
from qnoise.errors import DomainError, ModelError
from qnoise.network import (NoiseLine, ScatteringMap, SpectrumTable,
                            capacitor_impedance, impedance_matrix,
                            inductor_impedance,
                            propagate_spectra, scattering_from_impedance,
                            stamp_solver)
from qnoise.spectra import symmetrized_occupation


def random_reactive(rng, dim):
    """Random anti-Hermitian matrix: i times a Hermitian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2.0
    return 1j * h


def chain(lines, caps=()):
    """A cap between each pair of neighbours in `lines` (a range): of
    `dict(caps)[i]` farads from line i to the next, else of 1 nF."""
    return [("cap", f"c{i}", dict(caps).get(i, 1e-9), j, i)
            for i, j in zip(lines, lines[1:])]


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
        assert not (z + z.conj().T).any()


class TestImpedanceMatrixStamping:
    """`impedance_matrix` adds every stamp with one `np.add.at`; each entry
    must be summed in element order, bit for bit as one stamp at a time."""

    @staticmethod
    def looped(n_ports, elements):
        """The reference: each element's stamps added in turn."""
        shape = np.broadcast_shapes(*(np.shape(z) for z, _, _ in elements))
        z_mat = np.zeros(shape + (n_ports, n_ports), dtype=complex)
        for z, i, j in elements:
            z_mat[..., i, i] += z
            if j >= 0 and j != i:
                z_mat[..., j, j] += z
                z_mat[..., i, j] -= z
                z_mat[..., j, i] -= z
        return z_mat

    @staticmethod
    def elements(rng, n, count, shape=()):
        """`count` elements on random ports of `n` lines (j = -1 grounds,
        j = i stamps the diagonal once), of reactances spread over twelve
        decades, so that the order of each sum shows in its bits."""
        return [((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 * 10.0 ** rng.uniform(-6.0, 6.0, shape),
                 int(rng.integers(n)), int(rng.integers(-1, n)))
                for _ in range(count)]

    def assert_stamped_as_looped(self, n, elements):
        got = impedance_matrix(n, elements)
        want = self.looped(n, elements)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_shuffled_elements_sum_in_element_order(self):
        rng = np.random.default_rng(29)
        orders_differ = False
        for _ in range(50):
            elements = self.elements(rng, 4, 40)
            rng.shuffle(elements)
            self.assert_stamped_as_looped(4, elements)
            orders_differ |= impedance_matrix(4, elements[::-1]).tobytes() \
                != self.looped(4, elements).tobytes()
        assert orders_differ  # the data tell one order from another

    def test_bridging_grounded_and_self_stamps(self):
        rng = np.random.default_rng(30)
        elements = [(2j, 1, 0), (-3j, 2, -1), (5j, 1, 1), (7j, 0, 2),
                    (0.5j, 1, 1), (11j, 2, 0)] + self.elements(rng, 3, 12)
        self.assert_stamped_as_looped(3, elements)
        z = impedance_matrix(2, [(5j, 1, 1)])  # j == i: the diagonal once
        assert z.tolist() == [[0j, 0j], [0j, 5j]]

    def test_no_elements(self):
        self.assert_stamped_as_looped(3, [])
        assert impedance_matrix(3, []).tolist() == [[0j] * 3] * 3

    def test_reactances_over_frequency(self):
        rng = np.random.default_rng(31)
        stack = self.elements(rng, 5, 30, shape=(7,))
        self.assert_stamped_as_looped(5, stack)
        # arrays (F,) beside scalars broadcast to the (F, n, n) stack
        mixed = stack[:10] + self.elements(rng, 5, 10) + stack[10:]
        rng.shuffle(mixed)
        self.assert_stamped_as_looped(5, mixed)
        assert impedance_matrix(5, mixed).shape == (7, 5, 5)
        empty = self.elements(rng, 5, 4, shape=(0,))  # an empty sweep
        self.assert_stamped_as_looped(5, empty + self.elements(rng, 5, 2))


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

    @pytest.mark.parametrize("entry", [math.nan, math.inf,
                                       complex(0.0, math.inf)],
                             ids=["nan", "inf", "inf_reactance"])
    def test_rejects_non_finite_impedance(self, entry):
        # named before the reactivity test, whose norms skip nan, and
        # without a numpy warning first
        z = np.array([[entry, 0.0], [0.0, 1j]])
        lines = [NoiseLine(50.0, 0.0, "p0"), NoiseLine(50.0, 0.0, "p1")]
        with pytest.raises(ModelError) as info:
            scattering_from_impedance(z, lines)
        assert str(info.value) == ("scaled impedance R^-1/2 Z R^-1/2 is not "
                                   "finite")

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
        assert row.amplitude.shape == (7, 1, 2)
        assert row.out_labels == ["p1"] and not row.conjugated.any()
        assert smap.row_residuals().shape == (7, 2)
        assert smap.row_residuals().max() < 1e-12
        assert smap.unitarity_defect() < 1e-12

    def test_single_frequency_row_is_one_row_map(self):
        smap = scattering_from_impedance(self.stack(1e5), self.LINES)
        row = smap.row("p0")
        assert row.amplitude.shape == row.conjugated.shape == (1, 2)
        assert (row.out_labels, row.in_labels) == (["p0"], ["p0", "p1"])
        assert (row.amplitude[0] == smap.amplitude[0]).all()

    def test_propagation_over_stack_equals_slices(self):
        # one call over the stack, bit for bit the calls on each slice
        smap = scattering_from_impedance(self.stack(self.OMEGAS), self.LINES)
        sigmas = {line.label: symmetrized_occupation(self.OMEGAS,
                                                     line.temperature)
                  for line in self.LINES}
        out = propagate_spectra(smap, SpectrumTable(sigmas)).occupations
        assert all(value.shape == (7,) for value in out.values())
        for k in range(len(self.OMEGAS)):
            one = ScatteringMap(smap.amplitude[k], smap.conjugated,
                                smap.out_labels, smap.in_labels)
            single = propagate_spectra(one, SpectrumTable(
                {label: s[k] for label, s in sigmas.items()})).occupations
            for label, value in single.items():
                assert isinstance(value, float)
                assert value == out[label][k]

    def test_reactivity_checked_at_every_frequency(self):
        z = self.stack(self.OMEGAS)
        z[3, 0, 0] += 1.0
        with pytest.raises(ModelError, match="not reactive"):
            scattering_from_impedance(z, self.LINES)


class TestSolvedRowsAndConditionGuard:
    """`outputs=` solves a subset of rows; the SVD condition estimate runs
    only where the norm bound cannot clear cond(z + 1) <= COND_LIMIT."""

    N = 8
    OMEGAS = 2 * math.pi * np.logspace(3, 8, 50)

    def ladder(self, omegas):
        """Ladder-like network: a cap between neighbours, an inductor from
        every line to ground."""
        stamps = [(capacitor_impedance(1e-9, omegas), i, i + 1)
                  for i in range(self.N - 1)]
        stamps += [(inductor_impedance(1e-6, omegas), i, -1)
                   for i in range(self.N)]
        lines = [NoiseLine(50.0 * (1 + 0.1 * i), 1.0 + i, f"l{i}")
                 for i in range(self.N)]
        return impedance_matrix(self.N, stamps), lines

    def test_output_rows_match_full_map(self):
        z, lines = self.ladder(self.OMEGAS)
        full = scattering_from_impedance(z, lines)
        part = scattering_from_impedance(z, lines, outputs=["l5", "l0"])
        assert part.out_labels == ["l5", "l0"]
        assert part.in_labels == full.in_labels
        assert part.amplitude.shape == (50, 2, self.N)
        np.testing.assert_allclose(part.amplitude,
                                   full.amplitude[:, [5, 0], :],
                                   rtol=1e-14, atol=1e-15)

    def test_unknown_output_rejected(self):
        # by the sweep's stamp path too, with the same message
        z, lines = self.ladder(self.OMEGAS)
        for solve in (lambda: scattering_from_impedance(
                          z, lines, outputs=["l0", "nope"]),
                      lambda: stamp_solver(lines, [], ["l0", "nope"])):
            with pytest.raises(ModelError) as info:
                solve()
            assert str(info.value) == "unknown output lines {'nope'}"

    def test_near_singular_frequency_in_healthy_stack(self):
        # 1 pF between two 50 ohm lines: cond(z + 1) = 6.4e12 at 1 mHz
        omegas = 2 * math.pi * np.array([1e6, 1e7, 1e-3, 1e8])
        z = impedance_matrix(2, [(capacitor_impedance(1e-12, omegas), 0, 1)])
        lines = [NoiseLine(50.0, 300.0, "a"), NoiseLine(50.0, 0.0, "b")]
        with pytest.raises(ModelError, match="near-singular"):
            scattering_from_impedance(z, lines, outputs=["b"])

    def test_frequency_the_bound_cannot_clear_is_solved_with_pivoting(self):
        # z is reactive to 1.4e-10 relative, but its Hermitian part is -1
        # at line 0, where (z + 1) has a zero diagonal; cond(z + 1) is
        # about 7e9, so it is solved, not rejected, with pivots LAPACK picks
        n = 8
        z = np.diag([-1.0 + 0j, 0.0] + [1j] * (n - 2))
        z[0, 1] = z[1, 0] = 1e10j
        z[range(2, n - 1), range(3, n)] = z[range(3, n), range(2, n - 1)] \
            = 0.5j  # a chain over lines 2..7
        lines = [NoiseLine(1.0, 1.0, f"l{i}") for i in range(n)]
        got = scattering_from_impedance(z, lines).amplitude
        want = np.linalg.solve((z + np.eye(n)).T, (z - np.eye(n)).T).T
        assert np.array_equal(got, want)

    def test_bound_clears_ladder_without_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.cond called")
        monkeypatch.setattr(np.linalg, "cond", refuse)
        z, lines = self.ladder(self.OMEGAS)
        smap = scattering_from_impedance(z, lines)
        assert smap.unitarity_defect() < 1e-12


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
        with pytest.raises(ModelError, match="no spectrum for line 'a'"):
            propagate_spectra(smap, SpectrumTable({"b": 0.5}))

    def test_anomalous_pair_counts_where_normal_meets_conjugated(self):
        # row x is normal on a, conjugated on b; row y normal on both
        smap = ScatteringMap(np.array([[2.0, 3.0], [0.5, 0.25]]),
                             np.array([[False, True], [False, False]]),
                             ["x", "y"], ["a", "b"])
        table = SpectrumTable({"a": 1.0, "b": 2.0},
                              anomalous={("b", "a"): 0.5, ("a", "z"): 9.0})
        out = propagate_spectra(smap, table).occupations
        assert out["x"] == 4.0 + 18.0 + 2.0 * 2.0 * 3.0 * 0.5
        assert out["y"] == 0.25 + 0.125


class TestStampSolver:
    """The sweep's passive path stamps the caps and inds itself and solves
    from the real reactance, in blocks; its rows must equal, bit for bit,
    those of `scattering_from_impedance` on the complex Z(w) = A / w + w B."""

    OMEGAS = 2 * math.pi * np.logspace(-3, 9, 37)

    @staticmethod
    def random_network(rng):
        """Caps and inds between random lines or to ground, on lines whose
        resistances spread over six decades."""
        n = int(rng.integers(1, 12))
        lines = [NoiseLine(10.0 ** rng.uniform(0.0, 6.0), 1.0, f"l{i}")
                 for i in range(n)]

        def draw(kind):
            return [(kind, f"{kind}{k}", 10.0 ** rng.uniform(-13.0, -3.0),
                     int(rng.integers(n)), int(rng.integers(-1, n)))
                    for k in range(int(rng.integers(0, 2 * n + 1)))]
        elements = draw("cap") + draw("ind")
        outputs = [f"l{i}" for i in rng.permutation(n)[:rng.integers(1, n + 1)]]
        return lines, elements, outputs

    @staticmethod
    def stamps(n, elements):
        """The cap and ind stamps A and B of `elements` at w = 1."""
        return [impedance_matrix(n, [(impedance(value, 1.0), i, j)
                                     for kind, _, value, i, j in elements
                                     if kind == name])
                for name, impedance in (("cap", capacitor_impedance),
                                        ("ind", inductor_impedance))]

    @staticmethod
    def outcome(solve):
        try:
            return solve()
        except ModelError as exc:
            return str(exc)

    def test_rows_equal_the_complex_solve_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        rejected = 0
        for _ in range(300):
            lines, elements, outputs = self.random_network(rng)
            a, b = self.stamps(len(lines), elements)
            w = self.OMEGAS[:, None, None]
            want = self.outcome(lambda: scattering_from_impedance(
                1j * (a.imag / w) + w * b, lines, outputs=outputs).amplitude)
            got = self.outcome(lambda: stamp_solver(lines, elements, outputs)(
                self.OMEGAS))
            if isinstance(want, str):
                rejected += 1
                assert got == want
                continue
            assert np.array_equal(got, want)
            d = np.array([line.resistance for line in lines]) ** -0.5
            x = (a.imag / w + w * b.imag) * (d[:, None] * d)
            # the system solved is 1 + i x itself: x^T is x bit for bit
            assert np.array_equal(x, np.swapaxes(x, -1, -2))
        # both outcomes are exercised
        assert 300 - rejected >= 200 and rejected >= 5

    def test_a_sweep_equals_its_frequencies_and_windows(self, monkeypatch):
        # each frequency is eliminated on its own: the whole sweep, one
        # frequency at a time, uneven windows and blocks of a few
        # frequencies give the same rows
        rng = np.random.default_rng(7)
        solved = 0
        while solved < 10:
            lines, elements, outputs = self.random_network(rng)
            solve = stamp_solver(lines, elements, outputs)
            want = self.outcome(lambda: solve(self.OMEGAS))
            if isinstance(want, str):
                continue
            self.assert_rows_contiguous(want)
            for cuts in ([*range(38)], [0, 1, 9, 30, 37]):
                got = np.concatenate([solve(self.OMEGAS[start:stop])
                                      for start, stop in zip(cuts, cuts[1:])])
                assert np.array_equal(got, want)
            with monkeypatch.context() as patch:
                patch.setattr(network, "BLOCK_ENTRIES", len(lines) ** 2)
                got = stamp_solver(lines, elements, outputs)(self.OMEGAS)
            assert np.array_equal(got, want)
            self.assert_rows_contiguous(got)
            solved += 1

    @staticmethod
    def assert_rows_contiguous(amplitude):
        # the sweep reads each row (n, F) as amplitude[:, k, :].T
        for k in range(amplitude.shape[1]):
            assert amplitude[:, k, :].T.flags.c_contiguous

    @staticmethod
    def bench_ladder():
        """The bench's ladder: 40 lines of 50 ohm, a 1 nF cap between
        neighbours, a 1 uH ind from each line to ground, every 8th line
        measured."""
        n = 40
        lines = [NoiseLine(50.0, 1.0 + i, f"l{i}") for i in range(n)]
        elements = [("cap", f"c{i}", 1e-9, i + 1, i) for i in range(n - 1)]
        elements += [("ind", f"i{i}", 1e-6, i, -1) for i in range(n)]
        return lines, elements, [f"l{i}" for i in range(0, n, 8)]

    def test_returned_rows_own_their_memory(self):
        # the solver keeps one buffer for x and a from call to call; the
        # rows it returns must be the caller's, untouched by a later call
        # on other frequencies, as many, more (its buffer grows) or fewer
        rng = np.random.default_rng(11)
        networks = [self.bench_ladder()] + [self.random_network(rng)
                                            for _ in range(4)]
        for lines, elements, outputs in networks:
            solve = stamp_solver(lines, elements, outputs)
            first = self.outcome(lambda: solve(self.OMEGAS[:5]))
            if isinstance(first, str):
                continue
            kept = first.tobytes()
            for omegas in (self.OMEGAS[10:15], self.OMEGAS[5:],
                           self.OMEGAS[2:4], self.OMEGAS):
                later = solve(omegas)
                assert not np.shares_memory(first, later)
                assert first.tobytes() == kept
            assert np.array_equal(later, stamp_solver(
                lines, elements, outputs)(self.OMEGAS))
        z, lines = TestSolvedRowsAndConditionGuard().ladder(self.OMEGAS)
        first = scattering_from_impedance(z[:5], lines).amplitude
        kept = first.tobytes()
        later = scattering_from_impedance(z[5:], lines).amplitude
        assert not np.shares_memory(first, later)
        assert first.tobytes() == kept

    def test_a_window_allocates_little_beyond_its_rows(self):
        # the traced peak of one 75-point window of the bench ladder, its
        # kept buffer included, against the rows it returns: 3.80 with
        # numpy 2.4, where allocating a per window took 4.88
        import tracemalloc
        lines, elements, outputs = self.bench_ladder()
        omegas = 2 * math.pi * np.logspace(3, 8, 150)
        solve = stamp_solver(lines, elements, outputs)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]  # if traced before
            solve(omegas[:75])  # makes the buffer
            tracemalloc.reset_peak()
            rows = solve(omegas[75:])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rows.nbytes == 5 * 40 * 75 * 16
        assert peak < 4.5 * rows.nbytes

    def test_an_empty_sweep_gives_no_rows(self):
        # as scattering_from_impedance gives on an empty stack
        lines = [NoiseLine(50.0, 1.0, "a"), NoiseLine(50.0, 1.0, "b")]
        got = stamp_solver(lines, [("cap", "c", 1e-9, 1, 0)], ["b"])(
            np.array([]))
        want = scattering_from_impedance(np.zeros((0, 2, 2)), lines,
                                         outputs=["b"]).amplitude
        assert got.shape == want.shape == (0, 1, 2)
        assert got.dtype == want.dtype

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("element, omega, message", [
        (("cap", "c", 1e-9, 1, 0), 1e-310,
         "cap c: its reactance overflows at 1.59155e-311 Hz"),
        (("ind", "l", 1e-6, 1, 0), 1e308,  # its condition is LAPACK's
         "(z + 1) is near-singular (condition ")], ids=["cap", "ind"])
    def test_overflow_is_named_before_any_warning(self, element, omega,
                                                  message):
        # outside the sweep's np.errstate: a warning from forming x or its
        # norm would stand in for the ModelError that names the fault
        lines = [NoiseLine(50.0, 1.0, "a"), NoiseLine(50.0, 1.0, "b")]
        with pytest.raises(ModelError) as info:
            stamp_solver(lines, [element], ["a"])(np.array([omega]))
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("resistances, elements, hz, message", [
        ([50.0] * 6, chain(range(6)) + [
            ("ind", "i0", 1.5e308, 3, -1), ("ind", "i1", 1.5e308, 3, -1)],
         [1e-3, 1e-2],
         "line 'l3': the summed cap and ind reactance over R overflows at "
         "0.001 Hz"),
        ([50.0, 50.0, 1e-200, 1e-300, 50.0, 50.0], chain(range(6), {2: 1e-60}),
         [1.0, 10.0],
         "lines 'l2' and 'l3': the summed cap and ind reactance over R "
         "overflows at 1 Hz"),
        # a 5-line clique with a chain off it: the plan eliminates l0 and
        # l7 and leaves l1..l6 as the dense tail, so the overflowing slots
        # of l6 and l7 come before line l1's, which comes first in x
        ([50.0] * 6 + [1e-200, 1e-300],
         [("cap", f"c{i}{j}", 1e-9, j, i) for j in range(5) for i in range(j)]
         + chain(range(4, 8), {6: 1e-60})
         + [("ind", "i0", 1.5e308, 1, -1), ("ind", "i1", 1.5e308, 1, -1)],
         [1e-3, 1e-2],
         "line 'l1': the summed cap and ind reactance over R overflows at "
         "0.001 Hz")], ids=["summed_interior_line", "bridging_pair",
                            "dense_tail"])
    def test_overflow_is_named_on_a_plan_with_rounds(self, resistances,
                                                     elements, hz, message):
        # over 4 lines, so the plan eliminates in rounds; the message names
        # the first entry of x in row-major order that is not finite
        n = len(resistances)
        lines = [NoiseLine(r, 1.0, f"l{i}") for i, r in enumerate(resistances)]
        with np.errstate(all="ignore"):  # as the sweep calls it
            a, b = self.stamps(n, elements)
            assert network._plan(n, ((a != 0.0) | (b != 0.0)).tobytes())[3]
            with pytest.raises(ModelError) as info:
                stamp_solver(lines, elements, ["l1"])(
                    2 * math.pi * np.array(hz))
        assert str(info.value) == message

    def test_ladder_runs_no_per_frequency_check(self, monkeypatch, tmp_path):
        from qnoise.cli import main

        def refuse(*args, **kwargs):
            raise AssertionError("per-frequency check called")
        real_norm = np.linalg.norm

        def real_only(x, *args, **kwargs):
            assert not np.iscomplexobj(x), "complex Frobenius norm"
            return real_norm(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "norm", real_only)
        n = 40
        text = "".join(f"line l{i} R=50 T={i + 1}\n" for i in range(n))
        text += "".join(f"cap c{i} C=1n ports=(l{i},l{i + 1})\n"
                        for i in range(n - 1))
        text += "".join(f"ind i{i} L=1u ports=(l{i},gnd)\n" for i in range(n))
        text += "sweep 1k 100M 200 log\n"
        text += "".join(f"measure l{i} as m{i} signal=l{n - 1}\n"
                        for i in range(0, 40, 8))
        netlist = tmp_path / "ladder.qn"
        netlist.write_text(text)
        assert main(["run", str(netlist), "--out", str(tmp_path / "out")]) == 0

    def test_unstamped_line_runs_where_one_over_w_overflows(self, tmp_path):
        # below w of about 5.6e-309, 1 / w is inf; a line with no cap or
        # ind has no reactance to scale, so it is the bare line, S = -1
        from qnoise.cli import main
        netlist = tmp_path / "low.qn"
        netlist.write_text("line a R=50 T=1\nsweep 1e-310 1e-309 3 log\n"
                           "measure a as m signal=a\n")
        assert main(["run", str(netlist), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "spectra.csv").read_text().splitlines()
        assert rows[0] == "frequency_Hz,m_total,m_a"
        assert [row.split(",")[1:] for row in rows[1:]] == \
            [["1.380649e-23"] * 2] * 3

    def test_stamped_line_runs_where_one_over_w_overflows(self, tmp_path):
        # below w of about 5.6e-309, 1 / w is inf but the cap's reactance
        # 1 / (w C) is finite, so x is formed as x_a / w
        from qnoise.cli import main
        netlist = tmp_path / "low.qn"
        netlist.write_text("line a R=50 T=1\ncap c C=1k ports=(a,gnd)\n"
                           "sweep 1e-310 1e-309 3 log\n"
                           "measure a as m signal=a\n")
        assert main(["run", str(netlist), "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "spectra.csv").read_text().splitlines()
        assert rows[0] == "frequency_Hz,m_total,m_a"
        assert [row.split(",")[1:] for row in rows[1:]] == \
            [["1.380649e-23"] * 2] * 3


class TestEliminationShapes:
    """The planned elimination on the shapes it has to serve, against a
    dense solve of (1 + i x) s = (i x - 1), whose columns are the rows of S
    (x is symmetric): long chains, a grid, dense networks, which go to the
    dense tail whole, a line with no cap or ind, and one line."""

    OMEGAS = 2 * math.pi * np.logspace(3, 8, 5)
    SHAPES = ["ladder_120", "grid_8x8", "dense_40", "dense_3", "bare_line",
              "one_line"]

    @staticmethod
    def network(shape, rng):
        """Lines and caps/inds of `shape`, with values drawn from rng."""
        n, pairs = {
            "ladder_120": (120, [(i + 1, i) for i in range(119)]),
            "grid_8x8": (64, [(k + step, k) for k in range(64)
                              for step in (1, 8)
                              if k + step < 64 and (step == 8 or k % 8 < 7)]),
            "dense_40": (40, [(j, i) for j in range(40) for i in range(j)]),
            "dense_3": (3, [(1, 0), (2, 0), (2, 1)]),
            "bare_line": (6, [(i + 1, i) for i in range(4)]),  # l5 bare
            "one_line": (1, []),
        }[shape]
        lines = [NoiseLine(10.0 ** rng.uniform(1.0, 3.0), 1.0, f"l{i}")
                 for i in range(n)]
        caps = [("cap", f"c{k}", 10.0 ** rng.uniform(-10.0, -8.0), i, j)
                for k, (i, j) in enumerate(pairs)]
        inds = [("ind", f"i{i}", 10.0 ** rng.uniform(-7.0, -5.0), i, -1)
                for i in range(n) if shape != "bare_line" or i < 5]
        return lines, caps + inds

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_match_a_dense_solve(self, shape):
        lines, elements = self.network(shape, np.random.default_rng(26))
        n = len(lines)
        outputs = [f"l{i}" for i in sorted({0, n // 2, n - 1})]
        got = stamp_solver(lines, elements, outputs)(self.OMEGAS)
        TestStampSolver.assert_rows_contiguous(got)
        a, b = TestStampSolver.stamps(n, elements)
        d = 1.0 / np.sqrt([line.resistance for line in lines])  # as solved
        w = self.OMEGAS[:, None, None]
        x = (a.imag / w + w * b.imag) * (d[:, None] * d)
        system = np.eye(n) + 1j * x
        rows = [int(label[1:]) for label in outputs]
        want = np.swapaxes(np.linalg.solve(system, 1j * x - np.eye(n))
                           [..., rows], -1, -2)
        error = np.linalg.norm(got - want, axis=(-2, -1))
        # 1 + i x is normal: its singular values are |1 + i lambda(x)|; each
        # of the two solves is within n eps cond of the exact rows
        square = 1.0 + np.linalg.eigvalsh(x) ** 2
        cond = np.sqrt(square.max(axis=-1) / square.min(axis=-1))
        bound = 2 * n * np.finfo(float).eps * cond
        assert np.all(error <= bound * np.linalg.norm(want, axis=(-2, -1)))
        smap = ScatteringMap(got, np.zeros((len(rows), n), dtype=bool),
                             outputs, [line.label for line in lines])
        assert np.max(smap.row_residuals()) <= 1e-12

    @pytest.mark.parametrize("shape", SHAPES)
    def test_plan_depends_on_the_pattern_only(self, shape):
        plans = []
        for seed in (1, 2):  # planned afresh, past the cache
            lines, elements = self.network(shape, np.random.default_rng(seed))
            a, b = TestStampSolver.stamps(len(lines), elements)
            plans.append(network._plan.__wrapped__(
                len(lines), ((a != 0.0) | (b != 0.0)).tobytes()))
        (rows, cols, slot, rounds, tail), other = plans
        assert len(rounds) == len(other[3])
        for got, want in zip([rows, cols, slot, tail, *sum(rounds, ())],
                             [*other[:3], other[4], *sum(other[3], ())]):
            assert np.array_equal(got, want)
        # a dense network, or one of at most 4 lines, goes whole to the
        # dense tail; a chain, with or without a bare line, is eliminated
        # to its last line, and a grid down to a tail under a third of its
        # lines; the long ones take far fewer rounds than lines
        whole = shape.startswith("dense") or len(lines) <= 4
        assert len(tail) == (len(lines) if whole else
                             20 if shape == "grid_8x8" else 0)
        assert len(rounds) <= (0 if whole else max(4, len(lines) // 7))
