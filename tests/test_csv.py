"""The spectra.csv kernel: `sweep._csv_rows` must write every cell
byte-identical to the `_FMT` row template it replaced."""

import warnings

import numpy as np
import pytest

from qnoise.sweep import BLOCK_ENTRIES, _FMT, _csv_pieces, _csv_rows


def template_rows(table):
    """The reference: one `_FMT` format call per cell."""
    row = ",".join([_FMT] * table.shape[1]) + "\n"
    return row * len(table) % tuple(table.ravel().tolist())


def kernel_rows(table):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _csv_rows(table)


def assert_same(values, cols=1):
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    expected = template_rows(table).encode()
    got = kernel_rows(table)
    if got != expected:  # name the first cell that differs
        cells = zip(table.ravel(), expected.replace(b"\n", b",").split(b","),
                    got.replace(b"\n", b",").split(b","))
        assert next(((c, w, h) for c, w, h in cells if w != h), None) is None
    assert got == expected


def test_random_doubles_both_signs():
    rng = np.random.default_rng(20260501)
    n = 1_048_576
    mantissa = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    values = mantissa * 10.0 ** rng.integers(-300, 300, n)
    assert_same(values, cols=8)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    assert_same(np.concatenate([np.nextafter(powers, 0.0), powers,
                                np.nextafter(powers, np.inf)]), cols=3)


def test_ninth_digit_ties():
    rng = np.random.default_rng(7)
    k = rng.integers(0, 9 * 10 ** 8, 20000).astype(float)
    ties = np.concatenate([10 ** 8 + k + 0.5, (10 ** 8 + k) * 10 + 5])
    scaled = ties * 10.0 ** rng.integers(-40, 40, len(ties))
    assert_same(np.concatenate([ties, -ties, scaled, -scaled]))


def test_every_form_and_trailing_zero_count():
    # mantissas of 1..9 significant digits at every exponent of the kernel:
    # e-notation, a point after p = 1..9 digits and the 0. to 0.000 leads,
    # each with every count of trailing zeros, for both signs
    rng = np.random.default_rng(9)
    values = []
    for digits in range(1, 10):
        mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 20)
        mantissas[mantissas % 10 == 0] += 1  # exactly `digits` digits
        values += [float(f"{m}e{exponent - digits + 1}")
                   for exponent in range(-99, 99) for m in mantissas]
    assert_same(values + [-v for v in values], cols=9)


def test_edges_zero_and_non_finite():
    tiny, huge = 5e-324, np.finfo(float).max
    edges = [np.nextafter(1e99, 0.0), 1e99, np.nextafter(1e99, np.inf),
             np.nextafter(1e-99, 0.0), 1e-99, np.nextafter(1e-99, 1.0),
             9.9999999995e98, 1.00000000049e-99]
    values = [0.0, -0.0, tiny, -tiny, huge, -huge, np.inf, -np.inf, np.nan]
    assert_same(values + edges + [-v for v in edges])


@pytest.mark.parametrize("shape", [(1, 1), (1, 300), (300, 1), (7, 13)])
def test_table_shapes(shape):
    rng = np.random.default_rng(sum(shape))
    assert_same(rng.lognormal(0.0, 30.0, shape), cols=shape[1])


@pytest.mark.parametrize("cols", [1, 6, 207, BLOCK_ENTRIES])
def test_pieces_straddle_chunk_edges(cols):
    rows = 3 * BLOCK_ENTRIES // cols + 2  # several pieces, the last partial
    rng = np.random.default_rng(cols)
    table = rng.lognormal(0.0, 20.0, (rows, cols))
    table[::5] *= -1.0
    header = [f"c{j}" for j in range(cols)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pieces = list(_csv_pieces(header, list(table.T)))
    assert len(pieces) > 2
    assert b"".join(pieces) == (",".join(header) + "\n"
                                + template_rows(table)).encode()
