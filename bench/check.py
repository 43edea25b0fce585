"""Correctness checks on `spectra.csv` and `budget.csv`.

`invariant_errors` holds for any seed: every cell is finite, every term is
>= 0, every total equals the sum of its terms, and the spectra header is
the one the budget implies.  `reference_errors` compares a run with a
fingerprint recorded at a known-good commit (header, row count, per-column
sums, sampled rows and the whole budget) at relative tolerance REF_RTOL.
"""

import csv
import io
import math
from typing import Dict, List

# Reordering the floating-point work of a sweep moves outputs by about
# 1e-9 relative (the 9th printed digit); a physics change moves them by far
# more.
REF_RTOL = 1e-6
# Totals are sums of terms that were each rounded to 9 significant digits.
SUM_RTOL = 1e-7
SAMPLED_ROWS = 9
EXTRA_BUDGET_ROWS = ("sigma_FF_at_measure_freq", "acceleration_asd")


def _rows(text: str) -> List[List[str]]:
    return list(csv.reader(io.StringIO(text)))


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _floats(cells: List[str], where: str, errors: List[str]) -> List[float]:
    values = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            errors.append(f"{where}: non-finite cell {cell!r}")
        values.append(value)
    return values


def invariant_errors(spectra_text: str, budget_text: str) -> List[str]:
    """Seed-independent checks on one run's outputs (at most 20 errors)."""
    errors: List[str] = []
    budget = _rows(budget_text)
    if not budget or budget[0] != ["estimator", "source", "band_integrated",
                                   "fraction_of_total", "dominant"]:
        return ["budget.csv: unexpected header"]
    sources: Dict[str, List[str]] = {}
    term_sums: Dict[str, List[float]] = {}
    totals: Dict[str, float] = {}
    for row in budget[1:]:
        where = f"budget.csv {row[:2]}"
        if len(row) != 5:
            errors.append(f"{where}: {len(row)} cells")
            continue
        estimator, source = row[0], row[1]
        if source in EXTRA_BUDGET_ROWS:
            value, = _floats(row[2:3], where, errors)
            if not value > 0.0:
                errors.append(f"{where}: not positive")
        elif source == "TOTAL":
            totals[estimator], _ = _floats(row[2:4], where, errors)
        else:
            value, frac = _floats(row[2:4], where, errors)
            sources.setdefault(estimator, []).append(source)
            term_sums.setdefault(estimator, []).append(value)
            if not (value >= 0.0 and 0.0 <= frac <= 1.0
                    and row[4] in ("0", "1")):
                errors.append(f"{where}: negative term or bad "
                              f"fraction/flag")
    for estimator, terms in term_sums.items():
        total = totals.get(estimator, math.nan)
        if not _close(total, math.fsum(terms), SUM_RTOL):
            errors.append(f"budget.csv {estimator}: TOTAL {total} is not "
                          f"the sum of its terms")

    spectra = _rows(spectra_text)
    header = ["frequency_Hz"]
    groups = []   # (total column, first term column, end column)
    for estimator, labels in sources.items():
        start = len(header)
        header.append(f"{estimator}_total")
        header.extend(f"{estimator}_{src}" for src in labels)
        groups.append((start, start + 1, len(header)))
    if not spectra or spectra[0] != header:
        return errors + ["spectra.csv: header does not match budget.csv"]
    if len(spectra) < 2:
        errors.append("spectra.csv: no rows")
    for k, row in enumerate(spectra[1:], start=2):
        where = f"spectra.csv line {k}"
        if len(row) != len(header):
            errors.append(f"{where}: {len(row)} cells, expected {len(header)}")
            continue
        values = _floats(row, where, errors)
        if values[0] <= 0.0:
            errors.append(f"{where}: frequency {values[0]} <= 0")
        for total_col, first, end in groups:
            terms = values[first:end]
            if min(terms) < 0.0:
                errors.append(f"{where}: negative term")
            if not _close(values[total_col], math.fsum(terms), SUM_RTOL):
                errors.append(f"{where}: {header[total_col]} is not the sum "
                              f"of its terms")
        if len(errors) >= 20:
            break
    return errors[:20]


def fingerprint(spectra_text: str, budget_text: str) -> dict:
    """Compact record of one run's outputs, compared by reference_errors."""
    spectra = _rows(spectra_text)
    body = [[float(c) for c in row] for row in spectra[1:]]
    n = len(body)
    picks = sorted({round(i * (n - 1) / (SAMPLED_ROWS - 1))
                    for i in range(SAMPLED_ROWS)}) if n > 1 else [0]
    return {
        "header": spectra[0],
        "rows": n,
        "column_sums": [math.fsum(col) for col in zip(*body)],
        "sampled_rows": {str(i): spectra[1 + i] for i in picks},
        "budget": _rows(budget_text),
    }


def reference_errors(spectra_text: str, budget_text: str,
                     reference: dict) -> List[str]:
    """Differences from a recorded fingerprint beyond REF_RTOL."""
    got = fingerprint(spectra_text, budget_text)
    if got["header"] != reference["header"]:
        return ["spectra.csv: header differs from the reference"]
    if got["rows"] != reference["rows"]:
        return [f"spectra.csv: {got['rows']} rows, reference has "
                f"{reference['rows']}"]
    errors = []
    for name, a, b in zip(got["header"], got["column_sums"],
                          reference["column_sums"]):
        if not _close(a, b, REF_RTOL):
            errors.append(f"spectra.csv {name}: column sum {a!r} vs {b!r}")
    for i, ref_row in reference["sampled_rows"].items():
        for name, a, b in zip(got["header"], got["sampled_rows"][i], ref_row):
            if not _close(float(a), float(b), REF_RTOL):
                errors.append(f"spectra.csv row {i} {name}: {a} vs {b}")
    if len(got["budget"]) != len(reference["budget"]):
        errors.append("budget.csv: row count differs from the reference")
    for row, ref_row in zip(got["budget"], reference["budget"]):
        if row[:2] != ref_row[:2] or row[4:] != ref_row[4:]:
            errors.append(f"budget.csv: {row} vs {ref_row}")
        elif row[2:4] != ref_row[2:4] and row[0] != "estimator":
            for a, b in zip(row[2:4], ref_row[2:4]):
                if (a == "") != (b == "") or (a and not _close(
                        float(a), float(b), REF_RTOL)):
                    errors.append(f"budget.csv {row[:2]}: {a} vs {b}")
    return errors[:20]
