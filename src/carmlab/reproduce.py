"""Recompute the bundled reference values and annotate every cell.

Three reference sets ship with the package: the Fermat-test residue row
for n = 21, a sixteen-row catalog of Carmichael numbers whose witness
proportion exceeds 50%, and three worked proportion examples.  The
catalog's integers are re-derived from their listed prime factors, so
typographical damage in the printed form is detected instead of
propagated; every recomputed cell is reported as matching or not.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .bound import bound_curve
from .census import census_brute_force, census_exact
from .factoring import factorize
from .korselt import is_carmichael

FERMAT_TABLE_N = 21
# residues a^20 mod 21 for a = 1..20, as printed in the reference row
FERMAT_TABLE_RESIDUES = (1, 4, 9, 16, 4, 15, 7, 1, 18, 16, 16, 18,
                         1, 7, 15, 4, 16, 9, 4, 1)
FERMAT_TABLE_WITNESS_PERCENT = Fraction(80)


@dataclass(frozen=True)
class CatalogRow:
    percent: str    # printed witness percentage (two decimals)
    printed_n: str  # printed integer, comma grouping included
    factors: tuple[int, ...]


HIGH_WITNESS_CATALOG: tuple[CatalogRow, ...] = (
    CatalogRow("50.04", "3,852,971,941,960,065", (3, 5, 23, 89, 113, 1409, 788129)),
    CatalogRow("50.10", "655,510,549,443,465", (3, 5, 23, 53, 389, 2663, 34607)),
    CatalogRow("50.21", "13,462,627,333,098,945", (3, 5, 23, 53, 197, 8009, 466649)),
    CatalogRow("50.25", "26,708,253,318,968,145", (3, 5, 17, 113, 57839, 16025297)),
    CatalogRow("50.76", "26,904,099,2399,565", (3, 5, 23, 29, 4637, 5799149)),
    CatalogRow("50.79", "158,353,658,932,305", (3, 5, 17, 89, 149, 563, 83177)),
    CatalogRow("50.89", "1,817,671,359,979,245", (3, 5, 23, 29, 359, 11027, 45893)),
    CatalogRow("51.72", "16,057,190,782,234,785", (3, 5, 17, 29, 269, 6089, 1325663)),
    CatalogRow("51.76", "75,131,642,415,974,145", (3, 5, 23, 29, 53, 617, 9857, 23297)),
    CatalogRow("51.95", "881,715,504,450,705", (3, 5, 17, 47, 89, 113, 503, 14543)),
    CatalogRow("52.01", "31,454,143,858,820,145", (3, 5, 17, 23, 2129, 39293, 64109)),
    CatalogRow("52.13", "6,128,613,921,672,705", (3, 5, 17, 23, 353, 7673, 385793)),
    CatalogRow("52.34", "12,301,576,752,408,945", (3, 5, 23, 29, 53, 113, 197, 1042133)),
    CatalogRow("52.70", "1,886,616,373,665", (3, 5, 17, 23, 83, 353, 10979)),
    CatalogRow("52.72", "3,193,231,538,989,185", (3, 5, 17, 23, 113, 167, 2927, 9857)),
    CatalogRow("53.26", "11,947,816,523,586,945", (3, 5, 17, 23, 89, 113, 233, 617, 1409)),
)

# (n, printed 4-decimal witness proportion)
PROPORTION_EXAMPLES = ((561, "0.4286"), (1105, "0.3043"), (1729, "0.2504"))

_WELL_GROUPED = re.compile(r"\d{1,3}(?:,\d{3})*")


def reproduce_fermat_table() -> dict:
    """Recompute a^(n-1) mod n for n = 21 and diff against the reference row."""
    n = FERMAT_TABLE_N
    census = census_brute_force(n)
    cells = []
    for a, published in zip(range(1, n), FERMAT_TABLE_RESIDUES):
        computed = pow(a, n - 1, n)
        cells.append({"a": a, "computed": computed, "published": published,
                      "match": computed == published, "witness": computed != 1})
    proportion = census.proportion_witnesses
    percent = proportion * 100
    return {"n": n, "cells": cells,
            "witnesses": sum(1 for cell in cells if cell["witness"]),
            "count_A": census.count_A, "count_B": census.count_B,
            "count_C": census.count_C,
            "proportion_num": proportion.numerator,
            "proportion_den": proportion.denominator,
            "proportion_percent": float(percent),
            "percent_match": percent == FERMAT_TABLE_WITNESS_PERCENT,
            "all_match": all(cell["match"] for cell in cells)}


def reproduce_witness_catalog() -> dict:
    """Rebuild each catalog entry from its factors and re-derive the
    percentage; flags rows whose printed integer is damaged."""
    rows = []
    for row in HIGH_WITNESS_CATALOG:
        n = math.prod(row.factors)
        fac = factorize(n)
        cert = is_carmichael(n, fac)
        census = census_exact(n, fac)
        computed_percent = round(float(census.proportion_witnesses * 100), 2)
        published_percent = float(row.percent)
        grouping_ok = _WELL_GROUPED.fullmatch(row.printed_n) is not None
        printed_digits = int(row.printed_n.replace(",", ""))
        flags = []
        if not grouping_ok:
            flags.append("printed integer has malformed digit grouping; "
                         "value reconstructed from its factors")
        if printed_digits != n:
            flags.append("printed digits disagree with the factor product")
        rows.append({"published_percent": row.percent,
                     "printed_n": row.printed_n,
                     "n": n,
                     "factors": list(row.factors),
                     "digits_match": printed_digits == n,
                     "grouping_ok": grouping_ok,
                     "is_carmichael": bool(cert),
                     "computed_percent": computed_percent,
                     "percent_match": abs(computed_percent - published_percent) <= 0.01 + 1e-9,
                     "flags": flags})
    return {"rows": rows,
            "all_match": all(r["percent_match"] and r["is_carmichael"] for r in rows),
            "flagged_rows": [r["printed_n"] for r in rows if r["flags"]]}


def reproduce_proportion_examples() -> dict:
    """Exact witness proportions for the worked examples, against the
    published 4-decimal values; disagreements carry a note."""
    rows = []
    for n, published in PROPORTION_EXAMPLES:
        census = census_exact(n, factorize(n))
        proportion = census.proportion_witnesses
        decimal = f"{float(proportion):.4f}"
        match = decimal == published
        note = None
        if not match:
            note = (f"published value {published} disagrees with the exact "
                    f"proportion {proportion} = {decimal}; suspected "
                    f"transcription error in the source")
        rows.append({"n": n,
                     "proportion_num": proportion.numerator,
                     "proportion_den": proportion.denominator,
                     "decimal": decimal, "published": published,
                     "match": match, "note": note})
    return {"rows": rows, "all_match": all(r["match"] for r in rows)}


def bound_curve_series(n: int = 1729, lo: float = 1.0, hi: float = 20.0,
                       points: int = 96) -> list[dict]:
    """Sampled (a, value) pairs of the bound curve, as a plain data series."""
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    step = (hi - lo) / (points - 1)
    return [{"a": lo + step * i, "value": float(bound_curve(lo + step * i, n))}
            for i in range(points)]
