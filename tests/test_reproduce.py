from fractions import Fraction

import pytest

from carmlab import reproduce
from carmlab.errors import DomainError
from carmlab.reproduce import (FERMAT_TABLE_RESIDUES, HIGH_WITNESS_CATALOG, CatalogRow,
                               bound_curve_series, reproduce_fermat_table,
                               reproduce_proportion_examples,
                               reproduce_witness_catalog)


class TestFermatTable:
    def test_every_cell_matches(self):
        report = reproduce_fermat_table()
        assert report["all_match"]
        assert [c["published"] for c in report["cells"]] == list(FERMAT_TABLE_RESIDUES)

    def test_witness_proportion(self):
        report = reproduce_fermat_table()
        assert report["witnesses"] == 16
        assert report["proportion_percent"] == 80.0
        assert report["percent_match"]

    def test_specific_cell(self):
        report = reproduce_fermat_table()
        cell = report["cells"][5]  # a = 6
        assert cell["a"] == 6 and cell["computed"] == 15 and cell["witness"]


class TestWitnessCatalog:
    def test_all_rows_reproduce(self):
        report = reproduce_witness_catalog()
        assert report["all_match"]
        assert len(report["rows"]) == 16
        for row in report["rows"]:
            assert row["is_carmichael"], row["n"]
            assert row["percent_match"], row["n"]
            assert row["digits_match"], row["n"]

    def test_exactly_one_malformed_row(self):
        report = reproduce_witness_catalog()
        assert report["flagged_rows"] == ["26,904,099,2399,565"]
        flagged = [r for r in report["rows"] if r["flags"]]
        assert len(flagged) == 1
        assert flagged[0]["n"] == 269040992399565
        assert not flagged[0]["grouping_ok"]
        assert flagged[0]["digits_match"]  # digits were right, grouping was not

    def test_composite_listed_factor_is_rejected(self, monkeypatch):
        first = HIGH_WITNESS_CATALOG[0]
        assert first.factors[:2] == (3, 5)
        damaged = CatalogRow(first.percent, first.printed_n, (15, *first.factors[2:]))
        monkeypatch.setattr(reproduce, "HIGH_WITNESS_CATALOG",
                            (damaged, *HIGH_WITNESS_CATALOG[1:]))
        with pytest.raises(DomainError, match="factor 15 is not prime"):
            reproduce_witness_catalog()

    def test_row_values_recomputed_from_factors(self):
        by_percent = {row.percent: row for row in HIGH_WITNESS_CATALOG}
        assert by_percent["52.70"].factors == (3, 5, 17, 23, 83, 353, 10979)
        report = reproduce_witness_catalog()
        row = next(r for r in report["rows"] if r["published_percent"] == "52.70")
        assert row["n"] == 1886616373665
        assert row["computed_percent"] == 52.70


class TestProportionExamples:
    def test_matching_rows(self):
        report = reproduce_proportion_examples()
        rows = {r["n"]: r for r in report["rows"]}
        assert rows[561]["match"] and rows[561]["decimal"] == "0.4286"
        assert rows[1105]["match"] and rows[1105]["decimal"] == "0.3043"

    def test_quarter_discrepancy_is_flagged(self):
        report = reproduce_proportion_examples()
        row = next(r for r in report["rows"] if r["n"] == 1729)
        assert Fraction(row["proportion_num"], row["proportion_den"]) == Fraction(1, 4)
        assert row["decimal"] == "0.2500"
        assert row["published"] == "0.2504"
        assert not row["match"]
        assert "transcription" in row["note"]
        assert not report["all_match"]


class TestBoundCurveSeries:
    def test_starts_at_one(self):
        series = bound_curve_series()
        assert series[0]["a"] == 1.0
        assert series[0]["value"] == 1.0

    def test_strictly_decreasing_with_one_sign_change(self):
        series = bound_curve_series(n=1729)
        values = [point["value"] for point in series]
        assert all(a > b for a, b in zip(values, values[1:]))
        changes = sum(1 for a, b in zip(values, values[1:]) if a > 0 >= b)
        assert changes == 1

    def test_point_count_and_validation(self):
        series = bound_curve_series()
        assert len(series) == 96
        assert series[-1]["a"] == 20.0
