import numpy as np
import pytest

from claimcast.claims import ClaimsTable, SalesTable
from claimcast.dataio import anchor_day_zero, load_claims, load_sales, write_series
from claimcast.errors import LoadError
from series_csv import read_series


def write(path, text):
    path.write_text(text)
    return path


def rows(table):
    """A table's rows as tuples of its columns."""
    columns = [table.vehicle_id, table.day] + (
        [table.amount] if isinstance(table, ClaimsTable) else []
    )
    return list(zip(*(c.tolist() for c in columns)))


class TestLoadSales:
    def test_well_formed(self, tmp_path):
        p = write(
            tmp_path / "s.csv",
            "vehicle_id,sale_date\nA,100\nB,101\nC,150\n",
        )
        records, issues = load_sales(p)
        assert rows(records) == [("A", 100), ("B", 101), ("C", 150)]
        assert issues == []

    def test_iso_dates_become_ordinals(self, tmp_path):
        p = write(
            tmp_path / "s.csv",
            "vehicle_id,sale_date\nA,2001-01-01\nB,2001-01-31\n",
        )
        records, _ = load_sales(p)
        assert records.day[1] - records.day[0] == 30

    def test_duplicate_vehicle_fatal_with_line_numbers(self, tmp_path):
        p = write(
            tmp_path / "s.csv",
            "vehicle_id,sale_date\nA,100\nB,101\nA,102\n",
        )
        with pytest.raises(LoadError, match=r"lines 2 and 4"):
            load_sales(p)

    def test_missing_columns_fatal(self, tmp_path):
        p = write(tmp_path / "s.csv", "vid,when\nA,100\n")
        with pytest.raises(LoadError, match="missing columns"):
            load_sales(p)

    def test_bad_rows_collected_until_budget(self, tmp_path):
        rows = ["vehicle_id,sale_date"]
        rows += [f"V{i},{100 + i}" for i in range(200)]
        rows[5] = "V4bad,not-a-date"
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        records, issues = load_sales(p)
        assert len(records) == 199
        assert len(issues) == 1
        assert issues[0].line == 6

    def test_too_many_bad_rows_fatal(self, tmp_path):
        rows = ["vehicle_id,sale_date", "A,xxx", "B,yyy", "C,100"]
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match="malformed"):
            load_sales(p)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(LoadError, match="cannot read"):
            load_sales(tmp_path / "absent.csv")


class TestLoadClaims:
    def test_well_formed(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "vehicle_id,claim_date,claim_id,amount\nA,120,C1,10.5\nA,130,C2,2\n",
        )
        records, issues = load_claims(p)
        assert rows(records) == [("A", 120, 10.5), ("A", 130, 2.0)]
        assert issues == []

    def test_negative_amount_is_an_issue(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(100)]
        rows[3] = "V,102,C2,-5"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        records, issues = load_claims(p)
        assert len(issues) == 1 and "negative" in issues[0].message

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_amount_is_an_issue(self, tmp_path, bad):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(100)]
        rows[3] = f"V,102,C2,{bad}"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        records, issues = load_claims(p)
        assert len(records) == 99
        assert [i.line for i in issues] == [4]
        assert "non-finite" in issues[0].message

    def test_duplicate_claim_id_fatal_with_line_numbers(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "vehicle_id,claim_date,claim_id,amount\n"
            "A,120,C1,10.5\nB,130,C2,2\nA,120,C1,10.5\n",
        )
        with pytest.raises(LoadError, match=r"claim id 'C1' \(lines 2 and 4\)"):
            load_claims(p)

    @pytest.mark.parametrize("blank_lines", [[5], [5, 9]])
    def test_blank_claim_id_is_an_issue(self, tmp_path, blank_lines):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(200)]
        for line in blank_lines:
            rows[line - 1] = f"V,{line},  ,1.0"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        records, issues = load_claims(p)
        assert len(records) == 200 - len(blank_lines)
        assert [i.line for i in issues] == blank_lines
        assert all(i.message == "empty claim_id" for i in issues)

    def test_blank_claim_ids_are_not_duplicates(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "vehicle_id,claim_date,claim_id,amount\nA,120,,10.5\nB,130,,2\n",
        )
        with pytest.raises(LoadError, match="2 of 2 rows malformed"):
            load_claims(p)


class TestAnchoring:
    def test_day_zero_after_last_sale(self):
        sales = SalesTable(["A", "B"], [100, 400])
        claims = ClaimsTable(["A"], [150], [1.0])
        s2, c2, anchor = anchor_day_zero(sales, claims)
        assert anchor == 401
        assert s2.day.tolist() == [-301, -1]
        assert c2.day[0] == -251
        # observed sales occupy [-span, 0)
        assert max(s2.day) == -1


class TestSeriesRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=57)
        y = rng.lognormal(size=57)
        path = tmp_path / "series.csv"
        write_series(path, "x", x, "y", y)
        x2, y2 = read_series(path)
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)
