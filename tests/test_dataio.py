import csv
import hashlib
import tracemalloc
import uuid
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import rowwise_csv
from claimcast import dataio
from claimcast.claims import ClaimsTable, SalesTable
from claimcast.dataio import (
    RowIssue,
    anchor_day_zero,
    load_claims,
    load_sales,
    write_series,
)
from claimcast.errors import LoadError
from series_csv import read_series


def write(path, text):
    path.write_text(text)
    return path


def is_clean(data, columns):
    """Whether ``dataio._clean`` takes every block of ``data``."""
    try:
        for _ in dataio._clean(data, columns):
            pass
    except dataio._NotClean:
        return False
    return True


def rows(table):
    """A table's rows as tuples of its columns, ids decoded."""
    vids = [v.decode() for v in table.vehicle_id.tolist()]
    columns = [table.day] + ([table.amount] if isinstance(table, ClaimsTable) else [])
    return list(zip(vids, *(c.tolist() for c in columns)))


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

    def test_duplicate_error_carries_the_earlier_issues(self, tmp_path):
        rows = ["vehicle_id,sale_date"] + [f"V{i},{100 + i}" for i in range(300)]
        rows[3] = "V2bad,never"
        rows[5] = " ,104"
        rows[9] = "V0,108"  # line 10 repeats line 2
        rows[12] = "V11bad,"
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match=r"vehicle 'V0' \(lines 2 and 10\)") as err:
            load_sales(p)
        assert err.value.issues == [
            RowIssue(4, "unparseable sale_date 'never'"),
            RowIssue(6, "empty vehicle_id"),
        ]

    def test_duplicate_takes_precedence_over_the_budget(self, tmp_path):
        p = write(tmp_path / "s.csv", "vehicle_id,sale_date\nA,1\nB,x\nC,y\nA,2\n")
        with pytest.raises(LoadError, match=r"lines 2 and 5") as err:
            load_sales(p)
        assert [i.line for i in err.value.issues] == [3, 4]

    def test_day_past_the_int_digit_limit_is_an_issue(self, tmp_path):
        # int() refuses over 4300 digits; the row is rejected, not the file
        rows = ["vehicle_id,sale_date"] + [f"V{i},{100 + i}" for i in range(200)]
        rows.insert(150, "VX," + "7" * 5000)
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        sales, issues = load_sales(p)
        assert len(sales) == 200
        assert [i.line for i in issues] == [151]
        assert issues[0].message.startswith("unparseable sale_date '7777")

    @pytest.mark.parametrize("day", ["9223372036854775808", "-99999999999999999999"])
    def test_day_past_int64_is_an_issue(self, tmp_path, day):
        rows = ["vehicle_id,sale_date"] + [f"V{i},{100 + i}" for i in range(200)]
        rows.insert(120, f"VX,{day}")
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        sales, issues = load_sales(p)
        assert len(sales) == 200
        assert issues == [RowIssue(121, f"unparseable sale_date {day!r}")]

    def test_long_day_keeps_a_clean_file_on_the_numpy_path(self, tmp_path):
        # a 19-digit day is wider than _days casts as a column; it is parsed
        # by itself, and the file is clean, so it is read in one numpy pass
        rows = ["vehicle_id,sale_date"] + [f"V{i:05d},{1000 + i}" for i in range(450)]
        rows[201] = "V00200,9999999999999999999"
        text = "\n".join(rows) + "\n"
        assert is_clean(text.encode(), ("vehicle_id", "sale_date"))
        p = write(tmp_path / "s.csv", text)
        with mock.patch.object(dataio.csv, "reader", side_effect=AssertionError):
            got = outcome(load_sales, p)
        mixed = write(tmp_path / "mixed.csv", text.replace("\n", "\r\n", 1))
        with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
            assert outcome(load_sales, mixed) == got
        assert reader.called
        assert got[3] == [RowIssue(202, "unparseable sale_date '9999999999999999999'")]

    def test_id_holding_a_nul_is_an_issue(self, tmp_path):
        rows = ["vehicle_id,sale_date"] + [f"V{i},{100 + i}" for i in range(200)]
        rows[50:50] = ["N\x00,7", "N,8", " \x00 ,9"]
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        sales, issues = load_sales(p)
        assert issues == [
            RowIssue(51, "NUL character in vehicle_id"),
            RowIssue(53, "NUL character in vehicle_id"),
        ]
        assert len(sales) == 201 and b"N" in sales.vehicle_id.tolist()

    def test_long_id_in_a_rejected_row_does_not_widen_the_column(self, tmp_path):
        rows = ["vehicle_id,sale_date"] + [f"V{i:03d},{100 + i}" for i in range(200)]
        rows.insert(180, "W" * 100_000 + ",never")
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            sales, issues = load_sales(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [i.line for i in issues] == [181]
        assert sales.vehicle_id.dtype == np.dtype("S4")
        assert peak < 5e6  # a column 100k bytes wide would take 20 MB

    @pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
    def test_id_longer_than_max_id_bytes_is_an_issue(self, tmp_path, tokenizer):
        # a CRLF header line among LF lines sends the file to csv.reader
        line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
        rows = [f"V{i:05d},{100 + i}" for i in range(2000)]
        rows[500] = "W" * 20_001 + ",600"
        rows[900] = "X" * dataio.MAX_ID_BYTES + ",1000"
        p = write(tmp_path / "s.csv", "vehicle_id,sale_date" + line_end + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
                sales, issues = load_sales(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reader.called == (tokenizer == "csv_reader")
        assert issues == [RowIssue(502, "vehicle_id longer than 256 bytes")]
        assert len(sales) == 1999
        assert sales.vehicle_id.dtype == np.dtype("S256")
        assert peak < 5e6  # a column 20 001 bytes wide would take 40 MB

    @pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
    def test_ids_all_longer_than_64_bytes_load(self, tmp_path, tokenizer):
        # "veh-" and a 64-digit hex hash: 68 bytes in every row
        line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
        ids = [f"veh-{hashlib.sha256(str(i).encode()).hexdigest()}" for i in range(500)]
        rows = [f"{v},{100 + i}" for i, v in enumerate(ids)]
        p = write(tmp_path / "s.csv", "vehicle_id,sale_date" + line_end + "\n".join(rows) + "\n")
        with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
            sales, issues = load_sales(p)
        assert reader.called == (tokenizer == "csv_reader")
        assert issues == []
        assert sales.vehicle_id.dtype == np.dtype("S68")
        assert sales.vehicle_id.tolist() == [v.encode() for v in ids]

    def test_id_length_is_counted_in_utf8_bytes(self, tmp_path):
        rows = ["vehicle_id,sale_date"] + [f"V{i},{100 + i}" for i in range(200)]
        rows[20] = "É" * 128 + ",5"  # 256 bytes
        rows[40] = "É" * 129 + ",6"  # 258 bytes, 129 characters
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        sales, issues = load_sales(p)
        assert issues == [RowIssue(41, "vehicle_id longer than 256 bytes")]
        assert ("É" * 128).encode() in sales.vehicle_id.tolist()
        assert sales.vehicle_id.dtype == np.dtype("S256")

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

    def test_duplicate_error_carries_the_earlier_issues(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(300)]
        rows[2] = "V,101,C1,-3"
        rows[4] = "V,103,C3,nan"
        rows[7] = "V,106,C0,2.0"  # line 8 repeats line 2
        rows[9] = "V,108,,2.0"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match=r"claim id 'C0' \(lines 2 and 8\)") as err:
            load_claims(p)
        assert err.value.issues == [
            RowIssue(3, "negative amount -3.0"),
            RowIssue(5, "non-finite amount nan"),
        ]

    def test_duplicate_takes_precedence_over_the_budget(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "vehicle_id,claim_date,claim_id,amount\n"
            "A,1,C1,1.0\nA,2,C2,n/a\n,3,C3,1.0\nA,4,C1,1.0\n",
        )
        with pytest.raises(LoadError, match=r"claim id 'C1' \(lines 2 and 5\)") as err:
            load_claims(p)
        assert [i.message for i in err.value.issues] == [
            "unparseable amount 'n/a'",
            "empty vehicle_id",
        ]

    @pytest.mark.parametrize("repeat", [True, False])
    def test_duplicate_takes_precedence_over_a_later_read_error(self, tmp_path, repeat):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i % 40 if repeat else i},1.0" for i in range(1000)]
        p = tmp_path / "c.csv"  # a byte the default UTF-8 decoder rejects, 20 kB in
        p.write_bytes(("\n".join(rows) + "\nV,9,C\xff,1.0\n").encode("latin-1"))
        if repeat:
            with pytest.raises(LoadError, match=r"claim id 'C0' \(lines 2 and 42\)"):
                load_claims(p)
        else:
            with pytest.raises(LoadError, match=r"c\.csv: read failed after") as info:
                load_claims(p)
            assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_non_ascii_amount_read_through_csv_reader(self, tmp_path):
        # a CRLF header line among LF lines sends the file to csv.reader; a
        # non-ASCII byte in the amount column makes each value that is not
        # a plain decimal decode on its own
        lines = [f"V,{100 + i},C{i},1.0" for i in range(100)]
        lines[3] = "V,103,C3,n/\u00e4"
        lines[7] = "V,107,C7,1e2"
        p = tmp_path / "c.csv"
        text = "vehicle_id,claim_date,claim_id,amount\r\n" + "\n".join(lines) + "\n"
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
            claims, issues = load_claims(p)
        assert reader.called
        assert issues == [RowIssue(5, "unparseable amount 'n/\u00e4'")]
        assert len(claims) == 99
        assert ("V", 107, 100.0) in rows(claims)

    def test_read_error_names_the_last_line_and_carries_the_issues(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(100)]
        rows[4] = "V,103,C3,n/a"
        rows.append('V,9,"' + "x" * 200_000 + '",1.0')  # past csv's field limit
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        with pytest.raises(LoadError, match=r"c\.csv: read failed after line 101:") as info:
            load_claims(p)
        assert isinstance(info.value.__cause__, csv.Error)
        assert info.value.issues == [RowIssue(5, "unparseable amount 'n/a'")]

    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_decode_error_names_the_line_before_the_bad_byte(self, tmp_path, line_end):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(100)]
        rows[4] = "V,103,C3,n/a"
        rows.append("V,9,C\xe9,1.0")  # line 102, about 1.6 kB in
        rows += [f"V,{200 + i},D{i},1.0" for i in range(20)]
        p = tmp_path / "c.csv"
        p.write_bytes((line_end.join(rows) + line_end).encode("latin-1"))
        with pytest.raises(LoadError, match=r"c\.csv: read failed after line 101: ") as info:
            load_claims(p)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)
        assert info.value.issues == [RowIssue(5, "unparseable amount 'n/a'")]

    def test_field_past_csv_limit_in_a_clean_file_fails_the_load(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "vehicle_id,claim_date,claim_id,amount,note\n"
            "V,1,C1,1.0,x\nV,2,C2,1.0," + "x" * 200_000 + "\n",
        )
        with pytest.raises(LoadError, match=r"c\.csv: read failed after line 2: field"):
            load_claims(p)

    def test_undecodable_header_fails_the_load(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"vehicle_id,claim_date,claim_id,amount\xe9\nV,1,C1,1.0\n")
        with pytest.raises(LoadError, match="read failed after line 0") as info:
            load_claims(p)
        assert isinstance(info.value.__cause__, UnicodeDecodeError)

    def test_long_claim_id_in_a_rejected_row_is_not_kept(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i:03d},1.0" for i in range(200)]
        rows.insert(180, " ,100," + "K" * 100_000 + ",1.0")
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            claims, issues = load_claims(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert issues == [RowIssue(181, "empty vehicle_id")]
        assert len(claims) == 200
        assert claims.vehicle_id.dtype == np.dtype("S1")
        assert peak < 5e6  # a claim id column 100k bytes wide: 20 MB

    def test_long_claim_id_in_a_clean_file_stays_on_the_numpy_path(self, tmp_path):
        # no padding, so the file is clean; its one wide id is in a rejected row
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i:03d},1.0" for i in range(200)]
        rows.insert(180, ",100," + "K" * 100_000 + ",1.0")
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
                claims, issues = load_claims(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not reader.called
        assert issues == [RowIssue(181, "empty vehicle_id")]
        assert claims.vehicle_id.dtype == np.dtype("S1")
        assert peak < 5e6

    @pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
    def test_ids_longer_than_max_id_bytes_are_issues(self, tmp_path, tokenizer):
        """Each id is checked in its place: a long vehicle id before an empty
        claim id, a long claim id before an unparseable amount."""
        line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
        rows = [f"V{i % 7},{100 + i},C{i:05d},1.0" for i in range(2000)]
        rows[300] = "U" * 20_001 + ",400,,1.0"
        rows[600] = "V1,700," + "K" * 20_001 + ",n/a"
        rows[900] = "X" * dataio.MAX_ID_BYTES + ",1000," + "Y" * dataio.MAX_ID_BYTES + ",2.5"
        header = "vehicle_id,claim_date,claim_id,amount"
        p = write(tmp_path / "c.csv", header + line_end + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
                claims, issues = load_claims(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reader.called == (tokenizer == "csv_reader")
        assert issues == [
            RowIssue(302, "vehicle_id longer than 256 bytes"),
            RowIssue(602, "claim_id longer than 256 bytes"),
        ]
        assert len(claims) == 1998
        assert claims.vehicle_id.dtype == np.dtype("S256")
        assert peak < 5e6  # a claim id column 20 001 bytes wide: 40 MB

    @pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
    def test_ids_all_longer_than_64_bytes_load(self, tmp_path, tokenizer):
        # two UUIDs joined by ":" make a 73-byte claim id in every row
        line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
        vids = [f"veh-{hashlib.sha256(str(i % 7).encode()).hexdigest()}" for i in range(500)]
        cids = [f"{uuid.UUID(int=i)}:{uuid.UUID(int=2 * i + 1)}" for i in range(500)]
        rows = [f"{v},{100 + i},{c},1.5" for i, (v, c) in enumerate(zip(vids, cids))]
        header = "vehicle_id,claim_date,claim_id,amount"
        p = write(tmp_path / "c.csv", header + line_end + "\n".join(rows) + "\n")
        with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
            claims, issues = load_claims(p)
        assert reader.called == (tokenizer == "csv_reader")
        assert issues == []
        assert claims.vehicle_id.dtype == np.dtype("S68")
        assert claims.vehicle_id.tolist() == [v.encode() for v in vids]

    def test_day_past_int64_is_an_issue(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(200)]
        rows[7] = "V,99999999999999999999,C6,1.0"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        records, issues = load_claims(p)
        assert len(records) == 199
        assert issues == [RowIssue(8, "unparseable claim_date '99999999999999999999'")]

    def test_ids_holding_a_nul_are_issues(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [f"V,{100 + i},C{i},1.0" for i in range(200)]
        rows[7] = "V\x00,106,C6,1.0"
        rows[9] = "V,108,C7\x00,1.0"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        records, issues = load_claims(p)
        assert len(records) == 198
        assert set(records.vehicle_id.tolist()) == {b"V"}
        assert issues == [
            RowIssue(8, "NUL character in vehicle_id"),
            RowIssue(10, "NUL character in claim_id"),
        ]

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


@pytest.mark.parametrize(
    "load, head",
    [
        (load_sales, ["vehicle_id,sale_date", "A,100", "", "B,xxx", "C,2020-01-05"]),
        (
            load_claims,
            ["vehicle_id,claim_date,claim_id,amount", "A,120,C1,10.5", "A,130,C2,n/a"],
        ),
    ],
    ids=["sales", "claims"],
)
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, load, head):
    # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
    lines = head + [f"V{i},{100 + i},K{i},1.0" for i in range(200)]
    text = "\r\n".join(lines) + "\r\n"
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    table, issues = load(marked)
    want_table, want_issues = load(plain)
    assert rows(table) == rows(want_table)
    assert issues == want_issues != []


class TestAnchoring:
    def test_day_zero_after_last_sale(self):
        sales = SalesTable(["A", "B"], [100, 400])
        s2, anchor = anchor_day_zero(sales)
        assert anchor == 401
        assert s2.day.tolist() == [-301, -1]
        # observed sales occupy [-span, 0)
        assert max(s2.day) == -1
        assert s2.vehicle_id is sales.vehicle_id  # the ids are not copied
        assert sales.day.tolist() == [100, 400]

    def test_empty_sales_cannot_be_anchored(self):
        with pytest.raises(LoadError, match="empty sales"):
            anchor_day_zero(SalesTable([], []))

    @pytest.mark.parametrize(
        "days, error",
        [
            ([9_223_372_036_854_775_807], "day 0 is past int64"),
            ([1, 9_223_372_036_854_775_807], "day 0 is past int64"),
            ([1, 900_000_000_000], "they span more than the 3652059 days of ISO dates"),
            ([1, 3_652_060], "they span more than the 3652059 days of ISO dates"),
        ],
    )
    def test_days_past_int64_or_iso_dates_cannot_be_anchored(self, days, error):
        sales = SalesTable([f"V{i}" for i in range(len(days))], days)
        with pytest.raises(LoadError) as caught:
            anchor_day_zero(sales)
        assert str(caught.value) == f"cannot anchor sale days {days[0]} to {days[-1]}: {error}"

    @pytest.mark.parametrize(
        "days",
        [[1, 3_652_059], [-9_223_372_036_854_775_808, -9_223_372_036_854_775_808 + 5],
         [9_223_372_036_854_775_806]],
    )
    def test_widest_anchorable_days(self, days):
        """Day 0 may be the last int64 and the span every ISO date's."""
        s2, anchor = anchor_day_zero(SalesTable([f"V{i}" for i in range(len(days))], days))
        assert anchor == days[-1] + 1
        assert s2.day.tolist() == [d - anchor for d in days]


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

    def test_bytes_match_csv_writer(self, tmp_path):
        x = np.array([-0.0, 1e-300, np.nan, 3.0, -np.inf, 0.1])
        y = np.array([np.nan, -0.0, 1e-300, 7, 2.5e300, np.inf])
        path = tmp_path / "series.csv"
        write_series(path, "day", x, "count", y)
        expected = tmp_path / "expected.csv"
        with expected.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["day", "count"])
            for a, b in zip(x, y):
                writer.writerow([repr(float(a)), repr(float(b))])
        assert path.read_bytes() == expected.read_bytes()


# Raw field values for the generated files: plain values and every form
# the row checks treat specially (quoting, padding, signs, underscores,
# ISO dates, non-finite and negative amounts, blanks, non-ASCII, NUL, an
# id past MAX_ID_BYTES).
IDS = ["A", "B", " C ", "É9", "车", "x,y", "p\nq", "r\r\ns", "N\x00", "N", "", "  ", "L" * 300]
DAYS = [
    "17", "+7", "1_000", " 12 ", "-3", "2001-01-31", "20010131", "٣",
    "", "x", "1\n2", "12.0", "99999999999999999999", "7" * 5000,
]
AMOUNTS = [
    "1.5", "0", "-0.0", "1e-300", " 2.5 ", "1_000.5", "nan", "inf", "-inf",
    "-5", "n/a", "", "1,5",
]
# Values that can sit in a clean file, for the forms its one-pass casts
# take or leave: digit counts at their limits, points and signs in odd
# places, a day past int64 and decimals past 15 digits.
CLEAN_IDS = ["a b", "x_y", "-"]
CLEAN_DAYS = [
    "9223372036854775807", "000000000000000017", "0000000000000000017", "-0", "1e3",
]
CLEAN_AMOUNTS = [
    ".5", "5.", "-.5", ".", "-", "-0", "0.1", "+2.5", "00012.50", "1e5", "1.5.2", "1-2",
    "123456789012345", "1234567890123456", "12345678901234.5", "0.30000000000000004",
    "9007199254740993", "9999999999999.999",
]
SALES = ("vehicle_id", "sale_date")
CLAIMS = ("vehicle_id", "claim_date", "claim_id", "amount")


def clean_value(value):
    """Whether a field value can sit in a clean file, and is short."""
    return (
        value.isascii()
        and value.isprintable()
        and not set(value) & set('",')
        and value == value.strip()
        and len(value) < 25
    )


@st.composite
def csv_files(draw, columns, clean=False):
    """(header, rows, line end) of a generated sales or claims file.

    Plain rows carry unique ids, so issues stay inside the 1% budget
    unless the drawn odd rows are many; the odd rows draw their fields from
    the lists above and may be short, long, blank or repeat an earlier id.
    A ``clean`` file keeps every required column and has rows only of the
    header's length, with odd fields from the values that can sit in a
    clean file (:func:`claimcast.dataio._clean`).
    """
    pools = {
        "vehicle_id": IDS,
        "sale_date": DAYS,
        "claim_date": DAYS,
        "claim_id": IDS + ["K0", "K1"],
        "amount": AMOUNTS,
    }
    if clean:
        extra = {
            "vehicle_id": CLEAN_IDS,
            "sale_date": CLEAN_DAYS,
            "claim_date": CLEAN_DAYS,
            "claim_id": CLEAN_IDS,
            "amount": CLEAN_AMOUNTS,
        }
        pools = {
            name: [v for v in pool if clean_value(v)] + extra[name]
            for name, pool in pools.items()
        }
    key = "claim_id" if "claim_id" in columns else "vehicle_id"
    plain = {
        "vehicle_id": lambda i: f"V{i % 7 if key == 'claim_id' else i}",
        "sale_date": lambda i: str(100 + i),
        "claim_date": lambda i: str(100 + i),
        "claim_id": lambda i: f"K{i}",
        "amount": lambda i: f"{i}.25",
    }
    header = list(columns)
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    if draw(st.booleans()):  # a repeated name: its last column is read
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(columns)))
    if not clean and draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(columns)))
    if draw(st.booleans()):
        header.append("note")
    last = {name: i for i, name in enumerate(header)}

    def layout(values):
        return [
            values.get(name, "zz") if last[name] == i else "zz"
            for i, name in enumerate(header)
        ]

    n_plain = draw(st.sampled_from([3, 150, 450] if clean else [0, 3, 150, 450]))
    rows = [layout({name: f(i) for name, f in plain.items()}) for i in range(n_plain)]
    for _ in range(draw(st.integers(0, 6))):
        shapes = ["row"] if clean else ["row", "row", "short", "long", "blank"]
        shape = draw(st.sampled_from(shapes))
        row = layout({name: draw(st.sampled_from(pools[name])) for name in columns})
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row += ["extra", "1,2"]
        elif shape == "blank":
            row = []
        rows.insert(draw(st.integers(0, len(rows))), row)
    if rows and draw(st.booleans()):  # a later row repeats an earlier id
        k = draw(st.integers(0, len(rows) - 1))
        if key in last and len(rows[k]) > last[key]:
            repeat = layout({name: plain[name](k) for name in columns})
            repeat[last[key]] = rows[k][last[key]]
            rows.insert(draw(st.integers(k + 1, len(rows))), repeat)
    return header, rows, draw(st.sampled_from(["\n", "\r\n"]))


def beyond_oracle(value):
    """An id holding a NUL or longer than ``MAX_ID_BYTES``, or a day past int64.

    The oracle stores such an id truncated at the NUL, keeps an id of any
    length and fails on such a day with ``OverflowError``; the loaders make
    each a row issue, which the ``TestLoadSales`` and ``TestLoadClaims``
    cases check.  A long digit string is a day, not an id.
    """
    if "\x00" in value:
        return True
    if len(value.strip().encode()) > dataio.MAX_ID_BYTES and not value.isdigit():
        return True
    try:
        return not -(2**63) <= dataio._parse_day(value) < 2**63
    except ValueError:
        return False


def outcome(load, path):
    """A loader's result as comparable values: its columns and issues, or its error."""
    try:
        table, issues = load(path)
    except LoadError as exc:
        return ("LoadError", str(exc), exc.issues)
    except (OverflowError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    columns = [table.vehicle_id, table.day] + (
        [table.amount] if isinstance(table, ClaimsTable) else []
    )
    return (
        [c.tolist() for c in columns],
        [c.dtype.str for c in columns],
        [np.signbit(c).tolist() for c in columns[2:]],
        issues,
    )


class TestAgainstRowwiseLoaders:
    """The columnar loaders against the DictReader loaders they replaced."""

    @pytest.mark.parametrize(
        "columns, load, oracle",
        [
            (SALES, load_sales, rowwise_csv.load_sales),
            (CLAIMS, load_claims, rowwise_csv.load_claims),
        ],
        ids=["sales", "claims"],
    )
    def test_generated_files(self, tmp_path_factory, columns, load, oracle):
        path = tmp_path_factory.mktemp("generated") / "input.csv"

        @settings(
            derandomize=True,
            max_examples=250,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(
            st.booleans().flatmap(lambda clean: csv_files(columns, clean)),
            st.sampled_from([1, 4, 64, dataio.CHUNK_ROWS]),
            st.sampled_from([1, 10, 64, 700, dataio.BLOCK_BYTES]),
        )
        def check(file, chunk_rows, block_bytes):
            header, rows, line_end = file
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle, lineterminator=line_end)
                writer.writerow(header)
                writer.writerows(rows)
            with mock.patch.multiple(dataio, CHUNK_ROWS=chunk_rows, BLOCK_BYTES=block_bytes):
                if any(map(beyond_oracle, (v for row in rows for v in row))):
                    assert outcome(load, path)[0] not in ("OverflowError", "ValueError")
                else:
                    assert outcome(load, path) == outcome(oracle, path)

        check()

    def test_perfbench_style_file(self, tmp_path):
        check_without_csv_reader(tmp_path, "\n", b"")

    @pytest.mark.parametrize(
        "line_end, mark", [("\r\n", b""), ("\n", b"\xef\xbb\xbf")], ids=["crlf", "bom"]
    )
    def test_perfbench_style_file_variants(self, tmp_path, line_end, mark):
        check_without_csv_reader(tmp_path, line_end, mark)

    @pytest.mark.parametrize(
        "line_end, head",
        [
            ("\r\n", "V0,100\nV1\r2,101\r\n"),
            ("\r\n", "V0\t,100\r\nV1,101\r\n"),
            ("\n", "V0\r,100\nV1,101\n"),
        ],
        ids=["bare_lf_and_stray_cr", "tab", "stray_cr"],
    )
    def test_control_characters_go_the_csv_way(self, tmp_path, line_end, head):
        rows = "".join(f"V{i},{100 + i}{line_end}" for i in range(2, 300))
        p = tmp_path / "s.csv"
        p.write_bytes(("vehicle_id,sale_date" + line_end + head + rows).encode())
        assert outcome(load_sales, p) == outcome(rowwise_csv.load_sales, p)

    @pytest.mark.parametrize(
        "columns, load", [(SALES, load_sales), (CLAIMS, load_claims)], ids=["sales", "claims"]
    )
    def test_clean_file_loads_as_through_csv_reader(self, tmp_path_factory, columns, load):
        """A clean file, and the same file with one line end switched.

        The switch mixes ``\\n`` and ``\\r\\n``, which sends the copy to
        ``csv.reader``; both must give the same tables, issues and errors.
        """
        path = tmp_path_factory.mktemp("switched") / "input.csv"

        @settings(
            derandomize=True,
            max_examples=200,
            deadline=None,
            suppress_health_check=[
                HealthCheck.too_slow,
                HealthCheck.data_too_large,
                HealthCheck.filter_too_much,
            ],
        )
        @given(csv_files(columns, clean=True), st.data())
        def check(file, data):
            header, rows, line_end = file
            lines = [",".join(row) for row in [header] + rows]
            path.write_bytes("".join(line + line_end for line in lines).encode())
            # only a clean file can be read without csv.reader
            assume(is_clean(path.read_bytes(), columns))
            with mock.patch.object(dataio.csv, "reader", side_effect=AssertionError):
                want = outcome(load, path)
            k = data.draw(st.integers(0, len(lines) - 1))
            other = "\r\n" if line_end == "\n" else "\n"
            ends = [other if i == k else line_end for i in range(len(lines))]
            path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
            assert outcome(load, path) == want

        check()


class TestCsvReaderChunks:
    """``csv.reader`` chunks hand the row checks :class:`dataio._Fields`
    columns, as a clean file's blocks do."""

    def test_every_required_column_is_fields(self):
        data = (
            "vehicle_id,note,claim_date,claim_id,amount\r\n"
            " V1 ,x,12, É ,1.5\r\nV2\r\n\r\nV3,y, 7 ,\"C\n3\",n/a\r\n"
        ).encode()
        ids = ("vehicle_id", "claim_id")
        ((lines, columns),) = dataio._read_chunks("c.csv", data, CLAIMS, ids)
        assert lines.tolist() == [2, 3, 6]
        assert all(isinstance(column, dataio._Fields) for column in columns)
        assert [[c[k] for k in range(len(c))] for c in columns] == [
            ["V1", "V2", "V3"],  # ids stripped
            ["12", None, " 7 "],  # other fields raw, a missing one None
            ["É", "", "C\n3"],
            ["1.5", None, "n/a"],
        ]

    @pytest.mark.parametrize(
        "load, oracle, plain, short, message",
        [
            (load_sales, rowwise_csv.load_sales, "V{i},{d}", "V9",
             "unparseable sale_date None"),
            (load_claims, rowwise_csv.load_claims, "V{i},{d},C{i},1.0", "V9,109,C9",
             "unparseable amount None"),
        ],
        ids=["sales", "claims"],
    )
    def test_field_missing_from_a_short_row_reads_as_none(
        self, tmp_path, load, oracle, plain, short, message
    ):
        rows = [plain.format(i=i, d=100 + i) for i in range(200)]
        rows[9] = short
        header = "vehicle_id,sale_date" if load is load_sales else ",".join(CLAIMS)
        p = write(tmp_path / "input.csv", "\n".join([header] + rows) + "\n")
        got = outcome(load, p)
        assert got == outcome(oracle, p)
        assert got[3] == [RowIssue(11, message)]

    def test_nul_in_an_id_is_caught(self, tmp_path):
        rows = [f"V{i},{100 + i},C{i},1.0" for i in range(400)]
        rows[0] = "\x00V0,100,C0,1.0"  # the first byte of a chunk
        rows[63] = "É\x00,163,C63,1.0"  # the last row of a chunk
        rows[64] = "V64,164,C6\x004,1.0"
        rows[100] = "V100,200,C100,1\x00"  # a NUL in another column
        p = write(tmp_path / "c.csv", "\n".join([",".join(CLAIMS)] + rows) + "\n")
        with mock.patch.object(dataio, "CHUNK_ROWS", 64), mock.patch.object(
            dataio.csv, "reader", wraps=csv.reader
        ) as reader:
            claims, issues = load_claims(p)
        assert reader.called
        assert issues == [
            RowIssue(2, "NUL character in vehicle_id"),
            RowIssue(65, "NUL character in vehicle_id"),
            RowIssue(66, "NUL character in claim_id"),
            RowIssue(102, "unparseable amount '1\\x00'"),
        ]
        assert len(claims) == 396 and b"V1" in claims.vehicle_id.tolist()


def check_without_csv_reader(tmp_path, line_end, mark):
    """A perfbench-style claims file loads without ``csv.reader``, as the oracle loads it."""
    rows = ["vehicle_id,claim_date,claim_id,amount"]
    rows += [
        f"V{i // 3:06d},{1 + i % 900},C{i:07d},{(i % 97) * 1.25:.2f}"
        for i in range(9000)
    ]
    rows[77] = "V000001,17,C0000077,n/a"
    rows[3001] = "V001000,17,C0003001,-2.50"
    rows[5000] = "V001234,day-3,C0005000,1.00"
    rows[8999] = "V002999,17,,1.00"
    text = (line_end.join(rows) + line_end).encode()
    plain = tmp_path / "plain.csv"
    plain.write_bytes(text)
    want = outcome(rowwise_csv.load_claims, plain)  # the oracle reads no mark
    p = tmp_path / "c.csv"
    p.write_bytes(mark + text)
    with mock.patch.object(dataio.csv, "reader", side_effect=AssertionError):
        assert outcome(load_claims, p) == want
    assert len(want[3]) == 4


def clean_outcome(load, path):
    """:func:`outcome` of a load that must not go through ``csv.reader``."""
    with mock.patch.object(dataio.csv, "reader", side_effect=AssertionError):
        return outcome(load, path)


def clean_blocks(path, columns):
    """The line numbers of each block that ``dataio._clean`` cuts ``path`` into."""
    return [lines.tolist() for lines, _ in dataio._clean(path.read_bytes(), columns)]


class TestBlocks:
    """Clean files cut into many blocks, against the row-wise loaders."""

    def test_crlf_whose_cr_ends_a_block(self, tmp_path):
        lines = ["vehicle_id,sale_date"] + [f"V{i:05d},{100 + i}" for i in range(40)]
        data = "".join(line + "\r\n" for line in lines).encode()
        p = tmp_path / "s.csv"
        p.write_bytes(data)
        row = len(lines[1]) + 2
        block = 4 * row + len(lines[1]) + 1  # ends on the \r of its fifth row
        assert data[len(lines[0]) + 2 + block - 1] == ord("\r")
        with mock.patch.object(dataio, "BLOCK_BYTES", block):
            assert [len(b) for b in clean_blocks(p, SALES)] == [5] * 8
            assert clean_outcome(load_sales, p) == outcome(rowwise_csv.load_sales, p)

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_last_line_without_a_line_end(self, tmp_path, line_end):
        lines = [",".join(CLAIMS)]
        lines += [f"V{i % 9},{100 + i},C{i:03d},{i}.5" for i in range(150)]
        lines[-1] = "V7,249,C149,n/a"
        p = tmp_path / "c.csv"
        p.write_bytes(line_end.join(lines).encode())
        with mock.patch.object(dataio, "BLOCK_BYTES", 200):
            blocks = clean_blocks(p, CLAIMS)
            assert len(blocks) > 10 and blocks[-1][-1] == 151
            got = clean_outcome(load_claims, p)
        assert got == outcome(rowwise_csv.load_claims, p)
        assert got[3] == [RowIssue(151, "unparseable amount 'n/a'")]

    def test_rejected_rows_first_and_last_in_a_block(self, tmp_path):
        lines = ["vehicle_id,sale_date"] + [f"V{i:05d},{1000 + i}" for i in range(400)]
        for i in (0, 10, 19, 399):  # rows of the same width, so blocks of 10 rows
            lines[1 + i] = f"V{i:05d},{i:03d}x"
        p = tmp_path / "s.csv"
        p.write_bytes("".join(line + "\n" for line in lines).encode())
        with mock.patch.object(dataio, "BLOCK_BYTES", 10 * len(lines[1] + "\n")):
            assert clean_blocks(p, SALES)[1] == list(range(12, 22))
            got = clean_outcome(load_sales, p)
        assert got == outcome(rowwise_csv.load_sales, p)
        assert [issue.line for issue in got[3]] == [2, 12, 21, 401]

    @pytest.mark.parametrize(
        "load, oracle, repeat, wide, error",
        [
            (load_sales, rowwise_csv.load_sales, "V00003,1250", False,
             "duplicate sales rows for vehicle 'V00003' (lines 5 and 252)"),
            (load_claims, rowwise_csv.load_claims, "V1,1250,C00003,2.5", False,
             "duplicate claim id 'C00003' (lines 5 and 252)"),
            (load_claims, rowwise_csv.load_claims, "V1,1250,C00003,2.5", True,
             "duplicate claim id 'C00003' (lines 5 and 252)"),
            (load_claims, rowwise_csv.load_claims, "V1,1250,CLAIM-000003,2.5", True,
             "duplicate claim id 'CLAIM-000003' (lines 200 and 252)"),
        ],
        ids=["vehicle", "claim", "claim_beside_a_wide_id", "wide_claim"],
    )
    def test_repeat_across_blocks(self, tmp_path, load, oracle, repeat, wide, error):
        """A repeat whose rows lie in different blocks, with an issue between
        them; ``wide`` puts an id of 12 characters, too wide to pack, in one
        block on line 200."""
        if load is load_sales:
            columns, lines = SALES, [f"V{i:05d},{1000 + i}" for i in range(300)]
        else:
            columns = CLAIMS
            lines = [f"V{i % 9},{1000 + i},C{i:05d},{i}.25" for i in range(300)]
            if wide:
                lines[198] = "V0,1198,CLAIM-000003,1.0"
        lines[100] = lines[100].replace(",1100", ",11x0")
        lines[250] = repeat
        p = tmp_path / "input.csv"
        p.write_bytes("".join(f"{row}\n" for row in [",".join(columns)] + lines).encode())
        earlier = 200 if "CLAIM" in repeat else 5
        with mock.patch.object(dataio, "BLOCK_BYTES", 256):
            blocks = clean_blocks(p, columns)
            assert [earlier in b for b in blocks] != [252 in b for b in blocks]
            got = clean_outcome(load, p)
        assert got == outcome(oracle, p)
        assert got[:2] == ("LoadError", f"{p}: {error}")
        assert got[2] == [RowIssue(102, f"unparseable {columns[1]} '11x0'")]


@pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
@pytest.mark.parametrize(
    "kind, load, columns",
    [("sales", load_sales, SALES), ("claims", load_claims, CLAIMS)],
    ids=["sales", "claims"],
)
def test_each_block_cuts_each_column_once(tmp_path, tokenizer, kind, load, columns):
    """A load keeps each column of each block once: the repeat test reads
    the joined id column, so no block's ids are cut a second time."""
    line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
    path = paper_scale_file(tmp_path / f"{kind}.csv", kind, 1000, line_end)
    with mock.patch.object(dataio, "BLOCK_BYTES", 2048), mock.patch.object(
        dataio, "CHUNK_ROWS", 100
    ), mock.patch.object(dataio, "_kept", wraps=dataio._kept) as kept:
        blocks = len(clean_blocks(path, columns)) if tokenizer == "numpy" else 10
        with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
            if tokenizer == "numpy":
                reader.side_effect = AssertionError
            table, _ = load(path)
    assert reader.called == (tokenizer == "csv_reader")
    assert len(table) == 1000 and blocks > 1
    assert kept.call_count == len(columns) * blocks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(1, 17).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1)),
            st.integers(0, 17),
        )
    ),
)
@example([0.1], [(False, 10**15 - 1, 3), (False, 10**16 - 1, 3), (True, 10**16 - 1, 16)])
def test_one_pass_amount_cast_is_float(values, decimals):
    """Decimals as a clean file holds them are read as ``float()`` reads them."""
    texts = [form % v for v in values for form in ("%r", "%.17g", "%.2f")]
    for minus, digits, places in decimals:  # the point ``places`` digits from the end
        text = str(digits).rjust(places + 1, "0")
        texts.append("-" * minus + text[: len(text) - places] + "." + text[len(text) - places :])
    widths = np.array([len(t) for t in texts])
    ends = np.cumsum(widths + 1) - 1
    fields = dataio._Fields("".join(t + "\n" for t in texts).encode(), ends - widths, ends)
    amounts, ok = dataio._amounts(fields)
    assert ok.all()
    assert amounts.tobytes() == np.array([float(t) for t in texts]).tobytes()


def paper_scale_file(path, kind, n, line_end="\n"):
    """A perfbench-shaped sales or claims file of ``n`` rows; ``line_end``
    ends the header line only, so "\\r\\n" sends the file to ``csv.reader``."""
    rng = np.random.default_rng(5)
    if kind == "sales":
        header = "vehicle_id,sale_date"
        rows = [f"V{i:06d},{d}\n" for i, d in enumerate(rng.integers(1, 1117, size=n))]
    else:
        header = "vehicle_id,claim_date,claim_id,amount"
        owner = np.sort(rng.integers(0, 34_807, size=n))
        day = rng.integers(1, 2200, size=n)
        amount = 10.0 * rng.uniform(size=n) ** (-1.0 / 1.5)
        rows = [
            f"V{o:06d},{d},C{j:07d},{a:.2f}\n"
            for j, (o, d, a) in enumerate(zip(owner, day, amount))
        ]
    path.write_text(header + line_end + "".join(rows))
    return path


def traced_load(path, load, tokenizer):
    """The table ``load`` reads from ``path`` and the traced peak of the read,
    checking that ``csv.reader`` ran exactly where ``tokenizer`` says."""
    tracemalloc.start()
    try:
        with mock.patch.object(dataio.csv, "reader", wraps=csv.reader) as reader:
            if tokenizer == "numpy":
                reader.side_effect = AssertionError
            table, _ = load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reader.called == (tokenizer == "csv_reader")
    return table, peak


@pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
def test_load_claims_memory_peak(tmp_path, tokenizer):
    """Loading a paper-scale claims file (44k rows) stays well under 20 MB,
    as a clean file in blocks and, with one CRLF line end among LFs,
    through ``csv.reader``."""
    line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
    path = paper_scale_file(tmp_path / "claims.csv", "claims", 44_000, line_end)
    claims, peak = traced_load(path, load_claims, tokenizer)
    assert len(claims) == 44_000
    assert peak < 20e6


@pytest.mark.parametrize("tokenizer", ["numpy", "csv_reader"])
def test_load_sales_memory_peak(tmp_path, tokenizer):
    """The sales twin of :func:`test_load_claims_memory_peak`."""
    line_end = "\r\n" if tokenizer == "csv_reader" else "\n"
    path = paper_scale_file(tmp_path / "sales.csv", "sales", 44_000, line_end)
    sales, peak = traced_load(path, load_sales, tokenizer)
    assert len(sales) == 44_000
    assert peak < 20e6


@pytest.mark.parametrize("n", [44_000, 176_000])
@pytest.mark.parametrize(
    "kind, load", [("sales", load_sales), ("claims", load_claims)], ids=["sales", "claims"]
)
def test_clean_load_holds_its_file_its_columns_and_one_block(tmp_path, kind, load, n):
    """A clean file's load holds the file, its columns, one joined column
    beside the blocks' (the widest bounds it), the repeat test's packed
    keys and the kept rows' line numbers (16 bytes a row) and one block's
    work, however long the file.

    With the repeat test run once on the joined id column, the peak over
    the file, the columns, the widest column and the 16 bytes a row
    measured -1.13 to 1.21 MB (44 000 and 176 000 rows, both loaders; a
    claims load also holds its claim ids, 8 bytes a row, until it
    returns).  With each block's ids packed and held beside their lines,
    it was 0.31 to 1.22 MB.  With ids held as str (28 bytes a 7-character
    id), the widest column was the ids, which absorbed those 16 bytes, and
    this bound was 1.1 to 4.4 MB higher.  For 176 000 claims the peak was
    1.61 MB more when the repeat test sorted a copy of the packed claim ids
    and 3.54 MB more when every column was joined at once; splitting the
    whole file at once took 13.6 MB for the 44 000-row claims file.
    """
    path = paper_scale_file(tmp_path / f"{kind}.csv", kind, n)
    table, peak = traced_load(path, load, "numpy")
    columns = [c.nbytes for c in vars(table).values()]
    assert len(table) == n
    held = path.stat().st_size + sum(columns) + max(columns) + 16 * n
    assert peak <= held + 1.5e6


@pytest.mark.parametrize("kind, load", [("sales", load_sales), ("claims", load_claims)])
def test_loaded_ids_take_one_byte_per_ascii_character(tmp_path, kind, load):
    """A paper-scale file's 7-character ASCII ids load as a 7-byte column."""
    path = paper_scale_file(tmp_path / f"{kind}.csv", kind, 44_000)
    table, _ = load(path)
    assert table.vehicle_id.dtype == np.dtype("S7")
    assert table.vehicle_id.nbytes == len(table) * 7
