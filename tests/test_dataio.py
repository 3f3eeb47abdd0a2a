import csv
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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

    def test_id_holding_a_nul_is_an_issue(self, tmp_path):
        rows = ["vehicle_id,sale_date"] + [f"V{i},{100 + i}" for i in range(200)]
        rows[50:50] = ["N\x00,7", "N,8", " \x00 ,9"]
        p = write(tmp_path / "s.csv", "\n".join(rows) + "\n")
        sales, issues = load_sales(p)
        assert issues == [
            RowIssue(51, "NUL character in vehicle_id"),
            RowIssue(53, "NUL character in vehicle_id"),
        ]
        assert len(sales) == 201 and "N" in sales.vehicle_id.tolist()

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
        assert sales.vehicle_id.dtype == np.dtype("<U4")
        assert peak < 5e6  # a column 100k characters wide would take 80 MB

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
        assert claims.vehicle_id.dtype == np.dtype("<U1")
        assert peak < 5e6  # a claim id column 100k characters wide: 80 MB

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
        assert set(records.vehicle_id.tolist()) == {"V"}
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
# ISO dates, non-finite and negative amounts, blanks, non-ASCII, NUL).
IDS = ["A", "B", " C ", "É9", "车", "x,y", "p\nq", "r\r\ns", "N\x00", "N", "", "  "]
DAYS = [
    "17", "+7", "1_000", " 12 ", "-3", "2001-01-31", "20010131", "٣",
    "", "x", "1\n2", "12.0", "99999999999999999999", "7" * 5000,
]
AMOUNTS = [
    "1.5", "0", "-0.0", "1e-300", " 2.5 ", "1_000.5", "nan", "inf", "-inf",
    "-5", "n/a", "", "1,5",
]
SALES = ("vehicle_id", "sale_date")
CLAIMS = ("vehicle_id", "claim_date", "claim_id", "amount")


@st.composite
def csv_files(draw, columns):
    """(header, rows, line end) of a generated sales or claims file.

    Plain rows carry unique ids, so issues stay inside the 1% budget
    unless the drawn odd rows are many; the odd rows draw their fields from
    the lists above and may be short, long, blank or repeat an earlier id.
    """
    pools = {
        "vehicle_id": IDS,
        "sale_date": DAYS,
        "claim_date": DAYS,
        "claim_id": IDS + ["K0", "K1"],
        "amount": AMOUNTS,
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
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(columns)))
    if draw(st.booleans()):
        header.append("note")
    last = {name: i for i, name in enumerate(header)}

    def layout(values):
        return [
            values.get(name, "zz") if last[name] == i else "zz"
            for i, name in enumerate(header)
        ]

    n_plain = draw(st.sampled_from([0, 3, 150, 450]))
    rows = [layout({name: f(i) for name, f in plain.items()}) for i in range(n_plain)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["row", "row", "short", "long", "blank"]))
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
    """An id holding a NUL or a day past int64.

    The oracle stores such an id truncated at the NUL and fails on such a
    day with ``OverflowError``; the loaders make each a row issue, which
    the ``TestLoadSales`` and ``TestLoadClaims`` cases check.
    """
    if "\x00" in value:
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
        @given(csv_files(columns), st.sampled_from([1, 4, 64, dataio.CHUNK_ROWS]))
        def check(file, chunk_rows):
            header, rows, line_end = file
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle, lineterminator=line_end)
                writer.writerow(header)
                writer.writerows(rows)
            with mock.patch.object(dataio, "CHUNK_ROWS", chunk_rows):
                if any(map(beyond_oracle, (v for row in rows for v in row))):
                    assert outcome(load, path)[0] not in ("OverflowError", "ValueError")
                else:
                    assert outcome(load, path) == outcome(oracle, path)

        check()

    def test_perfbench_style_file(self, tmp_path):
        rows = ["vehicle_id,claim_date,claim_id,amount"]
        rows += [
            f"V{i // 3:06d},{1 + i % 900},C{i:07d},{(i % 97) * 1.25:.2f}"
            for i in range(9000)
        ]
        rows[77] = "V000001,17,C0000077,n/a"
        rows[5000] = "V001234,day-3,C0005000,1.00"
        p = write(tmp_path / "c.csv", "\n".join(rows) + "\n")
        assert outcome(load_claims, p) == outcome(rowwise_csv.load_claims, p)


def test_load_claims_memory_peak(tmp_path):
    """Loading a paper-scale claims file (44k rows) stays well under 20 MB."""
    rng = np.random.default_rng(5)
    n = 44_000
    owner = np.sort(rng.integers(0, 34_807, size=n))
    day = rng.integers(1, 2200, size=n)
    amount = 10.0 * rng.uniform(size=n) ** (-1.0 / 1.5)
    path = tmp_path / "claims.csv"
    path.write_text(
        "vehicle_id,claim_date,claim_id,amount\n"
        + "".join(
            f"V{o:06d},{d},C{j:07d},{a:.2f}\n"
            for j, (o, d, a) in enumerate(zip(owner, day, amount))
        )
    )
    tracemalloc.start()
    try:
        claims, _ = load_claims(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(claims) == n
    assert peak < 20e6
